// Deterministic chaos plan for the process-isolation supervisor.
//
// Mirrors support::FaultPlan one layer up: where FaultPlan corrupts the
// *simulated* machine's speculative structures, ChaosPlan makes designated
// supervisor *worker processes* misbehave on demand — crash, abort, hang,
// reply with garbage, truncate the reply mid-frame, or exit without
// replying. Every containment path of harness::Supervisor (watchdog,
// signal reaping, protocol validation, retry/backoff) is therefore
// testable and exercised in CI with bit-reproducible outcomes: a
// directive names a cell index and fires on a deterministic set of
// attempts, never on a clock or a random draw.
//
// The plan targets **(cell, attempt)**, not worker processes: the
// dispatching parent resolves it for each attempt it sends and the
// request frame carries the action to whichever pooled worker takes the
// cell. Sabotage therefore follows the cell wherever it runs, and a
// worker that executes a sabotaged cell dies (and is respawned) without
// disturbing the cells its siblings run.
//
// The plan is inert unless a directive matches, and chaos only ever runs
// inside a forked worker — the in-process path (no --isolate) refuses it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace spt::support {

/// What a chaos-designated worker does instead of (or after) its real work.
enum class ChaosAction {
  kNone,
  kCrash,    // raise SIGSEGV before producing the cell result
  kAbort,    // std::abort() (SIGABRT)
  kHang,     // sleep forever; only the parent watchdog can end the cell
  kGarbage,  // reply with seeded garbage bytes, then block until killed
  kPartial,  // reply with a truncated prefix of a valid frame
  kExit,     // _exit(3) without writing any reply
};

std::string toString(ChaosAction action);

struct ChaosPlan {
  /// One sabotage order: cell `cell` performs `action` on every attempt
  /// `<= until_attempt` (1-based). The default affects all attempts; a
  /// spec like `4:crash@1` fails only the first attempt, so the retry
  /// succeeds — which is how the retry counters are tested.
  struct Directive {
    std::size_t cell = 0;
    ChaosAction action = ChaosAction::kNone;
    std::uint32_t until_attempt = ~std::uint32_t{0};
  };

  std::vector<Directive> directives;

  bool enabled() const { return !directives.empty(); }

  /// The action cell `cell` performs on (1-based) `attempt`; kNone when no
  /// directive matches. The last matching directive wins.
  ChaosAction actionFor(std::size_t cell, std::uint32_t attempt) const;

  /// Parses a comma-separated spec, `CELL:ACTION[@ATTEMPTS]` per entry,
  /// e.g. "2:crash,5:hang,7:garbage@1" (actions: crash, abort, hang,
  /// garbage, partial, exit). Returns std::nullopt and fills `error` on a
  /// malformed spec.
  static std::optional<ChaosPlan> parse(const std::string& spec,
                                        std::string* error = nullptr);

  /// The canonical spec string (round-trips through parse()).
  std::string toSpec() const;
};

/// Client-side sabotage for the sweep service (docs/ROBUSTNESS.md "Sweep
/// service"). Where ChaosPlan makes *workers* misbehave, ClientChaosPlan
/// makes a `sptc submit` client misbehave against the service — the
/// service-resilience tests and the CI soak drive sabotaged clients
/// alongside healthy ones and assert the healthy clients' results are
/// byte-identical to a non-serve run.
enum class ClientChaosAction {
  kNone,
  kDisconnect,  // close the socket after N result frames
  kGarbage,     // write garbage bytes instead of a frame, then close
  kSlowReader,  // stall before every read, forcing server-side buffering
};

std::string toString(ClientChaosAction action);

struct ClientChaosPlan {
  ClientChaosAction action = ClientChaosAction::kNone;
  /// For disconnect/garbage: result frames to consume before acting
  /// (0 = immediately after the request is sent).
  std::uint64_t after_results = 0;
  /// For slow-reader: stall per read, in milliseconds.
  std::uint64_t delay_ms = 20;

  bool enabled() const { return action != ClientChaosAction::kNone; }

  /// Parses `ACTION[@AFTER]` with ACTION one of disconnect | garbage |
  /// slow-reader (AFTER = result frames before acting; for slow-reader
  /// the suffix sets the per-read delay in ms instead).
  static std::optional<ClientChaosPlan> parse(const std::string& spec,
                                              std::string* error = nullptr);

  /// The canonical spec string (round-trips through parse()).
  std::string toSpec() const;
};

/// Scripted self-destruction for the sweep *service* process. Where
/// ChaosPlan sabotages workers and ClientChaosPlan sabotages clients,
/// ServiceCrashPlan makes `sptc serve` SIGKILL itself at a deterministic
/// point in its own lifecycle — the kill/restart recovery campaign drives
/// a journaled service through every crash point and asserts the final
/// results are byte-identical to an uninterrupted run. Points fire on
/// event counts, never timers, so every run crashes at the same state.
enum class ServiceCrashPoint {
  kNone,
  kAfterAdmit,   // after the admit journal record is fsync'd, before any
                 // cell dispatch or reply
  kAfterSettle,  // after the Nth cell settles (checkpoint + journal
                 // synced) — remaining cells and in-flight workers die
                 // with the process
  kMidFlush,     // after writing only the first `bytes` bytes of a reply
                 // flush to an admitted client
  kMidAppend,    // after appending only the first `bytes` bytes of a
                 // journal record (no newline) — leaves a torn tail
};

std::string toString(ServiceCrashPoint point);

struct ServiceCrashPlan {
  ServiceCrashPoint point = ServiceCrashPoint::kNone;
  /// The 1-based occurrence of the point's event that triggers the crash.
  std::uint64_t at = 1;
  /// For kMidFlush / kMidAppend: bytes written before dying.
  std::uint64_t bytes = 0;

  bool enabled() const { return point != ServiceCrashPoint::kNone; }

  /// Parses `POINT[@AT][:BYTES]` with POINT one of admit | settle | flush
  /// | append, e.g. "admit", "settle@2", "flush@1:7", "append:16".
  static std::optional<ServiceCrashPlan> parse(const std::string& spec,
                                               std::string* error = nullptr);

  /// The canonical spec string (round-trips through parse()).
  std::string toSpec() const;
};

}  // namespace spt::support
