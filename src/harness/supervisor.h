// Process-isolated execution supervisor: the warm worker pool.
//
// The hardened sweep (--quarantine) contains cells that *throw*; this layer
// contains cells that take the whole process down. `jobs` workers are
// forked once per run and live for the whole sweep. The parent sends
// each cell to an idle worker as one request frame — versioned,
// length-prefixed, FNV-1a-checksummed (the trace_io v2 approach) — and
// each worker loops `recv request → produce → reply`, re-arming its
// per-cell RLIMIT_CPU window before every cell.
//
// The parent is a single-threaded poll() event loop — fork() never races
// other threads — that:
//
//  * keeps up to `jobs` workers busy, placing results by submission
//    index so ordering guarantees match ParallelSweep;
//  * runs a watchdog enforcing a per-cell **wall-clock** deadline
//    (complementary to the simulated record/cycle budgets, which cannot
//    catch a hang in the host code itself) and SIGKILLs overdue workers;
//  * optionally applies RLIMIT_AS / RLIMIT_CPU to workers, so a runaway
//    allocation or CPU spin is bounded by the kernel even if the watchdog
//    is off (workers re-arm RLIMIT_CPU per cell, since the limit is
//    cumulative over the process);
//  * reaps every dead worker with wait4(), recording exit code,
//    terminating signal, and rusage; a worker that segfaults, aborts,
//    OOMs, hangs, or replies with bytes that fail frame validation lands
//    in CellStatus::kCrashed / kTimeout / kProtocolError with diagnostics
//    (including a hex dump of a corrupt reply's first bytes) while every
//    other cell keeps running — only the dead worker is respawned and the
//    rest of the pool keeps draining the queue;
//  * retries transport failures (crash/timeout/protocol) up to `retries`
//    extra attempts with exponential backoff and deterministic seeded
//    jitter — a pure function of (backoff_seed, cell, attempt), so test
//    and CI runs are reproducible;
//  * honors support::ChaosPlan, the deterministic sabotage hook that makes
//    designated (cell, attempt) pairs crash/hang/garble on demand — the
//    parent resolves the plan per attempt and the request frame carries
//    the action to the worker.
//
// On platforms without fork() the supervisor reports
// isolationSupported() == false and callers degrade to the in-process
// path (the default without --isolate).
#pragma once

#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/cell_status.h"
#include "support/chaos.h"
#include "support/wire.h"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#include <signal.h>
#endif

struct pollfd;

namespace spt::harness {

struct SupervisorOptions {
  /// Master switch consumed by runSweep / runFaultCampaign / runPerf:
  /// true runs cells on the warm worker pool, false keeps the in-process
  /// path.
  bool isolate = false;
  /// Wall-clock deadline per worker *attempt*, enforced by the parent
  /// watchdog (SIGKILL past it). 0 = no deadline.
  double cell_timeout_seconds = 0.0;
  /// Extra attempts for transport failures (crashed / timeout / protocol
  /// error). Cell-level outcomes (ok, budget_exceeded, internal_error)
  /// are deterministic and never retried.
  std::uint32_t retries = 0;
  /// Retry backoff: base * 2^min(attempt-2, 62) * (1 + jitter), jitter in
  /// [0,1) drawn from Rng(deriveSeed(deriveSeed(backoff_seed, cell),
  /// attempt)) — cell and attempt are mixed as separate words, so no two
  /// (cell, attempt) pairs share a jitter stream.
  double backoff_base_seconds = 0.25;
  std::uint64_t backoff_seed = 0xb0ff;
  /// Worker resource limits (0 = inherit). RLIMIT_AS bounds address space
  /// (an OOM becomes a contained bad_alloc or crash); RLIMIT_CPU bounds
  /// CPU seconds per cell (SIGXCPU, reported as kTimeout) — workers re-arm
  /// it before each cell relative to CPU already spent.
  std::uint64_t rlimit_as_bytes = 0;
  std::uint64_t rlimit_cpu_seconds = 0;
  /// Max workers in flight. 0 = support::ThreadPool::defaultWorkerCount().
  std::size_t jobs = 0;
  /// Deterministic sabotage for testing the containment paths.
  support::ChaosPlan chaos;
  /// Cooperative graceful-interrupt flag, set from a SIGINT/SIGTERM
  /// handler, checked at least every 200 ms — also while retries back
  /// off. When non-null and nonzero the supervisor stops dispatching:
  /// in-flight workers finish (and checkpoint) normally, every
  /// undispatched cell settles as kInternalError with an "interrupted"
  /// diagnostic, and run() returns — so an operator ^C never tears a
  /// checkpoint line and `--resume` re-runs exactly the unfinished cells.
  const volatile std::sig_atomic_t* stop = nullptr;
};

/// The deterministic backoff delay before retry `attempt` of `cell`
/// (2-based: the delay preceding the second attempt is
/// backoffSeconds(options, cell, 2); attempt 1 needs none).
double backoffSeconds(const SupervisorOptions& options, std::size_t cell,
                      std::uint32_t attempt);

class Supervisor {
 public:
  /// Transport-level outcome of one cell after retries resolved. kOk means
  /// a valid frame arrived and `payload` holds the worker's bytes (the
  /// cell's own status, possibly non-ok, is inside the payload);
  /// kInternalError means the worker itself reported a structured failure;
  /// other statuses are containment outcomes with empty payload.
  struct Outcome {
    CellStatus status = CellStatus::kOk;
    std::string diagnostic;  // transport diagnostic; empty when kOk
    WorkerDiagnostics worker;
    std::string payload;
  };

  /// Worker-process accounting for one run: `workers_spawned` counts the
  /// initial pool fill plus respawns and `workers_respawned` counts
  /// replacements of dead workers — the chaos tests assert exactly one
  /// respawn per sabotaged worker.
  struct PoolStats {
    std::size_t workers_spawned = 0;
    std::size_t workers_respawned = 0;
  };

  /// Runs in a *worker* (after fork): produces cell `i`'s serialized
  /// result. Exceptions escaping the producer are caught in the worker and
  /// reported as a structured kInternalError outcome. One worker process
  /// calls this for many cells in sequence.
  using Producer = std::function<std::string(std::size_t)>;

  /// Runs in the *parent* as each cell settles (after retries), in
  /// completion order — checkpoint appending hooks in here.
  using OnSettled = std::function<void(std::size_t, const Outcome&)>;

  explicit Supervisor(SupervisorOptions options);

  /// True when this platform can fork worker processes.
  static bool isolationSupported();

  /// Runs cells 0..n-1 on a pool of min(jobs, n) workers; outcomes land by
  /// cell index. Must only be called when isolationSupported(). `stats`,
  /// when non-null, receives the worker-process accounting for this run.
  std::vector<Outcome> run(std::size_t n, const Producer& produce,
                           const OnSettled& on_settled = nullptr,
                           PoolStats* stats = nullptr) const;

  const SupervisorOptions& options() const { return options_; }

 private:
  SupervisorOptions options_;
};

/// The warm worker pool and the one dispatch loop over it. Supervisor::run
/// drives it for one batch as a single owner; the `sptc serve` sweep
/// service registers one owner per client. The pool owns everything both
/// need: worker processes, pipes, watchdog deadlines, death
/// classification and respawn, plus the queue of owners' cells
/// `(owner, cell, attempt, not_before)`, round-robin dispatch, chaos
/// resolution per attempt, the retry decision and backoff (shouldRetry,
/// backoffSeconds), cancellation, and the bounded wait. Callers keep only
/// what is theirs: result aggregation, sockets, admission, checkpoints.
///
/// Only meaningful where Supervisor::isolationSupported(); construction
/// throws elsewhere. Callers should hold a ScopedIgnoreSigpipe around
/// dispatch, as Supervisor::run does.
class WorkerPool {
 public:
  /// Runs in a pooled worker for each request: spec bytes in, serialized
  /// result out.
  using Producer = std::function<std::string(const std::string&)>;

  /// One party whose cells share the pool. Cells are the owner's own
  /// indices; the pool never interprets them.
  struct Owner {
    /// The spec bytes a worker's Producer receives for `cell`.
    std::function<std::string(std::size_t)> spec;
    /// Sabotage keyed by the owner's (cell, attempt); the pool resolves
    /// it per attempt and the request frame carries the action.
    support::ChaosPlan chaos;
    /// Runs in the parent once per cell, after retries resolved, in
    /// completion order. It may add or remove owners.
    std::function<void(std::size_t, Supervisor::Outcome)> settle;
  };

  /// Forks `workers` processes (fewer if a spawn fails; the loop keeps
  /// topping up). Of `options`, the pool reads the watchdog, retry,
  /// backoff and rlimit knobs; chaos comes from each Owner and the stop
  /// flag is the caller's. `child_setup` runs in each freshly forked
  /// worker, after the pool closed sibling pipe ends and before the
  /// request loop: a service closes its sockets there so workers never
  /// hold them open.
  WorkerPool(SupervisorOptions options, Producer produce, std::size_t workers,
             std::function<void()> child_setup = nullptr);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Registers owner `id`; the round robin visits owners in id order.
  void addOwner(std::uint64_t id, Owner owner);
  /// Forgets `id`: its queued cells are dropped and results of its
  /// in-flight cells are discarded. Unknown ids are ignored.
  void removeOwner(std::uint64_t id);
  /// Queues `cell` of `owner` for its first attempt.
  void enqueue(std::uint64_t owner, std::size_t cell);
  /// Removes the owner's queued cells — fresh and backing off — and
  /// returns them in index order for the caller to settle (interrupt,
  /// drain, deadline). In-flight cells run on.
  std::vector<std::size_t> cancel(std::uint64_t owner);
  /// Interrupt or drain: no more dispatch, retries, or respawns. Queued
  /// cells stay queued until cancelled.
  void stop();

  /// One pass of the loop. Tops the pool back up — when it stays empty,
  /// every queued cell settles as kCrashed — moves due retries to the
  /// front of their owner's queue, and dispatches to idle workers taking
  /// at most one cell per owner per rotation. Then waits for worker
  /// replies and the caller's `extra` fds (their revents are filled in)
  /// until the nearest watchdog deadline, retry, or `wake`, and at most
  /// 200 ms, so a stop flag is seen promptly. Last, settles finished
  /// attempts or queues their retries.
  void step(std::vector<pollfd>* extra = nullptr,
            std::chrono::steady_clock::time_point wake =
                std::chrono::steady_clock::time_point::max());

  /// Queued cells (fresh and backing off), over all owners or one.
  std::size_t queued() const;
  std::size_t queued(std::uint64_t owner) const;
  /// The owner's cells on workers now, and its dispatches so far.
  std::size_t running(std::uint64_t owner) const;
  std::uint64_t dispatched(std::uint64_t owner) const;

  std::size_t workerCount() const;
  std::size_t idleWorkers() const;
  std::size_t busyWorkers() const;
  std::size_t workersSpawned() const;
  std::size_t workersRespawned() const;

  /// EOFs the request pipes (idle workers _exit(0) on their own) and
  /// reaps every worker. Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
/// Scoped SIG_IGN for SIGPIPE: the pool parent writes request frames to
/// pipes whose worker may just have died, the service writes to clients
/// that may vanish, and the submit client writes to a service that may
/// have exited — each write must fail with EPIPE, not kill the process.
/// Restores the previous disposition on scope exit.
class ScopedIgnoreSigpipe {
 public:
  ScopedIgnoreSigpipe() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ok_ = ::sigaction(SIGPIPE, &ignore, &saved_) == 0;
  }
  ~ScopedIgnoreSigpipe() {
    if (ok_) ::sigaction(SIGPIPE, &saved_, nullptr);
  }
  ScopedIgnoreSigpipe(const ScopedIgnoreSigpipe&) = delete;
  ScopedIgnoreSigpipe& operator=(const ScopedIgnoreSigpipe&) = delete;

 private:
  struct sigaction saved_ {};
  bool ok_ = false;
};
#endif

// ---- SPTW frame protocol (exposed for tests and the worker side) ----------
//
// A frame is support::wire's discipline under magic "SPTW":
//   magic | u32 version | u8 kind | u64 length | bytes
//   | u64 FNV-1a(kind, length, bytes)
//
// There is one version with three kinds: the parent's request and the
// worker's reply or structured error. Frames only pass between a parent
// and the workers it forked from the same binary, so the decoder accepts
// exactly this version and rejects any other kind.

inline constexpr std::uint32_t kSupervisorFrameVersion = 4;

inline constexpr std::uint8_t kFrameKindRequest = 0;  // parent -> worker
inline constexpr std::uint8_t kFrameKindReply = 1;    // worker -> parent
inline constexpr std::uint8_t kFrameKindError = 2;    // worker -> parent

inline constexpr support::wire::FrameFormat kSupervisorFrame = {
    {'S', 'P', 'T', 'W'}, kSupervisorFrameVersion, kFrameKindError,
    "a request, reply, or error"};

using support::wire::FrameScan;

inline std::string encodeSupervisorFrame(std::uint8_t kind,
                                         const std::string& payload) {
  return support::wire::encodeFrame(kSupervisorFrame, kind, payload);
}
inline bool decodeSupervisorFrame(const std::string& bytes,
                                  std::uint8_t* kind, std::string* payload,
                                  std::string* error) {
  return support::wire::decodeFrame(kSupervisorFrame, bytes, kind, payload,
                                    error);
}
inline FrameScan scanSupervisorFrame(const std::string& buf,
                                     std::size_t* frame_bytes,
                                     std::string* error) {
  return support::wire::scanFrame(kSupervisorFrame, buf, frame_bytes, error);
}

/// Request payload: an opaque token echoed back in the reply's
/// PoolReplyHeader.id, the (1-based) attempt, the chaos action the
/// worker must perform (resolved by the dispatcher), and the spec bytes
/// the worker's Producer consumes. decodePoolRequest rejects an
/// out-of-range action byte.
std::string encodePoolRequest(std::uint64_t id, std::uint32_t attempt,
                              support::ChaosAction chaos,
                              const std::string& spec);
bool decodePoolRequest(const std::string& payload, std::uint64_t* id,
                       std::uint32_t* attempt, support::ChaosAction* chaos,
                       std::string* spec);

/// Reply payload prefix: the token being answered (echoed back so the
/// parent can detect a desynchronized stream) plus the worker's
/// self-reported per-cell rusage (getrusage deltas; max RSS normalized to
/// KB). The producer's bytes (or the error text) follow as `inner`.
struct PoolReplyHeader {
  std::uint64_t id = 0;
  double user_seconds = 0.0;
  double sys_seconds = 0.0;
  std::int64_t max_rss_kb = 0;
};
std::string encodePoolReply(const PoolReplyHeader& header,
                            const std::string& inner);
bool decodePoolReply(const std::string& payload, PoolReplyHeader* header,
                     std::string* inner);

}  // namespace spt::harness
