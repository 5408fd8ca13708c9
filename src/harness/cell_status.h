// Per-cell outcome taxonomy shared by the hardened sweep, the fault
// campaign, and the process-isolation supervisor.
//
// The first three statuses are produced *inside* a cell (in-process or in
// a worker): the cell ran and reported a structured outcome. The last
// three exist only under the supervisor: the worker process itself failed
// — died on a signal, blew its wall-clock deadline, or replied with bytes
// that do not decode as a protocol frame — and the parent reaped it and
// recorded the containment diagnostics here instead of dying with it.
#pragma once

#include <cstdint>
#include <string>

#include "support/json.h"

namespace spt::harness {

/// Outcome of one sweep/campaign cell. A non-ok cell is reported, not
/// fatal: the rest of the run still completes.
enum class CellStatus {
  kOk,
  kBudgetExceeded,  // support::SptBudgetExceeded (per-cell budgets)
  kInternalError,   // support::SptInternalError / any other exception
  kCrashed,         // worker died on a signal (SIGSEGV, SIGABRT, ...)
  kTimeout,         // worker exceeded the wall-clock deadline or RLIMIT_CPU
  kProtocolError,   // worker reply was missing, truncated, or corrupt
};

inline std::string toString(CellStatus status) {
  switch (status) {
    case CellStatus::kOk:
      return "ok";
    case CellStatus::kBudgetExceeded:
      return "budget_exceeded";
    case CellStatus::kInternalError:
      return "internal_error";
    case CellStatus::kCrashed:
      return "crashed";
    case CellStatus::kTimeout:
      return "timeout";
    case CellStatus::kProtocolError:
      return "protocol_error";
  }
  return "unknown";
}

inline bool cellStatusFromString(const std::string& s, CellStatus& out) {
  if (s == "ok") {
    out = CellStatus::kOk;
  } else if (s == "budget_exceeded") {
    out = CellStatus::kBudgetExceeded;
  } else if (s == "internal_error") {
    out = CellStatus::kInternalError;
  } else if (s == "crashed") {
    out = CellStatus::kCrashed;
  } else if (s == "timeout") {
    out = CellStatus::kTimeout;
  } else if (s == "protocol_error") {
    out = CellStatus::kProtocolError;
  } else {
    return false;
  }
  return true;
}

/// Whether a status is a *transport* failure (the worker process failed,
/// not the cell's computation) — the statuses the supervisor's retry
/// policy treats as transient.
inline bool isTransportFailure(CellStatus status) {
  return status == CellStatus::kCrashed || status == CellStatus::kTimeout ||
         status == CellStatus::kProtocolError;
}

/// Containment diagnostics for one supervised cell, filled by the parent
/// from the final attempt's reaping. `attempts == 0` means the cell never
/// went through the supervisor (in-process path); host_-prefixed fields
/// are host-dependent and excluded from CI determinism diffs.
struct WorkerDiagnostics {
  std::uint32_t attempts = 0;  // total worker attempts (retries + 1)
  int exit_code = -1;          // valid when >= 0 (worker exited normally)
  int term_signal = 0;         // nonzero when the worker died on a signal
  bool timed_out = false;      // killed by the parent watchdog
  double host_user_seconds = 0.0;  // rusage of the final attempt
  double host_sys_seconds = 0.0;
  /// Peak resident set of the final attempt, always in **kilobytes**: the
  /// supervisor normalizes macOS's bytes-valued ru_maxrss before storing.
  std::int64_t host_max_rss_kb = 0;
  /// Hex dump (truncated) of an undecodable reply's first bytes, so a
  /// protocol error's post-mortem starts from what actually arrived.
  std::string partial_reply;
};

/// Sweep-level aggregate of the per-cell worker rusage, emitted as the
/// `resource` object in supervised sweep/campaign JSON. Cell counts and
/// attempts are deterministic across worker models; the host_-prefixed
/// fields are host-dependent and filtered from CI determinism diffs like
/// their per-cell counterparts.
struct ResourceReport {
  std::size_t supervised_cells = 0;  // cells that ran under the supervisor
  std::uint64_t attempts = 0;        // total worker attempts across them
  double host_user_seconds = 0.0;    // summed final-attempt user CPU
  double host_sys_seconds = 0.0;     // summed final-attempt system CPU
  std::int64_t host_max_rss_kb = 0;  // max over per-cell peak RSS (KB)

  void add(const WorkerDiagnostics& w) {
    if (w.attempts == 0) return;  // in-process cell: nothing to aggregate
    ++supervised_cells;
    attempts += w.attempts;
    host_user_seconds += w.host_user_seconds;
    host_sys_seconds += w.host_sys_seconds;
    if (w.host_max_rss_kb > host_max_rss_kb) {
      host_max_rss_kb = w.host_max_rss_kb;
    }
  }
};

/// The `worker` member of a sweep row or campaign cell; absent for a cell
/// that never went through a worker, so in-process JSON is unchanged.
inline void writeWorkerJson(support::JsonWriter& w, const WorkerDiagnostics& d) {
  if (d.attempts == 0) return;
  w.key("worker").beginObject();
  w.member("attempts", static_cast<std::uint64_t>(d.attempts));
  w.member("exit_code", d.exit_code);
  w.member("term_signal", d.term_signal);
  w.member("timed_out", d.timed_out);
  w.member("host_user_seconds", d.host_user_seconds);
  w.member("host_sys_seconds", d.host_sys_seconds);
  w.member("host_max_rss_kb", static_cast<std::int64_t>(d.host_max_rss_kb));
  if (!d.partial_reply.empty()) w.member("partial_reply", d.partial_reply);
  w.endObject();
}

/// The `resource` member: sweep and campaign documents (when any cell was
/// supervised) and the sweep service's status document.
inline void writeResourceJson(support::JsonWriter& w, const ResourceReport& r) {
  w.key("resource").beginObject();
  w.member("supervised_cells", static_cast<std::uint64_t>(r.supervised_cells));
  w.member("attempts", r.attempts);
  w.member("host_user_seconds", r.host_user_seconds);
  w.member("host_sys_seconds", r.host_sys_seconds);
  w.member("host_max_rss_kb", r.host_max_rss_kb);
  w.endObject();
}

}  // namespace spt::harness
