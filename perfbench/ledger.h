// Measurement primitives of the repository benchmark (perfbench/README.md):
// rusage deltas, percentiles that carry their sample counts, an in-memory
// span recorder with per-layer self time, and the service status parser.
//
// Nothing here knows about the SPT pipeline; cell.h composes these around
// the calls into each module.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Wall clock and getrusage() counters at one instant (or, after
/// subtraction, over an interval). Times are milliseconds.
struct Usage {
  double wall_ms = 0.0;
  double user_ms = 0.0;
  double sys_ms = 0.0;
  std::int64_t minflt = 0;

  double cpuMs() const { return user_ms + sys_ms; }
};

Usage operator-(const Usage& end, const Usage& start);

/// Milliseconds on the steady clock since the process's first call.
double nowMs();

/// getrusage(RUSAGE_THREAD) for the calling thread.
Usage threadUsage();
/// getrusage(RUSAGE_SELF): every thread of the process, live or joined.
Usage processUsage();

/// A nearest-rank percentile with the counts needed to judge it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // how many values it was taken over
  std::size_t beyond = 0;   // how many of them rank strictly above it
  /// The percentile is reported only with at least this many samples
  /// beyond it; fewer makes it the maximum of a handful of values.
  static constexpr std::size_t kMinBeyond = 10;
  bool trustworthy() const { return samples > 0 && beyond >= kMinBeyond; }
};

/// Nearest-rank percentile `p` in (0, 100] of `values` (empty -> zeros).
Percentile percentile(std::vector<double> values, double p);

/// Median of `values` (0 for an empty vector); the mean of the two middle
/// values for an even count.
double median(std::vector<double> values);

// ---- Spans ----------------------------------------------------------------

/// One traced call: [start_ms, end_ms] on the steady clock, the span open
/// on the same thread when it began (its cause), the cell or request it
/// belongs to, and the calling thread's rusage delta over it.
struct Span {
  std::string name;  // "<layer>.<call>", e.g. "interp.trace"
  double start_ms = 0.0;
  double end_ms = 0.0;
  int id = -1;
  int parent = -1;   // -1 for a root span
  std::string cell;  // cell or request identifier; "" outside cells
  int tid = 0;       // small per-process thread number
  Usage usage;       // thread rusage delta (wall_ms == end - start)

  double durationMs() const { return end_ms - start_ms; }
  /// The layer is the name up to the first '.'.
  std::string layer() const;
};

/// Collects spans in memory; written out once, at exit. Thread-safe. A
/// disabled tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opens on construction, closes on destruction. `parent`
  /// defaults to the innermost span open on this thread; pass one
  /// explicitly when the cause lives on another thread (a sweep span and
  /// the cells its pool threads run).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::string cell = "",
          std::optional<int> parent = std::nullopt);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& tracer_;
    int id_ = -1;
    int saved_parent_ = -1;
    Usage start_;
  };

  std::vector<Span> spans() const;

 private:
  int open(std::string name, std::string cell, int parent, double start_ms);
  void close(int id, const Usage& delta, double end_ms);

  bool enabled_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover (children may overlap one another, as the
/// cells under a parallel sweep do), clipped to the span itself. Indexed
/// like `spans`; ids must equal positions, as Tracer assigns them.
std::vector<double> selfTimesMs(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct SpanTotals {
  std::size_t count = 0;
  double wall_ms = 0.0;
  double self_ms = 0.0;
  double user_ms = 0.0;
  double sys_ms = 0.0;
  std::int64_t minflt = 0;
};
std::map<std::string, SpanTotals> totalsByName(const std::vector<Span>& spans);

/// Writes the spans as Chrome trace-event JSON ("X" complete events, one
/// track per thread; opens in Perfetto / chrome://tracing). Returns false
/// on I/O failure.
bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans);

// ---- Sweep service status -------------------------------------------------

/// The cumulative counters of one queryServiceStatus() document that the
/// benchmark turns into per-window deltas.
struct ServiceCounters {
  double host_user_seconds = 0.0;  // worker CPU, summed over settled cells
  double host_sys_seconds = 0.0;
  std::int64_t host_max_rss_kb = 0;  // max over workers (not a delta)
  std::uint64_t supervised_cells = 0;
  std::uint64_t attempts = 0;
  std::uint64_t cells_settled = 0;
  std::uint64_t respawned = 0;
  std::uint64_t journal_appends = 0;

  std::uint64_t retries() const { return attempts - supervised_cells; }
};

/// Parses a status document; nullopt when any counter is missing.
std::optional<ServiceCounters> parseServiceStatus(const std::string& json);

/// `end - start` for the cumulative counters; host_max_rss_kb is `end`'s.
ServiceCounters operator-(const ServiceCounters& end,
                          const ServiceCounters& start);

}  // namespace perfbench
