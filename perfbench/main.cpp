// spt_ledger: the repository benchmark (perfbench/README.md).
//
//   spt_ledger --workload sweep_cold|sim_grid|serve_mixed --seed N
//              --seconds S --trace 0|1 --reference FILE --out DIR
//   spt_ledger --write-reference FILE
//
// Runs one workload for S seconds, checks every cell against the committed
// reference, and prints a human-readable table followed by one JSON line:
// the end-to-end metrics with --trace 0, the per-layer metrics of a
// separately traced run with --trace 1.
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cell.h"
#include "harness/experiment.h"
#include "harness/sweep_service.h"
#include "harness/trace_cache.h"
#include "ledger.h"
#include "support/check.h"
#include "support/json.h"

namespace perfbench {
namespace {

namespace h = spt::harness;
namespace fs = std::filesystem;
using spt::support::RecoveryMechanism;

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 3;
/// A timed window lasts --seconds and is stretched, up to this factor,
/// until its p90 latencies have Percentile::kMinBeyond samples beyond them.
constexpr double kMaxStretch = 3.0;
/// The fewest samples whose nearest-rank p90 has kMinBeyond beyond it.
constexpr std::size_t kP90Samples = 10 * Percentile::kMinBeyond;
/// sim_grid runs at least this many passes, so a per-cell median exists.
constexpr std::size_t kMinPasses = 3;
constexpr std::uint32_t kDepths[] = {1, 2, 4};
constexpr RecoveryMechanism kRecoveries[] = {
    RecoveryMechanism::kSelectiveReplayFastCommit,
    RecoveryMechanism::kSelectiveReplay, RecoveryMechanism::kFullSquash};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string out = ".bench_out";
  std::string write_reference;
};

std::size_t cpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produced.
struct Run {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few reasons
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // extra human-readable lines
  std::vector<h::SweepRow> distinct_rows;  // one per cell key
  std::map<std::string, CellFacts> seen;   // first observation per key

  /// Counts one checked cell; `verdict` is checkRow()'s. Every observation
  /// of a cell — traced or not, from any path — must read the same.
  void check(const std::string& key, std::string verdict,
             const h::SweepRow* row = nullptr) {
    ++attempted;
    if (verdict.empty() && row != nullptr) {
      const CellFacts f = factsOf(row->result.baseline, row->result.spt);
      const auto [it, first] = seen.emplace(key, f);
      if (!(it->second == f)) {
        verdict = "differs from an earlier observation of the same cell";
      } else if (first) {
        h::SweepRow r = *row;
        r.config = key.substr(key.find('\t') + 1);
        std::replace(r.config.begin(), r.config.end(), '\t', '-');
        distinct_rows.push_back(std::move(r));
      }
    }
    if (!verdict.empty()) {
      ++failed;
      if (failures.size() < 5) failures.push_back(key + ": " + verdict);
    }
  }
  void add(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  /// p50 and p90 of `samples` as `<prefix>_p50_ms` / `<prefix>_p90_ms`,
  /// with the sample counts in the notes.
  void latency(const std::string& prefix, const std::vector<double>& samples) {
    for (const double p : {50.0, 90.0}) {
      const Percentile q = percentile(samples, p);
      const std::string name =
          prefix + "_p" + std::to_string(static_cast<int>(p)) + "_ms";
      add(name, q.value, "ms");
      std::ostringstream note;
      note << name << ": n=" << q.samples << ", " << q.beyond << " beyond"
           << (q.trustworthy() ? "" : " (fewer than 10 beyond: a maximum)");
      notes.push_back(note.str());
    }
  }
};

std::vector<std::size_t> permutation(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

/// 0..n-1 over and over, each round in a fresh seeded order, so that two
/// clients rotating through the suite do not keep meeting on the same
/// cells round after round.
class Rotation {
 public:
  Rotation(std::size_t n, std::uint64_t seed) : n_(n), rng_(seed) {}
  std::size_t next() {
    if (pos_ == order_.size()) {
      order_ = permutation(n_, rng_);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::size_t n_;
  std::mt19937_64 rng_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// What a traced run sums across its cells besides spans: the compiler's
/// pass times and profile runs, and the simulator's counters.
struct LayerTotals {
  std::mutex mu;  // guards everything below
  std::map<std::string, double> pass_ms;  // summed over compiles
  std::uint64_t compiles = 0;
  std::uint64_t profile_runs = 0;
  std::uint64_t spt_fast = 0, spt_fallback = 0, spt_allocs = 0;
  std::uint64_t spawned = 0, fast_commits = 0, spec_instrs = 0,
                misspec_instrs = 0;
  std::uint64_t baseline_instrs = 0, spt_instrs = 0;

  void addCompile(const CellLayers& l) {
    const std::lock_guard<std::mutex> lock(mu);
    ++compiles;
    profile_runs += l.profile_runs;
    for (const auto& p : l.passes) pass_ms[p.name] += p.wall_ms;
  }
  void addSim(const spt::sim::MachineResult& base,
              const spt::sim::MachineResult& spt) {
    const std::lock_guard<std::mutex> lock(mu);
    baseline_instrs += base.instrs;
    spt_fast += spt.hotpath.dispatch_fast;
    spt_fallback += spt.hotpath.dispatch_fallback;
    spt_allocs += spt.hotpath.arena_frame_allocs;
    spawned += spt.threads.spawned;
    fast_commits += spt.threads.fast_commits;
    spec_instrs += spt.threads.spec_instrs;
    misspec_instrs += spt.threads.misspec_instrs;
    spt_instrs += spt.instrs;
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// The per-layer metrics of a traced run from its spans and counters, in
/// BENCHMARK.json order, plus the self-time table. Times are per call.
void emitLayers(Run& run, const std::vector<Span>& spans, LayerTotals& lt,
                std::uint64_t produced) {
  const auto totals = totalsByName(spans);
  const auto get = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const auto perCall = [](double v, std::size_t n) {
    return n == 0 ? 0.0 : v / static_cast<double>(n);
  };
  const SpanTotals tr = get("interp.trace");
  run.layer("interp.trace_ms", perCall(tr.wall_ms, tr.count), "ms");
  run.layer("interp.trace_sys_ms", perCall(tr.sys_ms, tr.count), "ms");
  run.layer("interp.trace_minflt",
            perCall(static_cast<double>(tr.minflt), tr.count), "count");
  const SpanTotals pr = get("profile.run");
  run.layer("profile.runs", perCall(static_cast<double>(lt.profile_runs),
                                    lt.compiles),
            "count");
  run.layer("profile.run_ms", perCall(pr.wall_ms, pr.count), "ms");
  run.layer("profile.sys_ms", perCall(pr.sys_ms, pr.count), "ms");
  const SpanTotals co = get("spt.compile");
  run.layer("spt.compile_self_ms", perCall(co.self_ms, co.count), "ms");
  for (const char* pass :
       {"unroll-preprocess", "loop-candidate-selection", "value-profiling",
        "partition-search", "good-loop-selection", "region-speculation",
        "spt-transform", "precomputation-slice"}) {
    run.layer(std::string("spt.pass.") + pass + "_ms",
              perCall(lt.pass_ms[pass], lt.compiles), "ms");
  }
  const SpanTotals sb = get("sim.baseline");
  const SpanTotals ss = get("sim.spt");
  run.layer("sim.baseline_ms", perCall(sb.wall_ms, sb.count), "ms");
  run.layer("sim.spt_ms", perCall(ss.wall_ms, ss.count), "ms");
  run.layer("sim.baseline_mips",
            ratio(static_cast<double>(lt.baseline_instrs), sb.wall_ms * 1e3),
            "MIPS");
  run.layer("sim.spt_mips",
            ratio(static_cast<double>(lt.spt_instrs), ss.wall_ms * 1e3),
            "MIPS");
  run.layer("sim.spt_fallback_share",
            ratio(static_cast<double>(lt.spt_fallback),
                  static_cast<double>(lt.spt_fast + lt.spt_fallback)),
            "ratio");
  run.layer("sim.records_per_alloc",
            ratio(static_cast<double>(lt.spt_fast + lt.spt_fallback),
                  static_cast<double>(lt.spt_allocs)),
            "ratio");
  run.layer("sim.fast_commit_ratio",
            ratio(static_cast<double>(lt.fast_commits),
                  static_cast<double>(lt.spawned)),
            "ratio");
  run.layer("sim.misspec_ratio",
            ratio(static_cast<double>(lt.misspec_instrs),
                  static_cast<double>(lt.spec_instrs)),
            "ratio");
  const SpanTotals ix = get("trace.index");
  const SpanTotals cg = get("trace.cache_get");
  run.layer("trace.index_ms", perCall(ix.wall_ms, ix.count), "ms");
  run.layer("trace.cache_get_ms", perCall(cg.self_ms, cg.count), "ms");
  run.layer("trace.cache_produced", static_cast<double>(produced), "count");
  const SpanTotals wb = get("workloads.build");
  const SpanTotals jw = get("support.json_write");
  run.layer("workloads.build_ms", perCall(wb.wall_ms, wb.count), "ms");
  run.layer("support.json_write_ms", perCall(jw.wall_ms, jw.count), "ms");

  // The self-time table: where the traced run's time went, by span name.
  std::ostringstream table;
  table << "span                      calls    wall_ms    self_ms    "
           "user_ms     sys_ms     minflt\n";
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-24s %6zu %10.1f %10.1f %10.1f %10.1f %10lld\n",
                  name.c_str(), t.count, t.wall_ms, t.self_ms, t.user_ms,
                  t.sys_ms, static_cast<long long>(t.minflt));
    table << line;
  }
  run.notes.push_back("per-layer self time (traced run):\n" + table.str());
}

void addHarnessLayers(Run& run, double parallel_efficiency,
                      double first_result_ms, double result_gap_ms,
                      double worker_cpu_ms_per_cell, const ServiceCounters& d,
                      double accounted_pct, double overhead_ms,
                      double overhead_pct) {
  run.layer("harness.parallel_efficiency", parallel_efficiency, "ratio");
  run.layer("harness.first_result_ms", first_result_ms, "ms");
  run.layer("harness.result_gap_ms", result_gap_ms, "ms");
  run.layer("harness.worker_cpu_ms_per_cell", worker_cpu_ms_per_cell, "ms");
  run.layer("harness.respawns", static_cast<double>(d.respawned), "count");
  run.layer("harness.retries", static_cast<double>(d.retries()), "count");
  run.layer("harness.journal_appends", static_cast<double>(d.journal_appends),
            "count");
  run.layer("harness.cell_accounted_pct", accounted_pct, "%");
  run.layer("tracing_overhead_ms", overhead_ms, "ms");
  run.layer("tracing_overhead_pct", overhead_pct, "%");
}

/// Writes the run's distinct checked rows (key order) with writeSweepJson
/// inside a support.json_write span: the file two seeds must reproduce
/// byte for byte apart from host_ fields.
void writeRows(Run& run, Tracer& tracer, const std::string& path) {
  std::sort(run.distinct_rows.begin(), run.distinct_rows.end(),
            [](const h::SweepRow& a, const h::SweepRow& b) {
              return std::tie(a.benchmark, a.config) <
                     std::tie(b.benchmark, b.config);
            });
  const Tracer::Scope s(tracer, "support.json_write");
  if (!h::writeSweepJson(path, run.distinct_rows)) {
    run.check("rows", "cannot write " + path);
  }
}

// ---- sweep_cold -----------------------------------------------------------

/// One runSweep call with per-cell latencies observed from outside: each
/// case's Workload::build is wrapped to stamp (thread, time) when its cell
/// starts, and `jobs` sentinel cases appended after the real ones stamp
/// the end of every pool thread's last real cell. A sentinel waits on a
/// barrier until all of them have started — so each pool thread takes
/// exactly one, after its real cells — then throws, which quarantine
/// turns into a row that is dropped.
struct TimedSweep {
  std::vector<h::SweepRow> rows;  // the real cells, in `cases` order
  std::vector<double> cell_ms;    // indexed like rows
  double wall_ms = 0.0;
};

TimedSweep timedSweep(const h::ParallelSweep& sweep,
                      const std::vector<h::SweepCase>& cases,
                      const h::SweepOptions& opts) {
  struct Stamp {
    std::thread::id thread;
    double t;
    std::size_t index;  // cases.size() for a sentinel
  };
  auto mu = std::make_shared<std::mutex>();
  auto stamps = std::make_shared<std::vector<Stamp>>();
  const auto stamp = [mu, stamps](std::size_t index) {
    const std::lock_guard<std::mutex> lock(*mu);
    stamps->push_back({std::this_thread::get_id(), nowMs(), index});
  };
  std::vector<h::SweepCase> run_cases = cases;
  for (std::size_t i = 0; i < run_cases.size(); ++i) {
    auto inner = run_cases[i].entry.workload.build;
    run_cases[i].entry.workload.build = [inner, stamp, i](std::uint64_t s) {
      stamp(i);
      return inner(s);
    };
  }
  const std::size_t sentinels = sweep.jobs();
  auto barrier = std::make_shared<std::barrier<>>(
      static_cast<std::ptrdiff_t>(sentinels));
  for (std::size_t k = 0; k < sentinels; ++k) {
    h::SweepCase s = cases.front();
    s.benchmark = "sentinel";
    s.entry.workload.build = [stamp, barrier,
                              n = cases.size()](std::uint64_t)
        -> spt::ir::Module {
      stamp(n);
      barrier->arrive_and_wait();
      throw std::runtime_error("sentinel");
    };
    run_cases.push_back(std::move(s));
  }

  TimedSweep out;
  const double t0 = nowMs();
  std::vector<h::SweepRow> rows = h::runSweep(sweep, run_cases, opts);
  out.wall_ms = nowMs() - t0;
  rows.resize(cases.size());
  out.rows = std::move(rows);
  out.cell_ms.assign(cases.size(), 0.0);
  std::map<std::thread::id, std::vector<Stamp>> by_thread;
  for (const Stamp& s : *stamps) by_thread[s.thread].push_back(s);
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(),
              [](const Stamp& a, const Stamp& b) { return a.t < b.t; });
    for (std::size_t k = 0; k + 1 < list.size(); ++k) {
      if (list[k].index < cases.size()) {
        out.cell_ms[list[k].index] = list[k + 1].t - list[k].t;
      }
    }
  }
  return out;
}

const std::vector<h::SweepCase>& suiteCases() {
  static const std::vector<h::SweepCase> cases =
      h::buildSuiteSweepCases({}, {}, /*scale=*/1);
  return cases;
}

/// sweep_cold: back-to-back in-process runSweep calls over the suite
/// (README.md "Workloads"). Traced, every other sweep is composed from the
/// layer calls instead. A traced run prints only per-layer metrics; the
/// end-to-end ones always come from untraced units.
Run sweepCold(const Args& a, const Reference& ref, Tracer& tracer) {
  Run run;
  const std::size_t jobs = std::min<std::size_t>(cpuCount(), 4);
  const h::ParallelSweep sweep(jobs);
  h::SweepOptions opts;
  opts.quarantine = true;
  std::mt19937_64 rng(a.seed);
  const RecoveryMechanism rec = RecoveryMechanism::kSelectiveReplayFastCommit;

  const auto checkSweep = [&](const TimedSweep& t,
                              const std::vector<h::SweepCase>& cases) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::string key = cellKey(cases[i].benchmark, 1, rec);
      run.check(key, checkRow(ref, key, t.rows[i], true), &t.rows[i]);
    }
  };

  // Set-up: build the grid and run one untimed warm-up sweep, so the timed
  // sweeps start from a process whose heap and code are warm.
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const double t0 = nowMs();
    const std::vector<h::SweepCase> cases =
        h::buildSuiteSweepCases({}, {}, /*scale=*/1);
    const TimedSweep warm = timedSweep(sweep, cases, opts);
    setups.push_back((nowMs() - t0) / 1e3);
    checkSweep(warm, cases);
  }

  std::vector<double> cell_ms, sweep_ms, traced_sweep_ms;
  std::uint64_t cells = 0, sim_instrs = 0;
  double traced_wall_ms = 0.0;
  std::uint64_t traced_cells = 0;
  LayerTotals lt;
  double timed_ms = 0.0;
  const Usage u0 = processUsage();
  const double start = nowMs();
  for (int round = 0;; ++round) {
    std::vector<h::SweepCase> cases;
    for (const std::size_t i : permutation(suiteCases().size(), rng)) {
      cases.push_back(suiteCases()[i]);
    }
    const bool traced_round = a.trace && round % 2 == 1;
    if (!traced_round) {
      const TimedSweep t = timedSweep(sweep, cases, opts);
      checkSweep(t, cases);
      sweep_ms.push_back(t.wall_ms);
      timed_ms += t.wall_ms;
      for (std::size_t i = 0; i < cases.size(); ++i) {
        cell_ms.push_back(t.cell_ms[i]);
        sim_instrs += t.rows[i].result.baseline.instrs +
                      t.rows[i].result.spt.instrs;
      }
      cells += cases.size();
    } else {
      // The same cells composed from the layer calls, each in a span.
      const spt::support::ScopedCheckThrowMode throw_mode(true);
      const double t0 = nowMs();
      std::vector<h::SweepRow> rows;
      {
        const Tracer::Scope s(tracer, "harness.sweep",
                              "sweep" + std::to_string(round));
        const int parent = s.id();
        rows = sweep.run(cases.size(), [&](std::size_t i) {
          h::SweepRow row;
          row.benchmark = cases[i].benchmark;
          row.config = cases[i].config;
          CellLayers layers;
          try {
            row.result = runTracedCell(
                cases[i], tracer,
                "sweep" + std::to_string(round) + "/" + cases[i].benchmark,
                parent, &layers);
          } catch (const std::exception& e) {
            row.status = h::CellStatus::kInternalError;
            row.diagnostic = e.what();
          }
          lt.addCompile(layers);
          lt.addSim(row.result.baseline, row.result.spt);
          return row;
        });
      }
      traced_sweep_ms.push_back(nowMs() - t0);
      traced_wall_ms += nowMs() - t0;
      traced_cells += cases.size();
      for (std::size_t i = 0; i < cases.size(); ++i) {
        const std::string key = cellKey(cases[i].benchmark, 1, rec);
        run.check(key, checkRow(ref, key, rows[i], true), &rows[i]);
      }
    }
    const double elapsed = nowMs() - start;
    if (elapsed >= a.seconds * 1e3 &&
        (a.trace ? !traced_sweep_ms.empty()
                 : cell_ms.size() >= kP90Samples ||
                       elapsed >= kMaxStretch * a.seconds * 1e3)) {
      break;
    }
  }
  const Usage used = processUsage() - u0;
  const double window_s = timed_ms / 1e3;

  run.add("setup_s", median(setups), "s");
  run.add("cells_per_s", static_cast<double>(cells) / window_s, "1/s");
  run.latency("cell", cell_ms);
  run.latency("request", sweep_ms);
  run.add("sim_mips", static_cast<double>(sim_instrs) / window_s / 1e6,
          "MIPS");
  run.add("cpu_ms_per_cell", used.cpuMs() / static_cast<double>(cells), "ms");
  run.add("peak_rss_mb", peakRssMb(), "MB");
  run.notes.push_back("sweeps: " + std::to_string(sweep_ms.size()) +
                      ", jobs " + std::to_string(jobs));
  writeRows(run, tracer, a.out + "/sweep_cold-rows.json");

  if (a.trace) {
    const std::vector<Span> spans = tracer.spans();
    emitLayers(run, spans, lt, 0);
    double cell_wall = 0.0, cell_self_layers = 0.0;
    const std::vector<double> self = selfTimesMs(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "harness.cell") cell_wall += spans[i].durationMs();
      if (!spans[i].cell.empty() && spans[i].name != "harness.cell") {
        cell_self_layers += self[i];
      }
    }
    // The layers' self times per traced cell, as a share of the untraced
    // cell latency: ~100 % means the layers account for the cell.
    const double untraced_cell =
        std::accumulate(cell_ms.begin(), cell_ms.end(), 0.0) /
        static_cast<double>(cells);
    const double layers_per_cell =
        cell_self_layers / static_cast<double>(traced_cells);
    const double overhead = median(traced_sweep_ms) - median(sweep_ms);
    addHarnessLayers(
        run, cell_wall / (traced_wall_ms * static_cast<double>(jobs)), 0, 0,
        0, {}, 100.0 * ratio(layers_per_cell, untraced_cell), overhead,
        100.0 * ratio(overhead, median(sweep_ms)));
  }
  return run;
}

// ---- sim_grid -------------------------------------------------------------

/// One (workload, N) of the grid after set-up: both programs and the keys
/// of their traces in the cache.
struct GridEntry {
  h::SweepCase c;
  spt::ir::Module baseline{"empty"};
  spt::ir::Module spt{"empty"};
  std::string base_key;
  std::string spt_key;
};

struct Grid {
  std::unique_ptr<h::TraceCache> cache;
  std::vector<GridEntry> entries;  // workload-major, N in kDepths order
};

const h::TraceCache::Entry& cachedTrace(h::TraceCache& cache,
                                        const std::string& key,
                                        spt::ir::Module* produce_from,
                                        Tracer& tracer,
                                        const std::string& cell) {
  const Tracer::Scope s(tracer, "trace.cache_get", cell);
  return cache.get(key, [&](spt::trace::TraceFileMeta* meta) {
    SPT_CHECK_MSG(produce_from != nullptr, "trace missing from the cache");
    const Tracer::Scope t(tracer, "interp.trace", cell);
    h::TracedRun run = h::traceProgram(*produce_from);
    meta->word0 = static_cast<std::uint64_t>(run.result.return_value);
    meta->word1 = run.result.memory_hash;
    return std::move(run.trace);
  });
}

/// Compiles every suite workload at each N and traces both programs into
/// a fresh v3 TraceCache under `dir`, in parallel.
Grid setUpGrid(const std::string& dir, std::size_t jobs, Tracer& tracer,
               LayerTotals& lt) {
  Grid g;
  fs::remove_all(dir);
  g.cache = std::make_unique<h::TraceCache>(dir);
  const std::vector<h::SweepCase> cases = h::buildSuiteSweepCases(
      {}, {}, 1, {}, std::vector<std::uint32_t>(std::begin(kDepths),
                                                std::end(kDepths)));
  g.entries.resize(cases.size());
  h::ParallelSweep(jobs).run(cases.size(), [&](std::size_t i) {
    GridEntry& e = g.entries[i];
    e.c = cases[i];
    const std::string cell = e.c.benchmark + "/" + e.c.config;
    const Tracer::Scope s(tracer, "harness.setup_cell", cell);
    e.spt = e.c.entry.workload.build(e.c.scale);
    e.baseline = e.spt;
    e.baseline.finalize();
    spt::compiler::SptCompiler cc(e.c.entry.copts);
    h::InterpProfileRunner inner;
    TimedProfileRunner runner(inner, tracer, cell);
    spt::compiler::CompilationRemarks remarks;
    spt::compiler::SptPlan plan;
    {
      const Tracer::Scope c(tracer, "spt.compile", cell);
      plan = cc.compile(e.spt, runner, tracer.enabled() ? &remarks : nullptr);
    }
    if (!e.spt.finalized()) e.spt.finalize();
    lt.addCompile({std::move(remarks.passes), runner.runs()});
    e.base_key = e.c.benchmark + ".base";
    e.spt_key = e.c.benchmark + ".spt-" + hex64(plan.fingerprint());
    cachedTrace(*g.cache, e.base_key, &e.baseline, tracer, cell);
    cachedTrace(*g.cache, e.spt_key, &e.spt, tracer, cell);
    return 0;
  });
  return g;
}

/// One simulation of the grid: the baseline machine of a workload
/// (recovery < 0) or its SPT machine at one (N, recovery).
struct GridCell {
  std::size_t workload = 0;
  std::size_t depth = 0;  // index into kDepths
  int recovery = -1;      // index into kRecoveries
};

struct GridOutcome {
  spt::sim::MachineResult result;
  spt::interp::RunResult base_run;  // from the traces' meta words
  spt::interp::RunResult spt_run;
  double ms = 0.0;
};

/// Runs one grid cell as runSptExperiment's cached variant simulates: the
/// trace from the cache, a LoopIndex over it, the machine.
GridOutcome runGridCell(Grid& grid, const GridCell& c,
                        const std::string& key, Tracer& t, int parent) {
  const Tracer::Scope cell(t, "harness.cell", key, parent);
  const double c0 = nowMs();
  GridEntry& e = grid.entries[c.workload * std::size(kDepths) + c.depth];
  GridOutcome out;
  const auto& base_tr = cachedTrace(*grid.cache, e.base_key, nullptr, t, key);
  out.base_run.return_value = static_cast<std::int64_t>(base_tr.meta.word0);
  out.base_run.memory_hash = base_tr.meta.word1;
  if (c.recovery < 0) {
    const Tracer::Scope s(t, "sim.baseline", key);
    spt::sim::BaselineMachine m(e.baseline, base_tr.view, e.c.machine);
    out.result = m.run();
  } else {
    const auto& tr = cachedTrace(*grid.cache, e.spt_key, nullptr, t, key);
    out.spt_run.return_value = static_cast<std::int64_t>(tr.meta.word0);
    out.spt_run.memory_hash = tr.meta.word1;
    const spt::trace::LoopIndex index = [&] {
      const Tracer::Scope s(t, "trace.index", key);
      return spt::trace::LoopIndex(e.spt, tr.view);
    }();
    spt::support::MachineConfig machine = e.c.machine;
    machine.recovery = kRecoveries[c.recovery];
    const Tracer::Scope s(t, "sim.spt", key);
    spt::sim::SptMachine m(e.spt, tr.view, index, machine);
    out.result = m.run();
  }
  out.ms = nowMs() - c0;
  return out;
}

/// sim_grid: simulation over pre-traced programs — per workload the
/// baseline once and SPT at every (N, recovery) — on min(nproc, 4)
/// threads. Traced, every other pass runs with spans, and the last set-up
/// is traced.
Run simGrid(const Args& a, const Reference& ref, Tracer& tracer) {
  Run run;
  const std::size_t jobs = std::min<std::size_t>(cpuCount(), 4);
  std::mt19937_64 rng(a.seed);
  LayerTotals lt;
  Tracer off(false);

  std::vector<double> setups;
  Grid grid;
  for (int k = 0; k < kSetupRepeats; ++k) {
    grid = Grid{};  // unmaps the previous set-up's traces first
    const double t0 = nowMs();
    Tracer& t = a.trace && k == kSetupRepeats - 1 ? tracer : off;
    grid = setUpGrid(a.out + "/sim_grid-cache", jobs, t, lt);
    setups.push_back((nowMs() - t0) / 1e3);
  }
  const std::uint64_t produced = grid.cache->produced();

  std::vector<GridCell> grid_cells;
  std::vector<std::string> keys;
  const std::size_t n_workloads = grid.entries.size() / std::size(kDepths);
  for (std::size_t w = 0; w < n_workloads; ++w) {
    const std::string& bench = grid.entries[w * std::size(kDepths)].c.benchmark;
    grid_cells.push_back({w, 0, -1});
    keys.push_back(bench + " baseline");
    for (std::size_t d = 0; d < std::size(kDepths); ++d) {
      for (int r = 0; r < static_cast<int>(std::size(kRecoveries)); ++r) {
        grid_cells.push_back({w, d, r});
        keys.push_back(cellKey(bench, kDepths[d], kRecoveries[r]));
      }
    }
  }

  // Every pass runs the same cells, so each cell's latency is kept per
  // cell and summarized by its median over the passes: a burst of host
  // noise in one pass then moves no percentile.
  std::map<std::string, std::vector<double>> cell_ms;
  std::vector<double> pass_ms, traced_pass_ms;
  std::uint64_t cells = 0, sim_instrs = 0;
  double timed_ms = 0.0, traced_cell_ms = 0.0;
  const h::ParallelSweep pool(jobs);
  const Usage u0 = processUsage();
  const double start = nowMs();
  for (int round = 0;; ++round) {
    const bool traced_round = a.trace && round % 2 == 1;
    Tracer& t = traced_round ? tracer : off;
    const std::vector<std::size_t> order =
        permutation(grid_cells.size(), rng);
    const double p0 = nowMs();
    std::vector<GridOutcome> outcomes;
    {
      const Tracer::Scope s(t, "harness.grid_pass",
                            "pass" + std::to_string(round));
      const int parent = s.id();
      outcomes = pool.run(order.size(), [&](std::size_t i) {
        return runGridCell(grid, grid_cells[order[i]], keys[order[i]], t,
                           parent);
      });
    }
    const double pass = nowMs() - p0;

    // Check in grid order: each SPT row pairs with its workload's baseline.
    std::vector<const GridOutcome*> by_cell(grid_cells.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      by_cell[order[i]] = &outcomes[i];
    }
    const GridOutcome* base = nullptr;
    for (std::size_t j = 0; j < grid_cells.size(); ++j) {
      const GridOutcome& o = *by_cell[j];
      if (grid_cells[j].recovery < 0) {
        base = &o;
        const auto it = ref.find(cellKey(
            grid.entries[grid_cells[j].workload * std::size(kDepths)]
                .c.benchmark,
            1, kRecoveries[0]));
        const bool ok = it != ref.end() &&
                        o.result.cycles == it->second.baseline_cycles &&
                        o.result.instrs == it->second.baseline_instrs;
        run.check(keys[j], ok ? "" : "baseline differs from the reference");
      } else {
        h::SweepRow row;
        row.benchmark =
            grid.entries[grid_cells[j].workload * std::size(kDepths)]
                .c.benchmark;
        row.result.baseline = base->result;
        row.result.spt = o.result;
        row.result.baseline_run = o.base_run;
        row.result.spt_run = o.spt_run;
        run.check(keys[j], checkRow(ref, keys[j], row, true), &row);
        if (traced_round) lt.addSim({}, o.result);
      }
      if (traced_round) {
        traced_cell_ms += o.ms;
        if (grid_cells[j].recovery < 0) lt.addSim(o.result, {});
      } else {
        cell_ms[keys[j]].push_back(o.ms);
        sim_instrs += o.result.instrs;
        ++cells;
      }
    }
    if (traced_round) {
      traced_pass_ms.push_back(pass);
    } else {
      pass_ms.push_back(pass);
      timed_ms += pass;
    }
    if (nowMs() - start >= a.seconds * 1e3 &&
        (a.trace ? !traced_pass_ms.empty() : pass_ms.size() >= kMinPasses)) {
      break;
    }
  }
  const Usage used = processUsage() - u0;
  const double window_s = timed_ms / 1e3;
  std::vector<double> cell_medians;
  for (const auto& [key, samples] : cell_ms) {
    cell_medians.push_back(median(samples));
  }
  run.add("setup_s", median(setups), "s");
  run.add("cells_per_s", static_cast<double>(cells) / window_s, "1/s");
  run.latency("cell", cell_medians);
  run.latency("request", pass_ms);
  run.add("sim_mips", static_cast<double>(sim_instrs) / window_s / 1e6,
          "MIPS");
  run.add("cpu_ms_per_cell", used.cpuMs() / static_cast<double>(cells),
          "ms");
  run.add("peak_rss_mb", peakRssMb(), "MB");
  run.notes.push_back("grid passes: " + std::to_string(pass_ms.size()) +
                      ", jobs " + std::to_string(jobs) +
                      "; traces produced: " + std::to_string(produced));
  writeRows(run, tracer, a.out + "/sim_grid-rows.json");
  if (a.trace) {
    const std::vector<Span> spans = tracer.spans();
    emitLayers(run, spans, lt, produced);
    double sim_wall = 0.0;
    for (const Span& s : spans) {
      if (s.name == "sim.baseline" || s.name == "sim.spt") {
        sim_wall += s.durationMs();
      }
    }
    double traced_total = 0.0;
    for (const double p : traced_pass_ms) traced_total += p;
    const double overhead = median(traced_pass_ms) - median(pass_ms);
    // The machines' share of the traced cells' wall.
    addHarnessLayers(
        run, ratio(traced_cell_ms, traced_total * static_cast<double>(jobs)),
        0, 0, 0, {}, 100.0 * ratio(sim_wall, traced_cell_ms), overhead,
        100.0 * ratio(overhead, median(pass_ms)));
  }
  grid = Grid{};
  fs::remove_all(a.out + "/sim_grid-cache");
  return run;
}

// ---- serve_mixed ----------------------------------------------------------

volatile std::sig_atomic_t g_service_stop = 0;

void onServiceStop(int) { g_service_stop = 1; }

/// A SweepService running in a forked child, as `sptc serve --journal`
/// runs it: warm pool, trace cache, checkpoint and request journal on.
/// Destroying a Service that stopService() has not drained kills it, so no
/// path out of the benchmark leaves the child running.
struct Service {
  pid_t pid = -1;
  std::string socket;

  Service() = default;
  Service(Service&& o) noexcept
      : pid(std::exchange(o.pid, -1)), socket(std::move(o.socket)) {}
  Service& operator=(Service&& o) noexcept {
    kill();
    pid = std::exchange(o.pid, -1);
    socket = std::move(o.socket);
    return *this;
  }
  ~Service() { kill(); }

 private:
  void kill() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
  }
};

std::optional<Service> startService(const std::string& dir, std::size_t jobs,
                                    std::string* error) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Service s;
  s.socket = dir + "/service.sock";
  std::cout.flush();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    return std::nullopt;
  }
  if (pid == 0) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_handler = onServiceStop;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGTERM, &sa, nullptr);
    h::SweepServiceOptions so;
    so.socket_path = s.socket;
    so.supervisor.jobs = jobs;
    so.supervisor.cell_timeout_seconds = 120.0;
    so.checkpoint_path = dir + "/checkpoint";
    so.journal_path = dir + "/journal";
    so.trace_cache_dir = dir + "/traces";
    so.stop = &g_service_stop;
    h::SweepService service(std::move(so));
    ::_exit(service.run());
  }
  s.pid = pid;
  for (int i = 0; i < 600; ++i) {
    if (h::queryServiceStatus(s.socket)) return s;
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      s.pid = -1;  // already reaped
      *error = "service exited during start-up";
      return std::nullopt;
    }
    ::usleep(10 * 1000);
  }
  *error = "service did not answer within 6 s";
  return std::nullopt;  // `s` kills the child
}

/// Drains the service (SIGTERM) and returns its peak RSS in KB — the
/// maximum over the service and the workers it reaped — or -1.
std::int64_t stopService(Service& s) {
  if (s.pid <= 0) return -1;
  ::kill(s.pid, SIGTERM);
  int status = 0;
  rusage ru{};
  const pid_t reaped = ::wait4(s.pid, &status, 0, &ru);
  if (reaped != s.pid) return -1;
  s.pid = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? ru.ru_maxrss : -1;
}

std::uint32_t depthOf(const std::string& config) {
  return config == "default" ? 1 : static_cast<std::uint32_t>(
                                       std::stoul(config.substr(1)));
}

/// One closed-loop client's record of a window.
struct ClientLog {
  std::vector<double> latency_ms;  // per request
  std::vector<double> first_result_ms;
  std::vector<double> result_gap_ms;
  std::vector<h::SweepRow> rows;
  std::uint64_t cells = 0;
  std::uint64_t expected_cells_failed = 0;
  std::vector<std::string> errors;
};

/// Sends `make()` requests back to back while `more(log)`; request i
/// carries the idempotency token "<name>-<i>", which `name` must make
/// unique for the service's lifetime. Never throws: an exception ends the
/// loop and is logged as an error.
template <typename More, typename Make>
void clientLoop(const Service& svc, const std::string& name,
                std::size_t expected_cells, bool traced, Tracer& tracer,
                More more, Make make, ClientLog* log) try {
  for (std::uint64_t i = 0; more(*log); ++i) {
    const h::ServiceRequest req = make();
    h::SubmitOptions so;
    so.token = name + "-" + std::to_string(i);
    so.timeout_seconds = 150.0;
    std::vector<double> frames;
    if (traced) {
      so.on_progress = [&](std::uint64_t, std::uint64_t) {
        frames.push_back(nowMs());
      };
    }
    const double t0 = nowMs();
    h::SubmitOutcome out;
    {
      const Tracer::Scope s(tracer, "harness.submit", so.token);
      out = h::submitToService(svc.socket, req, so);
    }
    const double dt = nowMs() - t0;
    if (!out.ok) {
      log->expected_cells_failed += expected_cells;
      if (log->errors.size() < 3) log->errors.push_back(out.error);
      continue;
    }
    log->latency_ms.push_back(dt);
    log->cells += out.rows.size();
    if (!frames.empty()) {
      log->first_result_ms.push_back(frames.front() - t0);
      for (std::size_t k = 1; k < frames.size(); ++k) {
        log->result_gap_ms.push_back(frames[k] - frames[k - 1]);
      }
    }
    for (h::SweepRow& r : out.rows) log->rows.push_back(std::move(r));
  }
} catch (const std::exception& e) {
  log->expected_cells_failed += expected_cells;
  log->errors.push_back(e.what());
}

struct ServeWindow {
  ClientLog small, grid;
  double wall_ms = 0.0;
  Usage client_usage;
  ServiceCounters delta;
  bool status_ok = true;  // both status documents parsed
};

/// One measuring window; `window` names it in the requests' tokens.
ServeWindow serveWindow(const Service& svc, const std::string& window,
                        double seconds, std::size_t min_requests, bool traced,
                        Tracer& tracer, std::mt19937_64& rng) {
  ServeWindow w;
  const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const h::SweepCase& c : suiteCases()) n.push_back(c.benchmark);
    return n;
  }();
  Rotation small_order(names.size(), rng());
  Rotation grid_order(names.size(), rng());
  const auto status = [&]() -> ServiceCounters {
    const Tracer::Scope s(tracer, "harness.status");
    const auto doc = h::queryServiceStatus(svc.socket);
    const auto parsed = doc ? parseServiceStatus(*doc) : std::nullopt;
    w.status_ok = w.status_ok && parsed.has_value();
    return parsed.value_or(ServiceCounters{});
  };
  const ServiceCounters s0 = status();
  const Usage u0 = processUsage();
  const double t0 = nowMs();
  // Client small runs for `seconds`, and on until its request p90 has
  // kMinBeyond samples beyond it (at most kMaxStretch x `seconds`); client
  // grid keeps the load on until small stops.
  const double deadline = t0 + seconds * 1e3;
  const double cap = t0 + kMaxStretch * seconds * 1e3;
  std::atomic<bool> small_done{false};
  std::thread small_client([&] {
    clientLoop(svc, window + "-small", 1, traced, tracer,
               [&](const ClientLog& log) {
                 const double now = nowMs();
                 return now < deadline ||
                        (now < cap && log.latency_ms.size() < min_requests);
               },
               [&] {
                 h::ServiceRequest r;
                 r.benchmarks = {names[small_order.next()]};
                 return r;
               },
               &w.small);
    small_done = true;
  });
  std::thread grid_client([&] {
    clientLoop(svc, window + "-grid", 4, traced, tracer,
               [&](const ClientLog&) { return !small_done; },
               [&] {
                 h::ServiceRequest r;
                 r.benchmarks = {names[grid_order.next()],
                                 names[grid_order.next()]};
                 r.spec_threads = {2, 4};
                 return r;
               },
               &w.grid);
  });
  small_client.join();
  grid_client.join();
  w.wall_ms = nowMs() - t0;
  w.client_usage = processUsage() - u0;
  w.delta = status() - s0;
  return w;
}

/// serve_mixed: a forked SweepService driven by clients small and grid.
/// Traced, an untraced window is followed by a traced one, each half of
/// --seconds.
Run serveMixed(const Args& a, const Reference& ref, Tracer& tracer) {
  Run run;
  const std::size_t jobs = std::max<std::size_t>(cpuCount(), 2) - 1;
  std::mt19937_64 rng(a.seed);
  const RecoveryMechanism rec = RecoveryMechanism::kSelectiveReplayFastCommit;
  const auto checkRows = [&](const std::vector<h::SweepRow>& rows) {
    for (const h::SweepRow& r : rows) {
      const std::string key = cellKey(r.benchmark, depthOf(r.config), rec);
      run.check(key, checkRow(ref, key, r, false), &r);
    }
  };
  const auto failRequests = [&](const ClientLog& log) {
    for (std::uint64_t i = 0; i < log.expected_cells_failed; ++i) {
      run.check("request", log.errors.empty() ? "request failed"
                                              : log.errors.front());
    }
  };

  // Set-up: start the service (repeated; the median start-up counts), then
  // warm it once with a request covering every cell the clients will ask
  // for, which fills the trace cache. Warming it three times would add
  // two cold 30-cell sweeps to every run.
  std::vector<double> starts;
  std::optional<Service> svc;
  std::string error;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (svc) stopService(*svc);
    const double t0 = nowMs();
    svc = startService(a.out + "/serve_mixed", jobs, &error);
    if (!svc) {
      run.check("service", error);
      return run;
    }
    starts.push_back((nowMs() - t0) / 1e3);
  }
  const double w0 = nowMs();
  h::ServiceRequest warm;
  warm.spec_threads = {1, 2, 4};
  h::SubmitOptions wo;
  wo.token = "warmup";
  wo.timeout_seconds = 150.0;
  const h::SubmitOutcome warmed = h::submitToService(svc->socket, warm, wo);
  const double warm_s = (nowMs() - w0) / 1e3;
  if (!warmed.ok) run.check("warm-up", "request failed: " + warmed.error);
  checkRows(warmed.rows);

  const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
  Tracer off(false);
  const ServeWindow w = serveWindow(*svc, "w1", untraced_s,
                                    a.trace ? 0 : kP90Samples, false, off,
                                    rng);
  std::optional<ServeWindow> tw;
  if (a.trace) {
    tw = serveWindow(*svc, "w2", a.seconds / 2, 0, true, tracer, rng);
  }
  const std::int64_t service_rss_kb = stopService(*svc);
  fs::remove_all(a.out + "/serve_mixed");
  if (service_rss_kb < 0) run.check("service", "did not drain cleanly");

  for (const ServeWindow* win :
       {&w, tw ? &*tw : static_cast<const ServeWindow*>(nullptr)}) {
    if (win == nullptr) continue;
    if (!win->status_ok) run.check("status", "unparsable status document");
    checkRows(win->small.rows);
    checkRows(win->grid.rows);
    failRequests(win->small);
    failRequests(win->grid);
  }

  const double cells = static_cast<double>(w.small.cells + w.grid.cells);
  const double worker_cpu_ms =
      (w.delta.host_user_seconds + w.delta.host_sys_seconds) * 1e3;
  run.add("setup_s", median(starts) + warm_s, "s");
  run.add("cells_per_s", cells / (w.wall_ms / 1e3), "1/s");
  // A request of client small is one cell, so its latency is both.
  run.latency("cell", w.small.latency_ms);
  run.latency("request", w.small.latency_ms);
  double sim_instrs = 0.0;
  for (const ClientLog* log : {&w.small, &w.grid}) {
    for (const h::SweepRow& r : log->rows) {
      sim_instrs += static_cast<double>(r.result.baseline.instrs +
                                        r.result.spt.instrs);
    }
  }
  run.add("sim_mips", sim_instrs / (w.wall_ms / 1e3) / 1e6, "MIPS");
  run.add("cpu_ms_per_cell", (w.client_usage.cpuMs() + worker_cpu_ms) / cells,
          "ms");
  run.add("peak_rss_mb",
          static_cast<double>(std::max(service_rss_kb,
                                       w.delta.host_max_rss_kb)) /
              1024.0,
          "MB");
  run.notes.push_back("requests: small " +
                      std::to_string(w.small.latency_ms.size()) + ", grid " +
                      std::to_string(w.grid.latency_ms.size()) +
                      "; pool jobs " + std::to_string(jobs));
  writeRows(run, tracer, a.out + "/serve_mixed-rows.json");
  if (tw) {
    const std::vector<Span> spans = tracer.spans();
    LayerTotals lt;
    for (const ClientLog* log : {&tw->small, &tw->grid}) {
      for (const h::SweepRow& r : log->rows) {
        lt.addSim(r.result.baseline, r.result.spt);
      }
    }
    emitLayers(run, spans, lt, 0);
    std::vector<double> first = tw->small.first_result_ms;
    first.insert(first.end(), tw->grid.first_result_ms.begin(),
                 tw->grid.first_result_ms.end());
    const double tworker_ms =
        (tw->delta.host_user_seconds + tw->delta.host_sys_seconds) * 1e3;
    const double overhead =
        median(tw->small.latency_ms) - median(w.small.latency_ms);
    addHarnessLayers(run,
                     ratio(tworker_ms, tw->wall_ms * static_cast<double>(jobs)),
                     median(first), median(tw->grid.result_gap_ms),
                     ratio(tworker_ms,
                           static_cast<double>(tw->delta.cells_settled)),
                     tw->delta, 0.0, overhead,
                     100.0 * ratio(overhead, median(w.small.latency_ms)));
  }
  return run;
}

// ---- reference, output, main ----------------------------------------------

/// Writes the reference from the untraced in-process path: runSweep over
/// the suite at every (N, recovery) the workloads use.
int writeReferenceFile(const std::string& path) {
  const spt::support::ScopedCheckThrowMode throw_mode(true);
  Reference ref;
  const h::ParallelSweep sweep(std::min<std::size_t>(cpuCount(), 4));
  for (const RecoveryMechanism rec : kRecoveries) {
    spt::support::MachineConfig machine;
    machine.recovery = rec;
    const auto cases = h::buildSuiteSweepCases(
        machine, {}, 1, {},
        std::vector<std::uint32_t>(std::begin(kDepths), std::end(kDepths)));
    const auto rows = h::runSweep(sweep, cases);
    for (const h::SweepRow& r : rows) {
      ref[cellKey(r.benchmark, depthOf(r.config), rec)] =
          factsOf(r.result.baseline, r.result.spt);
    }
  }
  if (!writeReference(path, ref)) {
    std::cerr << "spt_ledger: cannot write " << path << "\n";
    return 1;
  }
  std::cerr << "spt_ledger: wrote " << ref.size() << " cells to " << path
            << "\n";
  return 0;
}

void printResult(const Run& run, bool trace) {
  for (const std::string& n : run.notes) std::cout << n << "\n";
  for (const std::string& f : run.failures) {
    std::cout << "FAILED " << f << "\n";
  }
  const std::vector<Metric>& metrics = trace ? run.per_layer : run.end_to_end;
  for (const Metric& m : metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "%-34s %14.4f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
  }
  std::cout << "failed_frac "
            << ratio(static_cast<double>(run.failed),
                     static_cast<double>(run.attempted))
            << " (" << run.failed << " of " << run.attempted << " cells)\n";
  std::ostringstream json;
  spt::support::JsonWriter w(json, 0);
  w.beginObject();
  w.member("correct", run.failed == 0 && run.attempted > 0);
  w.member("attempted", run.attempted);
  w.member("failed", run.failed);
  w.key("metrics").beginObject();
  for (const Metric& m : metrics) {
    w.key(m.name).beginObject();
    w.member("value", m.value);
    w.member("unit", m.unit);
    w.endObject();
  }
  w.endObject();
  w.endObject();
  std::cout << json.str() << std::endl;
}

int usage() {
  std::cerr << "usage: spt_ledger --workload sweep_cold|sim_grid|serve_mixed "
               "--seed N --seconds S --trace 0|1 --reference FILE "
               "[--out DIR]\n       spt_ledger --write-reference FILE\n";
  return 2;
}

int mainImpl(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--reference") {
      a.reference = v;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--write-reference") {
      a.write_reference = v;
    } else {
      return usage();
    }
  }
  if (!a.write_reference.empty()) return writeReferenceFile(a.write_reference);
  if (a.reference.empty() || a.seconds <= 0) return usage();
  Reference ref;
  std::string error;
  if (!loadReference(a.reference, &ref, &error)) {
    std::cerr << "spt_ledger: " << error << "\n";
    return 2;
  }
  fs::create_directories(a.out);
  Tracer tracer(a.trace);
  Run run;
  if (a.workload == "sweep_cold") {
    run = sweepCold(a, ref, tracer);
  } else if (a.workload == "sim_grid") {
    run = simGrid(a, ref, tracer);
  } else if (a.workload == "serve_mixed") {
    run = serveMixed(a, ref, tracer);
  } else {
    return usage();
  }
  if (a.trace) {
    const std::string path = a.out + "/" + a.workload + "-trace.json";
    if (!writeChromeTrace(path, tracer.spans())) {
      std::cerr << "spt_ledger: cannot write " << path << "\n";
      return 1;
    }
    std::cout << "chrome trace: " << path << "\n";
  }
  printResult(run, a.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::mainImpl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "spt_ledger: " << e.what() << "\n";
    return 1;
  }
}
