// End-to-end experiment harness.
//
// Wires the full pipeline the paper's evaluation uses (Section 5.1):
// compile a source module two ways (baseline = untouched; SPT = two-pass
// cost-driven speculative parallelization), trace both sequential
// executions through the interpreter, and simulate the baseline trace on
// one core and the SPT trace on the two-pipeline SPT machine.
#pragma once

#include <cstdint>
#include <vector>

#include "harness/trace_cache.h"
#include "interp/interpreter.h"
#include "profile/profiler.h"
#include "sim/baseline.h"
#include "sim/spt_machine.h"
#include "spt/driver.h"

namespace spt::harness {

/// ProfileRunner that interprets the module's main function.
class InterpProfileRunner final : public compiler::ProfileRunner {
 public:
  explicit InterpProfileRunner(std::vector<std::int64_t> args = {})
      : args_(std::move(args)) {}

  profile::ProfileData run(
      const ir::Module& module,
      const std::unordered_set<ir::StaticId>& value_candidates) override;

 private:
  std::vector<std::int64_t> args_;
};

struct TracedRun {
  trace::TraceBuffer trace;
  interp::RunResult result;
};

/// Interprets `module`'s main function, collecting the full trace.
/// Finalizes the module first if needed. A non-zero `max_records` caps the
/// interpreted instruction count (support::SptBudgetExceeded past it).
TracedRun traceProgram(ir::Module& module,
                       std::vector<std::int64_t> args = {},
                       std::uint64_t max_records = 0);

struct ExperimentResult {
  compiler::SptPlan plan;
  interp::RunResult baseline_run;
  interp::RunResult spt_run;
  sim::MachineResult baseline;
  sim::MachineResult spt;

  double programSpeedup() const {
    return sim::speedupOf(baseline.cycles, spt.cycles);
  }
};

/// Runs the whole pipeline on `module` (taken by value: the experiment
/// compiles a copy and leaves the caller's module untouched). With
/// non-null `remarks`, fills the compiler's structured per-loop decision
/// log (spt/remarks.h) — the experiment consumes the same plan, so
/// results are unchanged by construction.
///
/// With non-null `cache` the results are identical, but the baseline and
/// SPT traces come from `cache` as mmap-backed v3 files instead of being
/// interpreted per call. `key_prefix` must then identify the program and
/// its scale (e.g. "gzip.x2"); the cache key additionally folds in the
/// run arguments, the trace budget, and — for the SPT trace — the
/// compilation plan's fingerprint, so distinct compiler options never
/// collide. On a cache hit the interpreter never runs: the traced run's
/// return value and memory hash are recovered from the v3 meta words
/// (baseline_run/spt_run.dynamic_instrs is recounted from the trace).
ExperimentResult runSptExperiment(
    ir::Module module, const compiler::CompilerOptions& copts = {},
    const support::MachineConfig& mconfig = {},
    std::vector<std::int64_t> args = {},
    compiler::CompilationRemarks* remarks = nullptr,
    TraceCache* cache = nullptr, const std::string& key_prefix = {});

}  // namespace spt::harness
