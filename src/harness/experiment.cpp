#include "harness/experiment.h"

#include "ir/verifier.h"
#include "support/check.h"

namespace spt::harness {

namespace {

std::uint64_t foldWord(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (i * 8)) & 0xff)) * 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Everything beyond the program identity that shapes a trace: the run
/// arguments and the trace budget.
std::uint64_t traceSalt(const std::vector<std::int64_t>& args,
                        std::uint64_t max_trace_records) {
  std::uint64_t salt = 1469598103934665603ull;
  for (const std::int64_t a : args) {
    salt = foldWord(salt, static_cast<std::uint64_t>(a));
  }
  return foldWord(salt, max_trace_records);
}

}  // namespace

profile::ProfileData InterpProfileRunner::run(
    const ir::Module& module,
    const std::unordered_set<ir::StaticId>& value_candidates) {
  interp::ProgramContext ctx(module);
  interp::Memory memory;
  profile::Profiler profiler(module, value_candidates);
  interp::Interpreter interp(ctx, memory, profiler);
  interp.runMain(args_);
  return profiler.take();
}

TracedRun traceProgram(ir::Module& module, std::vector<std::int64_t> args,
                       std::uint64_t max_records) {
  if (!module.finalized()) module.finalize();
  TracedRun out;
  interp::ProgramContext ctx(module);
  interp::Memory memory;
  interp::Interpreter interp(ctx, memory, out.trace);
  interp::RunLimits limits;
  if (max_records != 0) limits.max_instrs = max_records;
  out.result = interp.runMain(args, limits);
  return out;
}

ExperimentResult runSptExperiment(ir::Module module,
                                  const compiler::CompilerOptions& copts,
                                  const support::MachineConfig& mconfig,
                                  std::vector<std::int64_t> args,
                                  compiler::CompilationRemarks* remarks,
                                  TraceCache* cache,
                                  const std::string& key_prefix) {
  ExperimentResult result;

  // Baseline: the unmodified module.
  ir::Module baseline = module;
  baseline.finalize();

  // SPT: two-pass cost-driven compilation in place.
  compiler::SptCompiler cc(copts);
  InterpProfileRunner runner(args);
  result.plan = cc.compile(module, runner, remarks);
  if (!module.finalized()) module.finalize();

  // Trace both programs. Without a cache the records stay in `local` until
  // the machines below are gone. With one they come from the shared store;
  // the SPT key also folds the plan fingerprint — the transformed program
  // *is* the plan, so two option sets that compile to the same plan
  // legitimately share a trace. On a hit the interpreter never runs, so
  // the run is recovered from the v3 meta words.
  const auto traceOf = [&](ir::Module& m, TracedRun& local, bool spt,
                           interp::RunResult* run) -> trace::TraceView {
    if (cache == nullptr) {
      local = traceProgram(m, args, mconfig.max_trace_records);
      *run = local.result;
      return local.trace;
    }
    const std::string key =
        key_prefix +
        (spt ? ".spt-" + hex64(result.plan.fingerprint()) : ".base") + "-" +
        hex64(traceSalt(args, mconfig.max_trace_records));
    const TraceCache::Entry& entry =
        cache->get(key, [&](trace::TraceFileMeta* meta) {
          TracedRun traced = traceProgram(m, args, mconfig.max_trace_records);
          meta->word0 = static_cast<std::uint64_t>(traced.result.return_value);
          meta->word1 = traced.result.memory_hash;
          return std::move(traced.trace);
        });
    run->return_value = static_cast<std::int64_t>(entry.meta.word0);
    run->memory_hash = entry.meta.word1;
    run->dynamic_instrs = entry.view.instrCount();
    return entry.view;
  };
  TracedRun base_local;
  TracedRun spt_local;
  const trace::TraceView base_trace =
      traceOf(baseline, base_local, false, &result.baseline_run);
  const trace::TraceView spt_trace =
      traceOf(module, spt_local, true, &result.spt_run);

  // Sequential semantics must be preserved by the transformation.
  SPT_CHECK_MSG(
      result.baseline_run.return_value == result.spt_run.return_value,
      "SPT transformation changed the program result");
  SPT_CHECK_MSG(result.baseline_run.memory_hash == result.spt_run.memory_hash,
                "SPT transformation changed the memory image");

  // Simulate.
  sim::BaselineMachine base_machine(baseline, base_trace, mconfig);
  result.baseline = base_machine.run();
  const trace::LoopIndex index(module, spt_trace);
  sim::SptMachine spt_machine(module, spt_trace, index, mconfig);
  result.spt = spt_machine.run();
  return result;
}

}  // namespace spt::harness
