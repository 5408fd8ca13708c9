#include "cell.h"

#include <fstream>
#include <sstream>

#include "harness/experiment.h"
#include "support/check.h"

namespace perfbench {

using spt::support::RecoveryMechanism;

CellFacts factsOf(const spt::sim::MachineResult& baseline,
                  const spt::sim::MachineResult& spt) {
  CellFacts f;
  f.baseline_cycles = baseline.cycles;
  f.baseline_instrs = baseline.instrs;
  f.spt_cycles = spt.cycles;
  f.spt_instrs = spt.instrs;
  f.spawned = spt.threads.spawned;
  f.fast_commits = spt.threads.fast_commits;
  f.misspec_instrs = spt.threads.misspec_instrs;
  return f;
}

std::string cellKey(const std::string& benchmark, std::uint32_t spec_threads,
                    RecoveryMechanism recovery) {
  const char* r = recovery == RecoveryMechanism::kSelectiveReplayFastCommit
                      ? "srx_fc"
                  : recovery == RecoveryMechanism::kSelectiveReplay ? "srx"
                                                                    : "squash";
  return benchmark + "\t" + std::to_string(spec_threads) + "\t" + r;
}

bool loadReference(const std::string& path, Reference* out,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string bench, n, rec;
    CellFacts f;
    if (!std::getline(fields, bench, '\t') || !std::getline(fields, n, '\t') ||
        !std::getline(fields, rec, '\t') ||
        !(fields >> f.baseline_cycles >> f.baseline_instrs >> f.spt_cycles >>
          f.spt_instrs >> f.spawned >> f.fast_commits >> f.misspec_instrs)) {
      *error = path + ":" + std::to_string(lineno) + ": malformed line";
      return false;
    }
    (*out)[bench + "\t" + n + "\t" + rec] = f;
  }
  return true;
}

bool writeReference(const std::string& path, const Reference& ref) {
  std::ofstream out(path);
  out << "# benchmark\tspec_threads\trecovery\tbaseline_cycles\t"
         "baseline_instrs\tspt_cycles\tspt_instrs\tspawned\tfast_commits\t"
         "misspec_instrs\n";
  for (const auto& [key, f] : ref) {
    out << key << '\t' << f.baseline_cycles << '\t' << f.baseline_instrs
        << '\t' << f.spt_cycles << '\t' << f.spt_instrs << '\t' << f.spawned
        << '\t' << f.fast_commits << '\t' << f.misspec_instrs << '\n';
  }
  return static_cast<bool>(out);
}

std::string checkRow(const Reference& ref, const std::string& key,
                     const spt::harness::SweepRow& row, bool runs_compared) {
  if (!row.ok()) {
    return "status " + spt::harness::toString(row.status) + ": " +
           row.diagnostic;
  }
  const spt::harness::ExperimentResult& r = row.result;
  if (runs_compared &&
      (r.baseline_run.return_value != r.spt_run.return_value ||
       r.baseline_run.memory_hash != r.spt_run.memory_hash)) {
    return "baseline and SPT runs disagree on return value or memory";
  }
  const auto it = ref.find(key);
  if (it == ref.end()) return "no reference entry";
  if (!(factsOf(r.baseline, r.spt) == it->second)) {
    return "simulated fields differ from the reference";
  }
  return "";
}

spt::profile::ProfileData TimedProfileRunner::run(
    const spt::ir::Module& module,
    const std::unordered_set<spt::ir::StaticId>& value_candidates) {
  const Tracer::Scope span(tracer_, "profile.run", cell_);
  ++runs_;
  return inner_.run(module, value_candidates);
}

spt::harness::ExperimentResult runTracedCell(const spt::harness::SweepCase& c,
                                             Tracer& tracer,
                                             const std::string& cell_id,
                                             int parent, CellLayers* layers) {
  namespace h = spt::harness;
  const Tracer::Scope cell_span(tracer, "harness.cell", cell_id, parent);
  h::ExperimentResult result;

  spt::ir::Module module = [&] {
    const Tracer::Scope s(tracer, "workloads.build", cell_id);
    return c.entry.workload.build(c.scale);
  }();
  spt::ir::Module baseline = module;
  {
    const Tracer::Scope s(tracer, "ir.finalize", cell_id);
    baseline.finalize();
  }

  spt::compiler::SptCompiler cc(c.entry.copts);
  h::InterpProfileRunner inner;
  TimedProfileRunner runner(inner, tracer, cell_id);
  spt::compiler::CompilationRemarks remarks;
  {
    const Tracer::Scope s(tracer, "spt.compile", cell_id);
    result.plan = cc.compile(module, runner, &remarks);
  }
  layers->passes = std::move(remarks.passes);
  layers->profile_runs = runner.runs();

  const auto traced = [&](spt::ir::Module& m) {
    const Tracer::Scope s(tracer, "interp.trace", cell_id);
    return h::traceProgram(m, {}, c.machine.max_trace_records);
  };
  h::TracedRun base_run = traced(baseline);
  h::TracedRun spt_run = traced(module);
  result.baseline_run = base_run.result;
  result.spt_run = spt_run.result;
  SPT_CHECK_MSG(base_run.result.return_value == spt_run.result.return_value,
                "SPT transformation changed the program result");
  SPT_CHECK_MSG(base_run.result.memory_hash == spt_run.result.memory_hash,
                "SPT transformation changed the memory image");

  {
    const Tracer::Scope s(tracer, "sim.baseline", cell_id);
    spt::sim::BaselineMachine machine(baseline, base_run.trace, c.machine);
    result.baseline = machine.run();
  }
  const spt::trace::LoopIndex index = [&] {
    const Tracer::Scope s(tracer, "trace.index", cell_id);
    return spt::trace::LoopIndex(module, spt_run.trace);
  }();
  {
    const Tracer::Scope s(tracer, "sim.spt", cell_id);
    spt::sim::SptMachine machine(module, spt_run.trace, index, c.machine);
    result.spt = machine.run();
  }
  return result;
}

}  // namespace perfbench
