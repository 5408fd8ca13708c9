// One SPT cell as the benchmark sees it: the deterministic simulated facts
// every workload checks against the committed reference, and the traced
// composition of a cell from the public calls of each module.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/parallel_sweep.h"
#include "ledger.h"
#include "spt/remarks.h"

namespace perfbench {

/// The deterministic simulated fields of one (benchmark, N, recovery)
/// cell. They depend on nothing the host does, so every workload and
/// every path to the cell must read them identically.
struct CellFacts {
  std::uint64_t baseline_cycles = 0;
  std::uint64_t baseline_instrs = 0;
  std::uint64_t spt_cycles = 0;
  std::uint64_t spt_instrs = 0;
  std::uint64_t spawned = 0;
  std::uint64_t fast_commits = 0;
  std::uint64_t misspec_instrs = 0;

  bool operator==(const CellFacts&) const = default;
};

CellFacts factsOf(const spt::sim::MachineResult& baseline,
                  const spt::sim::MachineResult& spt);

/// "bzip2\t1\tsrx_fc": the reference key of a cell.
std::string cellKey(const std::string& benchmark, std::uint32_t spec_threads,
                    spt::support::RecoveryMechanism recovery);

/// The committed reference (perfbench/reference.tsv): one line per cell,
/// key columns then the CellFacts fields in declaration order.
using Reference = std::map<std::string, CellFacts>;
bool loadReference(const std::string& path, Reference* out,
                   std::string* error);
bool writeReference(const std::string& path, const Reference& ref);

/// "" when `row` is ok and its facts equal the reference entry for `key`;
/// otherwise why the cell counts as failed. `runs_compared` says whether
/// the row still carries the interpreter runs (in-process rows do); when
/// it does, baseline and SPT return value and memory hash must match.
/// Served rows drop the runs, and their workers enforce the same equality
/// with SPT_CHECK, which turns a mismatch into a non-ok row.
std::string checkRow(const Reference& ref, const std::string& key,
                     const spt::harness::SweepRow& row, bool runs_compared);

/// ProfileRunner decorator: forwards to the wrapped runner inside a
/// "profile.run" span and counts the runs.
class TimedProfileRunner final : public spt::compiler::ProfileRunner {
 public:
  TimedProfileRunner(spt::compiler::ProfileRunner& inner, Tracer& tracer,
                     std::string cell)
      : inner_(inner), tracer_(tracer), cell_(std::move(cell)) {}

  spt::profile::ProfileData run(
      const spt::ir::Module& module,
      const std::unordered_set<spt::ir::StaticId>& value_candidates) override;

  std::uint64_t runs() const { return runs_; }

 private:
  spt::compiler::ProfileRunner& inner_;
  Tracer& tracer_;
  std::string cell_;
  std::uint64_t runs_ = 0;
};

/// What a traced cell reports beyond its ExperimentResult.
struct CellLayers {
  std::vector<spt::compiler::PassRemark> passes;  // compiler pass times
  std::uint64_t profile_runs = 0;
};

/// runSptExperiment (harness/experiment.cpp, the uncached variant) composed
/// from the same public calls, each inside a span named after its layer:
/// workloads.build, ir.finalize, spt.compile (profile.run children),
/// interp.trace x2, sim.baseline, trace.index, sim.spt. The result must be
/// identical to the untraced path's; the benchmark asserts that. The cell
/// span's parent is `parent` (the sweep span, open on another thread).
spt::harness::ExperimentResult runTracedCell(const spt::harness::SweepCase& c,
                                             Tracer& tracer,
                                             const std::string& cell_id,
                                             int parent, CellLayers* layers);

}  // namespace perfbench
