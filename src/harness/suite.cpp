#include "harness/suite.h"

namespace spt::harness {

std::vector<SuiteEntry> defaultSuite() {
  std::vector<SuiteEntry> suite;
  for (workloads::Workload& w : workloads::specSuite()) {
    SuiteEntry entry;
    if (w.name == "gap") {
      // Paper Section 5.3: "For gap, because of one hot loop mentioned
      // above, we considered loops with average loop body size less than
      // 2500 instructions."
      entry.copts.max_avg_body_size = 2500.0;
    }
    entry.workload = std::move(w);
    suite.push_back(std::move(entry));
  }
  return suite;
}

ExperimentResult runSuiteEntry(const SuiteEntry& entry,
                               const support::MachineConfig& mconfig,
                               std::uint64_t scale,
                               compiler::CompilationRemarks* remarks,
                               TraceCache* trace_cache) {
  return runSptExperiment(entry.workload.build(scale), entry.copts, mconfig,
                          {}, remarks, trace_cache,
                          entry.workload.name + ".x" + std::to_string(scale));
}

}  // namespace spt::harness
