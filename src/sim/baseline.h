// Baseline single-core machine: runs a sequential trace on one pipeline.
//
// This is the paper's reference configuration ("the optimized non-SPT code
// running on one core", Section 5.5).
#pragma once

#include "ir/module.h"
#include "sim/decode.h"
#include "sim/result.h"
#include "support/machine_config.h"
#include "trace/trace.h"

namespace spt::sim {

class BaselineMachine {
 public:
  /// The trace's backing store (TraceBuffer or trace_io::MappedTrace) must
  /// outlive the machine.
  BaselineMachine(const ir::Module& module, trace::TraceView trace,
                  const support::MachineConfig& config);

  MachineResult run();

 private:
  const ir::Module& module_;
  trace::TraceView trace_;
  const support::MachineConfig& config_;
  DecodeTable decode_;
};

}  // namespace spt::sim
