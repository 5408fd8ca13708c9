// Fault-injection campaign driver (the robustness evaluation).
//
// Sweeps the ten-workload suite under seeded fault injection with the
// architectural oracle armed, and aggregates the classification of every
// injected fault. The campaign's claims, asserted by tests and CI:
//
//  * every injected fault is detected (by the dependence-checking net or
//    by the commit-time validation walk) or provably benign — the
//    `escaped` counter stays zero;
//  * whatever was injected, the SPT machine's committed architectural
//    state equals the sequential replay of the same trace (the oracle
//    stream digest matches sim::Oracle::sequentialDigest);
//  * the whole campaign is bit-reproducible for a fixed base seed at any
//    --jobs value: cell c's fault seed is support::deriveSeed(base, c), a
//    pure function of the cell index.
//
// Each workload is compiled and traced once (phase 1, parallel); the
// workloads × seeds grid then shares those immutable traces (phase 2), so
// a 10×64 campaign costs ten compilations, not 640.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/parallel_sweep.h"
#include "sim/result.h"
#include "support/machine_config.h"

namespace spt::harness {

struct FaultCampaignOptions {
  std::uint64_t seeds = 8;       // fault seeds per workload
  std::uint64_t base_seed = 0x5eed;
  std::size_t jobs = 0;          // 0 = ThreadPool default
  std::uint64_t scale = 1;
  std::uint32_t period = 32;     // injector firing period (1/period per site)
  support::OracleMode oracle = support::OracleMode::kDigest;
  support::MachineConfig machine;
  /// Checkpoint/resume, sharing the sweep's `spt-sweep-v1` side-file
  /// format (harness/checkpoint.h): every finished cell is appended and
  /// flushed; on resume the last ok line per cell is reused and failed or
  /// missing cells re-run. A cell's key is its workload name plus
  /// "cell:<index>/seed:<fault_seed>", so a resumed file silently ignores
  /// lines from a different grid shape or base seed.
  std::string checkpoint_path;
  bool resume = false;
  /// Process isolation (supervisor.h): with supervisor.isolate set, phase
  /// 2 cells run on the warm worker pool (sharing phase 1's traces via
  /// copy-on-write); crashes/hangs/corrupt replies become non-ok cells.
  SupervisorOptions supervisor;
};

/// One (workload, fault seed) cell. `status` is kOk when the cell's
/// machine run completed; a cell that threw (oracle divergence, budget,
/// internal error) or whose worker process failed under isolation is
/// reported with the corresponding status and diagnostic while the rest
/// of the campaign continues.
struct FaultCampaignCell {
  std::string benchmark;
  std::uint64_t fault_seed = 0;
  CellStatus status = CellStatus::kOk;
  std::string diagnostic;
  sim::FaultStats faults;
  std::uint64_t arch_digest = 0;        // machine's oracle stream digest
  std::uint64_t sequential_digest = 0;  // ground truth for the same trace
  std::uint64_t oracle_checks = 0;
  bool digest_match = false;
  /// First-divergence report from the architectural oracle
  /// (support::SptOracleDivergence): the trace position of the failed
  /// boundary check plus the register/memory diff of the first mismatched
  /// entries. Only meaningful when `diverged` is true.
  bool diverged = false;
  std::uint64_t divergence_pos = 0;
  std::string divergence_boundary;
  std::string divergence_diff;
  /// Supervisor containment data; attempts == 0 on the in-process path.
  WorkerDiagnostics worker;

  bool ok() const { return status == CellStatus::kOk; }
};

struct FaultCampaignResult {
  std::vector<FaultCampaignCell> cells;  // workload-major, seed-minor
  sim::FaultStats totals;               // ok cells only

  bool allDetectedOrBenign() const {
    return totals.escaped == 0 &&
           totals.detectedOrBenign() == totals.injected;
  }
  bool allDigestsMatch() const {
    for (const FaultCampaignCell& c : cells) {
      if (!c.digest_match) return false;
    }
    return true;
  }
  bool allCellsOk() const {
    for (const FaultCampaignCell& c : cells) {
      if (!c.ok()) return false;
    }
    return true;
  }
};

/// Runs the campaign over harness::defaultSuite().
FaultCampaignResult runFaultCampaign(const FaultCampaignOptions& opts = {});

/// Campaign checkpoint metric columns (harness/checkpoint.h line format):
/// injected, detected_by_net, detected_by_oracle, benign, escaped,
/// oracle_checks, arch_digest, sequential_digest, digest_match, diverged,
/// divergence_pos.
inline constexpr std::size_t kCampaignCheckpointMetrics = 11;

/// The campaign cell's checkpoint config key,
/// "cell:<index>/seed:<fault_seed>".
std::string campaignCellConfigKey(std::size_t cell_index,
                                  std::uint64_t fault_seed);

/// The checkpoint line for one finished campaign cell, exposed so the
/// sweep service appends to the same side files `sptc inject` writes.
CheckpointLine campaignCheckpointLine(const FaultCampaignCell& cell,
                                      std::size_t cell_index);

/// Inverse of campaignCheckpointLine: reconstructs a resumed cell from a
/// parsed checkpoint line (`line.metrics.size()` must be
/// kCampaignCheckpointMetrics) plus the benchmark/fault-seed identity the
/// caller derives from the cell index. The 11 metrics cover every
/// deterministic per-cell field writeFaultCampaignJson emits for a clean
/// cell (the divergence boundary/diff excerpt only exists for diverged
/// cells, matching `--resume`, which also re-runs those). Shared by
/// resume and the sweep service's journal recovery.
FaultCampaignCell campaignCellFromCheckpointLine(const CheckpointLine& line,
                                                 const std::string& benchmark,
                                                 std::uint64_t fault_seed);

/// Worker-side body of one campaign cell that owns its whole pipeline:
/// compiles and traces `benchmark` (a defaultSuite() workload name) in the
/// calling process, then runs the seeded fault cell exactly as
/// runFaultCampaign's phase 2 would. The sweep service's pooled workers
/// use this — they are forked before any request exists, so they cannot
/// share a parent's prepared traces; re-deriving them is deterministic,
/// and every JSON-visible field matches the batch campaign's. `cell_index`
/// positions the cell in the grid (fault_seed =
/// deriveSeed(opts.base_seed, cell_index)). An unknown benchmark or a
/// failed compile/trace becomes a kInternalError cell, not a throw.
FaultCampaignCell runFaultCampaignCellStandalone(
    const std::string& benchmark, std::size_t cell_index,
    const FaultCampaignOptions& opts);

/// Parent-side settle of one supervised campaign cell: decodes a kOk
/// outcome's payload (or synthesizes a failed cell from the tags and the
/// transport diagnostic) and attaches the worker diagnostics. Mirrors
/// sweepRowFromOutcome for the campaign path.
FaultCampaignCell campaignCellFromOutcome(const std::string& benchmark,
                                          std::uint64_t fault_seed,
                                          const Supervisor::Outcome& outcome);

/// {"totals":{...}, "all_detected_or_benign":b, "all_digests_match":b,
///  "all_cells_ok":b,
///  "cells":[{benchmark, fault_seed, status, injected, ..., digest_match,
///            divergence?{pos, boundary, diff}, worker?{...}}, ...]}.
/// Returns false on I/O failure.
bool writeFaultCampaignJson(const std::string& path,
                            const FaultCampaignResult& result);

}  // namespace spt::harness
