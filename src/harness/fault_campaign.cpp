#include "harness/fault_campaign.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>

#include "harness/cell_codec.h"
#include "harness/checkpoint.h"
#include "harness/suite.h"
#include "sim/oracle.h"
#include "sim/spt_machine.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"

namespace spt::harness {
namespace {

/// A workload compiled and traced once, shared (immutably) by every fault
/// seed's cell. The module lives behind a unique_ptr because LoopIndex
/// keeps a reference to it and Prepared objects are moved into place.
/// Under isolation, forked workers inherit these via copy-on-write, so a
/// 10x64 supervised campaign still costs ten compilations.
struct Prepared {
  std::string name;
  std::unique_ptr<ir::Module> module;
  trace::TraceBuffer trace;
  std::unique_ptr<trace::LoopIndex> index;
  std::uint64_t sequential_digest = 0;
};

/// Phase 1 for one workload: build, compile (following the machine's chain
/// depth, so chained campaigns exercise slice-equipped forks too), trace,
/// index, and digest the sequential replay.
Prepared prepareWorkload(const SuiteEntry& entry,
                         const FaultCampaignOptions& opts) {
  Prepared p;
  p.name = entry.workload.name;
  p.module = std::make_unique<ir::Module>(entry.workload.build(opts.scale));
  compiler::CompilerOptions copts = entry.copts;
  copts.spec_threads = opts.machine.spec_threads;
  compiler::SptCompiler cc(copts);
  InterpProfileRunner runner;
  cc.compile(*p.module, runner);
  TracedRun run = traceProgram(*p.module, {}, opts.machine.max_trace_records);
  p.trace = std::move(run.trace);
  p.index = std::make_unique<trace::LoopIndex>(*p.module, p.trace);
  p.sequential_digest = sim::Oracle::sequentialDigest(*p.module, p.trace);
  return p;
}

}  // namespace

std::string campaignCellConfigKey(std::size_t cell_index,
                                  std::uint64_t fault_seed) {
  return "cell:" + std::to_string(cell_index) +
         "/seed:" + std::to_string(fault_seed);
}

CheckpointLine campaignCheckpointLine(const FaultCampaignCell& cell,
                                      std::size_t c) {
  CheckpointLine line;
  line.status = cell.status;
  line.benchmark = cell.benchmark;
  line.config = campaignCellConfigKey(c, cell.fault_seed);
  line.metrics = {
      cell.faults.injected,
      cell.faults.detected_by_net,
      cell.faults.detected_by_oracle,
      cell.faults.benign,
      cell.faults.escaped,
      cell.oracle_checks,
      cell.arch_digest,
      cell.sequential_digest,
      cell.digest_match ? 1ull : 0ull,
      cell.diverged ? 1ull : 0ull,
      cell.divergence_pos,
  };
  line.diagnostic = cell.diagnostic;
  return line;
}

FaultCampaignCell campaignCellFromCheckpointLine(const CheckpointLine& l,
                                                 const std::string& benchmark,
                                                 std::uint64_t fault_seed) {
  FaultCampaignCell cell;
  cell.benchmark = benchmark;
  cell.fault_seed = fault_seed;
  cell.status = l.status;
  cell.diagnostic = l.diagnostic;
  cell.faults.injected = l.metrics[0];
  cell.faults.detected_by_net = l.metrics[1];
  cell.faults.detected_by_oracle = l.metrics[2];
  cell.faults.benign = l.metrics[3];
  cell.faults.escaped = l.metrics[4];
  cell.oracle_checks = l.metrics[5];
  cell.arch_digest = l.metrics[6];
  cell.sequential_digest = l.metrics[7];
  cell.digest_match = l.metrics[8] != 0;
  cell.diverged = l.metrics[9] != 0;
  cell.divergence_pos = l.metrics[10];
  return cell;
}

namespace {

/// Runs one (workload, seed) cell, catching every cell-level failure into
/// the cell's status — an oracle divergence, budget blowout, or internal
/// error is reported, not fatal, on both execution paths.
FaultCampaignCell runCampaignCell(const Prepared& p, std::size_t c,
                                  const FaultCampaignOptions& opts) {
  FaultCampaignCell cell;
  cell.benchmark = p.name;
  cell.fault_seed = support::deriveSeed(opts.base_seed, c);
  cell.sequential_digest = p.sequential_digest;

  support::MachineConfig mc = opts.machine;
  // The campaign's claims need the digest even if the caller asked for
  // no oracle; deep mode is honored as requested.
  mc.oracle = opts.oracle == support::OracleMode::kOff
                  ? support::OracleMode::kDigest
                  : opts.oracle;
  mc.fault_plan.enabled = true;
  mc.fault_plan.seed = cell.fault_seed;
  mc.fault_plan.period = opts.period;

  try {
    sim::SptMachine machine(*p.module, p.trace, *p.index, mc);
    const sim::MachineResult r = machine.run();
    cell.faults = r.faults;
    cell.arch_digest = r.arch_digest;
    cell.oracle_checks = r.oracle_checks;
    cell.digest_match = r.arch_digest == p.sequential_digest;
  } catch (const support::SptOracleDivergence& e) {
    cell.status = CellStatus::kInternalError;
    cell.diagnostic = e.what();
    cell.diverged = true;
    cell.divergence_pos = e.tracePos();
    cell.divergence_boundary = e.boundary();
    cell.divergence_diff = e.diff();
  } catch (const support::SptBudgetExceeded& e) {
    cell.status = CellStatus::kBudgetExceeded;
    cell.diagnostic = e.what();
  } catch (const std::exception& e) {
    cell.status = CellStatus::kInternalError;
    cell.diagnostic = e.what();
  }
  return cell;
}

}  // namespace

FaultCampaignResult runFaultCampaign(const FaultCampaignOptions& opts) {
  const std::vector<SuiteEntry> suite = defaultSuite();
  const ParallelSweep sweep(opts.jobs);

  // Phase 1: compile + trace each workload once, in parallel. The pool is
  // torn down before phase 2, so supervised forks never race pool threads.
  std::vector<Prepared> prepared =
      sweep.run(suite.size(),
                [&](std::size_t i) { return prepareWorkload(suite[i], opts); });

  // Phase 2: the workloads × seeds grid over the shared traces. Cell c's
  // fault seed depends only on c, so the grid is bit-reproducible at any
  // worker count (and across the isolated / in-process paths). Resume
  // reuses ok checkpoint lines; every other cell runs, in index order.
  const std::size_t n_cells = prepared.size() * opts.seeds;
  FaultCampaignResult result;
  result.cells.resize(n_cells);
  std::vector<std::size_t> to_run;
  {
    std::map<std::string, CheckpointLine> resumed;
    if (opts.resume && !opts.checkpoint_path.empty()) {
      std::string torn_warning;
      resumed = loadCheckpoint(opts.checkpoint_path,
                               kCampaignCheckpointMetrics, &torn_warning);
      if (!torn_warning.empty()) {
        std::fprintf(stderr, "warning: %s\n", torn_warning.c_str());
      }
    }
    for (std::size_t c = 0; c < n_cells; ++c) {
      const std::string& name = prepared[c / opts.seeds].name;
      const std::uint64_t seed = support::deriveSeed(opts.base_seed, c);
      const auto it =
          resumed.find(checkpointKey(name, campaignCellConfigKey(c, seed)));
      if (it != resumed.end() && it->second.status == CellStatus::kOk) {
        result.cells[c] = campaignCellFromCheckpointLine(it->second, name, seed);
      } else {
        to_run.push_back(c);
      }
    }
  }

  DurableAppendFile checkpoint;
  std::mutex checkpoint_mu;
  if (!opts.checkpoint_path.empty()) {
    checkpoint.open(opts.checkpoint_path, /*truncate=*/!opts.resume);
  }
  // The one settle step: pool threads call it concurrently, the
  // supervisor's parent loop one cell at a time.
  const auto settle = [&](std::size_t c, FaultCampaignCell cell) {
    if (checkpoint.isOpen()) {
      const std::lock_guard<std::mutex> lock(checkpoint_mu);
      checkpoint.appendLine(
          formatCheckpointLine(campaignCheckpointLine(cell, c)));
      checkpoint.sync();
    }
    result.cells[c] = std::move(cell);
  };

  if (opts.supervisor.isolate && Supervisor::isolationSupported()) {
    // Workers share phase 1's traces through copy-on-write.
    SupervisorOptions sopts = opts.supervisor;
    if (sopts.jobs == 0) sopts.jobs = sweep.jobs();
    Supervisor(sopts).run(
        to_run.size(),
        [&](std::size_t k) {
          const std::size_t c = to_run[k];
          return encodeCampaignCell(
              runCampaignCell(prepared[c / opts.seeds], c, opts));
        },
        [&](std::size_t k, const Supervisor::Outcome& oc) {
          const std::size_t c = to_run[k];
          const Prepared& p = prepared[c / opts.seeds];
          FaultCampaignCell cell = campaignCellFromOutcome(
              p.name, support::deriveSeed(opts.base_seed, c), oc);
          // A failed cell never carried the worker's digest; fill the
          // ground truth from phase 1 so its checkpoint line matches the
          // in-process one (an ok cell's payload already carries it).
          if (!cell.ok() && cell.sequential_digest == 0) {
            cell.sequential_digest = p.sequential_digest;
          }
          settle(c, std::move(cell));
        });
  } else {
    sweep.run(to_run.size(), [&](std::size_t k) {
      const std::size_t c = to_run[k];
      settle(c, runCampaignCell(prepared[c / opts.seeds], c, opts));
      return true;
    });
  }

  // Totals aggregate ok cells; a failed cell contributes its status (and
  // fails allCellsOk / allDigestsMatch), not half-counted fault numbers.
  for (const FaultCampaignCell& c : result.cells) {
    if (c.ok()) result.totals.accumulate(c.faults);
  }
  return result;
}

FaultCampaignCell runFaultCampaignCellStandalone(
    const std::string& benchmark, std::size_t cell_index,
    const FaultCampaignOptions& opts) {
  FaultCampaignCell cell;
  cell.benchmark = benchmark;
  cell.fault_seed = support::deriveSeed(opts.base_seed, cell_index);
  try {
    for (const SuiteEntry& entry : defaultSuite()) {
      // Compilation and tracing are deterministic, so the cell's
      // JSON-visible fields equal the batch campaign's.
      if (entry.workload.name == benchmark) {
        return runCampaignCell(prepareWorkload(entry, opts), cell_index, opts);
      }
    }
    cell.status = CellStatus::kInternalError;
    cell.diagnostic = "unknown workload '" + benchmark + "'";
  } catch (const support::SptBudgetExceeded& e) {
    cell.status = CellStatus::kBudgetExceeded;
    cell.diagnostic = e.what();
  } catch (const std::exception& e) {
    cell.status = CellStatus::kInternalError;
    cell.diagnostic = e.what();
  }
  return cell;
}

FaultCampaignCell campaignCellFromOutcome(const std::string& benchmark,
                                          std::uint64_t fault_seed,
                                          const Supervisor::Outcome& oc) {
  FaultCampaignCell cell;
  cell.benchmark = benchmark;
  cell.fault_seed = fault_seed;
  if (oc.status == CellStatus::kOk) {
    if (!decodeCampaignCell(oc.payload, &cell)) {
      cell.status = CellStatus::kProtocolError;
      cell.diagnostic =
          "worker payload passed frame validation but failed to decode "
          "as a campaign cell";
    }
  } else {
    cell.status = oc.status;
    cell.diagnostic = oc.diagnostic;
  }
  cell.worker = oc.worker;
  return cell;
}

bool writeFaultCampaignJson(const std::string& path,
                            const FaultCampaignResult& result) {
  std::ofstream out(path);
  if (!out) return false;
  support::JsonWriter w(out);
  w.beginObject();
  w.key("totals").beginObject();
  w.member("injected", result.totals.injected);
  w.member("detected_by_net", result.totals.detected_by_net);
  w.member("detected_by_oracle", result.totals.detected_by_oracle);
  w.member("benign", result.totals.benign);
  w.member("escaped", result.totals.escaped);
  w.endObject();
  w.member("all_detected_or_benign", result.allDetectedOrBenign());
  w.member("all_digests_match", result.allDigestsMatch());
  w.member("all_cells_ok", result.allCellsOk());
  w.key("cells").beginArray();
  for (const FaultCampaignCell& c : result.cells) {
    w.beginObject();
    w.member("benchmark", c.benchmark);
    w.member("fault_seed", c.fault_seed);
    w.member("status", toString(c.status));
    if (!c.diagnostic.empty()) w.member("diagnostic", c.diagnostic);
    w.member("injected", c.faults.injected);
    w.member("detected_by_net", c.faults.detected_by_net);
    w.member("detected_by_oracle", c.faults.detected_by_oracle);
    w.member("benign", c.faults.benign);
    w.member("escaped", c.faults.escaped);
    w.member("oracle_checks", c.oracle_checks);
    w.member("arch_digest", c.arch_digest);
    w.member("digest_match", c.digest_match);
    // First-divergence report from the deep oracle, for failed cells.
    if (c.diverged) {
      w.key("divergence").beginObject();
      w.member("pos", c.divergence_pos);
      w.member("boundary", c.divergence_boundary);
      w.member("diff", c.divergence_diff);
      w.endObject();
    }
    writeWorkerJson(w, c.worker);
    w.endObject();
  }
  w.endArray();
  // Campaign-level rusage aggregate, mirroring writeSweepJson: present
  // only for supervised runs so in-process output is unchanged.
  ResourceReport resource;
  for (const FaultCampaignCell& c : result.cells) resource.add(c.worker);
  if (resource.supervised_cells > 0) writeResourceJson(w, resource);
  w.endObject();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace spt::harness
