// Tests for the shared mmap-backed trace store (harness/trace_cache.h) and
// the cached experiment path built on it: production/adoption/hit counter
// semantics, v3 meta-word round trips, and — the property the whole
// subsystem hangs on — bit-identical simulation results whether a machine
// consumes the in-memory text-built TraceBuffer or the mmap'd v3 file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "harness/suite.h"
#include "harness/trace_cache.h"
#include "test_programs.h"
#include "workloads/workloads.h"

namespace spt::harness {
namespace {

std::string freshDir(const std::string& tag) {
  // TempDir() survives across test-binary runs, so an earlier run's trace
  // files would be silently adopted (that adoption is the *subject* of
  // AdoptsFileWrittenByAnotherCache, not a fixture default); start empty.
  const std::string dir = ::testing::TempDir() + "spt_trace_cache_test/" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TracedRun tracedArraySum(int n) {
  ir::Module m("t");
  spt::testing::buildArraySum(m, n);
  return traceProgram(m);
}

TEST(TraceCache, ProducesOnceThenServesFromMemory) {
  TraceCache cache(freshDir("produce_once"));
  const TracedRun run = tracedArraySum(64);
  int producer_calls = 0;
  const auto produce = [&](trace::TraceFileMeta* meta) {
    ++producer_calls;
    meta->word0 = 0xfeedbeefull;
    meta->word1 = 0x1234abcdull;
    return tracedArraySum(64).trace;  // TraceBuffer is move-only
  };

  const TraceCache::Entry& first = cache.get("arraysum.a", produce);
  EXPECT_EQ(producer_calls, 1);
  EXPECT_EQ(cache.produced(), 1u);
  EXPECT_EQ(cache.memoryHits(), 0u);
  ASSERT_EQ(first.view.size(), run.trace.size());
  // The meta words written by the producer come back through the v3
  // header, not through producer-local state.
  EXPECT_EQ(first.meta.word0, 0xfeedbeefull);
  EXPECT_EQ(first.meta.word1, 0x1234abcdull);

  const TraceCache::Entry& second = cache.get("arraysum.a", produce);
  EXPECT_EQ(producer_calls, 1) << "second get must not re-produce";
  EXPECT_EQ(cache.memoryHits(), 1u);
  EXPECT_EQ(&first, &second) << "entry references are stable";

  // The mapped view carries the same records the producer returned.
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    EXPECT_EQ(first.view[i].kind, run.trace[i].kind);
    EXPECT_EQ(first.view[i].value, run.trace[i].value);
    EXPECT_EQ(first.view[i].mem_addr, run.trace[i].mem_addr);
  }
}

// Re-traces `run` (an arraysum of 32) with its result in the meta words,
// counting calls in `*calls`.
TraceCache::Producer arraySum32Producer(const TracedRun& run, int* calls) {
  return [&run, calls](trace::TraceFileMeta* meta) {
    ++*calls;
    meta->word0 = static_cast<std::uint64_t>(run.result.return_value);
    meta->word1 = run.result.memory_hash;
    return tracedArraySum(32).trace;
  };
}

// Writes `run`'s trace through a cache over `dir` under `key`, as another
// process sharing the store would, and returns the file it wrote.
std::string writeThroughCache(const std::string& dir, const std::string& key,
                              const TracedRun& run) {
  int calls = 0;
  return TraceCache(dir).get(key, arraySum32Producer(run, &calls)).path;
}

void expectEntryMatchesRun(const TraceCache::Entry& entry,
                           const TracedRun& run) {
  ASSERT_EQ(entry.view.size(), run.trace.size());
  EXPECT_EQ(std::memcmp(entry.view.data(), run.trace.view().data(),
                        run.trace.size() * sizeof(trace::Record)),
            0);
  EXPECT_EQ(entry.meta.word0,
            static_cast<std::uint64_t>(run.result.return_value));
  EXPECT_EQ(entry.meta.word1, run.result.memory_hash);
}

TEST(TraceCache, AdoptsFileWrittenByAnotherCache) {
  // Two caches over one directory model two processes sharing the store:
  // the second must adopt the first's file without running its producer.
  const std::string dir = freshDir("adopt");
  const TracedRun run = tracedArraySum(32);
  writeThroughCache(dir, "arraysum.b", run);

  TraceCache reader(dir);
  const TraceCache::Entry& entry =
      reader.get("arraysum.b", [&](trace::TraceFileMeta*) {
        ADD_FAILURE() << "producer ran despite a valid file on disk";
        return trace::TraceBuffer{};
      });
  EXPECT_EQ(reader.fileReuses(), 1u);
  EXPECT_EQ(reader.produced(), 0u);
  expectEntryMatchesRun(entry, run);

  // A damaged file is never trusted: one flipped record byte, or a cut
  // file, fails validation at open and the reader re-produces the trace.
  const std::vector<std::pair<std::string, std::function<void(std::string&)>>>
      damages = {
          {"flipped record byte",
           [](std::string& bytes) { bytes[48 + 40 * 3 + 20] ^= 0x10; }},
          {"truncated", [](std::string& bytes) { bytes.resize(100); }},
      };
  for (const auto& [what, damage] : damages) {
    SCOPED_TRACE(what);
    const std::string damaged_dir = freshDir("adopt_damaged");
    const std::string path = writeThroughCache(damaged_dir, "arraysum.b", run);
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    damage(bytes);
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;

    TraceCache damaged_reader(damaged_dir);
    int producer_calls = 0;
    const TraceCache::Entry& fresh = damaged_reader.get(
        "arraysum.b", arraySum32Producer(run, &producer_calls));
    EXPECT_EQ(producer_calls, 1);
    EXPECT_EQ(damaged_reader.produced(), 1u);
    EXPECT_EQ(damaged_reader.fileReuses(), 0u);
    expectEntryMatchesRun(fresh, run);
  }
}

TEST(TraceCache, DistinctKeysGetDistinctFiles) {
  TraceCache cache(freshDir("keys"));
  const TracedRun small = tracedArraySum(8);
  const TracedRun large = tracedArraySum(200);
  const auto producerOf = [](int n) {
    return [n](trace::TraceFileMeta*) { return tracedArraySum(n).trace; };
  };
  const TraceCache::Entry& a = cache.get("k.small", producerOf(8));
  const TraceCache::Entry& b = cache.get("k.large", producerOf(200));
  EXPECT_EQ(cache.produced(), 2u);
  EXPECT_NE(a.path, b.path);
  EXPECT_EQ(a.view.size(), small.trace.size());
  EXPECT_EQ(b.view.size(), large.trace.size());
}

// ------------------------------------------------------------------------
// Text-built vs binary-mapped simulation equality.

void expectSameMachineResult(const sim::MachineResult& text,
                             const sim::MachineResult& mapped) {
  EXPECT_EQ(text.cycles, mapped.cycles);
  EXPECT_EQ(text.instrs, mapped.instrs);
  EXPECT_EQ(text.breakdown.execution, mapped.breakdown.execution);
  EXPECT_EQ(text.breakdown.pipeline_stall, mapped.breakdown.pipeline_stall);
  EXPECT_EQ(text.breakdown.dcache_stall, mapped.breakdown.dcache_stall);
  ASSERT_EQ(text.loops.size(), mapped.loops.size());
  for (const auto& [name, s] : text.loops) {
    const auto it = mapped.loops.find(name);
    ASSERT_NE(it, mapped.loops.end()) << name;
    EXPECT_EQ(s.cycles, it->second.cycles) << name;
    EXPECT_EQ(s.episodes, it->second.episodes) << name;
    EXPECT_EQ(s.iterations, it->second.iterations) << name;
  }
  EXPECT_EQ(text.threads.spawned, mapped.threads.spawned);
  EXPECT_EQ(text.threads.fast_commits, mapped.threads.fast_commits);
  EXPECT_EQ(text.threads.replays, mapped.threads.replays);
  EXPECT_EQ(text.threads.squashes, mapped.threads.squashes);
  EXPECT_EQ(text.threads.committed_instrs, mapped.threads.committed_instrs);
  EXPECT_EQ(text.l1d.hits, mapped.l1d.hits);
  EXPECT_EQ(text.l1d.misses, mapped.l1d.misses);
  EXPECT_EQ(text.l2.hits, mapped.l2.hits);
  EXPECT_EQ(text.l2.misses, mapped.l2.misses);
  EXPECT_EQ(text.l3.hits, mapped.l3.hits);
  EXPECT_EQ(text.l3.misses, mapped.l3.misses);
  EXPECT_EQ(text.branch_mispredict_ratio, mapped.branch_mispredict_ratio);
}

TEST(TraceCache, CachedExperimentMatchesPlainExperiment) {
  TraceCache cache(freshDir("experiment"));
  const workloads::Workload w = workloads::findWorkload("gzip");

  const ExperimentResult plain = runSptExperiment(w.build(1));
  const ExperimentResult cached =
      runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "gzip.x1");
  EXPECT_EQ(cache.produced(), 2u);  // one baseline trace + one SPT trace

  EXPECT_EQ(plain.baseline_run.return_value, cached.baseline_run.return_value);
  EXPECT_EQ(plain.baseline_run.memory_hash, cached.baseline_run.memory_hash);
  EXPECT_EQ(plain.baseline_run.dynamic_instrs,
            cached.baseline_run.dynamic_instrs);
  EXPECT_EQ(plain.spt_run.return_value, cached.spt_run.return_value);
  EXPECT_EQ(plain.spt_run.memory_hash, cached.spt_run.memory_hash);
  EXPECT_EQ(plain.spt_run.dynamic_instrs, cached.spt_run.dynamic_instrs);
  EXPECT_EQ(plain.plan.fingerprint(), cached.plan.fingerprint());
  expectSameMachineResult(plain.baseline, cached.baseline);
  expectSameMachineResult(plain.spt, cached.spt);

  // A second cached run hits memory for both traces and — the whole point
  // — still reproduces the plain results without any interpretation.
  const ExperimentResult again =
      runSptExperiment(w.build(1), {}, {}, {}, nullptr, &cache, "gzip.x1");
  EXPECT_EQ(cache.produced(), 2u);
  EXPECT_EQ(cache.memoryHits(), 2u);
  expectSameMachineResult(plain.baseline, again.baseline);
  expectSameMachineResult(plain.spt, again.spt);
}

TEST(TraceCache, SuiteGoldenDigestsMatchTextVsBinary) {
  // The satellite gate: for every suite workload, simulating over the
  // mmap'd v3 file must be bit-identical to simulating over the in-memory
  // trace — baseline and SPT machines both. This is the suite-wide
  // extension of golden_digest_test's pins: those pin absolute values for
  // three workloads; this pins text-vs-binary equality for all ten.
  TraceCache cache(freshDir("suite"));
  for (const SuiteEntry& entry : defaultSuite()) {
    SCOPED_TRACE(entry.workload.name);
    const ExperimentResult text = runSuiteEntry(entry);
    const ExperimentResult binary =
        runSuiteEntry(entry, {}, 1, nullptr, &cache);
    expectSameMachineResult(text.baseline, binary.baseline);
    expectSameMachineResult(text.spt, binary.spt);
  }
}

}  // namespace
}  // namespace spt::harness
