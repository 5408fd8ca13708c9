// Tests for the v3 trace container as the production reader sees it:
// round trips through MappedTrace::open, simulate-from-file equivalence,
// and the corruption diagnostics that decide whether a file is trusted.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "harness/experiment.h"
#include "random_programs.h"
#include "sim/baseline.h"
#include "test_programs.h"
#include "trace/trace_io.h"

namespace spt::trace {
namespace {

// v3 header: magic(8) + version(4) + flags(4) + count(8) + checksum(8) +
// two meta words(16).
constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kRecordBytes = 40;

/// A per-test file path: tests of one binary may run concurrently.
std::string tracePath() {
  return ::testing::TempDir() + "/spt_trace_io_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".spt3";
}

/// The bytes of `trace` in the v3 container.
std::string v3Bytes(TraceView trace, const TraceFileMeta& meta = {}) {
  const std::string path = tracePath();
  EXPECT_TRUE(writeTraceV3File(path, trace, meta));
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

/// Writes `bytes` to the test's file and opens it with the production
/// reader. The file is not rewritten while the returned mapping lives.
std::optional<MappedTrace> openBytes(const std::string& bytes,
                                     std::string* error = nullptr) {
  const std::string path = tracePath();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  return MappedTrace::open(path, error);
}

void expectRejected(const std::string& bytes, const std::string& expected,
                    const std::string& what) {
  std::string error;
  EXPECT_FALSE(openBytes(bytes, &error).has_value()) << what;
  EXPECT_NE(error.find(expected), std::string::npos) << what << ": " << error;
}

TEST(TraceIo, RoundTripPreservesEveryField) {
  ir::Module m("t");
  testing::buildForkLoop(m, 20);
  harness::TracedRun run = harness::traceProgram(m);

  const TraceFileMeta meta{0x0123456789abcdefull, 0xfedcba9876543210ull};
  std::string error;
  const auto back = openBytes(v3Bytes(run.trace, meta), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->meta().word0, meta.word0);
  EXPECT_EQ(back->meta().word1, meta.word1);
  ASSERT_EQ(back->size(), run.trace.size());
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    const Record& a = run.trace[i];
    const Record& b = back->view()[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.taken, b.taken);
    EXPECT_EQ(a.sid, b.sid);
    EXPECT_EQ(a.frame, b.frame);
    EXPECT_EQ(a.callee_frame, b.callee_frame);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.mem_addr, b.mem_addr);
    EXPECT_EQ(a.mem_old, b.mem_old);
  }

  EXPECT_FALSE(MappedTrace::open(tracePath() + ".missing", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(TraceIo, SimulationFromFileMatchesInMemory) {
  ir::Module m("t");
  testing::buildArraySum(m, 300);
  harness::TracedRun run = harness::traceProgram(m);

  const auto loaded = openBytes(v3Bytes(run.trace));
  ASSERT_TRUE(loaded.has_value());

  const support::MachineConfig config;
  const auto direct = sim::BaselineMachine(m, run.trace, config).run();
  const auto from_file = sim::BaselineMachine(m, *loaded, config).run();
  EXPECT_EQ(direct.cycles, from_file.cycles);
  EXPECT_EQ(direct.instrs, from_file.instrs);
  EXPECT_EQ(direct.breakdown.execution, from_file.breakdown.execution);
}

TEST(TraceIo, RejectsBadMagic) {
  ir::Module m("t");
  testing::buildArraySum(m, 2);
  harness::TracedRun run = harness::traceProgram(m);
  std::string bytes = v3Bytes(run.trace);
  bytes.replace(0, 8, "NOTATRAC");
  expectRejected(bytes, "bad magic", "foreign magic");
}

// A file whose length disagrees with its header's record count is cut
// short or carries trailing garbage; the diagnostic says which and where.
TEST(TraceIo, RejectsTruncatedStream) {
  ir::Module m("t");
  testing::buildArraySum(m, 10);
  harness::TracedRun run = harness::traceProgram(m);
  const std::string full = v3Bytes(run.trace);

  const std::string cut = full.substr(0, full.size() / 2);
  expectRejected(cut, "record stream size mismatch", "truncated");
  expectRejected(cut,
                 "truncated at byte offset " + std::to_string(cut.size()),
                 "truncated");

  for (const std::size_t extra : {std::size_t{1}, kRecordBytes}) {
    const std::string what = std::to_string(extra) + " trailing bytes";
    const std::string padded = full + std::string(extra, '\0');
    expectRejected(padded, "record stream size mismatch", what);
    expectRejected(padded, "(trailing garbage)", what);
  }
}

TEST(TraceIo, RejectsCorruptKind) {
  ir::Module m("t");
  testing::buildArraySum(m, 2);
  harness::TracedRun run = harness::traceProgram(m);
  std::string bytes = v3Bytes(run.trace);
  bytes[kHeaderBytes] = 0x7f;  // first record's kind byte
  expectRejected(bytes, "corrupt record kind", "kind 0x7f");
  expectRejected(bytes, "byte offset " + std::to_string(kHeaderBytes),
                 "kind 0x7f");
}

// Header fields the reader refuses to guess about: a foreign version —
// including the retired v2 record stream — and reserved flag bits.
TEST(TraceIo, RejectsVersionMismatch) {
  ir::Module m("t");
  testing::buildArraySum(m, 2);
  harness::TracedRun run = harness::traceProgram(m);
  const std::string full = v3Bytes(run.trace);

  std::string bytes = full;
  bytes[8] = 99;  // version field (little-endian low byte)
  expectRejected(bytes, "unsupported trace version 99", "version 99");

  bytes[8] = 2;
  expectRejected(bytes, "unsupported trace version 2 (expected 3)",
                 "version 2");

  for (const std::size_t flag_byte : {12u, 15u}) {
    const std::string what = "flags byte " + std::to_string(flag_byte);
    bytes = full;
    bytes[flag_byte] = 1;
    expectRejected(bytes, "unsupported v3 flags", what);
    expectRejected(bytes, "at byte offset 12", what);
  }
}

// Byte-truncation at many offsets of a serialized random program. Every
// truncation point must be rejected: inside the header with the header's
// size, past it with the byte offset where the records stop.
TEST(TraceIo, TruncationAtAnyOffsetIsDiagnosed) {
  ir::Module m = testing::generateRandomProgram(3);
  const harness::TracedRun run = harness::traceProgram(m);
  const std::string full = v3Bytes(run.trace);
  ASSERT_GT(full.size(), kHeaderBytes + 2 * kRecordBytes);

  for (std::size_t cut = 1; cut < full.size(); cut += 97) {
    std::string error;
    ASSERT_FALSE(openBytes(full.substr(0, cut), &error).has_value())
        << "cut " << cut;
    ASSERT_FALSE(error.empty()) << "cut " << cut;
    const std::string expected =
        cut < kHeaderBytes ? "truncated header: file is " + std::to_string(cut)
                           : "truncated at byte offset " + std::to_string(cut);
    EXPECT_NE(error.find(expected), std::string::npos)
        << "cut " << cut << ": " << error;
  }
}

// Single-bit flips anywhere in the record stream are caught — either as an
// out-of-range kind/opcode/taken/pad byte at a named offset or by the
// whole-stream checksum.
TEST(TraceIo, BitFlipsAreDetected) {
  ir::Module m = testing::generateRandomProgram(5);
  const harness::TracedRun run = harness::traceProgram(m);
  const std::string full = v3Bytes(run.trace);

  std::size_t checksum_hits = 0;
  std::size_t range_hits = 0;
  for (std::size_t byte = kHeaderBytes; byte < full.size(); byte += 53) {
    for (int bit : {0, 4, 7}) {
      std::string bytes = full;
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      std::string error;
      ASSERT_FALSE(openBytes(bytes, &error).has_value())
          << "byte " << byte << " bit " << bit;
      if (error.find("checksum mismatch") != std::string::npos) {
        ++checksum_hits;
      } else if (error.find("corrupt") != std::string::npos) {
        ++range_hits;
        EXPECT_NE(error.find("byte offset"), std::string::npos) << error;
      } else {
        FAIL() << "unexpected diagnostic: " << error;
      }
    }
  }
  EXPECT_GT(checksum_hits, 0u);
  EXPECT_GT(range_hits, 0u);
}

void expectRecordsEqual(TraceView a, TraceView b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Record& ra = a[i];
    const Record& rb = b[i];
    ASSERT_EQ(ra.kind, rb.kind) << "record " << i;
    ASSERT_EQ(ra.op, rb.op) << "record " << i;
    ASSERT_EQ(ra.taken, rb.taken) << "record " << i;
    ASSERT_EQ(ra.sid, rb.sid) << "record " << i;
    ASSERT_EQ(ra.frame, rb.frame) << "record " << i;
    ASSERT_EQ(ra.callee_frame, rb.callee_frame) << "record " << i;
    // For kIterBegin records `value` is the 0-based iteration index, so
    // this also checks loop-iteration reconstruction from disk.
    ASSERT_EQ(ra.value, rb.value) << "record " << i;
    ASSERT_EQ(ra.mem_addr, rb.mem_addr) << "record " << i;
    ASSERT_EQ(ra.mem_old, rb.mem_old) << "record " << i;
  }
}

void expectSameLoopIndex(const ir::Module& m, TraceView a, TraceView b) {
  const LoopIndex ia(m, a);
  const LoopIndex ib(m, b);
  ASSERT_EQ(ia.episodes().size(), ib.episodes().size());
  for (std::size_t e = 0; e < ia.episodes().size(); ++e) {
    const LoopEpisode& ea = ia.episodes()[e];
    const LoopEpisode& eb = ib.episodes()[e];
    EXPECT_EQ(ea.header_sid, eb.header_sid);
    EXPECT_EQ(ea.frame, eb.frame);
    EXPECT_EQ(ea.iter_begins, eb.iter_begins);
    EXPECT_EQ(ea.exit_index, eb.exit_index);
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind == RecordKind::kInstr && a[i].op == ir::Opcode::kSptFork) {
      EXPECT_EQ(ia.startOfFork(i), ib.startOfFork(i)) << "record " << i;
    }
  }
}

// Property test: seeded random programs (induction chains, scattered
// loads/stores, calls, conditional blocks) survive a disk round trip
// record-exactly, and the LoopIndex rebuilt from the mapped trace is
// identical — episodes, iteration boundaries, and fork start-points.
TEST(TraceIo, RandomProgramRoundTripProperty) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ir::Module m = testing::generateRandomProgram(seed);
    const harness::TracedRun run = harness::traceProgram(m);
    ASSERT_GT(run.trace.size(), 0u) << "seed " << seed;

    std::string error;
    const auto back = openBytes(v3Bytes(run.trace), &error);
    ASSERT_TRUE(back.has_value()) << "seed " << seed << ": " << error;
    expectRecordsEqual(run.trace, *back);
    expectSameLoopIndex(m, run.trace, *back);
  }
}

// Fork records specifically: the mapped trace must resolve every fork to
// the same speculative start-point as the in-memory trace.
TEST(TraceIo, ForkResolutionSurvivesRoundTrip) {
  ir::Module m("t");
  testing::buildForkLoop(m, 25);
  const harness::TracedRun run = harness::traceProgram(m);
  const auto back = openBytes(v3Bytes(run.trace));
  ASSERT_TRUE(back.has_value());

  const LoopIndex original(m, run.trace);
  std::size_t resolved_forks = 0;
  for (std::size_t i = 0; i < run.trace.size(); ++i) {
    if (run.trace[i].kind == RecordKind::kInstr &&
        run.trace[i].op == ir::Opcode::kSptFork &&
        original.startOfFork(i) != LoopIndex::kNoStart) {
      ++resolved_forks;
    }
  }
  EXPECT_GT(resolved_forks, 0u);
  expectSameLoopIndex(m, run.trace, *back);
}

}  // namespace
}  // namespace spt::trace
