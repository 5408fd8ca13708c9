// Unit tests for src/profile: branch, loop, dependence and value profiling.
#include <gtest/gtest.h>

#include <limits>

#include "interp/interpreter.h"
#include "ir/builder.h"
#include "profile/profiler.h"
#include "test_programs.h"

namespace spt::profile {
namespace {

using namespace ir;

struct Profiled {
  ProfileData data;
  Module module{"p"};
  StaticId headerSidOf(const std::string& func, const std::string& label) {
    const FuncId f = module.findFunction(func);
    for (const auto& block : module.function(f).blocks) {
      if (block.label == label) return block.instrs.front().static_id;
    }
    ADD_FAILURE() << "no block " << label;
    return kInvalidStaticId;
  }
};

void runProfiled(Profiled& p,
                 std::unordered_set<StaticId> value_candidates = {}) {
  p.module.finalize();
  interp::ProgramContext ctx(p.module);
  interp::Memory mem;
  Profiler profiler(p.module, std::move(value_candidates));
  interp::Interpreter interp(ctx, mem, profiler);
  interp.runMain();
  p.data = profiler.take();
}

TEST(Profiler, LoopStatsForArraySum) {
  Profiled p;
  testing::buildArraySum(p.module, 50);
  runProfiled(p);
  const StaticId sum_loop = p.headerSidOf("main", "sum_loop");
  const LoopStats* stats = p.data.loopStats(sum_loop);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->episodes, 1u);
  EXPECT_EQ(stats->iterations, 51u);  // 50 body + 1 exit check
  EXPECT_GT(stats->dyn_instrs, 50u * 5);
  EXPECT_NEAR(stats->avgTripCount(), 51.0, 1e-9);
  EXPECT_GT(stats->avgBodySize(), 5.0);
  EXPECT_LT(stats->avgBodySize(), 20.0);
}

TEST(Profiler, BranchProbabilities) {
  Profiled p;
  testing::buildArraySum(p.module, 99);
  runProfiled(p);
  // Both loop branches are taken 99 times, not-taken once.
  int checked = 0;
  for (const auto& [sid, stats] : p.data.branches) {
    (void)sid;
    if (stats.total() == 100) {
      EXPECT_NEAR(stats.takenProb(), 0.99, 1e-9);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2);
}

TEST(Profiler, BranchFallbackWhenUnseen) {
  ProfileData data;
  EXPECT_DOUBLE_EQ(data.branchTakenProb(1234), 0.5);
  EXPECT_DOUBLE_EQ(data.branchTakenProb(1234, 0.9), 0.9);
}

TEST(Profiler, CrossIterationMemDepDetected) {
  // for i in 1..n: buf[i] = buf[i-1] + 1  -- the load of buf[i-1] reads the
  // previous iteration's store with probability ~1.
  Profiled p;
  const FuncId f = p.module.addFunction("main", 0);
  IrBuilder b(p.module, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("dep_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg buf = b.func().newReg();
  const Reg i = b.func().newReg();
  const Reg n = b.func().newReg();
  b.setInsertPoint(entry);
  {
    Instr h;
    h.op = Opcode::kHalloc;
    h.dst = buf;
    h.imm = 101 * 8;
    b.append(h);
  }
  b.constTo(i, 1);
  b.constTo(n, 100);
  b.br(head);
  b.setInsertPoint(head);
  const Reg c = b.cmpLe(i, n);
  b.condBr(c, body, ex);
  b.setInsertPoint(body);
  const Reg eight = b.iconst(8);
  const Reg off = b.mul(i, eight);
  const Reg addr = b.add(buf, off);
  const Reg prev = b.load(addr, -8);
  const Reg one = b.iconst(1);
  const Reg next = b.add(prev, one);
  b.store(addr, 0, next);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  b.br(head);
  b.setInsertPoint(ex);
  b.ret(i);
  p.module.setMainFunc(f);
  runProfiled(p);

  const StaticId header = p.headerSidOf("main", "dep_loop");
  const auto it = p.data.mem_deps.find(header);
  ASSERT_NE(it, p.data.mem_deps.end());
  ASSERT_EQ(it->second.size(), 1u);  // exactly one store->load pair
  const auto& [pair, stat] = *it->second.begin();
  EXPECT_EQ(stat.count, 99u);  // iterations 2..100 read iteration i-1's store
  EXPECT_EQ(stat.tail_instrs, 0u);  // the load is not inside a call
  const double prob = p.data.memDepProb(header, pair.first, pair.second);
  EXPECT_GT(prob, 0.9);
  EXPECT_LE(prob, 1.0);
}

TEST(Profiler, NoFalseMemDeps) {
  // Loads and stores to disjoint addresses must produce no dependence.
  Profiled p;
  testing::buildArraySum(p.module, 20);  // init loop stores, sum loop loads
  runProfiled(p);
  const StaticId sum_loop = p.headerSidOf("main", "sum_loop");
  const StaticId init_loop = p.headerSidOf("main", "init_loop");
  // Within each loop, each address is touched in exactly one iteration.
  EXPECT_EQ(p.data.mem_deps.count(sum_loop), 0u);
  EXPECT_EQ(p.data.mem_deps.count(init_loop), 0u);
}

TEST(Profiler, ValueProfileFindsStride) {
  // x starts at 3 and is incremented by 2 each iteration (via an add whose
  // dst we nominate as the value candidate).
  Profiled p;
  const FuncId f = p.module.addFunction("main", 0);
  IrBuilder b(p.module, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("svp_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg x = b.func().newReg();
  const Reg i = b.func().newReg();
  const Reg n = b.func().newReg();
  b.setInsertPoint(entry);
  b.constTo(x, 3);
  b.constTo(i, 0);
  b.constTo(n, 64);
  b.br(head);
  b.setInsertPoint(head);
  const Reg c = b.cmpLt(i, n);
  b.condBr(c, body, ex);
  b.setInsertPoint(body);
  const Reg two = b.iconst(2);
  const Reg x2 = b.add(x, two);  // <- value candidate
  b.movTo(x, x2);
  const Reg one = b.iconst(1);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  b.br(head);
  b.setInsertPoint(ex);
  b.ret(x);
  p.module.setMainFunc(f);

  p.module.finalize();
  // Find the sid of "x2 = add x, two": the add writing x2 in block "body".
  StaticId candidate = kInvalidStaticId;
  for (const auto& block : p.module.function(f).blocks) {
    if (block.label != "body") continue;
    for (const auto& instr : block.instrs) {
      if (instr.op == Opcode::kAdd && instr.dst == x2) {
        candidate = instr.static_id;
      }
    }
  }
  ASSERT_NE(candidate, kInvalidStaticId);
  runProfiled(p, {candidate});

  const auto it = p.data.values.find(candidate);
  ASSERT_NE(it, p.data.values.end());
  EXPECT_EQ(it->second.bestStride(), 2);
  EXPECT_DOUBLE_EQ(it->second.predictability(), 1.0);
  EXPECT_EQ(it->second.samples, 63u);
}

TEST(Profiler, ValueProfileStrideWrapsAtTheInt64Extremes) {
  // x alternates INT64_MIN / INT64_MAX (x = -1 - x). The stride between
  // them is a wrapping subtraction, as the interpreter's kSub computes it;
  // run under UBSan this used to report a signed overflow.
  Profiled p;
  const FuncId f = p.module.addFunction("main", 0);
  IrBuilder b(p.module, f);
  const BlockId entry = b.createBlock("entry");
  const BlockId head = b.createBlock("flip_loop");
  const BlockId body = b.createBlock("body");
  const BlockId ex = b.createBlock("exit");
  const Reg x = b.func().newReg();
  const Reg i = b.func().newReg();
  const Reg n = b.func().newReg();
  b.setInsertPoint(entry);
  b.constTo(x, std::numeric_limits<std::int64_t>::min());
  b.constTo(i, 0);
  b.constTo(n, 64);
  b.br(head);
  b.setInsertPoint(head);
  const Reg c = b.cmpLt(i, n);
  b.condBr(c, body, ex);
  b.setInsertPoint(body);
  const Reg minus_one = b.iconst(-1);
  const Reg flipped = b.sub(minus_one, x);  // <- value candidate
  b.movTo(x, flipped);
  const Reg one = b.iconst(1);
  const Reg i2 = b.add(i, one);
  b.movTo(i, i2);
  b.br(head);
  b.setInsertPoint(ex);
  b.ret(x);
  p.module.setMainFunc(f);

  p.module.finalize();
  StaticId candidate = kInvalidStaticId;
  for (const auto& block : p.module.function(f).blocks) {
    for (const auto& instr : block.instrs) {
      if (instr.op == Opcode::kSub && instr.dst == flipped) {
        candidate = instr.static_id;
      }
    }
  }
  ASSERT_NE(candidate, kInvalidStaticId);
  runProfiled(p, {candidate});

  // Values MAX, MIN, MAX, ...: MIN - MAX wraps to +1, MAX - MIN to -1.
  const auto it = p.data.values.find(candidate);
  ASSERT_NE(it, p.data.values.end());
  EXPECT_EQ(it->second.samples, 63u);
  ASSERT_EQ(it->second.delta_counts.size(), 2u);
  EXPECT_EQ(it->second.delta_counts.at(1), 32u);
  EXPECT_EQ(it->second.delta_counts.at(-1), 31u);
}

TEST(Profiler, TotalInstrsMatchesInterpreter) {
  Profiled p;
  testing::buildFib(p.module, 12);
  p.module.finalize();
  interp::ProgramContext ctx(p.module);
  interp::Memory mem;
  Profiler profiler(p.module);
  interp::Interpreter interp(ctx, mem, profiler);
  const auto result = interp.runMain();
  p.data = profiler.take();
  EXPECT_EQ(p.data.total_instrs, result.dynamic_instrs);
}

TEST(ValueStats, PredictabilityOfMixedDeltas) {
  ValueStats stats;
  stats.samples = 10;
  stats.delta_counts[2] = 7;
  stats.delta_counts[5] = 3;
  EXPECT_EQ(stats.bestStride(), 2);
  EXPECT_DOUBLE_EQ(stats.predictability(), 0.7);
}

TEST(ValueStats, EmptyIsUnpredictable) {
  ValueStats stats;
  EXPECT_DOUBLE_EQ(stats.predictability(), 0.0);
  EXPECT_EQ(stats.bestStride(), 0);
}

}  // namespace
}  // namespace spt::profile
