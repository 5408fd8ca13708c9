// Tests of the benchmark's own measurement and checking code.
//   cmake --build .bench_build --target ledger_test && .bench_build/ledger_test
#include <gtest/gtest.h>

#include <thread>

#include "cell.h"
#include "harness/parallel_sweep.h"
#include "ledger.h"
#include "support/check.h"

namespace perfbench {
namespace {

std::vector<double> oneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankWithSampleCount) {
  const Percentile p50 = percentile(oneTo(10), 50);
  EXPECT_EQ(p50.value, 5);
  EXPECT_EQ(p50.samples, 10u);
  EXPECT_EQ(p50.beyond, 5u);
  EXPECT_EQ(percentile(oneTo(10), 100).value, 10);
  EXPECT_EQ(percentile({7.0}, 90).value, 7);
  EXPECT_EQ(percentile({}, 90).samples, 0u);
  EXPECT_FALSE(percentile({}, 90).trustworthy());
}

TEST(Percentile, P90NeedsTenSamplesBeyond) {
  const Percentile enough = percentile(oneTo(100), 90);
  EXPECT_EQ(enough.value, 90);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_TRUE(enough.trustworthy());
  const Percentile short_by_one = percentile(oneTo(99), 90);
  EXPECT_EQ(short_by_one.value, 90);
  EXPECT_EQ(short_by_one.beyond, 9u);
  EXPECT_FALSE(short_by_one.trustworthy());
  // Ties at the percentile are not "beyond" it.
  std::vector<double> flat(200, 3.0);
  EXPECT_EQ(percentile(flat, 90).beyond, 0u);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median(oneTo(5)), 3);
  EXPECT_EQ(median(oneTo(4)), 2.5);
  EXPECT_EQ(median({}), 0);
}

Span span(int id, int parent, double start, double end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ms = start;
  s.end_ms = end;
  s.name = "x.y";
  return s;
}

TEST(SelfTime, NestedChildren) {
  const std::vector<Span> spans = {span(0, -1, 0, 100), span(1, 0, 10, 30),
                                   span(2, 1, 15, 20), span(3, 0, 40, 50)};
  const std::vector<double> self = selfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self[0], 70);  // 100 - 20 - 10
  EXPECT_DOUBLE_EQ(self[1], 15);  // grandchild counts against its parent only
  EXPECT_DOUBLE_EQ(self[2], 5);
  EXPECT_DOUBLE_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two cells of a parallel sweep overlap; a third sticks out of the
  // parent and is clipped to it.
  const std::vector<Span> spans = {span(0, -1, 0, 100), span(1, 0, 10, 50),
                                   span(2, 0, 30, 70), span(3, 0, 90, 120)};
  const std::vector<double> self = selfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self[0], 30);  // 100 - [10,70] - [90,100]
}

TEST(Tracer, ScopesNestOnAThreadAndTakeExplicitParents) {
  Tracer t(true);
  int outer_id = -1;
  {
    const Tracer::Scope outer(t, "harness.sweep");
    outer_id = outer.id();
    { const Tracer::Scope inner(t, "sim.spt", "c1"); }
    std::thread other([&] {
      const Tracer::Scope cell(t, "harness.cell", "c2", outer_id);
    });
    other.join();
  }
  const std::vector<Span> spans = t.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, outer_id);
  EXPECT_EQ(spans[1].cell, "c1");
  EXPECT_EQ(spans[1].layer(), "sim");
  EXPECT_EQ(spans[2].parent, outer_id);
  EXPECT_NE(spans[2].tid, spans[0].tid);
  for (const Span& s : spans) EXPECT_GE(s.end_ms, s.start_ms);

  Tracer off(false);
  { const Tracer::Scope s(off, "sim.spt"); }
  EXPECT_TRUE(off.spans().empty());
}

// The cheapest suite cell, so the pipeline tests stay fast.
spt::harness::SweepCase cheapCase() {
  return spt::harness::buildSuiteSweepCases({}, {}, 1, {"vortex"}).at(0);
}

TEST(CellCheck, TracedCellMirrorsTheUntracedPath) {
  const spt::harness::SweepCase c = cheapCase();
  const auto rows = spt::harness::runSweep(spt::harness::ParallelSweep(1), {c});
  const std::string key = cellKey(c.benchmark, 1, c.machine.recovery);
  const Reference ref = {{key, factsOf(rows[0].result.baseline,
                                       rows[0].result.spt)}};
  EXPECT_EQ(checkRow(ref, key, rows[0], true), "");

  Tracer t(true);
  CellLayers layers;
  spt::harness::SweepRow traced;
  traced.result = runTracedCell(c, t, "c", -1, &layers);
  EXPECT_EQ(checkRow(ref, key, traced, true), "");
  EXPECT_GE(layers.profile_runs, 1u);
  EXPECT_FALSE(layers.passes.empty());
  std::map<std::string, int> calls;
  for (const Span& s : t.spans()) ++calls[s.name];
  EXPECT_EQ(calls["interp.trace"], 2);
  EXPECT_EQ(calls["sim.spt"], 1);
  EXPECT_EQ(calls["profile.run"], static_cast<int>(layers.profile_runs));

  spt::harness::SweepRow changed = rows[0];
  ++changed.result.spt.cycles;
  EXPECT_NE(checkRow(ref, key, changed, true), "");
  EXPECT_NE(checkRow({}, key, rows[0], true), "");
}

TEST(CellCheck, TinyTraceBudgetCountsAsFailed) {
  spt::harness::SweepCase c = cheapCase();
  c.machine.max_trace_records = 10;
  spt::harness::SweepOptions opts;
  opts.quarantine = true;
  const auto rows =
      spt::harness::runSweep(spt::harness::ParallelSweep(1), {c}, opts);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_FALSE(rows[0].ok());
  const std::string key = cellKey(c.benchmark, 1, c.machine.recovery);
  const Reference ref = {{key, CellFacts{}}};
  EXPECT_NE(checkRow(ref, key, rows[0], true), "");

  Tracer t(false);
  CellLayers layers;
  EXPECT_THROW(runTracedCell(c, t, "c", -1, &layers), std::exception);
}

TEST(ServiceStatus, ParsesCountersAndDeltas) {
  const std::string before =
      R"({"service":{"draining":false,"max_queue":1024,"jobs":3},)"
      R"("workers":{"count":3,"idle":3,"busy":0,"spawned":3,"respawned":0},)"
      R"("queue":{"queued":0,"running":0},)"
      R"("counters":{"requests_admitted":1,"requests_refused":0,)"
      R"("cells_settled":30,"clients_connected":2,"clients_disconnected":1},)"
      R"("journal":{"enabled":true,"records_replayed":0,"records_skipped":0,)"
      R"("requests_recovered":0,"requests_attached":0,"records_appended":2,)"
      R"("orphaned_serving":0,"torn_tail_dropped":0},"clients":[],)"
      R"("resource":{"supervised_cells":30,"attempts":30,)"
      R"("host_user_seconds":1.5,"host_sys_seconds":0.5,)"
      R"("host_max_rss_kb":150000}})";
  std::string after = before;
  const auto swap = [&](const std::string& from, const std::string& to) {
    after.replace(after.find(from), from.size(), to);
  };
  swap(R"("respawned":0)", R"("respawned":1)");
  swap(R"("cells_settled":30)", R"("cells_settled":42)");
  swap(R"("records_appended":2)", R"("records_appended":10)");
  swap(R"("supervised_cells":30,"attempts":30)",
       R"("supervised_cells":42,"attempts":43)");
  swap(R"("host_user_seconds":1.5)", R"("host_user_seconds":4)");
  swap(R"("host_max_rss_kb":150000)", R"("host_max_rss_kb":170000)");

  const auto a = parseServiceStatus(before);
  const auto b = parseServiceStatus(after);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->cells_settled, 30u);
  EXPECT_DOUBLE_EQ(a->host_sys_seconds, 0.5);
  const ServiceCounters d = *b - *a;
  EXPECT_DOUBLE_EQ(d.host_user_seconds, 2.5);
  EXPECT_DOUBLE_EQ(d.host_sys_seconds, 0.0);
  EXPECT_EQ(d.host_max_rss_kb, 170000);  // a high-water mark, not a delta
  EXPECT_EQ(d.cells_settled, 12u);
  EXPECT_EQ(d.respawned, 1u);
  EXPECT_EQ(d.journal_appends, 8u);
  EXPECT_EQ(d.retries(), 1u);

  // A counter outside its object, or missing, is not accepted.
  EXPECT_FALSE(parseServiceStatus(R"({"resource":{}})"));
  std::string moved = before;
  moved.replace(moved.find(R"("cells_settled":30,)"), 19, "");
  EXPECT_FALSE(parseServiceStatus(moved));
}

}  // namespace
}  // namespace perfbench
