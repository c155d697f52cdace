//===- selftime_test.cpp - Self time from hand-made traces -----------------===//
//
// Part of the STENSO reproduction, released under the MIT License.
//
//===----------------------------------------------------------------------===//

#include "SelfTime.h"

#include <gtest/gtest.h>

using namespace perfbench;

namespace {

// Two threads.  Thread 1 runs a search whose dfs recurses twice, with
// solver calls at two depths; thread 2 runs one more dfs tree of its own
// that overlaps thread 1 in time.  Times are in microseconds, as
// TraceSession::writeJson prints them.
const char *TwoThreadTrace = R"({"traceEvents":[
{"name":"search","cat":"synth","ph":"X","ts":0.000,"dur":100.000,"pid":1,"tid":1,"args":{"found":1}}
{"name":"dfs","cat":"synth","ph":"X","ts":10.000,"dur":80.000,"pid":1,"tid":1}
{"name":"solve","cat":"holesolver","ph":"X","ts":12.000,"dur":8.000,"pid":1,"tid":1,"args":{"benchmark":"diag_dot","sketch":7}}
{"name":"dfs","cat":"synth","ph":"X","ts":30.000,"dur":50.000,"pid":1,"tid":1}
{"name":"dfs","cat":"synth","ph":"X","ts":40.000,"dur":20.000,"pid":1,"tid":1}
{"name":"solve","cat":"holesolver","ph":"X","ts":45.000,"dur":5.500,"pid":1,"tid":1}
{"name":"marker","cat":"synth","ph":"i","ts":46.000,"s":"t","pid":1,"tid":1}
{"name":"task","cat":"threadpool","ph":"X","ts":20.000,"dur":60.000,"pid":1,"tid":2}
{"name":"dfs","cat":"synth","ph":"X","ts":25.000,"dur":50.000,"pid":1,"tid":2}
{"name":"dfs","cat":"synth","ph":"X","ts":25.000,"dur":30.000,"pid":1,"tid":2}
{"name":"solve","cat":"holesolver","ph":"X","ts":60.000,"dur":10.000,"pid":1,"tid":2}
],"displayTimeUnit":"ms","otherData":{"droppedEvents":0,"threads":2}}
)";

} // namespace

TEST(SelfTimeTest, ParsesCompleteSpansAndNumericArgs) {
  std::vector<Span> Spans = parseTraceSpans(TwoThreadTrace);
  ASSERT_EQ(Spans.size(), 10u); // the instant is skipped
  EXPECT_EQ(Spans[0].Name, "synth/search");
  EXPECT_EQ(Spans[0].DurNs, 100000);
  EXPECT_EQ(Spans[0].arg("found"), 1);
  EXPECT_EQ(Spans[2].Name, "holesolver/solve");
  EXPECT_EQ(Spans[2].arg("sketch"), 7);
  EXPECT_EQ(Spans[2].arg("benchmark", -1), -1); // text args are skipped
  EXPECT_EQ(Spans[5].DurNs, 5500);
  EXPECT_EQ(Spans[7].Tid, 2u);
}

TEST(SelfTimeTest, RecursiveSpansOnTwoThreadsCountOnce) {
  std::map<std::string, SpanTotals> T =
      spanTotals(parseTraceSpans(TwoThreadTrace));

  // Thread 1: dfs(80) > solve(8) + dfs(50) > dfs(20) > solve(5.5).
  // Thread 2: task(60) > dfs(50) > dfs(30) and solve(10).
  EXPECT_EQ(T["synth/search"].SelfNs, 20000);
  EXPECT_EQ(T["synth/search"].InclusiveNs, 100000);

  // Self: 80-8-50 + 50-20 + 20-5.5 on thread 1; 50-30-10 + 30 on thread 2.
  EXPECT_EQ(T["synth/dfs"].SelfNs, 22000 + 30000 + 14500 + 10000 + 30000);
  // Only the outermost dfs of each thread is inclusive: 80 + 50, not the
  // 80+50+20+50+30 a flat sum would give.
  EXPECT_EQ(T["synth/dfs"].InclusiveNs, 130000);
  EXPECT_EQ(T["synth/dfs"].Count, 5);

  EXPECT_EQ(T["holesolver/solve"].SelfNs, 8000 + 5500 + 10000);
  EXPECT_EQ(T["holesolver/solve"].Count, 3);
  EXPECT_EQ(T["threadpool/task"].SelfNs, 10000);

  // Self times partition the root spans' time on each thread.
  int64_t SelfSum = 0;
  for (const auto &[Name, Totals] : T)
    SelfSum += Totals.SelfNs;
  EXPECT_EQ(SelfSum, 100000 + 60000);
}

TEST(SelfTimeTest, SiblingsAfterAClosedSpanAreNotItsChildren) {
  const char *Trace = R"({"traceEvents":[
{"name":"a","cat":"c","ph":"X","ts":0.000,"dur":10.000,"pid":1,"tid":1}
{"name":"b","cat":"c","ph":"X","ts":10.000,"dur":5.000,"pid":1,"tid":1}
{"name":"a","cat":"c","ph":"X","ts":20.000,"dur":3.000,"pid":1,"tid":1}
]})";
  std::map<std::string, SpanTotals> T = spanTotals(parseTraceSpans(Trace));
  EXPECT_EQ(T["c/a"].SelfNs, 13000);
  EXPECT_EQ(T["c/a"].InclusiveNs, 13000);
  EXPECT_EQ(T["c/b"].SelfNs, 5000);
}
