//===- cost_profile_test.cpp - Per-query cost profiles + telemetry ring ------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The "ctest -L cost" suite: exactness of per-subgoal cost attribution
// (self-time conservation against the query wall, zero-cost warm hits,
// identical answer sets with recording on/off), the explain op across the
// session and protocol layers, the Prometheus text exposition (format,
// escaping, log2 histogram), the metrics history ring's keep-last
// eviction, slowlog cost-rollup persistence, and the recorder-driven
// adaptive sampler boost.
//
//===----------------------------------------------------------------------===//

#include "engine/Solver.h"
#include "obs/CostProfile.h"
#include "obs/EvalObserver.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/MetricsHistory.h"
#include "obs/Sampler.h"
#include "reader/Parser.h"
#include "srv/Protocol.h"
#include "srv/Session.h"
#include "srv/SlowLog.h"
#include "support/JsonValue.h"
#include "term/TermWriter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

using namespace lpa;

namespace {

/// Left-recursive path closure over a complete N-vertex digraph — the
/// "chains worst case" family the benches use: N^2 unique answers, N^2
/// duplicates, all the work inside tabled producers.
std::string digraphClosure(int N) {
  std::string P = ":- table path/2.\n"
                  "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
                  "path(X, Y) :- edge(X, Y).\n";
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      P += "edge(v" + std::to_string(I) + ", v" + std::to_string(J) + ").\n";
  return P;
}

/// Sorted rendered solutions — the order-insensitive answer fingerprint.
std::vector<std::string> answersOf(AnalysisSession &S, const char *GoalText) {
  auto Q = S.runQuery(GoalText, /*MaxSolutions=*/100000);
  EXPECT_TRUE(Q.hasValue());
  std::vector<std::string> Out = Q ? Q->Solutions : std::vector<std::string>();
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// A cost profile attached to \p Engine through an observer of its own,
/// for the scope of the object.
struct CostObserver {
  CostProfile Costs;
  EvalObserver Obs;
  explicit CostObserver(Solver &Engine) {
    Obs.Costs = &Costs;
    Engine.setObserver(&Obs);
  }
};

//===----------------------------------------------------------------------===//
// Attribution exactness
//===----------------------------------------------------------------------===//

TEST(CostProfileTest, SelfCostsConserveQueryWall) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(digraphClosure(12)).hasValue());
  Solver Engine(DB);
  CostObserver CO(Engine);

  auto G = Parser::parseTerm(Syms, Engine.store(), "path(X, Y)");
  ASSERT_TRUE(G.hasValue());
  size_t Sols = Engine.solve(*G, nullptr);
  EXPECT_EQ(Sols, 144u);

  CostSummary CS = Engine.exportCostSummary();
  ASSERT_FALSE(CS.Nodes.empty());
  ASSERT_GT(CS.QueryWallNs, 0u);

  // Conservation is exact, not approximate: every nanosecond between the
  // begin and end clock reads lands in exactly one bucket (a subgoal's
  // self time or the root).
  uint64_t SumSelf = 0;
  for (const CostNode &N : CS.Nodes)
    SumSelf += N.SelfNs;
  EXPECT_EQ(SumSelf, CS.AttributedNs);
  EXPECT_EQ(CS.AttributedNs + CS.RootNs, CS.QueryWallNs);

  // The acceptance bar: on a producer-heavy closure, at least 90% of the
  // query wall is attributed to subgoal self-costs (the root keeps only
  // scheduling and completion bookkeeping).
  EXPECT_GE(double(CS.AttributedNs), 0.90 * double(CS.QueryWallNs))
      << "attributed " << CS.AttributedNs << " of " << CS.QueryWallNs;

  // Steps were charged (the closure resolves thousands of clauses), and
  // answer traffic landed on the producing subgoal.
  uint64_t Steps = 0, Inserted = 0;
  for (const CostNode &N : CS.Nodes) {
    Steps += N.Steps;
    Inserted += N.AnswersInserted;
    EXPECT_GE(N.CumNs, N.SelfNs);
  }
  EXPECT_GT(Steps, 0u);
  EXPECT_EQ(Inserted, 144u);

  // Rollups cover the same totals.
  ASSERT_FALSE(CS.PerPred.empty());
  uint64_t RollupSelf = 0;
  for (const CostRollup &R : CS.PerPred)
    RollupSelf += R.SelfNs;
  EXPECT_EQ(RollupSelf, CS.AttributedNs);
  ASSERT_FALSE(CS.PerScc.empty());
}

TEST(CostProfileTest, WarmHitsAttributeZeroColdCost) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(digraphClosure(4)).hasValue());
  Solver Engine(DB);
  CostObserver CO(Engine);

  auto G = Parser::parseTerm(Syms, Engine.store(), "path(X, Y)");
  ASSERT_TRUE(G.hasValue());
  EXPECT_EQ(Engine.solve(*G, nullptr), 16u);
  CostSummary Cold = Engine.exportCostSummary();
  EXPECT_FALSE(Cold.Nodes.empty());
  for (const CostNode &N : Cold.Nodes)
    EXPECT_FALSE(N.Warm) << N.Label;

  // Same variant again: the table is complete, so the second query is a
  // pure warm hit — the subgoal shows up in the profile (it was touched)
  // but with zero self time and zero steps: no cold cost re-attributed.
  EXPECT_EQ(Engine.solve(*G, nullptr), 16u);
  CostSummary Warm = Engine.exportCostSummary();
  ASSERT_FALSE(Warm.Nodes.empty());
  bool SawWarm = false;
  for (const CostNode &N : Warm.Nodes) {
    EXPECT_TRUE(N.Warm) << N.Label;
    EXPECT_EQ(N.SelfNs, 0u) << N.Label;
    EXPECT_EQ(N.Steps, 0u) << N.Label;
    EXPECT_EQ(N.AnswersInserted, 0u) << N.Label;
    EXPECT_GT(N.AnswersConsumed, 0u) << N.Label;
    SawWarm = true;
  }
  EXPECT_TRUE(SawWarm);
  // The warm query's wall still conserves: it all belongs to the root.
  EXPECT_EQ(Warm.AttributedNs, 0u);
  EXPECT_EQ(Warm.RootNs, Warm.QueryWallNs);
}

TEST(CostProfileTest, RecordingDoesNotChangeAnswers) {
  for (size_t Workers : {size_t(0), size_t(4)}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    AnalysisSession::Options Off, On;
    Off.EvalWorkers = Workers;
    On.EvalWorkers = Workers;
    On.RecordCosts = true;
    AnalysisSession A(Off), B(On);
    ASSERT_TRUE(A.consult(digraphClosure(6)).hasValue());
    ASSERT_TRUE(B.consult(digraphClosure(6)).hasValue());
    std::vector<std::string> SA = answersOf(A, "path(v0, X)");
    std::vector<std::string> SB = answersOf(B, "path(v0, X)");
    EXPECT_FALSE(SA.empty());
    EXPECT_EQ(SA, SB);
  }
}

TEST(CostProfileTest, ForestExportCarriesCostAnnotations) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(digraphClosure(4)).hasValue());
  Solver Engine(DB);
  CostObserver CO(Engine);
  auto G = Parser::parseTerm(Syms, Engine.store(), "path(v0, X)");
  ASSERT_TRUE(G.hasValue());
  Engine.solve(*G, nullptr);
  ForestGraph FG = Engine.exportForest();
  ASSERT_FALSE(FG.Nodes.empty());
  bool AnyCost = false;
  for (const ForestNode &N : FG.Nodes)
    if (N.Cost) {
      AnyCost = true;
      EXPECT_GE(N.Cost->CumNs, N.Cost->SelfNs);
    }
  EXPECT_TRUE(AnyCost);
  // The dot rendering mentions the cost line.
  std::string Dot = forestToDot(FG);
  EXPECT_NE(Dot.find("self "), std::string::npos);
}

//===----------------------------------------------------------------------===//
// explain: session + protocol
//===----------------------------------------------------------------------===//

TEST(ExplainTest, ExplainJsonRoundTrips) {
  AnalysisSession S; // RecordCosts off: explain attaches per query.
  ASSERT_TRUE(S.consult(digraphClosure(6)).hasValue());
  EXPECT_EQ(S.solver().observer()->Costs, nullptr);

  auto R = S.explainJson("path(X, Y)", /*TopK=*/5);
  ASSERT_TRUE(R.hasValue());
  auto Doc = JsonValue::parse(*R);
  ASSERT_TRUE(Doc.hasValue());
  EXPECT_EQ(Doc->stringOr("schema", ""), "lpa.explain.v1");
  EXPECT_EQ(static_cast<uint64_t>(Doc->numberOr("solutions", 0)), 36u);

  const JsonValue *Cost = Doc->find("cost");
  ASSERT_NE(Cost, nullptr);
  ASSERT_TRUE(Cost->isObject());
  uint64_t Wall = static_cast<uint64_t>(Cost->numberOr("query_wall_ns", 0));
  uint64_t Attr = static_cast<uint64_t>(Cost->numberOr("attributed_ns", 0));
  uint64_t Root = static_cast<uint64_t>(Cost->numberOr("root_ns", 0));
  EXPECT_GT(Wall, 0u);
  EXPECT_EQ(Attr + Root, Wall);
  const JsonValue *Nodes = Cost->find("nodes");
  ASSERT_NE(Nodes, nullptr);
  ASSERT_TRUE(Nodes->isArray());
  EXPECT_FALSE(Nodes->items().empty());
  EXPECT_LE(Nodes->items().size(), 5u); // TopK bounds the tree.
  const JsonValue *PerPred = Cost->find("per_pred");
  ASSERT_NE(PerPred, nullptr);
  EXPECT_FALSE(PerPred->items().empty());

  // The temporary profile detached afterwards — the disabled path is back.
  EXPECT_EQ(S.solver().observer()->Costs, nullptr);

  // Parse errors surface as errors, and still restore the null profile.
  EXPECT_FALSE(S.explainJson("path(").hasValue());
  EXPECT_EQ(S.solver().observer()->Costs, nullptr);
}

TEST(ExplainTest, ExplainReportRendersTable) {
  AnalysisSession S;
  ASSERT_TRUE(S.consult(digraphClosure(4)).hasValue());
  std::string Report = S.explainReport("path(X, Y)");
  EXPECT_NE(Report.find("attributed"), std::string::npos);
  EXPECT_NE(Report.find("Self ms"), std::string::npos);
  EXPECT_NE(Report.find("path"), std::string::npos);
  // Parse errors render inline, not as an empty string.
  EXPECT_NE(S.explainReport("path(").find("explain:"), std::string::npos);
}

TEST(ExplainTest, ProtocolExplainOp) {
  AnalysisSession S;
  bool Shutdown = false;
  std::string Resp = handleRequestLine(
      S, R"({"op":"consult","program":":- table p/1.\np(X) :- q(X).\nq(1).\nq(2).\n"})",
      Shutdown);
  auto Doc = JsonValue::parse(Resp);
  ASSERT_TRUE(Doc.hasValue());
  ASSERT_TRUE(Doc->find("ok")->asBool()) << Resp;

  Resp = handleRequestLine(S, R"j({"op":"explain","goal":"p(X)","top":3})j",
                           Shutdown);
  Doc = JsonValue::parse(Resp);
  ASSERT_TRUE(Doc.hasValue());
  ASSERT_TRUE(Doc->find("ok")->asBool()) << Resp;
  const JsonValue *Ex = Doc->find("explain");
  ASSERT_NE(Ex, nullptr);
  EXPECT_EQ(Ex->stringOr("schema", ""), "lpa.explain.v1");
  const JsonValue *Cost = Ex->find("cost");
  ASSERT_NE(Cost, nullptr);
  EXPECT_FALSE(Cost->find("nodes")->items().empty());

  // Missing goal is a protocol error, not a crash.
  Resp = handleRequestLine(S, R"({"op":"explain"})", Shutdown);
  Doc = JsonValue::parse(Resp);
  ASSERT_TRUE(Doc.hasValue());
  EXPECT_FALSE(Doc->find("ok")->asBool());
}

//===----------------------------------------------------------------------===//
// Prometheus exposition
//===----------------------------------------------------------------------===//

TEST(PrometheusTest, CounterAndGaugeFormat) {
  std::string Out;
  PrometheusWriter P(Out);
  P.counter("lpa_q_total", "Queries served", 42);
  P.gauge("lpa_bytes", "Live bytes", 1.5);
  EXPECT_EQ(Out, "# HELP lpa_q_total Queries served\n"
                 "# TYPE lpa_q_total counter\n"
                 "lpa_q_total 42\n"
                 "# HELP lpa_bytes Live bytes\n"
                 "# TYPE lpa_bytes gauge\n"
                 "lpa_bytes 1.5\n");
}

TEST(PrometheusTest, LabeledFamiliesShareOneHeader) {
  std::string Out;
  PrometheusWriter P(Out);
  P.counterLabeled("lpa_pred_calls_total", "Calls", "pred", "path/2", 7);
  P.counterLabeled("lpa_pred_calls_total", "Calls", "pred", "edge/2", 9);
  // One HELP/TYPE pair, two samples.
  EXPECT_EQ(Out.find("# HELP lpa_pred_calls_total"),
            Out.rfind("# HELP lpa_pred_calls_total"));
  EXPECT_NE(Out.find("lpa_pred_calls_total{pred=\"path/2\"} 7\n"),
            std::string::npos);
  EXPECT_NE(Out.find("lpa_pred_calls_total{pred=\"edge/2\"} 9\n"),
            std::string::npos);
}

TEST(PrometheusTest, Escaping) {
  std::string S;
  PrometheusWriter::escapeLabelValue(S, "a\"b\\c\nd");
  EXPECT_EQ(S, "a\\\"b\\\\c\\nd");
  S.clear();
  PrometheusWriter::escapeHelp(S, "line\nnext \\ end");
  EXPECT_EQ(S, "line\\nnext \\\\ end");
  // A label value that needs escaping round-trips through a sample line.
  std::string Out;
  PrometheusWriter P(Out);
  P.gaugeLabeled("lpa_g", "g", "pred", "f(\"x\")/1", 2.0);
  EXPECT_NE(Out.find("lpa_g{pred=\"f(\\\"x\\\")/1\"} 2\n"),
            std::string::npos);
}

TEST(PrometheusTest, HistogramLog2Buckets) {
  Histogram H;
  H.record(0); // bucket 0: le="0"
  H.record(1); // bucket 1: le="1"
  H.record(3); // bucket 2: le="3"
  H.record(3);
  std::string Out;
  PrometheusWriter P(Out);
  P.histogramLog2("lpa_lat", "Latency", H);
  EXPECT_NE(Out.find("# TYPE lpa_lat histogram\n"), std::string::npos);
  EXPECT_NE(Out.find("lpa_lat_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(Out.find("lpa_lat_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(Out.find("lpa_lat_bucket{le=\"3\"} 4\n"), std::string::npos);
  EXPECT_NE(Out.find("lpa_lat_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(Out.find("lpa_lat_sum 7\n"), std::string::npos);
  EXPECT_NE(Out.find("lpa_lat_count 4\n"), std::string::npos);
  // Cumulative counts never decrease and trailing empties are elided.
  EXPECT_EQ(Out.find("le=\"7\""), std::string::npos);
}

TEST(PrometheusTest, SessionExpositionParsesAndCovers) {
  AnalysisSession S;
  ASSERT_TRUE(S.consult(digraphClosure(4)).hasValue());
  ASSERT_TRUE(S.runQuery("path(v0, X)").hasValue());
  std::string Text = S.metricsText();
  EXPECT_NE(Text.find("# TYPE lpa_queries_total counter"), std::string::npos);
  EXPECT_NE(Text.find("lpa_queries_total 1\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE lpa_table_space_bytes gauge"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE lpa_query_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("lpa_pred_calls_total{pred=\"path/2\"}"),
            std::string::npos);
  // Every line is HELP, TYPE, or "name[{labels}] value".
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    ASSERT_NE(Eol, std::string::npos); // Text ends with a newline.
    std::string Line = Text.substr(Pos, Eol - Pos);
    if (Line.rfind("# HELP ", 0) != 0 && Line.rfind("# TYPE ", 0) != 0) {
      size_t Sp = Line.rfind(' ');
      ASSERT_NE(Sp, std::string::npos) << Line;
      EXPECT_GT(Sp, 0u) << Line;
    }
    Pos = Eol + 1;
  }
}

//===----------------------------------------------------------------------===//
// Metrics history ring
//===----------------------------------------------------------------------===//

TEST(MetricsHistoryTest, KeepLastEviction) {
  MetricsHistory H(MetricsHistory::Options{4, 10});
  uint32_t C = H.addSeries("hits");
  uint32_t G = H.addSeries("bytes", /*Counter=*/false);
  for (uint64_t I = 0; I < 10; ++I) {
    uint64_t Now = (I + 1) * 20 * 1000000ull; // 20 ms apart: always due.
    ASSERT_TRUE(H.due(Now));
    uint64_t V[] = {I * 10, 100 + I};
    H.sample(Now, V);
  }
  EXPECT_EQ(H.size(), 4u);
  EXPECT_EQ(H.capacity(), 4u);
  EXPECT_EQ(H.evicted(), 6u);
  EXPECT_EQ(H.totalSamples(), 10u);
  // Oldest surviving snapshot is sample 6 (0-based), newest is 9.
  EXPECT_EQ(H.at(0).Values[C], 60u);
  EXPECT_EQ(H.at(3).Values[C], 90u);
  // Counter trend: per-interval deltas; gauge trend: raw values.
  std::vector<uint64_t> CT = H.seriesTrend(C);
  ASSERT_EQ(CT.size(), 3u);
  EXPECT_EQ(CT[0], 10u);
  std::vector<uint64_t> GT = H.seriesTrend(G);
  ASSERT_EQ(GT.size(), 4u);
  EXPECT_EQ(GT[0], 106u);
  EXPECT_EQ(GT[3], 109u);
}

TEST(MetricsHistoryTest, DueHonorsInterval) {
  MetricsHistory H(MetricsHistory::Options{4, 100});
  H.addSeries("a");
  EXPECT_TRUE(H.due(5)); // Never sampled: always due.
  uint64_t V[] = {1};
  H.sample(1000000000ull, V);
  EXPECT_FALSE(H.due(1000000000ull + 50 * 1000000ull));
  EXPECT_TRUE(H.due(1000000000ull + 100 * 1000000ull));
}

TEST(MetricsHistoryTest, CounterTrendClampsAcrossResets) {
  MetricsHistory H(MetricsHistory::Options{8, 0});
  uint32_t C = H.addSeries("n");
  for (uint64_t V : {10ull, 30ull, 5ull, 6ull}) {
    uint64_t Row[] = {V};
    H.sample(V * 1000, Row);
  }
  std::vector<uint64_t> T = H.seriesTrend(C);
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[0], 20u);
  EXPECT_EQ(T[1], 0u); // Reset: clamped, not underflowed.
  EXPECT_EQ(T[2], 1u);
}

TEST(MetricsHistoryTest, SparklineScalesToMax) {
  std::vector<uint64_t> V{0, 7};
  EXPECT_EQ(renderSparkline(V), "▁█");
  std::vector<uint64_t> Flat{5, 5, 5};
  EXPECT_EQ(renderSparkline(Flat), "███");
  EXPECT_EQ(renderSparkline({}), "");
}

TEST(MetricsHistoryTest, ProtocolMetricsOpTicksAndServes) {
  AnalysisSession::Options O;
  O.History.IntervalMs = 0; // Every request samples.
  AnalysisSession S(O);
  bool Shutdown = false;
  (void)handleRequestLine(
      S, R"({"op":"consult","program":"edge(a, b).\n"})", Shutdown);
  std::string Resp =
      handleRequestLine(S, R"({"op":"metrics","max_samples":5})", Shutdown);
  auto Doc = JsonValue::parse(Resp);
  ASSERT_TRUE(Doc.hasValue());
  ASSERT_TRUE(Doc->find("ok")->asBool()) << Resp;
  const JsonValue *M = Doc->find("metrics");
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->stringOr("schema", ""), "lpa.metrics.v1");
  // The exposition rides as an escaped string and parses as such.
  const JsonValue *Exp = M->find("exposition");
  ASSERT_NE(Exp, nullptr);
  ASSERT_TRUE(Exp->isString());
  EXPECT_NE(Exp->asString().find("# TYPE lpa_queries_total counter"),
            std::string::npos);
  const JsonValue *Hist = M->find("history");
  ASSERT_NE(Hist, nullptr);
  ASSERT_TRUE(Hist->isObject());
  EXPECT_FALSE(Hist->find("series")->items().empty());
  EXPECT_FALSE(Hist->find("samples")->items().empty());
}

//===----------------------------------------------------------------------===//
// inspect: shard contention ratio + contention sort
//===----------------------------------------------------------------------===//

TEST(InspectContentionTest, ShardsCarryContentionRatio) {
  AnalysisSession::Options O;
  O.EvalWorkers = 2;
  AnalysisSession S(O);
  ASSERT_TRUE(S.consult(digraphClosure(5)).hasValue());
  // A conjunction of two variable-disjoint tabled seeds: the gate the
  // parallel prime needs before the shared space (and its shards) exists.
  ASSERT_TRUE(S.runQuery("path(v0, X), path(v1, Y)", 1000).hasValue());
  std::string Out = S.inspectJson(5, "contention");
  auto Doc = JsonValue::parse(Out);
  ASSERT_TRUE(Doc.hasValue()) << Out;
  EXPECT_EQ(Doc->stringOr("sort", ""), "contention");
  const JsonValue *Shared = Doc->find("shared_space");
  ASSERT_NE(Shared, nullptr);
  const JsonValue *Shards = Shared->find("shards");
  ASSERT_NE(Shards, nullptr);
  ASSERT_FALSE(Shards->items().empty());
  double Prev = 2.0;
  for (const JsonValue &Sh : Shards->items()) {
    ASSERT_NE(Sh.find("shard"), nullptr);
    ASSERT_NE(Sh.find("contention_ratio"), nullptr);
    double R = Sh.numberOr("contention_ratio", -1);
    EXPECT_GE(R, 0.0);
    EXPECT_LE(R, 1.0);
    EXPECT_LE(R, Prev); // Sorted descending by ratio.
    Prev = R;
  }

  // The protocol layer accepts the new sort and still rejects junk.
  bool Shutdown = false;
  std::string Resp = handleRequestLine(
      S, R"({"op":"inspect","top":3,"sort":"contention"})", Shutdown);
  auto RDoc = JsonValue::parse(Resp);
  ASSERT_TRUE(RDoc.hasValue());
  EXPECT_TRUE(RDoc->find("ok")->asBool());
  Resp = handleRequestLine(S, R"({"op":"inspect","sort":"zorp"})", Shutdown);
  RDoc = JsonValue::parse(Resp);
  ASSERT_TRUE(RDoc.hasValue());
  EXPECT_FALSE(RDoc->find("ok")->asBool());
}

//===----------------------------------------------------------------------===//
// Slowlog cost rollup + persistence
//===----------------------------------------------------------------------===//

TEST(SlowlogCostTest, ExemplarCostRollupPersistsAndReloads) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "lpa_cost_slowlog_test")
                        .string();
  std::filesystem::remove_all(Dir);

  SlowQueryExemplar E;
  E.Id = 7;
  E.Goal = "path(X, Y)";
  E.WallMs = 12.5;
  E.CostAttributedNs = 900;
  E.CostRootNs = 100;
  E.TopCosts.push_back({"path/2", 600, 40, 1});
  E.TopCosts.push_back({"edge/2", 300, 10, 0});
  {
    SlowQueryLog::Options LO;
    LO.Dir = Dir;
    SlowQueryLog Log(LO);
    Log.insert(E);
  } // Destructor persists survivors.

  SlowQueryLog::Options LO;
  LO.Dir = Dir;
  SlowQueryLog Reloaded(LO);
  EXPECT_EQ(Reloaded.loaded(), 1u);
  EXPECT_EQ(Reloaded.captured(), 0u); // Reloads are not fresh captures.
  const SlowQueryExemplar *Got = Reloaded.get(7);
  ASSERT_NE(Got, nullptr);
  EXPECT_EQ(Got->Goal, "path(X, Y)");
  EXPECT_EQ(Got->CostAttributedNs, 900u);
  EXPECT_EQ(Got->CostRootNs, 100u);
  ASSERT_EQ(Got->TopCosts.size(), 2u);
  EXPECT_EQ(Got->TopCosts[0].Pred, "path/2");
  EXPECT_EQ(Got->TopCosts[0].SelfNs, 600u);
  EXPECT_EQ(Got->TopCosts[1].WarmHits, 0u);
  std::filesystem::remove_all(Dir);
}

TEST(SlowlogCostTest, RecordCostsSessionEmbedsRollup) {
  AnalysisSession::Options O;
  O.RecordCosts = true;
  O.SlowLog.ThresholdMs = 0.0000001; // Everything is slow.
  O.SlowLog.MinWallMs = 0;
  AnalysisSession S(O);
  ASSERT_TRUE(S.consult(digraphClosure(6)).hasValue());
  ASSERT_TRUE(S.runQuery("path(X, Y)", 1000).hasValue());
  ASSERT_GT(S.slowlog().size(), 0u);
  const SlowQueryExemplar *E = S.slowlog().entries().front();
  EXPECT_GT(E->CostAttributedNs + E->CostRootNs, 0u);
  ASSERT_FALSE(E->TopCosts.empty());
  EXPECT_EQ(E->TopCosts.front().Pred.find("path"), 0u);
  // And the JSON rendering carries the "cost" object.
  std::string Json = S.slowlogJson();
  EXPECT_NE(Json.find("\"cost\""), std::string::npos);
  EXPECT_NE(Json.find("\"attributed_ns\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Recorder-driven adaptive sampling
//===----------------------------------------------------------------------===//

TEST(AdaptiveSamplingTest, AlarmBoostsSweepRate) {
  Sampler::Options SO;
  SO.Hz = 200;
  SO.BoostHz = 2000;
  Sampler P(SO);
  EXPECT_EQ(P.boostHz(), 2000u);
  std::atomic<uint64_t> Alarms{0};
  P.setAlarmSource(&Alarms);
  P.start();
  P.armBoostBaseline(0);
  Alarms.store(1);
  // Give the sweep loop time to notice the alarm and re-pace.
  for (int I = 0; I < 200 && !P.boostedSweeps(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(P.boostedSweeps(), 0u);
  EXPECT_EQ(P.effectiveHz(), 2000u);
  P.disarmBoost();
  P.stop();
}

TEST(AdaptiveSamplingTest, BoostAutoDefaultsAndClamps) {
  Sampler::Options SO;
  SO.Hz = 1000;
  SO.BoostHz = 0; // auto: 8x base rate.
  Sampler P(SO);
  EXPECT_EQ(P.boostHz(), 8000u);
  Sampler::Options Hi;
  Hi.Hz = 50000;
  Hi.BoostHz = 0;
  Sampler Q(Hi);
  EXPECT_LE(Q.boostHz(), 100000u);
}

} // namespace
