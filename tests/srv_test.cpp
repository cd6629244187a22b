//===- srv_test.cpp - Analysis service layer tests ----------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Covers the long-lived-service contract: one Solver reused across
// sequential queries with warm/cold table accounting, query-scoped trace
// and metrics attribution (QueryContext), deadline truncation with the
// same poisoning discipline as the depth limit, resetStats() semantics on
// a warm engine, ServiceStats ring/quantile math, and the JSON-lines
// protocol round-trip through AnalysisSession.
//
//===----------------------------------------------------------------------===//

#include "engine/Solver.h"
#include "obs/EvalObserver.h"
#include "obs/Trace.h"
#include "reader/Parser.h"
#include "srv/Protocol.h"
#include "srv/ServiceStats.h"
#include "srv/Session.h"
#include "support/JsonValue.h"

#include <gtest/gtest.h>

#include <string>

using namespace lpa;

namespace {

const char *PathProgram = "  :- table path/2.\n"
                          "  path(X, Y) :- edge(X, Y).\n"
                          "  path(X, Y) :- edge(X, Z), path(Z, Y).\n"
                          "  edge(a, b). edge(b, c). edge(c, d).\n";

size_t solveText(SymbolTable &Syms, Solver &S, const char *GoalText) {
  auto Goal = Parser::parseTerm(Syms, S.store(), GoalText);
  EXPECT_TRUE(Goal.hasValue());
  return S.solve(*Goal, nullptr);
}

//===----------------------------------------------------------------------===//
// Warm/cold table accounting across sequential queries
//===----------------------------------------------------------------------===//

TEST(WarmCold, RepeatedQueryHitsWarmTables) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  Solver S(DB);

  // Cold query: every subgoal is created fresh. No query context is
  // attached — the solver's internal sequence must scope queries on
  // its own.
  EXPECT_EQ(solveText(Syms, S, "path(a, X)"), 3u);
  EXPECT_EQ(S.stats().WarmTableHits, 0u);
  EXPECT_GT(S.stats().ColdTableMisses, 0u);
  uint64_t Cold = S.stats().ColdTableMisses;
  uint64_t Subgoals = S.stats().SubgoalsCreated;

  // Warm re-query: answered entirely from tables completed by query 1 —
  // warm hit, no new subgoals, no new cold misses.
  EXPECT_EQ(solveText(Syms, S, "path(a, X)"), 3u);
  EXPECT_GT(S.stats().WarmTableHits, 0u);
  EXPECT_EQ(S.stats().ColdTableMisses, Cold);
  EXPECT_EQ(S.stats().SubgoalsCreated, Subgoals);
}

TEST(WarmCold, SameQueryRehitsAreNeitherWarmNorCold) {
  // Both conjuncts call path(a, _): the second call finds a table
  // completed *within the same query*, which is memoization, not
  // cross-query reuse — it must not inflate the warm rate.
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  ASSERT_TRUE(DB.consult("both(X, Y) :- path(a, X), path(a, Y).")
                  .hasValue());
  Solver S(DB);
  EXPECT_EQ(solveText(Syms, S, "both(X, Y)"), 9u);
  EXPECT_EQ(S.stats().WarmTableHits, 0u);
  EXPECT_GT(S.stats().ColdTableMisses, 0u);
}

TEST(WarmCold, PerPredicateMetricsCarryTheSplit) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  Solver S(DB);
  Tracer Trace;
  MetricsRegistry Metrics;
  EvalObserver Obs;
  Obs.Trace = &Trace;
  Obs.Metrics = &Metrics;
  S.setObserver(&Obs);
  solveText(Syms, S, "path(a, X)");
  solveText(Syms, S, "path(a, X)");
  const PredMetrics &PM = Metrics.pred(Syms, Syms.intern("path"), 2);
  EXPECT_EQ(PM.WarmHits, S.stats().WarmTableHits);
  EXPECT_EQ(PM.ColdMisses, S.stats().ColdTableMisses);
  EXPECT_GT(PM.WarmHits, 0u);
}

TEST(WarmCold, ResetStatsKeepsTablesWarm) {
  // The long-lived-session contract: resetStats() zeroes counters but
  // keeps tables, so the very next repeated query is pure warm traffic
  // (and the id sequence keeps rising — a reset must not make tables
  // completed "in the future" of the new counter).
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  Solver S(DB);
  solveText(Syms, S, "path(a, X)");
  solveText(Syms, S, "path(a, X)");
  EXPECT_GT(S.stats().WarmTableHits, 0u);

  S.resetStats();
  EXPECT_EQ(S.stats().WarmTableHits, 0u);
  EXPECT_EQ(S.stats().ColdTableMisses, 0u);
  EXPECT_EQ(S.stats().SubgoalsCreated, 0u);

  EXPECT_EQ(solveText(Syms, S, "path(a, X)"), 3u);
  EXPECT_GT(S.stats().WarmTableHits, 0u);
  EXPECT_EQ(S.stats().ColdTableMisses, 0u);
  EXPECT_EQ(S.stats().SubgoalsCreated, 0u);
}

//===----------------------------------------------------------------------===//
// QueryContext: id attribution and deadlines
//===----------------------------------------------------------------------===//

TEST(QueryContext, TraceEventsAttributeToTheirQuery) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  Solver S(DB);
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  MetricsRegistry Metrics;
  EvalObserver Obs;
  Obs.Trace = &Trace;
  Obs.Metrics = &Metrics;
  S.setObserver(&Obs);

  QueryContext Ctx;
  S.setQueryContext(&Ctx);
  Ctx.Id = 101;
  solveText(Syms, S, "path(a, X)");
  Ctx.Id = 202;
  solveText(Syms, S, "path(a, X)");

  size_t First = 0, Second = 0;
  for (const TraceEvent &E : Sink.events()) {
    if (E.QueryId == 101)
      ++First;
    else if (E.QueryId == 202)
      ++Second;
    else
      ADD_FAILURE() << "event with unattributed query id " << E.QueryId;
  }
  EXPECT_GT(First, 0u);  // The cold evaluation.
  EXPECT_GT(Second, 0u); // At least the warm tabled-call event.
}

TEST(QueryContext, CallerIdZeroFallsBackToInternalSequence) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  Solver S(DB);
  QueryContext Ctx; // Id stays 0.
  S.setQueryContext(&Ctx);
  solveText(Syms, S, "path(a, X)");
  uint64_t Q1 = S.currentQueryId();
  EXPECT_GT(Q1, 0u);
  solveText(Syms, S, "path(b, X)");
  EXPECT_GT(S.currentQueryId(), Q1);
}

TEST(QueryContext, ExpiredDeadlineTruncatesAndPoisons) {
  // A chain long enough that the decimated deadline check (every 1024
  // resolution steps) fires mid-evaluation. The deadline is an absolute
  // steady-clock point already in the past, so expiry is deterministic.
  std::string Prog = ":- table path/2.\n"
                     "path(X, Y) :- edge(X, Y).\n"
                     "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  const int N = 2000;
  for (int I = 0; I < N; ++I)
    Prog += "edge(n" + std::to_string(I) + ", n" + std::to_string(I + 1) +
            ").\n";
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(Prog).hasValue());
  Solver S(DB);
  QueryContext Ctx;
  Ctx.Id = 1;
  Ctx.DeadlineNs = 1; // Long past.
  S.setQueryContext(&Ctx);

  size_t Total = solveText(Syms, S, "path(n0, X)");
  EXPECT_LT(Total, size_t(N)); // The full closure was cut short.
  EXPECT_EQ(S.stats().DeadlineHits, 1u); // Counted once, not per branch.

  // Same soundness discipline as the depth limit: the truncated producer
  // is poisoned so the partial table can never pass for a complete one.
  EXPECT_GE(S.stats().IncompleteTables, 1u);
  bool AnyIncomplete = false;
  for (const Subgoal *SG : S.subgoals())
    AnyIncomplete |= SG->Incomplete;
  EXPECT_TRUE(AnyIncomplete);

  // The expiry is per-query, not sticky across queries: with the deadline
  // cleared the next query runs to completion.
  Ctx.Id = 2;
  Ctx.DeadlineNs = 0;
  EXPECT_EQ(solveText(Syms, S, "path(n1, X)"), size_t(N) - 1);
  EXPECT_EQ(S.stats().DeadlineHits, 1u);
}

TEST(QueryContext, UnreachableDeadlineChangesNothing) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  Solver S(DB);
  QueryContext Ctx;
  Ctx.Id = 1;
  Ctx.DeadlineNs = ~uint64_t(0);
  S.setQueryContext(&Ctx);
  EXPECT_EQ(solveText(Syms, S, "path(a, X)"), 3u);
  EXPECT_EQ(S.stats().DeadlineHits, 0u);
  EXPECT_EQ(S.stats().IncompleteTables, 0u);
}

//===----------------------------------------------------------------------===//
// ServiceStats: bounded rings and quantiles
//===----------------------------------------------------------------------===//

QueryRecord record(uint64_t Id, double WallMs, uint64_t Warm = 0,
                   uint64_t Cold = 0) {
  QueryRecord R;
  R.Id = Id;
  R.Goal = "g" + std::to_string(Id);
  R.WallMs = WallMs;
  R.WarmHits = Warm;
  R.ColdMisses = Cold;
  return R;
}

TEST(ServiceStatsTest, WindowQuantilesAreExactNearestRank) {
  ServiceStats::Options O;
  O.WindowSize = 8;
  ServiceStats S(O);
  // 1ms..8ms -> 1000us..8000us.
  for (uint64_t I = 1; I <= 8; ++I)
    S.recordQuery(record(I, double(I)));
  EXPECT_EQ(S.windowQuantileUs(0.0), 1000u);
  EXPECT_EQ(S.windowQuantileUs(0.50), 4000u);
  EXPECT_EQ(S.windowQuantileUs(0.95), 8000u);
  EXPECT_EQ(S.windowQuantileUs(1.0), 8000u);

  // Two more evict the two oldest: the window is now 3..10ms.
  S.recordQuery(record(9, 9.0));
  S.recordQuery(record(10, 10.0));
  EXPECT_EQ(S.windowCount(), 8u);
  EXPECT_EQ(S.windowQuantileUs(0.0), 3000u);
  EXPECT_EQ(S.windowQuantileUs(1.0), 10000u);

  // The cumulative histogram still covers all ten queries.
  EXPECT_EQ(S.latency().count(), 10u);
  EXPECT_EQ(S.queriesServed(), 10u);
}

TEST(ServiceStatsTest, RecentRingEvictsOldestFirst) {
  ServiceStats::Options O;
  O.RecentSize = 3;
  ServiceStats S(O);
  for (uint64_t I = 1; I <= 5; ++I)
    S.recordQuery(record(I, 1.0));
  std::vector<QueryRecord> R = S.recentQueries();
  ASSERT_EQ(R.size(), 3u);
  EXPECT_EQ(R[0].Id, 3u);
  EXPECT_EQ(R[1].Id, 4u);
  EXPECT_EQ(R[2].Id, 5u);
}

TEST(ServiceStatsTest, GaugeRingKeepsArrivalOrderAcrossWrap) {
  ServiceStats::Options O;
  O.GaugeRingSize = 4;
  ServiceStats S(O);
  for (uint64_t I = 1; I <= 6; ++I)
    S.recordGauges({I, I * 100, I, I});
  std::vector<GaugePoint> G = S.gaugeSeries();
  ASSERT_EQ(G.size(), 4u);
  EXPECT_EQ(G.front().QueryId, 3u);
  EXPECT_EQ(G.back().QueryId, 6u);
  EXPECT_EQ(G.back().TableBytes, 600u);
}

TEST(ServiceStatsTest, WarmHitRateAndReset) {
  ServiceStats S;
  EXPECT_DOUBLE_EQ(S.warmHitRate(), 0.0); // No lookups yet: defined as 0.
  S.recordQuery(record(1, 1.0, /*Warm=*/0, /*Cold=*/4));
  S.recordQuery(record(2, 1.0, /*Warm=*/1, /*Cold=*/0));
  EXPECT_DOUBLE_EQ(S.warmHitRate(), 0.2);
  EXPECT_EQ(S.warmHits(), 1u);
  EXPECT_EQ(S.coldMisses(), 4u);

  S.reset();
  EXPECT_EQ(S.queriesServed(), 0u);
  EXPECT_EQ(S.warmHits(), 0u);
  EXPECT_EQ(S.windowCount(), 0u);
  EXPECT_TRUE(S.recentQueries().empty());
  EXPECT_TRUE(S.gaugeSeries().empty());
}

//===----------------------------------------------------------------------===//
// AnalysisSession
//===----------------------------------------------------------------------===//

TEST(SessionTest, QueriesCarrySequentialIdsAndWarmDeltas) {
  AnalysisSession Session;
  auto Loaded = Session.consult(PathProgram);
  ASSERT_TRUE(Loaded.hasValue());
  EXPECT_EQ(Loaded->Loaded, 5u);

  auto Q1 = Session.runQuery("path(a, X)");
  ASSERT_TRUE(Q1.hasValue());
  EXPECT_EQ(Q1->Id, 1u);
  EXPECT_EQ(Q1->Total, 3u);
  EXPECT_EQ(Q1->Solutions.size(), 3u);
  EXPECT_EQ(Q1->WarmHits, 0u);
  EXPECT_GT(Q1->ColdMisses, 0u);
  EXPECT_FALSE(Q1->Truncated);

  auto Q2 = Session.runQuery("path(a, X)");
  ASSERT_TRUE(Q2.hasValue());
  EXPECT_EQ(Q2->Id, 2u);
  EXPECT_GT(Q2->WarmHits, 0u);
  EXPECT_EQ(Q2->ColdMisses, 0u);

  EXPECT_EQ(Session.queriesServed(), 2u);
  EXPECT_NE(Session.warmColdLine().find("warm"), std::string::npos);
  EXPECT_FALSE(Session.queriesReport().empty());
}

TEST(SessionTest, MaxSolutionsBoundsRenderingNotCounting) {
  AnalysisSession Session;
  ASSERT_TRUE(Session.consult(PathProgram).hasValue());
  auto Q = Session.runQuery("path(X, Y)", /*MaxSolutions=*/2);
  ASSERT_TRUE(Q.hasValue());
  EXPECT_EQ(Q->Total, 6u);
  EXPECT_EQ(Q->Solutions.size(), 2u);
}

TEST(SessionTest, ParseErrorsAreDiagnosticsNotQueries) {
  AnalysisSession Session;
  ASSERT_TRUE(Session.consult(PathProgram).hasValue());
  auto Bad = Session.runQuery("path(a,");
  EXPECT_FALSE(Bad.hasValue());
  EXPECT_EQ(Session.queriesServed(), 0u); // Never reached the engine.
}

TEST(SessionTest, ResetStatsKeepsSessionTablesWarm) {
  AnalysisSession Session;
  ASSERT_TRUE(Session.consult(PathProgram).hasValue());
  ASSERT_TRUE(Session.runQuery("path(a, X)").hasValue());
  Session.resetStats();
  EXPECT_EQ(Session.queriesServed(), 0u);

  // Post-reset, the tables built before the reset still answer warm.
  auto Q = Session.runQuery("path(a, X)");
  ASSERT_TRUE(Q.hasValue());
  EXPECT_GT(Q->WarmHits, 0u);
  EXPECT_EQ(Q->ColdMisses, 0u);
}

TEST(SessionTest, StatsAndHealthSnapshotsParseWithStableSchema) {
  AnalysisSession Session;
  ASSERT_TRUE(Session.consult(PathProgram).hasValue());
  ASSERT_TRUE(Session.runQuery("path(a, X)").hasValue());
  ASSERT_TRUE(Session.runQuery("path(a, X)").hasValue());

  auto Stats = JsonValue::parse(Session.statsJson());
  ASSERT_TRUE(Stats.hasValue()) << Stats.getError().str();
  EXPECT_EQ(Stats->stringOr("schema", ""), "lpa.stats.v1");
  EXPECT_DOUBLE_EQ(Stats->numberOr("queries_served", 0), 2.0);
  EXPECT_GT(Stats->numberOr("warm_hits", 0), 0.0);
  const JsonValue *Latency = Stats->find("latency");
  ASSERT_TRUE(Latency && Latency->isObject());
  for (const char *Key : {"p50_us", "p95_us", "p99_us", "count"})
    EXPECT_TRUE(Latency->find(Key)) << "latency missing " << Key;
  const JsonValue *Recent = Stats->find("recent_queries");
  ASSERT_TRUE(Recent && Recent->isArray());
  EXPECT_EQ(Recent->items().size(), 2u);
  const JsonValue *Engine = Stats->find("engine");
  ASSERT_TRUE(Engine && Engine->isObject());
  const JsonValue *Counters = Engine->find("counters");
  ASSERT_TRUE(Counters && Counters->isObject());
  EXPECT_GT(Counters->numberOr("warm_table_hits", 0), 0.0);
  const JsonValue *Gauges = Stats->find("gauges");
  ASSERT_TRUE(Gauges && Gauges->isArray());
  EXPECT_EQ(Gauges->items().size(), 2u);

  auto Health = JsonValue::parse(Session.healthJson());
  ASSERT_TRUE(Health.hasValue());
  EXPECT_EQ(Health->stringOr("schema", ""), "lpa.health.v1");
  EXPECT_TRUE(Health->find("ok")->asBool());
  EXPECT_DOUBLE_EQ(Health->numberOr("clauses", 0), 5.0);
  EXPECT_GT(Health->numberOr("subgoals", 0), 0.0);
}

//===----------------------------------------------------------------------===//
// JSON-lines protocol
//===----------------------------------------------------------------------===//

JsonValue respond(AnalysisSession &Session, const std::string &Line,
                  bool *Shutdown = nullptr) {
  bool Quit = false;
  std::string Resp = handleRequestLine(Session, Line, Quit);
  if (Shutdown)
    *Shutdown = Quit;
  auto V = JsonValue::parse(Resp);
  EXPECT_TRUE(V.hasValue()) << "unparsable response: " << Resp;
  return V.hasValue() ? *V : JsonValue();
}

const char *ConsultReq =
    R"j({"op":"consult","program":":- table path/2. edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y)."})j";

TEST(ProtocolTest, ConsultQueryStatsRoundTrip) {
  AnalysisSession Session;
  JsonValue C = respond(Session, ConsultReq);
  EXPECT_TRUE(C.find("ok")->asBool());
  EXPECT_DOUBLE_EQ(C.numberOr("clauses", 0), 4.0);

  JsonValue Q1 =
      respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");
  EXPECT_TRUE(Q1.find("ok")->asBool());
  EXPECT_DOUBLE_EQ(Q1.numberOr("id", 0), 1.0);
  EXPECT_DOUBLE_EQ(Q1.numberOr("total", 0), 2.0);
  ASSERT_TRUE(Q1.find("solutions"));
  EXPECT_EQ(Q1.find("solutions")->items().size(), 2u);
  EXPECT_DOUBLE_EQ(Q1.numberOr("warm_hits", -1), 0.0);

  JsonValue Q2 =
      respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");
  EXPECT_DOUBLE_EQ(Q2.numberOr("id", 0), 2.0);
  EXPECT_GT(Q2.numberOr("warm_hits", 0), 0.0);
  EXPECT_DOUBLE_EQ(Q2.numberOr("cold_misses", -1), 0.0);

  JsonValue St = respond(Session, R"j({"op":"stats"})j");
  EXPECT_TRUE(St.find("ok")->asBool());
  const JsonValue *Stats = St.find("stats");
  ASSERT_TRUE(Stats && Stats->isObject());
  EXPECT_EQ(Stats->stringOr("schema", ""), "lpa.stats.v1");
  EXPECT_GT(Stats->numberOr("warm_hits", 0), 0.0);

  JsonValue H = respond(Session, R"j({"op":"health"})j");
  const JsonValue *Health = H.find("health");
  ASSERT_TRUE(Health && Health->isObject());
  EXPECT_EQ(Health->stringOr("schema", ""), "lpa.health.v1");
}

TEST(ProtocolTest, MaxSolutionsAndDeadlineArePlumbed) {
  AnalysisSession Session;
  respond(Session, ConsultReq);
  JsonValue Q = respond(
      Session,
      R"j({"op":"query","goal":"path(X,Y)","max_solutions":1,"deadline_ms":60000})j");
  EXPECT_DOUBLE_EQ(Q.numberOr("total", 0), 3.0);
  EXPECT_EQ(Q.find("solutions")->items().size(), 1u);
  ASSERT_TRUE(Q.find("truncated"));
  EXPECT_FALSE(Q.find("truncated")->asBool());
}

TEST(ProtocolTest, ResetStatsAndShutdownVerbs) {
  AnalysisSession Session;
  respond(Session, R"j({"op":"consult","program":"edge(a,b)."})j");
  respond(Session, R"j({"op":"query","goal":"edge(a,X)"})j");
  EXPECT_EQ(Session.queriesServed(), 1u);

  bool Quit = false;
  JsonValue R = respond(Session, R"j({"op":"reset_stats"})j", &Quit);
  EXPECT_TRUE(R.find("ok")->asBool());
  EXPECT_FALSE(Quit);
  EXPECT_EQ(Session.queriesServed(), 0u);

  JsonValue Bye = respond(Session, R"j({"op":"shutdown"})j", &Quit);
  EXPECT_TRUE(Bye.find("ok")->asBool());
  EXPECT_TRUE(Quit);
}

TEST(ProtocolTest, ErrorsAreResponsesNotDisconnects) {
  AnalysisSession Session;
  bool Quit = false;

  JsonValue NotJson = respond(Session, "this is not json", &Quit);
  ASSERT_TRUE(NotJson.find("ok"));
  EXPECT_FALSE(NotJson.find("ok")->asBool());
  EXPECT_TRUE(NotJson.find("error"));
  EXPECT_FALSE(Quit);

  JsonValue BadOp = respond(Session, R"j({"op":"frobnicate"})j");
  EXPECT_FALSE(BadOp.find("ok")->asBool());

  JsonValue NoGoal = respond(Session, R"j({"op":"query"})j");
  EXPECT_FALSE(NoGoal.find("ok")->asBool());

  JsonValue BadGoal =
      respond(Session, R"j({"op":"query","goal":"path(a,"})j");
  EXPECT_FALSE(BadGoal.find("ok")->asBool());
  EXPECT_TRUE(BadGoal.find("error"));

  // The session survives all of it.
  respond(Session, R"j({"op":"consult","program":"edge(a,b)."})j");
  JsonValue Q = respond(Session, R"j({"op":"query","goal":"edge(a,X)"})j");
  EXPECT_TRUE(Q.find("ok")->asBool());
}

} // namespace
