//===- obs_test.cpp - Observability layer tests -------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Covers the src/obs subsystem end to end: the JSON writer, histograms,
// the metrics registry, SLG event ordering from the engine, the
// disabled-path guarantee (no sink => no events), table snapshots,
// resetStats() semantics, and the Chrome trace exporter.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "depthk/DepthK.h"
#include "engine/Solver.h"
#include "fl/FLParser.h"
#include "obs/EvalObserver.h"
#include "obs/Json.h"
#include "prop/Groundness.h"
#include "prop/PropTransform.h"
#include "strictness/StrictTransform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>

using namespace lpa;

namespace {

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(JsonWriter, ObjectsArraysAndEscaping) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("name", "a\"b\\c\n");
  W.member("n", uint64_t(42));
  W.member("neg", int64_t(-7));
  W.member("pi", 3.5);
  W.member("flag", true);
  W.key("rows");
  W.beginArray();
  W.value(uint64_t(1));
  W.value("two");
  W.beginObject();
  W.endObject();
  W.endArray();
  W.endObject();
  EXPECT_EQ(Out, "{\"name\":\"a\\\"b\\\\c\\n\",\"n\":42,\"neg\":-7,"
                 "\"pi\":3.5,\"flag\":true,\"rows\":[1,\"two\",{}]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::string Out;
  JsonWriter W(Out);
  W.beginArray();
  W.value(std::numeric_limits<double>::infinity());
  W.value(std::numeric_limits<double>::quiet_NaN());
  W.endArray();
  EXPECT_EQ(Out, "[null,null]");
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

TEST(Histogram, BasicStatistics) {
  Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantile(0.5), 0u);
  for (uint64_t V : {1, 1, 2, 3, 100})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.min(), 1u);
  EXPECT_EQ(H.max(), 100u);
  EXPECT_DOUBLE_EQ(H.mean(), 107.0 / 5);
  // Median falls in the bucket holding the small values.
  EXPECT_LE(H.quantile(0.5), 3u);
  EXPECT_LE(H.quantile(1.0), 100u);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.max(), 0u);
}

TEST(Histogram, ZeroAndLargeValues) {
  Histogram H;
  H.record(0);
  H.record(~uint64_t(0));
  EXPECT_EQ(H.count(), 2u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), ~uint64_t(0));
  EXPECT_EQ(H.quantile(0.0), 0u);
}

TEST(Histogram, QuantileEdgeCasesArePinned) {
  // Empty: every Q reports 0.
  Histogram Empty;
  for (double Q : {-1.0, 0.0, 0.5, 1.0, 2.0})
    EXPECT_EQ(Empty.quantile(Q), 0u) << Q;

  // {5, 6, 7} all land in bucket 3 (values in [4, 8)); the bucket's upper
  // bound is 7. Q <= 0 must report exactly min() (5, not the bucket
  // bound), and Q >= 1 exactly max().
  Histogram H;
  for (uint64_t V : {5, 6, 7})
    H.record(V);
  EXPECT_EQ(H.quantile(0.0), 5u);
  EXPECT_EQ(H.quantile(-0.5), 5u);
  EXPECT_EQ(H.quantile(1.0), 7u);
  EXPECT_EQ(H.quantile(1.5), 7u);
  EXPECT_EQ(H.quantile(0.5), 7u); // Mid falls in the bucket; bound = 7.

  // {1, 2, 4, 8} spread across buckets: interior quantiles return bucket
  // upper bounds (2^B - 1), clamped into [min, max].
  Histogram S;
  for (uint64_t V : {1, 2, 4, 8})
    S.record(V);
  EXPECT_EQ(S.quantile(0.0), 1u);
  EXPECT_EQ(S.quantile(0.25), 1u); // Bucket 1 covers [1, 2); bound = 1.
  EXPECT_EQ(S.quantile(0.99), 7u); // Bucket 3 covers [4, 8); bound = 7.
  EXPECT_EQ(S.quantile(1.0), 8u);  // Exactly max, above every bound.
}

//===----------------------------------------------------------------------===//
// Event ordering from the engine (the tentpole's correctness core)
//===----------------------------------------------------------------------===//

/// One tabled evaluation of path/2 over a 3-cycle with a tracer attached.
struct TracedRun {
  SymbolTable Symbols;
  Database DB{Symbols};
  Solver Engine{DB};
  Tracer Trace;
  RecordingSink Sink;
  EvalObserver Obs;

  explicit TracedRun(bool AttachSink = true) {
    EXPECT_TRUE(DB.consult(":- table path/2.\n"
                           "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
                           "path(X, Y) :- edge(X, Y).\n"
                           "edge(a, b). edge(b, c). edge(c, a).\n"));
    if (AttachSink)
      Trace.setSink(&Sink);
    Obs.Trace = &Trace;
    Engine.setObserver(&Obs);
  }

  size_t solve(const char *Goal) {
    auto N = Engine.solveText(Goal, nullptr);
    EXPECT_TRUE(bool(N));
    return N ? *N : 0;
  }
};

TEST(TraceEvents, TabledEvaluationEventOrdering) {
  TracedRun R;
  EXPECT_EQ(R.solve("path(a, X)"), 3u);

  const std::vector<TraceEvent> &Es = R.Sink.events();
  ASSERT_FALSE(Es.empty());

  auto FirstOf = [&](TraceEventKind K) {
    return std::find_if(Es.begin(), Es.end(),
                        [&](const TraceEvent &E) { return E.Kind == K; });
  };
  auto LastOf = [&](TraceEventKind K) {
    auto It = std::find_if(Es.rbegin(), Es.rend(),
                           [&](const TraceEvent &E) { return E.Kind == K; });
    return It == Es.rend() ? Es.end() : It.base() - 1;
  };

  // The SLG lifecycle: the tabled call precedes its subgoal's creation,
  // every answer lands before the subgoal completes.
  auto Call = FirstOf(TraceEventKind::TabledCall);
  auto New = FirstOf(TraceEventKind::SubgoalNew);
  auto Ans = FirstOf(TraceEventKind::AnswerNew);
  auto Done = FirstOf(TraceEventKind::SubgoalComplete);
  ASSERT_NE(Call, Es.end());
  ASSERT_NE(New, Es.end());
  ASSERT_NE(Ans, Es.end());
  ASSERT_NE(Done, Es.end());
  EXPECT_LT(Call - Es.begin(), New - Es.begin());
  EXPECT_LT(New - Es.begin(), Ans - Es.begin());
  EXPECT_LT(LastOf(TraceEventKind::AnswerNew) - Es.begin(),
            Done - Es.begin());

  // path(a,_) over a 3-cycle: 3 answers for the one subgoal.
  EXPECT_EQ(R.Sink.count(TraceEventKind::SubgoalNew), 1u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::AnswerNew), 3u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::SubgoalComplete), 1u);
  EXPECT_GE(R.Sink.count(TraceEventKind::ClauseResolve), 2u);

  // The completion event carries the final answer count as payload.
  EXPECT_EQ(Done->Value, 3u);

  // Event times are monotone (nowNs is a monotonic clock).
  for (size_t I = 1; I < Es.size(); ++I)
    EXPECT_LE(Es[I - 1].TimeNs, Es[I].TimeNs);

  // Every predicate-carrying event names path/2 or edge/2.
  SymbolId Path = R.Symbols.intern("path");
  SymbolId Edge = R.Symbols.intern("edge");
  for (const TraceEvent &E : Es)
    if (E.Kind != TraceEventKind::SpanBegin &&
        E.Kind != TraceEventKind::SpanEnd) {
      EXPECT_TRUE(E.Sym == Path || E.Sym == Edge);
      EXPECT_EQ(E.Arity, 2u);
    }
}

TEST(TraceEvents, CompletedTableReplayEmitsNoNewSubgoals) {
  TracedRun R;
  R.solve("path(a, X)");
  R.Sink.clear();
  // Re-querying a completed subgoal replays from the table: a tabled call
  // happens, but no subgoal creation, answers, or completion.
  EXPECT_EQ(R.solve("path(a, X)"), 3u);
  EXPECT_GE(R.Sink.count(TraceEventKind::TabledCall), 1u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::SubgoalNew), 0u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::AnswerNew), 0u);
  EXPECT_EQ(R.Sink.count(TraceEventKind::SubgoalComplete), 0u);
}

TEST(TraceEvents, DetachedSinkRecordsNothing) {
  // A tracer with no sink is the "disabled" configuration: the engine
  // still runs the same evaluation, and the recording sink — attached
  // only afterwards — must have seen zero events.
  TracedRun R(/*AttachSink=*/false);
  EXPECT_FALSE(R.Trace.enabled());
  EXPECT_EQ(R.solve("path(a, X)"), 3u);
  EXPECT_TRUE(R.Sink.events().empty());

  // Attaching mid-session starts the stream from that point.
  R.Trace.setSink(&R.Sink);
  R.solve("path(b, X)");
  EXPECT_FALSE(R.Sink.events().empty());
}

TEST(TraceEvents, KindNamesAreStable) {
  EXPECT_STREQ(traceEventKindName(TraceEventKind::TabledCall),
               "tabled-call");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::SubgoalNew),
               "subgoal-new");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::AnswerNew), "answer-new");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::AnswerDup), "answer-dup");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::SubgoalComplete),
               "subgoal-complete");
  EXPECT_STREQ(traceEventKindName(TraceEventKind::SpanBegin), "span-begin");
}

//===----------------------------------------------------------------------===//
// Metrics registry + engine integration
//===----------------------------------------------------------------------===//

TEST(Metrics, PerPredicateCountersMatchEvalStats) {
  SymbolTable Symbols;
  Database DB(Symbols);
  ASSERT_TRUE(DB.consult(":- table path/2.\n"
                         "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
                         "path(X, Y) :- edge(X, Y).\n"
                         "edge(a, b). edge(b, c). edge(c, a).\n"));
  Solver Engine(DB);
  MetricsRegistry Reg;
  EvalObserver Obs;
  Obs.Metrics = &Reg;
  Engine.setObserver(&Obs);
  ASSERT_TRUE(bool(Engine.solveText("path(a, X)", nullptr)));

  uint64_t Calls = 0, Subgoals = 0, NewAns = 0, DupAns = 0, Resol = 0;
  for (const PredMetrics *PM : Reg.predicates()) {
    Calls += PM->Calls;
    Subgoals += PM->NewSubgoals;
    NewAns += PM->NewAnswers;
    DupAns += PM->DupAnswers;
    Resol += PM->Resolutions;
  }
  const EvalStats &S = Engine.stats();
  EXPECT_EQ(Calls, S.TabledCalls);
  EXPECT_EQ(Subgoals, S.SubgoalsCreated);
  EXPECT_EQ(NewAns, S.AnswersRecorded);
  EXPECT_EQ(DupAns, S.AnswersDuplicate);
  EXPECT_EQ(Resol, S.ClauseResolutions);

  // First-touch order and qualified names survive into the report.
  std::string Report = Reg.renderReport();
  EXPECT_NE(Report.find("path/2"), std::string::npos);
  EXPECT_NE(Report.find("Predicate"), std::string::npos);
}

TEST(Metrics, TableSnapshotMatchesEngineTables) {
  SymbolTable Symbols;
  Database DB(Symbols);
  ASSERT_TRUE(DB.consult(":- table p/1.\n p(1). p(2). p(3).\n"
                         ":- table q/1.\n q(X) :- p(X).\n"));
  Solver Engine(DB);
  MetricsRegistry Reg;
  EvalObserver Obs;
  Obs.Metrics = &Reg;
  Engine.setObserver(&Obs);
  ASSERT_TRUE(bool(Engine.solveText("q(X)", nullptr)));

  Engine.snapshotTableMetrics(Reg);
  uint64_t Subgoals = 0, Answers = 0, Bytes = 0;
  for (const PredMetrics *PM : Reg.predicates()) {
    Subgoals += PM->TableSubgoals;
    Answers += PM->TableAnswers;
    Bytes += PM->TableBytes;
  }
  EXPECT_EQ(Subgoals, Engine.subgoals().size());
  uint64_t EngineAnswers = 0;
  for (const Subgoal *SG : Engine.subgoals())
    EngineAnswers += Engine.answerCount(*SG);
  EXPECT_EQ(Answers, EngineAnswers);
  EXPECT_GT(Bytes, 0u);

  // Snapshots are idempotent: a second snapshot assigns, not accumulates.
  Engine.snapshotTableMetrics(Reg);
  uint64_t Subgoals2 = 0;
  for (const PredMetrics *PM : Reg.predicates())
    Subgoals2 += PM->TableSubgoals;
  EXPECT_EQ(Subgoals2, Subgoals);

  // The registry's global counters mirror EvalStats + table space.
  std::string Json;
  JsonWriter W(Json);
  Reg.writeJson(W);
  EXPECT_NE(Json.find("\"table_space_bytes\":"), std::string::npos);
  EXPECT_NE(Json.find("\"predicates\":["), std::string::npos);
  EXPECT_NE(Json.find("\"answers_per_subgoal\":{"), std::string::npos);
}

TEST(Metrics, PhaseSpansAccumulateAndExport) {
  MetricsRegistry Reg;
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  EvalObserver Obs;
  Obs.Trace = &Trace;
  Obs.Metrics = &Reg;
  {
    EvalObserver::Span Outer(Obs, "evaluate");
  }
  {
    EvalObserver::Span Again(Obs, "evaluate");
  }
  ASSERT_EQ(Reg.phases().size(), 1u); // Same label accumulates.
  EXPECT_EQ(Reg.phases()[0].first, "evaluate");
  EXPECT_GE(Reg.phases()[0].second, 0.0);
  EXPECT_EQ(Sink.count(TraceEventKind::SpanBegin), 2u);
  EXPECT_EQ(Sink.count(TraceEventKind::SpanEnd), 2u);
}

/// Satellite: guarded self-checks. In default builds this documents that
/// the flag is off; configuring with -DLPA_ENABLE_TRACE_ASSERTS=ON flips
/// it and enables the span-balance bookkeeping asserted here.
TEST(TraceAsserts, FlagMatchesBuildConfiguration) {
#if LPA_TRACE_ASSERTS
  EXPECT_TRUE(traceAssertsEnabled());
  Tracer T;
  EXPECT_EQ(T.openSpans(), 0u);
  T.beginSpan("phase");
  EXPECT_EQ(T.openSpans(), 1u);
  T.endSpan("phase");
  EXPECT_EQ(T.openSpans(), 0u);
#else
  EXPECT_FALSE(traceAssertsEnabled());
#endif
}

//===----------------------------------------------------------------------===//
// resetStats() semantics (satellite regression test)
//===----------------------------------------------------------------------===//

TEST(ResetStats, CountersOnlyTablesPersist) {
  SymbolTable Symbols;
  Database DB(Symbols);
  ASSERT_TRUE(DB.consult(":- table path/2.\n"
                         "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
                         "path(X, Y) :- edge(X, Y).\n"
                         "edge(a, b). edge(b, c). edge(c, a).\n"));
  Solver Engine(DB);
  ASSERT_TRUE(bool(Engine.solveText("path(a, X)", nullptr)));
  EXPECT_GT(Engine.stats().SubgoalsCreated, 0u);
  EXPECT_GT(Engine.stats().AnswersRecorded, 0u);
  size_t BytesBefore = Engine.tableSpaceBytes();

  // resetStats() zeroes counters but keeps the tables.
  Engine.resetStats();
  EXPECT_EQ(Engine.stats().SubgoalsCreated, 0u);
  EXPECT_EQ(Engine.stats().AnswersRecorded, 0u);
  EXPECT_EQ(Engine.stats().TabledCalls, 0u);
  EXPECT_EQ(Engine.tableSpaceBytes(), BytesBefore);

  // Re-evaluating the completed goal replays answers from the table: the
  // call is counted, but no subgoal creation or answer recording happens.
  auto N = Engine.solveText("path(a, X)", nullptr);
  ASSERT_TRUE(bool(N));
  EXPECT_EQ(*N, 3u);
  EXPECT_GT(Engine.stats().TabledCalls, 0u);
  EXPECT_EQ(Engine.stats().SubgoalsCreated, 0u);
  EXPECT_EQ(Engine.stats().AnswersRecorded, 0u);

  // clearTables() + resetStats() gives the from-scratch measurement: the
  // same query re-derives everything.
  Engine.clearTables();
  Engine.resetStats();
  ASSERT_TRUE(bool(Engine.solveText("path(a, X)", nullptr)));
  EXPECT_GT(Engine.stats().SubgoalsCreated, 0u);
  EXPECT_EQ(Engine.stats().AnswersRecorded, 3u);
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(ChromeTrace, SpansAndInstantsSerialize) {
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  Trace.beginSpan("evaluate");
  Trace.emit(TraceEventKind::TabledCall, P, 2);
  Trace.emit(TraceEventKind::AnswerNew, P, 2, 1);
  Trace.endSpan("evaluate");

  std::string Json = formatChromeTrace(Sink.events(), Symbols);
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\":\"evaluate\""), std::string::npos);
  EXPECT_NE(Json.find("p/2"), std::string::npos);
  // Braces balance (cheap well-formedness check; we have no parser).
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '['),
            std::count(Json.begin(), Json.end(), ']'));
}

TEST(Exporters, GroundnessAnalysisFillsRegistry) {
  // End-to-end: the groundness analyzer wires spans + engine metrics into
  // a caller-supplied registry that outlives the analysis run.
  SymbolTable Symbols;
  MetricsRegistry Reg;
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  GroundnessAnalyzer::Options Opts;
  Opts.Trace = &Trace;
  Opts.Metrics = &Reg;
  GroundnessAnalyzer Analyzer(Symbols, Opts);
  auto R = Analyzer.analyze("app([], Y, Y).\n"
                            "app([H|T], Y, [H|Z]) :- app(T, Y, Z).\n");
  ASSERT_TRUE(bool(R));

  // All three phases were spanned.
  std::vector<std::string> Names;
  for (const auto &[Name, Secs] : Reg.phases())
    Names.push_back(Name);
  EXPECT_NE(std::find(Names.begin(), Names.end(), "transform"),
            Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "evaluate"), Names.end());
  EXPECT_NE(std::find(Names.begin(), Names.end(), "collect"), Names.end());
  EXPECT_EQ(Sink.count(TraceEventKind::SpanBegin), 3u);
  EXPECT_EQ(Sink.count(TraceEventKind::SpanEnd), 3u);

  // The abstract predicate's table shows up with answers and bytes.
  bool FoundApp = false;
  uint64_t TotalTableBytes = 0;
  for (const PredMetrics *PM : Reg.predicates()) {
    TotalTableBytes += PM->TableBytes;
    if (PM->Name == "gp_app" && PM->Arity == 3) {
      FoundApp = true;
      EXPECT_GT(PM->TableSubgoals, 0u);
      EXPECT_GT(PM->TableAnswers, 0u);
      EXPECT_GT(PM->TableBytes, 0u);
    }
  }
  EXPECT_TRUE(FoundApp);
  // Apportioned per-pred bytes stay below the engine's global accounting
  // plus per-subgoal overhead, and are nonzero.
  EXPECT_GT(TotalTableBytes, 0u);
}

//===----------------------------------------------------------------------===//
// Bounded ring-buffer sink
//===----------------------------------------------------------------------===//

TEST(RingBuffer, UnboundedByDefault) {
  RecordingSink Sink;
  Tracer Trace;
  Trace.setSink(&Sink);
  for (uint64_t I = 0; I < 100; ++I)
    Trace.emit(TraceEventKind::ClauseResolve, 1, 0, I);
  EXPECT_EQ(Sink.events().size(), 100u);
  EXPECT_EQ(Sink.droppedCount(), 0u);
}

TEST(RingBuffer, KeepsExactlyTheLastNInArrivalOrder) {
  // Exactness: every received event is either in the kept window or
  // counted as dropped, and the window is precisely the newest N.
  RecordingSink Sink(TraceOptions{/*MaxEvents=*/8});
  Tracer Trace;
  Trace.setSink(&Sink);
  const uint64_t Total = 27; // wraps the ring 3+ times, lands mid-ring
  for (uint64_t I = 0; I < Total; ++I)
    Trace.emit(TraceEventKind::AnswerNew, 1, 2, /*Value=*/I);

  const std::vector<TraceEvent> &Kept = Sink.events();
  ASSERT_EQ(Kept.size(), 8u);
  EXPECT_EQ(Sink.droppedCount(), Total - 8);
  EXPECT_EQ(Sink.droppedCount() + Kept.size(), Total);
  for (size_t I = 0; I < Kept.size(); ++I)
    EXPECT_EQ(Kept[I].Value, Total - 8 + I) << "slot " << I;
  // Timestamps still monotone across the linearized window.
  for (size_t I = 1; I < Kept.size(); ++I)
    EXPECT_GE(Kept[I].TimeNs, Kept[I - 1].TimeNs);
}

TEST(RingBuffer, ExactCapacityDoesNotDrop) {
  RecordingSink Sink(TraceOptions{4});
  Tracer Trace;
  Trace.setSink(&Sink);
  for (uint64_t I = 0; I < 4; ++I)
    Trace.emit(TraceEventKind::TabledCall, 1, 1, I);
  ASSERT_EQ(Sink.events().size(), 4u);
  EXPECT_EQ(Sink.droppedCount(), 0u);
  EXPECT_EQ(Sink.events().front().Value, 0u);
  EXPECT_EQ(Sink.events().back().Value, 3u);
}

TEST(RingBuffer, ClearResetsWindowAndDropCounter) {
  RecordingSink Sink(TraceOptions{2});
  Tracer Trace;
  Trace.setSink(&Sink);
  for (uint64_t I = 0; I < 5; ++I)
    Trace.emit(TraceEventKind::ClauseResolve, 1, 0, I);
  EXPECT_EQ(Sink.droppedCount(), 3u);
  Sink.clear();
  EXPECT_TRUE(Sink.events().empty());
  EXPECT_EQ(Sink.droppedCount(), 0u);
  // The ring refills from scratch after clear().
  Trace.emit(TraceEventKind::ClauseResolve, 1, 0, 7);
  ASSERT_EQ(Sink.events().size(), 1u);
  EXPECT_EQ(Sink.events()[0].Value, 7u);
}

TEST(RingBuffer, CountSeesOnlyTheKeptWindow) {
  RecordingSink Sink(TraceOptions{3});
  Tracer Trace;
  Trace.setSink(&Sink);
  for (uint64_t I = 0; I < 10; ++I)
    Trace.emit(TraceEventKind::AnswerDup, 1, 1, I);
  Trace.emit(TraceEventKind::AnswerNew, 1, 1, 10);
  EXPECT_EQ(Sink.count(TraceEventKind::AnswerDup), 2u);
  EXPECT_EQ(Sink.count(TraceEventKind::AnswerNew), 1u);
}

//===----------------------------------------------------------------------===//
// Registry merge: counters vs watermarks
//===----------------------------------------------------------------------===//

TEST(Metrics, MergeSumsCountersButMaxesWatermarks) {
  MetricsRegistry A, B;
  A.setCounter("subgoals", 10);
  B.setCounter("subgoals", 32);
  // Shard A peaked higher on one watermark, shard B on the other.
  A.noteWatermark("peak_table_space_bytes", 5000);
  B.noteWatermark("peak_table_space_bytes", 3000);
  A.noteWatermark("peak_term_store_bytes", 100);
  B.noteWatermark("peak_term_store_bytes", 900);
  B.noteWatermark("peak_scc_frontier_bytes", 42); // only in B

  A.mergeFrom(B);

  auto Lookup = [](const MetricsRegistry &R, std::string_view Name,
                   bool Watermark) -> uint64_t {
    const auto &Vec = Watermark ? R.watermarks() : R.counters();
    for (const auto &[N, V] : Vec)
      if (N == Name)
        return V;
    return ~uint64_t(0);
  };
  // Counters are per-run totals: fleet-wide means sum.
  EXPECT_EQ(Lookup(A, "subgoals", false), 42u);
  // Watermarks are peaks: fleet-wide means max, never sum.
  EXPECT_EQ(Lookup(A, "peak_table_space_bytes", true), 5000u);
  EXPECT_EQ(Lookup(A, "peak_term_store_bytes", true), 900u);
  EXPECT_EQ(Lookup(A, "peak_scc_frontier_bytes", true), 42u);
}

TEST(Metrics, NoteWatermarkNeverLowers) {
  MetricsRegistry R;
  R.noteWatermark("peak", 100);
  R.noteWatermark("peak", 40);
  R.noteWatermark("peak", 60);
  ASSERT_EQ(R.watermarks().size(), 1u);
  EXPECT_EQ(R.watermarks()[0].second, 100u);
}

TEST(Metrics, WatermarksSurviveResetStatsAndExport) {
  MetricsRegistry R;
  R.noteWatermark("peak_table_space_bytes", 777);
  std::string Out;
  JsonWriter W(Out);
  R.writeJson(W);
  EXPECT_NE(Out.find("\"watermarks\":{\"peak_table_space_bytes\":777}"),
            std::string::npos)
      << Out;
}

//===----------------------------------------------------------------------===//
// Multi-thread Chrome trace stitching
//===----------------------------------------------------------------------===//

TEST(ChromeTrace, EmptyWorkerLaneSerializes) {
  // A fleet worker that drew no jobs contributes an empty buffer; the
  // exporter must emit valid JSON, not crash or emit a dangling comma.
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  Trace.emit(TraceEventKind::TabledCall, P, 1);

  std::vector<ThreadTrace> Threads;
  Threads.push_back({1, Sink.events()});
  Threads.push_back({2, {}}); // idle worker
  std::string Json = formatChromeTraceThreads(Threads, &Symbols);
  EXPECT_NE(Json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(Json.find("p/1"), std::string::npos);
  EXPECT_EQ(Json.find(",]"), std::string::npos);
  EXPECT_EQ(Json.find(",,"), std::string::npos);
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '['),
            std::count(Json.begin(), Json.end(), ']'));

  // All-empty lane set still renders a well-formed document.
  std::vector<ThreadTrace> AllIdle(3);
  std::string Empty = formatChromeTraceThreads(AllIdle, nullptr);
  EXPECT_NE(Empty.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(std::count(Empty.begin(), Empty.end(), '{'),
            std::count(Empty.begin(), Empty.end(), '}'));
}

TEST(ChromeTrace, DroppedEventsSurfaceInExport) {
  // A bounded ring that wrapped must not present its window as the whole
  // trace: the export leads with a "trace-truncated" instant carrying the
  // eviction count and a top-level "droppedEvents" member.
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink Sink(TraceOptions{/*MaxEvents=*/4});
  Trace.setSink(&Sink);
  for (int I = 0; I < 10; ++I)
    Trace.emit(TraceEventKind::TabledCall, P, 1, I);
  ASSERT_EQ(Sink.droppedCount(), 6u);

  std::string Json =
      formatChromeTrace(Sink.events(), Symbols, Sink.droppedCount());
  EXPECT_NE(Json.find("\"trace-truncated\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"dropped\":6"), std::string::npos);
  EXPECT_NE(Json.find("\"droppedEvents\":6"), std::string::npos);
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));

  // An unbounded sink reports nothing dropped and no truncation marker.
  std::string Clean = formatChromeTrace(Sink.events(), Symbols, 0);
  EXPECT_EQ(Clean.find("trace-truncated"), std::string::npos);
  EXPECT_EQ(Clean.find("droppedEvents"), std::string::npos);
}

TEST(ChromeTrace, ThreadedExportSumsPerLaneDrops) {
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink A(TraceOptions{/*MaxEvents=*/2});
  Trace.setSink(&A);
  for (int I = 0; I < 5; ++I)
    Trace.emit(TraceEventKind::TabledCall, P, 1);
  RecordingSink B(TraceOptions{/*MaxEvents=*/2});
  Trace.setSink(&B);
  for (int I = 0; I < 4; ++I)
    Trace.emit(TraceEventKind::AnswerNew, P, 1);

  std::vector<ThreadTrace> Threads;
  Threads.push_back({1, A.events(), A.droppedCount()});
  Threads.push_back({2, B.events(), B.droppedCount()});
  std::string Json = formatChromeTraceThreads(Threads, &Symbols);
  // 3 dropped on lane 1 + 2 on lane 2; each lane gets its own marker.
  EXPECT_NE(Json.find("\"droppedEvents\":5"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"dropped\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"dropped\":2"), std::string::npos);
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
}

TEST(TraceEvents, QueryIdStampsEvents) {
  // Tracer::setQuery scopes every subsequent event; the Chrome export
  // carries the id in args so one shared buffer can be sliced per query.
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");
  Tracer Trace;
  RecordingSink Sink;
  Trace.setSink(&Sink);
  Trace.emit(TraceEventKind::TabledCall, P, 1); // Unscoped.
  Trace.setQuery(7);
  Trace.emit(TraceEventKind::TabledCall, P, 1);
  Trace.setQuery(8);
  Trace.emit(TraceEventKind::AnswerNew, P, 1);

  ASSERT_EQ(Sink.events().size(), 3u);
  EXPECT_EQ(Sink.events()[0].QueryId, 0u);
  EXPECT_EQ(Sink.events()[1].QueryId, 7u);
  EXPECT_EQ(Sink.events()[2].QueryId, 8u);

  std::string Json = formatChromeTrace(Sink.events(), Symbols);
  EXPECT_NE(Json.find("\"query\":7"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"query\":8"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Pinned telemetry: every observation channel over corpus analyses
//===----------------------------------------------------------------------===//

/// Every observation channel the engine feeds, attached together.
struct Channels {
  RecordingSink Sink;
  Tracer Trace;
  MetricsRegistry Metrics;
  EvalCursor Cursor;
  FlightRecorder Recorder;
  CostProfile Costs;
  EvalObserver Obs;
  /// Cost totals summed over every outermost query (a profile holds only
  /// the current query's records).
  std::array<uint64_t, 6> CostSums = {};

  Channels() {
    Trace.setSink(&Sink);
    Obs.Trace = &Trace;
    Obs.Metrics = &Metrics;
    Obs.Cursor = &Cursor;
    Obs.Recorder = &Recorder;
    Obs.Costs = &Costs;
  }

  void attach(Solver &S) { S.setObserver(&Obs); }

  void foldQueryCosts() {
    for (uint32_t Ord : Costs.touched()) {
      const CostProfile::Record *R = Costs.record(Ord);
      CostSums[0] += R->Steps;
      CostSums[1] += R->AnswersInserted;
      CostSums[2] += R->AnswersConsumed;
      CostSums[3] += R->Resumptions;
      CostSums[5] += R->Warm;
    }
    CostSums[4] += Costs.rootSteps();
  }
};

uint64_t fnv(uint64_t H, std::string_view S) {
  for (unsigned char C : S)
    H = (H ^ C) * 1099511628211ull;
  return H;
}

/// What the channels saw, reduced to literals a test can pin.
struct Telemetry {
  /// RecordingSink::count per TraceEventKind, in enum order.
  std::array<uint64_t, 11> Kinds = {};
  /// Digest of the whole event sequence (kind, predicate, arity, value).
  uint64_t TraceDigest = 0;
  /// Per-predicate live counters summed: calls, new subgoals, new answers,
  /// duplicate answers, resolutions, completions, warm hits, cold misses.
  std::array<uint64_t, 8> Preds = {};
  /// Digest of those counters per predicate, in first-touch order.
  uint64_t MetricsDigest = 0;
  /// Cost-profile totals: steps, answers in, answers out, resumptions,
  /// root steps, warm first touches.
  std::array<uint64_t, 6> Costs = {};
  /// Final cursor snapshot: depth, phase, answers gauge, subgoals gauge.
  std::array<uint64_t, 4> Cursor = {};
  uint64_t RecorderEvents = 0;

  bool operator==(const Telemetry &) const = default;
};

std::string formatArray(const auto &A) {
  std::ostringstream OS;
  OS << "{";
  for (size_t I = 0; I < A.size(); ++I)
    OS << (I ? ", " : "") << A[I];
  OS << "}";
  return OS.str();
}

std::ostream &operator<<(std::ostream &OS, const Telemetry &T) {
  return OS << "{" << formatArray(T.Kinds) << ", " << T.TraceDigest
            << "ull, " << formatArray(T.Preds) << ", " << T.MetricsDigest
            << "ull, " << formatArray(T.Costs) << ", "
            << formatArray(T.Cursor) << ", " << T.RecorderEvents << "}";
}

Telemetry summarize(const Channels &C, const SymbolTable &Symbols) {
  Telemetry T;
  uint64_t H = 14695981039346656037ull;
  for (const TraceEvent &E : C.Sink.events()) {
    ++T.Kinds[static_cast<size_t>(E.Kind)];
    bool HasPred = E.Kind != TraceEventKind::SpanBegin &&
                   E.Kind != TraceEventKind::SpanEnd && E.Sym != 0;
    H = fnv(H, std::to_string(static_cast<int>(E.Kind)) + " " +
                   (HasPred ? Symbols.name(E.Sym) : std::string("-")) + "/" +
                   std::to_string(E.Arity) + " " + std::to_string(E.Value) +
                   ";");
  }
  T.TraceDigest = H;
  H = 14695981039346656037ull;
  for (const PredMetrics *PM : C.Metrics.predicates()) {
    std::array<uint64_t, 8> V = {PM->Calls,       PM->NewSubgoals,
                                 PM->NewAnswers,  PM->DupAnswers,
                                 PM->Resolutions, PM->Completions,
                                 PM->WarmHits,    PM->ColdMisses};
    for (size_t I = 0; I < V.size(); ++I)
      T.Preds[I] += V[I];
    H = fnv(H, PM->qualifiedName() + formatArray(V));
  }
  T.MetricsDigest = H;
  T.Costs = C.CostSums;
  EvalCursor::Snapshot Snap;
  EXPECT_TRUE(C.Cursor.read(Snap));
  T.Cursor = {Snap.Depth, static_cast<uint64_t>(Snap.Phase), Snap.Answers,
              Snap.Subgoals};
  T.RecorderEvents = C.Recorder.totalRecorded();
  return T;
}

/// One analysis run: its results rendered order-independently, the
/// engine's counters and, when channels were attached, what they saw.
struct PinnedRun {
  std::string Results;
  std::vector<uint64_t> Stats;
  Telemetry Seen;
};

std::vector<uint64_t> statsFields(const EvalStats &S) {
  return {S.ClauseResolutions,  S.TabledCalls,        S.SubgoalsCreated,
          S.AnswersRecorded,    S.AnswersDuplicate,   S.FixpointRounds,
          S.DepthLimitHits,     S.BuiltinEvals,       S.ClauseIndexFiltered,
          S.TrieHits,           S.TrieMisses,         S.TrieNodesCreated,
          S.FrontierBytesFreed, S.IncompleteTables,   S.WarmTableHits,
          S.ColdTableMisses,    S.DeadlineHits,       S.ParallelPrimeRuns,
          S.SharedClaims,       S.SharedPublishes,    S.SharedWarmImports,
          S.SharedDupEvals,     S.SharedTablesImported,
          S.SharedAnswersImported, S.TablesInvalidated, S.TablesSurvived,
          S.TablesRevived,      S.InvalidationBytesFreed};
}

/// Renders every answer of \p Call's table, sorted.
std::string renderAnswers(const Solver &S, TermRef Call) {
  const Subgoal *SG = S.findSubgoal(Call);
  if (!SG)
    return "<none>\n";
  std::vector<std::string> Lines;
  for (size_t I = 0; I < S.answerCount(*SG); ++I)
    Lines.push_back(S.formatAnswer(*SG, I));
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// Prop groundness the way GroundnessAnalyzer evaluates it (Figure 1
/// transform, every predicate tabled, open calls primed in parallel when
/// workers are on), run on a Solver of the test's own so every channel
/// can be attached. \p Aggregate registers the Section 6.2 pointwise-lub
/// answer join for every predicate.
PinnedRun runProp(const char *Program, bool Aggregate, size_t Workers,
                  Channels *C) {
  SymbolTable Symbols;
  TermStore AbsStore;
  PropTransformer Transformer(Symbols);
  auto Prog = Transformer.transformText(
      findBenchmark(Program)->Source, AbsStore);
  EXPECT_TRUE(bool(Prog));
  Database DB(Symbols);
  EXPECT_TRUE(bool(DB.loadProgram(AbsStore, Prog->Clauses)));
  DB.tableAllPredicates();
  Solver::Options EO;
  EO.EvalWorkers = Workers;
  Solver S(DB, EO);
  if (C)
    C->attach(S);
  if (Aggregate) {
    Solver::AnswerJoinFn Join = [](TermStore &TS, TermRef A, TermRef B) {
      TermRef DA = TS.deref(A), DB2 = TS.deref(B);
      if (TS.tag(DA) != TermTag::Struct)
        return DA;
      std::vector<TermRef> Args;
      bool Same = true;
      for (uint32_t I = 0, E = TS.arity(DA); I < E; ++I) {
        TermRef X = TS.deref(TS.arg(DA, I)), Y = TS.deref(TS.arg(DB2, I));
        if (TS.tag(X) == TermTag::Atom && TS.tag(Y) == TermTag::Atom &&
            TS.symbol(X) == TS.symbol(Y)) {
          Args.push_back(X);
        } else if (TS.tag(X) == TermTag::Ref) {
          Args.push_back(X);
        } else {
          Args.push_back(TS.mkVar());
          Same = false;
        }
      }
      return Same ? DA : TS.mkStruct(TS.symbol(DA), Args);
    };
    for (PredKey P : Prog->Predicates)
      S.setAnswerJoin({Transformer.abstractSymbol(P.Sym), P.Arity}, Join);
  }
  std::vector<TermRef> Calls;
  for (PredKey P : Prog->Predicates) {
    SymbolId AbsSym = Transformer.abstractSymbol(P.Sym);
    std::vector<TermRef> Args;
    for (uint32_t I = 0; I < P.Arity; ++I)
      Args.push_back(S.store().mkVar());
    Calls.push_back(P.Arity ? S.store().mkStruct(AbsSym, Args)
                            : S.store().mkAtom(AbsSym));
  }
  if (Workers > 1)
    S.primeTables(Calls);
  PinnedRun R;
  for (TermRef Call : Calls) {
    S.solve(Call, nullptr);
    if (C)
      C->foldQueryCosts();
  }
  for (TermRef Call : Calls)
    R.Results += renderAnswers(S, Call);
  R.Stats = statsFields(S.stats());
  if (C)
    R.Seen = summarize(*C, Symbols);
  return R;
}

/// Strictness the way StrictnessAnalyzer evaluates it (Figure 3
/// transform, sp_f tabled, sp_f(e, ...) then sp_f(d, ...) per function).
PinnedRun runStrict(const char *Program, size_t Workers, Channels *C) {
  auto FL = FLParser::parse(findBenchmark(Program)->Source);
  EXPECT_TRUE(bool(FL));
  SymbolTable Symbols;
  StrictTransformer Transformer(Symbols);
  TermStore AbsStore;
  auto Abs = Transformer.transform(*FL, AbsStore);
  EXPECT_TRUE(bool(Abs));
  Database DB(Symbols);
  EXPECT_TRUE(bool(DB.loadProgram(AbsStore, Abs->Clauses)));
  for (const auto &[Name, Arity] : Abs->Functions)
    DB.setTabled(Symbols.intern(Transformer.spName(Name)), Arity + 1);
  Solver::Options EO;
  EO.EvalWorkers = Workers;
  Solver S(DB, EO);
  if (C)
    C->attach(S);
  std::vector<TermRef> Calls;
  for (const auto &[Name, Arity] : Abs->Functions) {
    SymbolId Sp = Symbols.intern(Transformer.spName(Name));
    for (const char *Demand : {"e", "d"}) {
      std::vector<TermRef> Args{S.store().mkAtom(Symbols.intern(Demand))};
      for (uint32_t I = 0; I < Arity; ++I)
        Args.push_back(S.store().mkVar());
      Calls.push_back(S.store().mkStruct(Sp, Args));
      S.solve(Calls.back(), nullptr);
      if (C)
        C->foldQueryCosts();
    }
  }
  PinnedRun R;
  for (TermRef Call : Calls)
    R.Results += renderAnswers(S, Call);
  R.Stats = statsFields(S.stats());
  if (C)
    R.Seen = summarize(*C, Symbols);
  return R;
}

/// Depth-k through its analyzer: the abstract interpreter feeds the
/// tracer, the registry and the cursor (it has no Solver, so no recorder
/// or cost profile).
PinnedRun runDepthK(const char *Program, Channels *C) {
  SymbolTable Symbols;
  DepthKAnalyzer::Options O;
  if (C) {
    O.Trace = &C->Trace;
    O.Metrics = &C->Metrics;
    O.Cursor = &C->Cursor;
  }
  auto Res = DepthKAnalyzer(Symbols, O).analyze(findBenchmark(Program)->Source);
  EXPECT_TRUE(bool(Res));
  PinnedRun R;
  for (const DepthKPred &P : Res->Predicates) {
    R.Results += P.Name + "/" + std::to_string(P.Arity) + ":";
    for (const std::string &A : P.AnswerPatterns)
      R.Results += " " + A;
    R.Results += "\n";
  }
  R.Stats = {Res->NumCallPatterns, Res->NumAnswers, Res->FixpointRounds,
             Res->Widenings, Res->TableSpaceBytes};
  if (C)
    R.Seen = summarize(*C, Symbols);
  return R;
}

enum class PinKind { Prop, PropAggregated, Strict, DepthK };

struct PinCase {
  const char *Name;
  PinKind Kind;
  const char *Program;
  Telemetry Want; ///< What the channels see at EvalWorkers = 0.
};

PinnedRun runCase(const PinCase &P, size_t Workers, Channels *C) {
  switch (P.Kind) {
  case PinKind::Prop:
    return runProp(P.Program, false, Workers, C);
  case PinKind::PropAggregated:
    return runProp(P.Program, true, Workers, C);
  case PinKind::Strict:
    return runStrict(P.Program, Workers, C);
  case PinKind::DepthK:
    return runDepthK(P.Program, C);
  }
  return {};
}

void PrintTo(const PinCase &P, std::ostream *OS) { *OS << P.Name; }

class TelemetryPinTest : public ::testing::TestWithParam<PinCase> {};

TEST_P(TelemetryPinTest, ChannelsSeeExactlyThePinnedEvents) {
  const PinCase &P = GetParam();
  Channels C;
  PinnedRun R = runCase(P, 0, &C);
  EXPECT_EQ(R.Seen, P.Want) << "actual: " << R.Seen;
}

TEST_P(TelemetryPinTest, AttachedAndDetachedAgree) {
  const PinCase &P = GetParam();
  for (size_t Workers : {0, 4}) {
    Channels C;
    PinnedRun On = runCase(P, Workers, &C);
    PinnedRun Off = runCase(P, Workers, nullptr);
    EXPECT_EQ(On.Results, Off.Results) << "workers " << Workers;
    EXPECT_EQ(On.Stats, Off.Stats) << "workers " << Workers;
    EXPECT_FALSE(On.Results.empty());
  }
}

// Literal values: an engine change that feeds any channel a different
// call, or the same calls in another order, must show up here.
const PinCase PinCases[] = {
    {"prop_qsort", PinKind::Prop, "qsort",
     {{248, 43, 44, 94, 43, 125, 526, 0, 0, 0, 0},
      16083457464518281414ull,
      {248, 43, 44, 94, 125, 43, 62, 43},
      10539288322561585100ull,
      {125, 44, 197, 7, 0, 20},
      {0, 2, 44, 43},
      0}},
    {"prop_pg", PinKind::Prop, "pg",
     {{337, 53, 56, 111, 53, 124, 313, 0, 0, 0, 0},
      1831675903753436050ull,
      {337, 53, 56, 111, 124, 53, 59, 53},
      14271700779269558433ull,
      {124, 56, 267, 7, 0, 25},
      {0, 2, 56, 53},
      0}},
    {"prop_plan_aggregated", PinKind::PropAggregated, "plan",
     {{611, 95, 106, 300, 95, 249, 469, 0, 0, 0, 0},
      14557576258864079795ull,
      {611, 95, 106, 300, 249, 95, 176, 95},
      8472634065948742206ull,
      {249, 106, 559, 9, 0, 44},
      {0, 2, 106, 95},
      0}},
    {"strict_eu", PinKind::Strict, "eu",
     {{179, 29, 98, 28, 29, 788, 1003, 0, 0, 0, 0},
      12608627527648775374ull,
      {179, 29, 98, 28, 788, 29, 70, 29},
      1703492259120176202ull,
      {59, 98, 805, 8, 0, 29},
      {0, 2, 98, 29},
      0}},
    {"strict_mergesort", PinKind::Strict, "mergesort",
     {{464, 24, 65, 108, 24, 1011, 1257, 0, 0, 0, 0},
      14634012587752083424ull,
      {464, 24, 65, 108, 1011, 24, 236, 24},
      8408904896666986038ull,
      {63, 65, 990, 7, 0, 37},
      {0, 2, 65, 24},
      0}},
    {"depthk_qsort", PinKind::DepthK, "qsort",
     {{0, 47, 163, 342, 0, 259, 0, 0, 0, 3, 3},
      5253629700459802724ull,
      {0, 47, 163, 342, 259, 0, 0, 0},
      10570844462653330961ull,
      {0, 0, 0, 0, 0, 0},
      {0, 1, 163, 47},
      0}},
};

INSTANTIATE_TEST_SUITE_P(
    Corpus, TelemetryPinTest, ::testing::ValuesIn(PinCases),
    [](const ::testing::TestParamInfo<PinCase> &I) {
      return std::string(I.param.Name);
    });

} // namespace
