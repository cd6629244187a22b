//===- flight_recorder_test.cpp - Flight recorder + slowlog tests -------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Covers the daemon's black box and its consumers: the FlightRecorder's
// bounded ring (keep-last + counted drops, the RecordingSink contract),
// the raw and JSON exports, in-band post-mortem dumps — including the
// automatic dump a deadline anomaly triggers through AnalysisSession —
// the SlowQueryLog LRU and its adaptive threshold, slow-query exemplar
// capture, and the `slowlog`/`inspect` protocol round-trips with the new
// per-query outcome flags and health gauges.
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "srv/Protocol.h"
#include "srv/Session.h"
#include "srv/SlowLog.h"
#include "support/JsonValue.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

using namespace lpa;

namespace {

//===----------------------------------------------------------------------===//
// Ring exactness (the RecordingSink contract)
//===----------------------------------------------------------------------===//

TEST(FlightRecorderRing, KeepLastWithCountedDrops) {
  FlightRecorder::Options O;
  O.Capacity = 8;
  FlightRecorder R(O);
  for (uint64_t I = 0; I < 20; ++I)
    R.record(FrEventKind::QueryStart, I);

  EXPECT_EQ(R.totalRecorded(), 20u);
  EXPECT_EQ(R.droppedCount(), 12u);
  ASSERT_EQ(R.events().size(), 8u);
  // The exact invariant the header promises.
  EXPECT_EQ(R.droppedCount() + R.events().size(), R.totalRecorded());
  // Keep-LAST: queries 12..19 survive, oldest first.
  for (size_t I = 0; I < 8; ++I)
    EXPECT_EQ(R.events()[I].QueryId, 12u + I);
}

TEST(FlightRecorderRing, UnwrappedRingKeepsArrivalOrder) {
  FlightRecorder::Options O;
  O.Capacity = 8;
  FlightRecorder R(O);
  for (uint64_t I = 0; I < 5; ++I)
    R.record(FrEventKind::QueryEnd, I);
  EXPECT_EQ(R.droppedCount(), 0u);
  ASSERT_EQ(R.events().size(), 5u);
  for (size_t I = 0; I < 5; ++I)
    EXPECT_EQ(R.events()[I].QueryId, I);
  EXPECT_EQ(R.count(FrEventKind::QueryEnd), 5u);
  EXPECT_EQ(R.count(FrEventKind::QueryStart), 0u);
}

TEST(FlightRecorderRing, ZeroCapacityIsUnbounded) {
  FlightRecorder::Options O;
  O.Capacity = 0;
  FlightRecorder R(O);
  for (uint64_t I = 0; I < 1000; ++I)
    R.record(FrEventKind::QueryStart, I);
  EXPECT_EQ(R.events().size(), 1000u);
  EXPECT_EQ(R.droppedCount(), 0u);
}

TEST(FlightRecorderRing, DetailIsTruncatedAndTerminated) {
  FlightRecorder R;
  std::string Long(200, 'x');
  R.record(FrEventKind::QueryStart, 1, 0, 0, 0, 0, Long);
  const FrEvent &E = R.events().front();
  size_t Len = std::string_view(E.Detail).size();
  EXPECT_EQ(Len, sizeof(E.Detail) - 1);
  EXPECT_EQ(std::string_view(E.Detail), Long.substr(0, Len));
}

TEST(FlightRecorderRing, EmptyDetailIsEmptyString) {
  FlightRecorder R;
  R.record(FrEventKind::QueryStart, 1, 0, 0, 0, 0, std::string_view());
  R.record(FrEventKind::QueryEnd, 1, 0, 0, 0, 0, "");
  ASSERT_EQ(R.events().size(), 2u);
  for (const FrEvent &E : R.events())
    EXPECT_EQ(std::string_view(E.Detail), "");
}

TEST(FlightRecorderRing, EventsForQuerySlices) {
  FlightRecorder R;
  R.record(FrEventKind::QueryStart, 1);
  R.record(FrEventKind::QueryStart, 2);
  R.record(FrEventKind::QueryEnd, 1);
  auto Slice = R.eventsForQuery(1);
  ASSERT_EQ(Slice.size(), 2u);
  EXPECT_EQ(Slice[0].Kind, FrEventKind::QueryStart);
  EXPECT_EQ(Slice[1].Kind, FrEventKind::QueryEnd);
}

TEST(FlightRecorderRing, TimesAreMonotone) {
  FlightRecorder R;
  R.record(FrEventKind::QueryStart, 1);
  R.record(FrEventKind::QueryEnd, 1);
  EXPECT_LE(R.events()[0].TimeNs, R.events()[1].TimeNs);
}

//===----------------------------------------------------------------------===//
// Raw (signal-path) and JSON exports
//===----------------------------------------------------------------------===//

std::string readAll(const std::string &Path) {
  std::string Out;
  if (std::FILE *F = std::fopen(Path.c_str(), "r")) {
    char Buf[4096];
    size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Out.append(Buf, N);
    std::fclose(F);
  }
  return Out;
}

/// A fresh directory under the test temp root.
std::string freshDir(const char *Tag) {
  std::string D = testing::TempDir() + "lpa_fr_" + Tag + "_" +
                  std::to_string(::getpid());
  std::filesystem::remove_all(D);
  std::filesystem::create_directories(D);
  return D;
}

TEST(FlightRecorderDump, WriteRawToFormatsWrappedRing) {
  FlightRecorder::Options O;
  O.Capacity = 4;
  FlightRecorder R(O);
  for (uint64_t I = 0; I < 6; ++I)
    R.record(FrEventKind::QueryStart, I, /*A=*/7, 0, 0, 0, "goal");

  std::string Path = testing::TempDir() + "lpa_fr_raw_" +
                     std::to_string(::getpid()) + ".txt";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  R.writeRawTo(fileno(F));
  std::fclose(F);

  std::string Text = readAll(Path);
  EXPECT_NE(Text.find("total=6 dropped=2 kept=4"), std::string::npos);
  // Oldest kept event first — query 2 after two evictions.
  EXPECT_NE(Text.find("q2 query-start"), std::string::npos);
  EXPECT_NE(Text.find("q5 query-start"), std::string::npos);
  EXPECT_EQ(Text.find("q1 "), std::string::npos); // Evicted.
  EXPECT_NE(Text.find("a=7"), std::string::npos);
  EXPECT_NE(Text.find("goal"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(FlightRecorderDump, WriteJsonRoundTripsWithTailLimit) {
  FlightRecorder R;
  for (uint64_t I = 1; I <= 5; ++I)
    R.record(FrEventKind::QueryEnd, I, I * 10, 0, 0, FrOutcomeDeadline,
             "p(X)");

  std::string Out;
  JsonWriter W(Out);
  R.writeJson(W, /*MaxEvents=*/2);
  auto Doc = JsonValue::parse(Out);
  ASSERT_TRUE(Doc.hasValue()) << Out;
  EXPECT_DOUBLE_EQ(Doc->numberOr("total", 0), 5.0);
  EXPECT_DOUBLE_EQ(Doc->numberOr("dropped", 0), 0.0);
  const JsonValue *Evs = Doc->find("events");
  ASSERT_TRUE(Evs && Evs->isArray());
  ASSERT_EQ(Evs->items().size(), 2u); // Tail-limited.
  const JsonValue &Last = Evs->items().back();
  EXPECT_EQ(Last.stringOr("kind", ""), "query-end");
  EXPECT_DOUBLE_EQ(Last.numberOr("query", 0), 5.0);
  EXPECT_DOUBLE_EQ(Last.numberOr("a", 0), 50.0);
  EXPECT_DOUBLE_EQ(Last.numberOr("flags", 0), double(FrOutcomeDeadline));
  EXPECT_EQ(Last.stringOr("detail", ""), "p(X)");
}

TEST(FlightRecorderDump, DumpWritesReasonGaugesJournalAndStacks) {
  std::string Dir = freshDir("dump");
  FlightRecorder::Options O;
  O.DumpDir = Dir;
  FlightRecorder R(O);
  R.record(FrEventKind::DeadlineHit, 3, /*Depth=*/42);

  std::string Path =
      R.dump("deadline", {{"table_space_bytes", 1234}}, "main;solve 7\n");
  ASSERT_FALSE(Path.empty());
  EXPECT_EQ(R.dumpsWritten(), 1u);

  std::string Text = readAll(Path);
  EXPECT_NE(Text.find("reason: deadline"), std::string::npos);
  EXPECT_NE(Text.find("table_space_bytes: 1234"), std::string::npos);
  EXPECT_NE(Text.find("== flight recorder =="), std::string::npos);
  EXPECT_NE(Text.find("deadline-hit"), std::string::npos);
  EXPECT_NE(Text.find("main;solve 7"), std::string::npos);
  std::filesystem::remove_all(Dir);
}

TEST(FlightRecorderDump, DisabledAndRateCapped) {
  FlightRecorder NoDir;
  EXPECT_EQ(NoDir.dump("x", {}, ""), "");
  EXPECT_EQ(NoDir.dumpsWritten(), 0u);

  std::string Dir = freshDir("cap");
  FlightRecorder::Options O;
  O.DumpDir = Dir;
  O.MaxDumps = 2;
  FlightRecorder R(O);
  EXPECT_FALSE(R.dump("one", {}, "").empty());
  EXPECT_FALSE(R.dump("two", {}, "").empty());
  EXPECT_TRUE(R.dump("three", {}, "").empty()); // Capped.
  EXPECT_EQ(R.dumpsWritten(), 2u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// SlowQueryLog: LRU semantics and the adaptive threshold
//===----------------------------------------------------------------------===//

SlowQueryExemplar exemplar(uint64_t Id) {
  SlowQueryExemplar E;
  E.Id = Id;
  E.Goal = "g" + std::to_string(Id);
  E.WallMs = double(Id);
  return E;
}

TEST(SlowLogTest, LruEvictsLeastRecentlyTouched) {
  SlowQueryLog::Options O;
  O.Capacity = 2;
  SlowQueryLog L(O);
  L.insert(exemplar(1));
  L.insert(exemplar(2));
  // Touch 1 so it outlives the older-by-insertion 2.
  ASSERT_NE(L.get(1), nullptr);
  L.insert(exemplar(3));

  EXPECT_EQ(L.size(), 2u);
  EXPECT_EQ(L.captured(), 3u);
  EXPECT_EQ(L.evicted(), 1u);
  EXPECT_EQ(L.get(2), nullptr); // The untouched entry went.
  EXPECT_NE(L.get(1), nullptr);
  EXPECT_NE(L.get(3), nullptr);

  // entries() is most-recently-touched first: get(3) above refreshed 3.
  auto Es = L.entries();
  ASSERT_EQ(Es.size(), 2u);
  EXPECT_EQ(Es[0]->Id, 3u);
  EXPECT_EQ(Es[1]->Id, 1u);
}

TEST(SlowLogTest, ReinsertSameIdReplacesInPlace) {
  SlowQueryLog::Options O;
  O.Capacity = 2;
  SlowQueryLog L(O);
  L.insert(exemplar(1));
  L.insert(exemplar(2));
  SlowQueryExemplar E = exemplar(1);
  E.WallMs = 99;
  L.insert(std::move(E));
  EXPECT_EQ(L.size(), 2u);
  EXPECT_EQ(L.evicted(), 0u);
  EXPECT_DOUBLE_EQ(L.get(1)->WallMs, 99.0);
}

TEST(SlowLogTest, ThresholdModes) {
  SlowQueryLog::Options O;
  O.ThresholdMs = 25;
  EXPECT_DOUBLE_EQ(SlowQueryLog(O).effectiveThresholdMs(999999), 25.0);

  O.ThresholdMs = -1;
  EXPECT_LT(SlowQueryLog(O).effectiveThresholdMs(0), 0.0);
  EXPECT_FALSE(SlowQueryLog(O).shouldCapture(1e9, 0));

  // Adaptive: max(MinWallMs, Factor * p95). Empty window -> the floor.
  O.ThresholdMs = 0;
  O.MinWallMs = 10;
  O.AdaptiveFactor = 3;
  SlowQueryLog A(O);
  EXPECT_DOUBLE_EQ(A.effectiveThresholdMs(0), 10.0);
  // p95 = 2ms -> 3 * 2 = 6ms, still under the floor.
  EXPECT_DOUBLE_EQ(A.effectiveThresholdMs(2000), 10.0);
  // p95 = 20ms -> 60ms.
  EXPECT_DOUBLE_EQ(A.effectiveThresholdMs(20000), 60.0);
  EXPECT_TRUE(A.shouldCapture(60.0, 20000));
  EXPECT_FALSE(A.shouldCapture(59.0, 20000));
}

//===----------------------------------------------------------------------===//
// Session integration: exemplar capture and anomaly dumps
//===----------------------------------------------------------------------===//

const char *PathProgramReq =
    R"j({"op":"consult","program":":- table path/2. edge(a,b). edge(b,c). path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y)."})j";

JsonValue respond(AnalysisSession &Session, const std::string &Line) {
  bool Quit = false;
  std::string Resp = handleRequestLine(Session, Line, Quit);
  auto V = JsonValue::parse(Resp);
  EXPECT_TRUE(V.hasValue()) << "unparsable response: " << Resp;
  return V.hasValue() ? *V : JsonValue();
}

/// A chain long enough that a 1 ms deadline reliably fires mid-closure
/// (the same shape srv_test's solver-level deadline test uses).
std::string longChainProgram(int N = 2000) {
  std::string Prog = ":- table path/2.\n"
                     "path(X, Y) :- edge(X, Y).\n"
                     "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  for (int I = 0; I < N; ++I)
    Prog += "edge(n" + std::to_string(I) + ", n" + std::to_string(I + 1) +
            ").\n";
  return Prog;
}

TEST(SessionSlowLog, FixedThresholdCapturesExemplar) {
  AnalysisSession::Options SO;
  SO.SlowLog.ThresholdMs = 1e-9; // Everything is slow.
  AnalysisSession Session(SO);
  ASSERT_TRUE(Session
                  .consult(":- table path/2. edge(a,b). edge(b,c). "
                           "path(X,Y) :- edge(X,Y). "
                           "path(X,Y) :- edge(X,Z), path(Z,Y).")
                  .hasValue());
  auto R = Session.runQuery("path(a, X)");
  ASSERT_TRUE(R.hasValue());

  ASSERT_EQ(Session.slowlog().size(), 1u);
  const SlowQueryExemplar *E = Session.slowlog().get(R->Id);
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Goal, "path(a, X)");
  EXPECT_EQ(E->Solutions, 2u);
  EXPECT_FALSE(E->DeadlineHit);
  ASSERT_FALSE(E->TopPreds.empty());
  bool SawPath = false;
  for (const SlowQueryExemplar::PredDelta &D : E->TopPreds)
    if (D.Pred == "path/2") {
      SawPath = true;
      EXPECT_GT(D.Resolutions, 0u);
    }
  EXPECT_TRUE(SawPath);
  EXPECT_FALSE(E->TopTables.empty());
  EXPECT_GT(E->TopTables.front().Bytes, 0u);
  // The recorder slice: this query's start and end made it in.
  ASSERT_GE(E->Trace.size(), 2u);
  EXPECT_EQ(E->Trace.front().Kind, FrEventKind::QueryStart);
  EXPECT_EQ(E->Trace.back().Kind, FrEventKind::QueryEnd);

  // A fast-enough threshold records nothing.
  AnalysisSession::Options Off;
  Off.SlowLog.ThresholdMs = -1;
  AnalysisSession Quiet(Off);
  ASSERT_TRUE(Quiet.consult("edge(a,b).").hasValue());
  ASSERT_TRUE(Quiet.runQuery("edge(a, X)").hasValue());
  EXPECT_EQ(Quiet.slowlog().size(), 0u);
}

TEST(SessionSlowLog, DeadlineAnomalyWritesPostMortem) {
  std::string Dir = freshDir("anomaly");
  AnalysisSession::Options SO;
  SO.Recorder.DumpDir = Dir;
  SO.SlowLog.ThresholdMs = -1; // Isolate the dump path.
  AnalysisSession Session(SO);
  ASSERT_TRUE(Session.consult(longChainProgram()).hasValue());

  auto R = Session.runQuery("path(n0, X)", /*MaxSolutions=*/10,
                            /*DeadlineMs=*/1);
  ASSERT_TRUE(R.hasValue());
  ASSERT_TRUE(R->Truncated); // The 1 ms deadline fired mid-closure.

  EXPECT_GE(Session.flightRecorder().dumpsWritten(), 1u);
  // Exactly the sections dumpAnomaly promises, in the file it wrote.
  std::string Found;
  for (const auto &Ent : std::filesystem::directory_iterator(Dir))
    if (Ent.path().string().find("deadline") != std::string::npos)
      Found = Ent.path().string();
  ASSERT_FALSE(Found.empty()) << "no post-mortem file in " << Dir;
  std::string Text = readAll(Found);
  EXPECT_NE(Text.find("reason: deadline"), std::string::npos);
  EXPECT_NE(Text.find("table_space_bytes:"), std::string::npos);
  EXPECT_NE(Text.find("deadline-hit"), std::string::npos);
  EXPECT_NE(Text.find("query-start"), std::string::npos);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Protocol round-trips: outcome flags, slowlog, inspect, health gauges
//===----------------------------------------------------------------------===//

TEST(ProtocolObs, QueryResponseCarriesOutcomeFlags) {
  AnalysisSession Session;
  respond(Session, PathProgramReq);
  JsonValue Q = respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");
  ASSERT_TRUE(Q.find("deadline_hit"));
  EXPECT_FALSE(Q.find("deadline_hit")->asBool());
  ASSERT_TRUE(Q.find("incomplete"));
  EXPECT_FALSE(Q.find("incomplete")->asBool());

  // And they trip together with "truncated" when the deadline fires.
  AnalysisSession Slow;
  ASSERT_TRUE(Slow.consult(longChainProgram()).hasValue());
  JsonValue T = respond(
      Slow, R"j({"op":"query","goal":"path(n0,X)","deadline_ms":1})j");
  EXPECT_TRUE(T.find("truncated")->asBool());
  EXPECT_TRUE(T.find("deadline_hit")->asBool());
  EXPECT_TRUE(T.find("incomplete")->asBool());
}

TEST(ProtocolObs, SlowlogRoundTrip) {
  AnalysisSession::Options SO;
  SO.SlowLog.ThresholdMs = 1e-9;
  AnalysisSession Session(SO);
  respond(Session, PathProgramReq);
  respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");
  respond(Session, R"j({"op":"query","goal":"path(b,X)"})j");

  JsonValue S = respond(Session, R"j({"op":"slowlog"})j");
  EXPECT_TRUE(S.find("ok")->asBool());
  const JsonValue *SL = S.find("slowlog");
  ASSERT_TRUE(SL && SL->isObject());
  EXPECT_EQ(SL->stringOr("schema", ""), "lpa.slowlog.v1");
  EXPECT_DOUBLE_EQ(SL->numberOr("count", 0), 2.0);
  EXPECT_DOUBLE_EQ(SL->numberOr("captured", 0), 2.0);
  const JsonValue *Es = SL->find("entries");
  ASSERT_TRUE(Es && Es->isArray());
  ASSERT_EQ(Es->items().size(), 2u);
  // Most-recent first.
  EXPECT_EQ(Es->items()[0].stringOr("goal", ""), "path(b,X)");
  EXPECT_DOUBLE_EQ(Es->items()[0].numberOr("id", 0), 2.0);
  ASSERT_TRUE(Es->items()[0].find("top_preds"));
  ASSERT_TRUE(Es->items()[0].find("trace"));
  EXPECT_FALSE(Es->items()[0].find("trace")->items().empty());

  // The REPL rendering of the same store mentions both goals.
  std::string Report = Session.slowlogReport();
  EXPECT_NE(Report.find("path(a,X)"), std::string::npos);
  EXPECT_NE(Report.find("path(b,X)"), std::string::npos);
}

TEST(ProtocolObs, InspectRoundTrip) {
  AnalysisSession Session;
  respond(Session, PathProgramReq);
  respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");
  respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");

  JsonValue I = respond(Session, R"j({"op":"inspect","top":3})j");
  EXPECT_TRUE(I.find("ok")->asBool());
  const JsonValue *In = I.find("inspect");
  ASSERT_TRUE(In && In->isObject());
  EXPECT_EQ(In->stringOr("schema", ""), "lpa.inspect.v1");
  EXPECT_EQ(In->stringOr("sort", ""), "bytes");

  const JsonValue *Totals = In->find("totals");
  ASSERT_TRUE(Totals);
  EXPECT_GT(Totals->numberOr("subgoals", 0), 0.0);
  EXPECT_GT(Totals->numberOr("table_space_bytes", 0), 0.0);
  EXPECT_GT(Totals->numberOr("warm_hits", 0), 0.0);

  const JsonValue *Tables = In->find("top_tables");
  ASSERT_TRUE(Tables && Tables->isArray());
  ASSERT_FALSE(Tables->items().empty());
  EXPECT_LE(Tables->items().size(), 3u);
  const JsonValue &T0 = Tables->items()[0];
  EXPECT_FALSE(T0.stringOr("call", "").empty());
  EXPECT_GT(T0.numberOr("bytes", 0), 0.0);
  // Sorted descending by bytes.
  double Prev = T0.numberOr("bytes", 0);
  for (const JsonValue &T : Tables->items()) {
    EXPECT_LE(T.numberOr("bytes", 0), Prev);
    Prev = T.numberOr("bytes", 0);
  }

  const JsonValue *Preds = In->find("predicates");
  ASSERT_TRUE(Preds && Preds->isArray());
  bool SawPath = false;
  for (const JsonValue &P : Preds->items())
    if (P.stringOr("pred", "") == "path/2") {
      SawPath = true;
      EXPECT_GT(P.numberOr("warm_hit_rate", 0), 0.0);
      EXPECT_GT(P.numberOr("table_bytes", 0), 0.0);
    }
  EXPECT_TRUE(SawPath);

  const JsonValue *Dep = In->find("dep_index");
  ASSERT_TRUE(Dep);
  EXPECT_GT(Dep->numberOr("edges", 0), 0.0);
  ASSERT_TRUE(In->find("shared_space"));
  ASSERT_TRUE(In->find("shared_space")->find("shards"));

  const JsonValue *Rec = In->find("recorder");
  ASSERT_TRUE(Rec && Rec->isObject());
  EXPECT_GT(Rec->numberOr("total", 0), 0.0);
  EXPECT_FALSE(Rec->find("events")->items().empty());

  // Sort by answers is accepted; bad arguments are errors, not crashes.
  JsonValue ByAns =
      respond(Session, R"j({"op":"inspect","top":1,"sort":"answers"})j");
  EXPECT_TRUE(ByAns.find("ok")->asBool());
  EXPECT_EQ(ByAns.find("inspect")->stringOr("sort", ""), "answers");
  JsonValue Bad = respond(Session, R"j({"op":"inspect","sort":"wat"})j");
  EXPECT_FALSE(Bad.find("ok")->asBool());
}

TEST(ProtocolObs, HealthCarriesLongUptimeGauges) {
  AnalysisSession Session;
  respond(Session, PathProgramReq);
  respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");

  JsonValue H = respond(Session, R"j({"op":"health"})j");
  const JsonValue *Health = H.find("health");
  ASSERT_TRUE(Health && Health->isObject());
  EXPECT_GT(Health->numberOr("dep_index_edges", 0), 0.0);
  ASSERT_TRUE(Health->find("dep_index_bytes"));
  ASSERT_TRUE(Health->find("shared_retired"));
  EXPECT_GT(Health->numberOr("recorder_events", 0), 0.0);
  ASSERT_TRUE(Health->find("recorder_dropped"));
  ASSERT_TRUE(Health->find("postmortem_dumps"));
  ASSERT_TRUE(Health->find("slowlog_entries"));
}

TEST(ProtocolObs, ConsultAndRetractLandInTheJournal) {
  AnalysisSession Session;
  respond(Session, PathProgramReq);
  respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");
  respond(Session, R"j({"op":"retract","clause":"edge(a,b)."})j");

  FlightRecorder &Fr = Session.flightRecorder();
  EXPECT_EQ(Fr.count(FrEventKind::ConsultSweep), 1u);
  EXPECT_EQ(Fr.count(FrEventKind::RetractSweep), 1u);
  // The retract invalidated the warm path cone; the sweep event says so.
  for (const FrEvent &E : Fr.events())
    if (E.Kind == FrEventKind::RetractSweep) {
      EXPECT_EQ(E.A, 1u);  // One clause retracted.
      EXPECT_GE(E.B, 1u);  // At least one table invalidated.
    }
}

} // namespace
