//===- profiler_test.cpp - Sampling profiler tests ----------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Covers the sampling profiler end to end: EvalCursor seqlock semantics
// (including a concurrent writer/reader stress that TSan audits in CI),
// SampleProfile aggregation and folded-stack export, the Sampler thread
// over a live Solver, table-space watermarks, the fleet's per-worker lanes
// with serial-vs-parallel bit-identity under sampling, and the null-cost
// disabled path.
//
//===----------------------------------------------------------------------===//

#include "engine/Solver.h"
#include "obs/EvalObserver.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Sampler.h"
#include "par/CorpusScheduler.h"
#include "reader/Parser.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

using namespace lpa;

namespace {

//===----------------------------------------------------------------------===//
// EvalCursor
//===----------------------------------------------------------------------===//

TEST(EvalCursor, PublishAndRead) {
  EvalCursor C;
  EvalCursor::Snapshot S;
  ASSERT_TRUE(C.read(S));
  EXPECT_EQ(S.Phase, EvalPhase::Idle);
  EXPECT_EQ(S.Depth, 0u);

  C.pushFrame(/*Sym=*/7, /*Arity=*/2);
  C.pushFrame(/*Sym=*/9, /*Arity=*/1);
  C.setGauges(1234, 5, 3);
  ASSERT_TRUE(C.read(S));
  EXPECT_EQ(S.Phase, EvalPhase::Resolve); // pushFrame implies Resolve.
  EXPECT_EQ(S.Depth, 2u);
  EXPECT_EQ(S.frameCount(), 2u);
  EXPECT_EQ(S.Frames[0], (uint64_t(7) << 32) | 2);
  EXPECT_EQ(S.Frames[1], (uint64_t(9) << 32) | 1);
  EXPECT_EQ(S.TableBytes, 1234u);
  EXPECT_EQ(S.Answers, 5u);
  EXPECT_EQ(S.Subgoals, 3u);

  C.setPhase(EvalPhase::Answer);
  ASSERT_TRUE(C.read(S));
  EXPECT_EQ(S.Phase, EvalPhase::Answer);

  C.popFrame();
  C.popFrame();
  ASSERT_TRUE(C.read(S));
  EXPECT_EQ(S.Depth, 0u);
}

TEST(EvalCursor, DeepStackTruncatesWindowButKeepsDepth) {
  EvalCursor C;
  const uint32_t Deep = EvalCursor::MaxFrames + 8;
  for (uint32_t I = 0; I < Deep; ++I)
    C.pushFrame(I + 1, 1);
  EvalCursor::Snapshot S;
  ASSERT_TRUE(C.read(S));
  EXPECT_EQ(S.Depth, Deep);
  EXPECT_EQ(S.frameCount(), EvalCursor::MaxFrames);
  // The window holds the outermost MaxFrames frames.
  EXPECT_EQ(S.Frames[0] >> 32, 1u);
  EXPECT_EQ(S.Frames[EvalCursor::MaxFrames - 1] >> 32,
            uint64_t(EvalCursor::MaxFrames));
  for (uint32_t I = 0; I < Deep; ++I)
    C.popFrame();
  ASSERT_TRUE(C.read(S));
  EXPECT_EQ(S.Depth, 0u);
}

/// The TSan target: one writer hammering the cursor, one reader snapshotting
/// concurrently. Every successful read must be cross-field consistent —
/// the seqlock's only job — which we check via a depth/frame invariant the
/// writer maintains (frame I always holds sym I+1).
TEST(EvalCursor, ConcurrentReaderSeesConsistentSnapshots) {
  EvalCursor C;
  std::atomic<bool> Stop{false};

  std::thread Writer([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      for (uint32_t I = 0; I < 6; ++I)
        C.pushFrame(I + 1, I);
      C.setGauges(100, 200, 300);
      C.setPhase(EvalPhase::Answer);
      for (uint32_t I = 0; I < 6; ++I)
        C.popFrame();
      C.setPhase(EvalPhase::Idle);
    }
  });

  uint64_t Reads = 0, Torn = 0;
  EvalCursor::Snapshot S;
  while (Reads < 20000) {
    if (!C.read(S)) {
      ++Torn;
      continue;
    }
    ++Reads;
    ASSERT_LE(S.Depth, 6u);
    for (size_t I = 0; I < S.frameCount(); ++I) {
      ASSERT_EQ(S.Frames[I] >> 32, uint64_t(I + 1));
      ASSERT_EQ(S.Frames[I] & 0xFFFFFFFF, uint64_t(I));
    }
  }
  Stop.store(true);
  Writer.join();
  // Torn reads are legal under contention; consistency was asserted above.
  SUCCEED() << Reads << " consistent reads, " << Torn << " torn";
}

//===----------------------------------------------------------------------===//
// SampleProfile aggregation
//===----------------------------------------------------------------------===//

EvalCursor::Snapshot snap(EvalPhase P, std::vector<uint64_t> Frames,
                          uint32_t Depth = 0) {
  EvalCursor::Snapshot S;
  S.Phase = P;
  S.Depth = Depth ? Depth : static_cast<uint32_t>(Frames.size());
  for (size_t I = 0; I < Frames.size() && I < EvalCursor::MaxFrames; ++I)
    S.Frames[I] = Frames[I];
  return S;
}

uint64_t packed(uint32_t Sym, uint32_t Arity) {
  return (uint64_t(Sym) << 32) | Arity;
}

TEST(SampleProfile, AggregatesByLanePathAndPhase) {
  SampleProfile P;
  uint32_t L = P.addLane("main");
  P.recordSample(L, snap(EvalPhase::Resolve, {packed(1, 2)}));
  P.recordSample(L, snap(EvalPhase::Resolve, {packed(1, 2)}));
  P.recordSample(L, snap(EvalPhase::Answer, {packed(1, 2)}));
  P.recordSample(L, snap(EvalPhase::Resolve, {packed(1, 2), packed(3, 0)}));
  P.recordSample(L, snap(EvalPhase::Idle, {})); // depth 0 -> idle stack.
  P.recordTorn(L);

  EXPECT_EQ(P.totalSamples(), 5u);
  EXPECT_EQ(P.idleSamples(), 1u);
  EXPECT_EQ(P.tornSamples(), 1u);
  ASSERT_EQ(P.lanes().size(), 1u);
  EXPECT_EQ(P.lanes()[0].Samples, 5u);
  EXPECT_EQ(P.lanes()[0].Torn, 1u);

  std::vector<const SampleProfile::Stack *> Sorted = P.sortedStacks();
  ASSERT_EQ(Sorted.size(), 4u); // (1/2,resolve) (1/2,answer) (deep) (idle).
  EXPECT_EQ(Sorted[0]->Count, 2u);
  EXPECT_EQ(Sorted[0]->Phase, EvalPhase::Resolve);
  ASSERT_EQ(Sorted[0]->Frames.size(), 1u);
  EXPECT_EQ(Sorted[0]->Frames[0], packed(1, 2));
}

TEST(SampleProfile, GaugeMaximaWidenPerLane) {
  SampleProfile P;
  uint32_t L = P.addLane("w");
  EvalCursor::Snapshot S = snap(EvalPhase::Resolve, {packed(1, 1)});
  S.TableBytes = 100;
  S.Answers = 7;
  S.Subgoals = 2;
  P.recordSample(L, S);
  S.TableBytes = 50; // Lower — must not shrink the maxima.
  S.Answers = 9;
  P.recordSample(L, S);
  EXPECT_EQ(P.lanes()[0].MaxTableBytes, 100u);
  EXPECT_EQ(P.lanes()[0].MaxAnswers, 9u);
  EXPECT_EQ(P.lanes()[0].MaxSubgoals, 2u);
}

TEST(SampleProfile, FoldedFormatIsExact) {
  SymbolTable Syms;
  SymbolId Outer = Syms.intern("outer");
  SymbolId Inner = Syms.intern("inner");

  SampleProfile P;
  uint32_t L = P.addLane("main");
  for (int I = 0; I < 3; ++I)
    P.recordSample(
        L, snap(EvalPhase::Resolve, {packed(Outer, 2), packed(Inner, 0)}));
  P.recordSample(L, snap(EvalPhase::Idle, {}));

  std::string Folded = P.formatFolded(&Syms);
  EXPECT_EQ(Folded, "main;outer/2;inner/0;[resolve] 3\n"
                    "main;[idle] 1\n");
  // Null symbol table: frames degrade to #sym/arity, same shape.
  std::string Raw = P.formatFolded(nullptr);
  EXPECT_EQ(Raw, "main;#" + std::to_string(Outer) + "/2;#" +
                     std::to_string(Inner) + "/0;[resolve] 3\n"
                     "main;[idle] 1\n");
}

TEST(SampleProfile, TruncatedStacksCarryElisionMarker) {
  SampleProfile P;
  uint32_t L = P.addLane("m");
  std::vector<uint64_t> Frames;
  for (uint32_t I = 0; I < EvalCursor::MaxFrames; ++I)
    Frames.push_back(packed(I + 1, 0));
  P.recordSample(L, snap(EvalPhase::Resolve, Frames,
                         /*Depth=*/EvalCursor::MaxFrames + 5));
  std::string Folded = P.formatFolded(nullptr);
  EXPECT_NE(Folded.find(";...;[resolve] 1"), std::string::npos) << Folded;
}

TEST(SampleProfile, MergeSumsCountsAndWidensMaxima) {
  SampleProfile A, B;
  uint32_t AL = A.addLane("w1");
  uint32_t BL = B.addLane("w1");
  uint32_t BL2 = B.addLane("w2");

  EvalCursor::Snapshot S = snap(EvalPhase::Resolve, {packed(1, 1)});
  S.TableBytes = 10;
  A.recordSample(AL, S);
  S.TableBytes = 99;
  B.recordSample(BL, S);
  B.recordSample(BL2, snap(EvalPhase::Idle, {}));
  B.recordTorn(BL2);

  A.mergeFrom(B);
  EXPECT_EQ(A.totalSamples(), 3u);
  EXPECT_EQ(A.tornSamples(), 1u);
  ASSERT_EQ(A.lanes().size(), 2u); // w1 matched by label, w2 appended.
  EXPECT_EQ(A.lanes()[0].Samples, 2u);
  EXPECT_EQ(A.lanes()[0].MaxTableBytes, 99u);
  // The shared stack merged into one entry with the summed count.
  std::vector<const SampleProfile::Stack *> Sorted = A.sortedStacks();
  ASSERT_FALSE(Sorted.empty());
  EXPECT_EQ(Sorted[0]->Count, 2u);
}

TEST(SampleProfile, JsonExportHasTotalsLanesAndStacks) {
  SampleProfile P;
  uint32_t L = P.addLane("main");
  P.recordSample(L, snap(EvalPhase::Resolve, {packed(1, 2)}));
  std::string Out;
  JsonWriter W(Out);
  P.writeJson(W, nullptr);
  EXPECT_NE(Out.find("\"total_samples\":1"), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"label\":\"main\""), std::string::npos);
  EXPECT_NE(Out.find("\"phase\":\"resolve\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Sampler over a live Solver
//===----------------------------------------------------------------------===//

/// A right-recursive transitive closure large enough to give the sampler
/// something to see at high Hz.
std::string closureProgram(int N) {
  std::string Prog = ":- table path/2.\n"
                     "path(X, Y) :- edge(X, Y).\n"
                     "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      Prog += "edge(" + std::to_string(I) + ", " + std::to_string(J) + ").\n";
  return Prog;
}

TEST(Sampler, ProfilesALiveSolve) {
  SymbolTable Syms;
  Database DB(Syms);
  { auto R = DB.consult(closureProgram(10)); ASSERT_TRUE(R.hasValue()) << R.getError().str(); }

  EvalCursor Cursor;
  Sampler Prof(Sampler::Options{100000}); // Max rate: samples despite a
                                          // short workload.
  Prof.addLane("main", &Cursor);
  Prof.start();
  size_t Sols = 0;
  for (int Rep = 0; Rep < 20; ++Rep) {
    Solver Engine(DB);
    EvalObserver Obs;
    Obs.Cursor = &Cursor;
    Engine.setObserver(&Obs);
    auto G = Parser::parseTerm(Syms, Engine.store(), "path(X, Y)");
    ASSERT_TRUE(G.hasValue());
    Sols += Engine.solve(*G, nullptr);
  }
  Prof.stop();
  EXPECT_EQ(Sols, 20u * 100u);

  const SampleProfile &P = Prof.profile();
  EXPECT_GT(P.totalSamples(), 0u);
  ASSERT_EQ(P.lanes().size(), 1u);
  EXPECT_EQ(P.lanes()[0].Label, "main");
  // The gauges were published, so the lane carries table watermarks.
  EXPECT_GT(P.lanes()[0].MaxTableBytes, 0u);
  EXPECT_GT(P.lanes()[0].MaxAnswers, 0u);
  // Folded output renders through the live symbol table.
  std::string Folded = P.formatFolded(&Syms);
  if (P.totalSamples() > P.idleSamples()) {
    EXPECT_NE(Folded.find("path/2"), std::string::npos) << Folded;
  }
}

TEST(Sampler, StopIsIdempotentAndRestartable) {
  EvalCursor C;
  Sampler Prof(Sampler::Options{1000});
  Prof.addLane("a", &C);
  Prof.start();
  EXPECT_TRUE(Prof.running());
  Prof.stop();
  Prof.stop();
  EXPECT_FALSE(Prof.running());
  Prof.start();
  EXPECT_TRUE(Prof.running());
  Prof.stop();
}

TEST(Sampler, CursorNeverAttachedChangesNothing) {
  // The disabled path: two identical solves, one with a cursor attached
  // (nobody sampling), must agree answer for answer with the bare run.
  SymbolTable Syms;
  Database DB(Syms);
  { auto R = DB.consult(closureProgram(6)); ASSERT_TRUE(R.hasValue()) << R.getError().str(); }

  auto Run = [&](EvalCursor *C) {
    Solver Engine(DB);
    EvalObserver Obs;
    Obs.Cursor = C;
    if (C)
      Engine.setObserver(&Obs);
    auto G = Parser::parseTerm(Syms, Engine.store(), "path(X, Y)");
    size_t Sols = Engine.solve(*G, nullptr);
    return std::pair(Sols, Engine.stats().AnswersRecorded);
  };
  EvalCursor C;
  auto Bare = Run(nullptr);
  auto Cursored = Run(&C);
  EXPECT_EQ(Bare, Cursored);
  // And the cursor returned to depth 0 when the engine finished.
  EvalCursor::Snapshot S;
  ASSERT_TRUE(C.read(S));
  EXPECT_EQ(S.Depth, 0u);
}

//===----------------------------------------------------------------------===//
// Table-space watermarks
//===----------------------------------------------------------------------===//

TEST(Watermarks, SolveFillsAllFourPeaks) {
  SymbolTable Syms;
  Database DB(Syms);
  { auto R = DB.consult(closureProgram(8)); ASSERT_TRUE(R.hasValue()) << R.getError().str(); }
  Solver Engine(DB);
  auto G = Parser::parseTerm(Syms, Engine.store(), "path(X, Y)");
  ASSERT_TRUE(G.hasValue());
  EXPECT_EQ(Engine.solve(*G, nullptr), 64u);

  const TableWatermarks &W = Engine.watermarks();
  EXPECT_GT(W.PeakTermStoreBytes, 0u);
  EXPECT_GT(W.PeakSubgoalAnswerBytes, 0u);
  EXPECT_GT(W.PeakSccFrontierBytes, 0u);
  EXPECT_GT(W.PeakTableSpaceBytes, 0u);
  // The pre-release table-space peak can only exceed the post-completion
  // footprint (frontiers were still live when the peak was taken).
  EXPECT_GE(W.PeakTableSpaceBytes, Engine.tableSpaceBytes());

  // snapshotTableMetrics surfaces the peaks as registry watermarks.
  MetricsRegistry Reg;
  Engine.snapshotTableMetrics(Reg);
  bool SawTableSpace = false;
  for (const auto &[Name, Value] : Reg.watermarks()) {
    if (Name == "peak_table_space_bytes") {
      SawTableSpace = true;
      EXPECT_EQ(Value, W.PeakTableSpaceBytes);
    }
  }
  EXPECT_TRUE(SawTableSpace);
}

//===----------------------------------------------------------------------===//
// Fleet sampling
//===----------------------------------------------------------------------===//

TEST(FleetSampling, ParallelSampledRunMatchesSerialUnsampled) {
  std::vector<CorpusJob> Jobs =
      CorpusScheduler::kindJobs(CorpusJobKind::Groundness);

  CorpusScheduler::Options SO;
  SO.Jobs = 1;
  CorpusScheduler Serial(SO);
  std::vector<CorpusJobResult> SerialRes = Serial.run(Jobs);
  EXPECT_TRUE(Serial.sampleProfile().empty());

  CorpusScheduler::Options PO;
  PO.Jobs = 4;
  PO.SampleHz = 50000; // High rate so the short corpus still yields samples.
  CorpusScheduler Par(PO);
  std::vector<CorpusJobResult> ParRes = Par.run(Jobs);

  ASSERT_EQ(SerialRes.size(), ParRes.size());
  for (size_t I = 0; I < SerialRes.size(); ++I) {
    EXPECT_EQ(SerialRes[I].Ok, ParRes[I].Ok) << Jobs[I].Program->Name;
    EXPECT_EQ(SerialRes[I].Fingerprints, ParRes[I].Fingerprints)
        << Jobs[I].Program->Name;
  }

  const SampleProfile &P = Par.sampleProfile();
  ASSERT_EQ(P.lanes().size(), 4u);
  EXPECT_EQ(P.lanes()[0].Label, "worker-1");
  EXPECT_EQ(P.lanes()[3].Label, "worker-4");
  EXPECT_GT(P.totalSamples(), 0u);
  // Folded export renders every lane that sampled anything.
  std::string Folded = Par.foldedStacks();
  EXPECT_NE(Folded.find("worker-"), std::string::npos);
}

} // namespace
