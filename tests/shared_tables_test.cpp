//===- shared_tables_test.cpp - Shared-table / parallel eval tests --------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The "shr" suite: the cross-worker shared table space and intra-query
// parallel evaluation (Options::EvalWorkers).
// CI runs it under ThreadSanitizer — the N-thread hammer tests exist to
// give TSan real interleavings, not just to check the final counts.
//
//===----------------------------------------------------------------------===//

#include "table/SharedTables.h"
#include "term/TermCopy.h"

#include "engine/Solver.h"
#include "obs/Forest.h"
#include "par/CorpusScheduler.h"
#include "par/ThreadPool.h"
#include "prop/Groundness.h"
#include "reader/Parser.h"
#include "term/TermWriter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

using namespace lpa;

namespace {

/// mkStruct takes a span; bridge braced argument lists.
TermRef mkS(TermStore &Store, SymbolId S, std::initializer_list<TermRef> A) {
  std::vector<TermRef> Args(A);
  return Store.mkStruct(S, Args);
}

//===----------------------------------------------------------------------===//
// SharedTableSpace
//===----------------------------------------------------------------------===//

/// Claim arbitration: N threads race to claim the same variant; exactly
/// one wins, the rest see InFlight (never a wait), and after the winner
/// publishes everyone reads the same completed table.
TEST(SharedTableSpaceTest, ExactlyOneClaimThenPublishedVisible) {
  constexpr size_t NumThreads = 8;
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("p");

  SharedTableSpace Space;
  std::atomic<uint32_t> ClaimWins{0};
  std::atomic<uint32_t> InFlightSeen{0};

  std::vector<std::thread> Threads;
  for (size_t T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      TermStore Store;
      TermRef Call = mkS(Store, P, {Store.mkVar(), Store.mkVar()});
      SharedTableSpace::Outcome O =
          Space.claim(Store, Call, P, 2, static_cast<uint32_t>(T));
      ASSERT_NE(O.E, nullptr);
      if (O.H == SharedTableSpace::Hit::Claimed) {
        ClaimWins.fetch_add(1);
        auto Table = std::make_unique<SharedTableSpace::PublishedTable>();
        Table->Sym = P;
        Table->Arity = 2;
        Table->NumAnswers = 7;
        Table->Call = copyTerm(Store, Call, Table->Terms);
        Space.publish(*O.E, std::move(Table));
      } else if (O.H == SharedTableSpace::Hit::InFlight) {
        InFlightSeen.fetch_add(1);
        EXPECT_EQ(Space.published(*O.E), nullptr);
      } else {
        const SharedTableSpace::PublishedTable *PT = Space.published(*O.E);
        ASSERT_NE(PT, nullptr);
        EXPECT_EQ(PT->NumAnswers, 7u);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(ClaimWins.load(), 1u);

  // Quiescent re-claim: warm hit with the full table visible.
  TermStore Store;
  TermRef Call = mkS(Store, P, {Store.mkVar(), Store.mkVar()});
  SharedTableSpace::Outcome O = Space.claim(Store, Call, P, 2, 99);
  EXPECT_EQ(O.H, SharedTableSpace::Hit::Published);
  const SharedTableSpace::PublishedTable *PT = Space.published(*O.E);
  ASSERT_NE(PT, nullptr);
  EXPECT_EQ(PT->Sym, P);
  EXPECT_EQ(PT->NumAnswers, 7u);

  SharedTableSpace::Stats S = Space.stats();
  EXPECT_EQ(S.Claims, 1u);
  EXPECT_EQ(S.Publishes, 1u);
  EXPECT_EQ(S.InFlightMisses, InFlightSeen.load());
  EXPECT_GE(S.Lookups, NumThreads + 1);
  EXPECT_GT(S.Shards, 0u);
  EXPECT_EQ(Space.publishedTables().size(), 1u);
}

/// Distinct variants get distinct entries even when hammered from many
/// threads; publishedTables() sees them all.
TEST(SharedTableSpaceTest, DistinctVariantsDistinctEntries) {
  constexpr size_t NumThreads = 6;
  constexpr uint32_t NumVariants = 64;
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("q");

  SharedTableSpace Space(4);
  std::vector<std::atomic<uint32_t>> Wins(NumVariants);

  std::vector<std::thread> Threads;
  for (size_t T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      TermStore Store;
      for (uint32_t I = 0; I < NumVariants; ++I) {
        TermRef Call = mkS(Store, P, {Store.mkInt(int64_t(I)),
                                        Store.mkVar()});
        SharedTableSpace::Outcome O =
            Space.claim(Store, Call, P, 2, static_cast<uint32_t>(T));
        if (O.H == SharedTableSpace::Hit::Claimed) {
          Wins[I].fetch_add(1, std::memory_order_relaxed);
          auto Table = std::make_unique<SharedTableSpace::PublishedTable>();
          Table->Sym = P;
          Table->Arity = 2;
          Table->NumAnswers = I;
          Table->Call = copyTerm(Store, Call, Table->Terms);
          Space.publish(*O.E, std::move(Table));
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  for (uint32_t I = 0; I < NumVariants; ++I)
    EXPECT_EQ(Wins[I].load(), 1u) << "variant " << I;
  EXPECT_EQ(Space.publishedTables().size(), NumVariants);
  EXPECT_EQ(Space.stats().Claims, NumVariants);
  EXPECT_EQ(Space.stats().Publishes, NumVariants);
}

/// The one-claim invariant under contention: N threads claim the same
/// variants, each in its own order and from a private store. Exactly one
/// claim per variant wins, every thread agrees on each variant's entry, and
/// the space ends with one entry per variant.
TEST(SharedTableSpaceTest, ConcurrentClaimsOneWinnerPerVariant) {
  constexpr size_t NumThreads = 8;
  constexpr uint32_t NumVariants = 256;
  SymbolTable Symbols;
  SymbolId P = Symbols.intern("r"); // Interned before threads spawn: the
  SymbolId A = Symbols.intern("a"); // symbol table is not shared-mutable.

  SharedTableSpace Space(4);
  std::vector<std::atomic<uint32_t>> Wins(NumVariants);
  std::vector<std::atomic<SharedTableSpace::Entry *>> Seen(NumVariants);

  std::vector<std::thread> Threads;
  for (size_t T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      std::vector<uint32_t> Order(NumVariants);
      for (uint32_t I = 0; I < NumVariants; ++I)
        Order[I] = I;
      std::shuffle(Order.begin(), Order.end(), std::mt19937(uint32_t(T)));
      TermStore Store;
      for (uint32_t I : Order) {
        // Variable sharing makes half the variants differ only in it.
        TermRef X = Store.mkVar();
        TermRef Call = mkS(Store, P,
                           {Store.mkInt(int64_t(I / 2)),
                            I % 2 ? X : Store.mkVar(), X, Store.mkAtom(A)});
        SharedTableSpace::Outcome O =
            Space.claim(Store, Call, P, 4, static_cast<uint32_t>(T));
        ASSERT_NE(O.E, nullptr);
        SharedTableSpace::Entry *Expected = nullptr;
        if (!Seen[I].compare_exchange_strong(Expected, O.E)) {
          EXPECT_EQ(Expected, O.E) << "variant " << I;
        }
        if (O.H == SharedTableSpace::Hit::Claimed) {
          Wins[I].fetch_add(1, std::memory_order_relaxed);
        } else {
          EXPECT_EQ(O.H, SharedTableSpace::Hit::InFlight);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();

  for (uint32_t I = 0; I < NumVariants; ++I)
    EXPECT_EQ(Wins[I].load(), 1u) << "variant " << I;
  uint32_t Entries = 0;
  for (const SharedTableSpace::ShardStats &SS : Space.perShardStats())
    Entries += SS.Entries;
  EXPECT_EQ(Entries, NumVariants);
  SharedTableSpace::Stats St = Space.stats();
  EXPECT_EQ(St.Claims, NumVariants);
  EXPECT_EQ(St.Lookups, NumThreads * NumVariants);
  EXPECT_EQ(St.InFlightMisses, (NumThreads - 1) * NumVariants);
  EXPECT_EQ(St.LockAcquisitions, St.Lookups);
}

//===----------------------------------------------------------------------===//
// ThreadPool counters (satellite: steal/idle/task stats)
//===----------------------------------------------------------------------===//

TEST(ThreadPoolStatsTest, TaskCountersBalance) {
  ThreadPool Pool(3);
  std::atomic<int> Ran{0};
  for (int I = 0; I < 64; ++I)
    Pool.submit([&Ran] { Ran.fetch_add(1); });
  Pool.wait();
  ThreadPool::PoolStats S = Pool.stats();
  EXPECT_EQ(Ran.load(), 64);
  EXPECT_EQ(S.Submitted, 64u);
  EXPECT_EQ(S.Executed, 64u);
  EXPECT_EQ(S.Steals, Pool.stealCount());
}

TEST(ThreadPoolStatsTest, InlinePoolCounts) {
  ThreadPool Pool(0);
  Pool.submit([] {});
  Pool.submit([] {});
  ThreadPool::PoolStats S = Pool.stats();
  EXPECT_EQ(S.Submitted, 2u);
  EXPECT_EQ(S.Executed, 2u);
  EXPECT_EQ(S.Steals, 0u);
}

//===----------------------------------------------------------------------===//
// Intra-query parallel evaluation (Options::EvalWorkers)
//===----------------------------------------------------------------------===//

/// K disjoint left-recursive closure chains (same generator family as
/// bench_parallel_eval, smaller).
std::string chainsProgram(size_t K, size_t N) {
  std::string P;
  for (size_t C = 0; C < K; ++C) {
    std::string Pred = "path" + std::to_string(C);
    std::string Edge = "edge" + std::to_string(C);
    P += ":- table " + Pred + "/2.\n";
    P += Pred + "(X, Y) :- " + Pred + "(X, Z), " + Edge + "(Z, Y).\n";
    P += Pred + "(X, Y) :- " + Edge + "(X, Y).\n";
    for (size_t I = 0; I + 1 < N; ++I)
      P += Edge + "(c" + std::to_string(C) + "n" + std::to_string(I) +
           ", c" + std::to_string(C) + "n" + std::to_string(I + 1) + ").\n";
  }
  return P;
}

/// The sorted rendered answer set of every chain's open call — the
/// canonical fingerprint (order-insensitive, so scheduling can't move it).
std::vector<std::string> chainAnswerSets(Solver &Engine, SymbolTable &Symbols,
                                         size_t K, bool Prime) {
  std::vector<TermRef> Calls;
  for (size_t C = 0; C < K; ++C) {
    auto Call = Parser::parseTerm(Symbols, Engine.store(),
                                  "path" + std::to_string(C) + "(X, Y)");
    EXPECT_TRUE(bool(Call));
    Calls.push_back(*Call);
  }
  if (Prime)
    Engine.primeTables(Calls);
  for (TermRef Call : Calls)
    Engine.solve(Call, nullptr);

  std::vector<std::string> Out;
  for (TermRef Call : Calls) {
    const Subgoal *SG = Engine.findSubgoal(Call);
    EXPECT_NE(SG, nullptr);
    std::vector<std::string> Answers;
    TermStore Scratch;
    for (size_t AI = 0, AE = Engine.answerCount(*SG); AI < AE; ++AI) {
      Scratch.clear();
      TermRef Ans = Engine.answerInstance(*SG, AI, Scratch);
      Answers.push_back(TermWriter::toString(Symbols, Scratch, Ans));
    }
    std::sort(Answers.begin(), Answers.end());
    std::string FP;
    for (const std::string &A : Answers)
      FP += A + ";";
    Out.push_back(std::move(FP));
  }
  return Out;
}

TEST(ParallelEvalTest, ChainsIdenticalToSerial) {
  constexpr size_t K = 4, N = 25;
  std::string Program = chainsProgram(K, N);

  auto Run = [&](size_t Workers) {
    SymbolTable Symbols;
    Database DB(Symbols);
    auto L = DB.consult(Program);
    EXPECT_TRUE(bool(L));
    Solver::Options O;
    O.EvalWorkers = Workers;
    Solver Engine(DB, O);
    auto Sets = chainAnswerSets(Engine, Symbols, K, Workers > 1);
    if (Workers > 1) {
      EXPECT_EQ(Engine.stats().ParallelPrimeRuns, 1u);
      EXPECT_EQ(Engine.sharedTableStats().Publishes, K);
      EXPECT_EQ(Engine.stats().SharedTablesImported, K);
      EXPECT_EQ(Engine.evalPoolStats().Executed, K);
      // Workers did the deriving; the lead only imported and re-walked.
      EXPECT_GT(Engine.parallelWorkerStats().AnswersRecorded, 0u);
    }
    return Sets;
  };

  std::vector<std::string> Serial = Run(0);
  ASSERT_EQ(Serial.size(), K);
  // Each chain has N*(N+1)/2 path answers.
  EXPECT_EQ(std::count(Serial[0].begin(), Serial[0].end(), ';'),
            long(N * (N - 1) / 2));
  EXPECT_EQ(Run(2), Serial);
  EXPECT_EQ(Run(4), Serial);
}

/// The solve() hook: a conjunction of two independent tabled goals primes
/// in parallel before the serial cross-product enumeration.
TEST(ParallelEvalTest, SolveAutoPrimesConjunctions) {
  std::string Program = chainsProgram(2, 8);
  SymbolTable Symbols;
  Database DB(Symbols);
  ASSERT_TRUE(bool(DB.consult(Program)));
  Solver::Options O;
  O.EvalWorkers = 4;
  Solver Engine(DB, O);

  auto Goal = Parser::parseTerm(Symbols, Engine.store(),
                                "path0(X, Y), path1(A, B)");
  ASSERT_TRUE(bool(Goal));
  size_t Solutions = Engine.solve(*Goal, nullptr);
  // 7-edge chains: 28 path answers each; the conjunction enumerates the
  // cross product.
  EXPECT_EQ(Solutions, 28u * 28u);
  EXPECT_EQ(Engine.stats().ParallelPrimeRuns, 1u);
  EXPECT_EQ(Engine.stats().SharedTablesImported, 2u);
}

TEST(ParallelEvalTest, GroundnessFingerprintsIdenticalToSerial) {
  const CorpusProgram *P = findBenchmark("read");
  ASSERT_NE(P, nullptr);

  auto Run = [&](size_t Workers) {
    SymbolTable Symbols;
    GroundnessAnalyzer::Options GO;
    GO.Engine.EvalWorkers = Workers;
    GroundnessAnalyzer Analyzer(Symbols, GO);
    auto R = Analyzer.analyze(P->Source);
    EXPECT_TRUE(bool(R)) << (R ? "" : R.getError().str());
    return R ? fingerprintGroundness(*R) : std::vector<std::string>{};
  };

  std::vector<std::string> Serial = Run(0);
  ASSERT_FALSE(Serial.empty());
  EXPECT_EQ(Run(4), Serial);
}

/// Poison crosses worker boundaries: a depth-truncated table published by
/// a worker taints the lead exactly as a local truncation would, and the
/// incompleteness count matches the serial run's.
TEST(ParallelEvalTest, DepthLimitPoisonPropagatesAcrossWorkers) {
  // K tabled reach/1 cones over non-tabled step/2 walks: the walk deepens
  // one frame per edge, so MaxDepth prunes the far end of each chain
  // inside whichever worker evaluates it (same shape as the
  // incompleteness suite's ChainProgram, replicated per seed).
  constexpr size_t K = 3, N = 20;
  std::string Program;
  for (size_t C = 0; C < K; ++C) {
    std::string Reach = "reach" + std::to_string(C);
    std::string Step = "step" + std::to_string(C);
    std::string Edge = "edge" + std::to_string(C);
    Program += ":- table " + Reach + "/1.\n";
    Program += Reach + "(X) :- " + Step + "(c" + std::to_string(C) +
               "n0, X).\n";
    Program += Step + "(X, X).\n";
    Program += Step + "(X, Y) :- " + Edge + "(X, Z), " + Step + "(Z, Y).\n";
    for (size_t I = 0; I + 1 < N; ++I)
      Program += Edge + "(c" + std::to_string(C) + "n" + std::to_string(I) +
                 ", c" + std::to_string(C) + "n" + std::to_string(I + 1) +
                 ").\n";
  }

  auto IncompleteCount = [&](size_t Workers) {
    SymbolTable Symbols;
    Database DB(Symbols);
    EXPECT_TRUE(bool(DB.consult(Program)));
    Solver::Options O;
    O.EvalWorkers = Workers;
    O.MaxDepth = 8; // Prunes the 19-edge walks mid-chain.
    Solver Engine(DB, O);
    std::vector<TermRef> Calls;
    for (size_t C = 0; C < K; ++C) {
      auto Call = Parser::parseTerm(Symbols, Engine.store(),
                                    "reach" + std::to_string(C) + "(X)");
      EXPECT_TRUE(bool(Call));
      Calls.push_back(*Call);
    }
    if (Workers > 1)
      Engine.primeTables(Calls);
    for (TermRef Call : Calls)
      Engine.solve(Call, nullptr);
    return Engine.stats().IncompleteTables;
  };

  uint64_t Serial = IncompleteCount(0);
  ASSERT_GT(Serial, 0u) << "depth limit must actually truncate";
  EXPECT_EQ(IncompleteCount(4), Serial);
}

/// Provenance recording forces the serial path: asking for workers must
/// not silently drop justifications (no parallel prime runs, arenas
/// intact).
TEST(ParallelEvalTest, ProvenanceForcesSerial) {
  std::string Program = chainsProgram(2, 10);
  SymbolTable Symbols;
  Database DB(Symbols);
  ASSERT_TRUE(bool(DB.consult(Program)));
  Solver::Options O;
  O.EvalWorkers = 4;
  O.RecordProvenance = true;
  Solver Engine(DB, O);
  auto Goal = Parser::parseTerm(Symbols, Engine.store(), "path0(X, Y)");
  ASSERT_TRUE(bool(Goal));
  Engine.solve(*Goal, nullptr);
  EXPECT_EQ(Engine.stats().ParallelPrimeRuns, 0u);
  ProvenanceArena::CheckStats CS = Engine.checkProvenance();
  EXPECT_GT(CS.Justified, 0u);
  EXPECT_EQ(CS.Dangling, 0u);
}

//===----------------------------------------------------------------------===//
// Forest SCC summaries (satellite: one SCC computation for exports and
// scheduler)
//===----------------------------------------------------------------------===//

TEST(ForestSccTest, SummariesTagExports) {
  SymbolTable Symbols;
  Database DB(Symbols);
  ASSERT_TRUE(bool(DB.consult(":- table p/1.\n"
                              ":- table q/1.\n"
                              "p(X) :- q(X).\n"
                              "q(X) :- p(X).\n"
                              "q(1).\n")));
  Solver Engine(DB);
  auto Goal = Parser::parseTerm(Symbols, Engine.store(), "p(X)");
  ASSERT_TRUE(bool(Goal));
  Engine.solve(*Goal, nullptr);

  ForestGraph G = Engine.exportForest();
  std::vector<SccSummary> Sccs = computeSccSummaries(G);
  ASSERT_FALSE(Sccs.empty());
  // p and q are mutually recursive: one SCC holds both.
  EXPECT_EQ(Sccs[0].Members.size(), 2u);
  EXPECT_GT(Sccs[0].CompletionOrder, 0u);
  EXPECT_FALSE(Sccs[0].Incomplete);

  std::string Json = forestToJson(G);
  EXPECT_NE(Json.find("\"sccs\""), std::string::npos);
  EXPECT_NE(Json.find("\"completion_order\""), std::string::npos);
  std::string Dot = forestToDot(G);
  EXPECT_NE(Dot.find("// scc "), std::string::npos);
}

} // namespace
