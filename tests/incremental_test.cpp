//===- incremental_test.cpp - Incremental table invalidation tests ------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The warm-session correctness contract: after any assert/retract
// sequence, query results are bit-identical to a cold solver on the final
// program, and the invalidation sweep drops exactly the dependent cone —
// independent tables stay warm. Covers the dependency index itself,
// Database retract/consult-atomicity/revision-clock semantics, the
// solver's tombstone-and-revive cycle, serial and under parallel eval
// workers, the SharedTableSpace retire/re-claim
// protocol (including a concurrent hammer for TSan), the session/protocol
// surface (consult, retract, tables_invalidated/tables_survived), and the
// reset_stats interaction.
//
//===----------------------------------------------------------------------===//

#include "engine/Solver.h"
#include "reader/Parser.h"
#include "srv/Protocol.h"
#include "srv/Session.h"
#include "support/JsonValue.h"
#include "table/DependencyIndex.h"
#include "table/SharedTables.h"
#include "term/TermWriter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace lpa;

namespace {

//===----------------------------------------------------------------------===//
// DependencyIndex
//===----------------------------------------------------------------------===//

TEST(DependencyIndexTest, EdgesDedupAndSelfEdgesDrop) {
  DependencyIndex DI;
  uint64_t P = DependencyIndex::packPred(1, 2);
  uint64_t Q = DependencyIndex::packPred(2, 2);
  DI.addEdge(P, Q);
  DI.addEdge(P, Q); // Duplicate.
  DI.addEdge(P, P); // Self-edge.
  EXPECT_EQ(DI.edgeCount(), 1u);
  EXPECT_EQ(DI.producerCount(), 1u);
}

TEST(DependencyIndexTest, DependentsAreTransitiveAndIncludeChanged) {
  // r -> q -> p (consumer -> producer): changing p invalidates all three;
  // changing r invalidates only r.
  DependencyIndex DI;
  uint64_t P = DependencyIndex::packPred(1, 1);
  uint64_t Q = DependencyIndex::packPred(2, 1);
  uint64_t R = DependencyIndex::packPred(3, 1);
  uint64_t S = DependencyIndex::packPred(4, 1); // Unrelated.
  DI.addEdge(Q, P);
  DI.addEdge(R, Q);
  DI.addEdge(S, S); // Dropped.

  std::vector<uint64_t> ChangedP{P};
  auto Cone = DI.dependentsOf(ChangedP);
  EXPECT_EQ(Cone.size(), 3u);
  EXPECT_TRUE(Cone.count(P) && Cone.count(Q) && Cone.count(R));
  EXPECT_FALSE(Cone.count(S));

  std::vector<uint64_t> ChangedR{R};
  auto Tip = DI.dependentsOf(ChangedR);
  EXPECT_EQ(Tip.size(), 1u);
  EXPECT_TRUE(Tip.count(R));
}

TEST(DependencyIndexTest, DropConsumersForgetsInvalidatedOutEdges) {
  DependencyIndex DI;
  uint64_t P = DependencyIndex::packPred(1, 1);
  uint64_t Q = DependencyIndex::packPred(2, 1);
  uint64_t R = DependencyIndex::packPred(3, 1);
  DI.addEdge(Q, P);
  DI.addEdge(R, P);
  EXPECT_EQ(DI.edgeCount(), 2u);

  // Q's table is being re-derived: its old dependency on P is forgotten;
  // R's edge survives.
  std::unordered_set<uint64_t> Invalidated{Q};
  DI.dropConsumers(Invalidated);
  EXPECT_EQ(DI.edgeCount(), 1u);
  std::vector<uint64_t> ChangedP{P};
  auto Cone = DI.dependentsOf(ChangedP);
  EXPECT_TRUE(Cone.count(R));
  EXPECT_FALSE(Cone.count(Q));
}

TEST(DependencyIndexTest, MergeUnionsWorkerEdges) {
  DependencyIndex Lead, Worker;
  uint64_t P = DependencyIndex::packPred(1, 1);
  uint64_t Q = DependencyIndex::packPred(2, 1);
  uint64_t R = DependencyIndex::packPred(3, 1);
  Lead.addEdge(Q, P);
  Worker.addEdge(Q, P); // Shared edge: must not double-count.
  Worker.addEdge(R, Q);
  Lead.merge(Worker);
  EXPECT_EQ(Lead.edgeCount(), 2u);
  std::vector<uint64_t> ChangedP{P};
  EXPECT_EQ(Lead.dependentsOf(ChangedP).size(), 3u);
}

//===----------------------------------------------------------------------===//
// Database: retract, consult atomicity, revision clock
//===----------------------------------------------------------------------===//

const char *PathProgram = ":- table path/2.\n"
                          "path(X, Y) :- edge(X, Y).\n"
                          "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
                          "edge(a, b). edge(b, c). edge(c, d).\n";

TEST(RetractTest, FactsAndRulesRetractByVariant) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  ASSERT_EQ(DB.numClauses(), 5u);

  // Facts retract literally.
  auto R1 = DB.retract("edge(b, c).");
  ASSERT_TRUE(R1.hasValue());
  EXPECT_EQ(*R1, 1u);
  EXPECT_EQ(DB.numClauses(), 4u);

  // A second retract of the same clause finds nothing.
  auto R2 = DB.retract("edge(b, c).");
  ASSERT_TRUE(R2.hasValue());
  EXPECT_EQ(*R2, 0u);

  // Rules retract up to variable renaming, with head/body sharing
  // respected: A/B here name the same sharing pattern as X/Y there.
  auto R3 = DB.retract("path(A, B) :- edge(A, B).");
  ASSERT_TRUE(R3.hasValue());
  EXPECT_EQ(*R3, 1u);
  EXPECT_EQ(DB.numClauses(), 3u);

  // A rule with *different* sharing is not a variant and must not match.
  auto R4 = DB.retract("path(A, A) :- edge(A, Z), path(Z, A).");
  ASSERT_TRUE(R4.hasValue());
  EXPECT_EQ(*R4, 0u);

  // Unknown predicate: zero, not an error.
  auto R5 = DB.retract("ghost(a).");
  ASSERT_TRUE(R5.hasValue());
  EXPECT_EQ(*R5, 0u);
}

TEST(RetractTest, HeadBodySharingSeparatesVariants) {
  // The variable numbering runs across head and body: p(X) :- q(X) and
  // p(X) :- q(Y) are different clauses, whichever of them is asked for.
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult("p(X) :- q(X).\nq(a).\n").hasValue());
  auto Apart = DB.retract("p(X) :- q(Y).");
  ASSERT_TRUE(Apart.hasValue());
  EXPECT_EQ(*Apart, 0u);
  EXPECT_EQ(DB.numClauses(), 2u);
  auto Shared = DB.retract("p(A) :- q(A).");
  ASSERT_TRUE(Shared.hasValue());
  EXPECT_EQ(*Shared, 1u);

  ASSERT_TRUE(DB.consult("p(X) :- q(Y).\n").hasValue());
  auto Together = DB.retract("p(X) :- q(X).");
  ASSERT_TRUE(Together.hasValue());
  EXPECT_EQ(*Together, 0u);
  EXPECT_EQ(DB.numClauses(), 2u);
  auto Renamed = DB.retract("p(B) :- q(C).");
  ASSERT_TRUE(Renamed.hasValue());
  EXPECT_EQ(*Renamed, 1u);
  EXPECT_EQ(DB.numClauses(), 1u);
}

TEST(RetractTest, MalformedRetractsAreErrors) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  EXPECT_FALSE(DB.retract(":- table edge/2.").hasValue());
  EXPECT_FALSE(DB.retract("edge(a, b). edge(b, c).").hasValue());
  EXPECT_FALSE(DB.retract("   ").hasValue());
  EXPECT_EQ(DB.numClauses(), 5u); // Untouched by any of the failures.
}

TEST(RetractTest, RetractAllEmptiesThePredicateButKeepsItDefined) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  PredKey Edge{Syms.intern("edge"), 2};
  EXPECT_EQ(DB.retractAll(Edge), 3u);
  EXPECT_EQ(DB.retractAll(Edge), 0u);
  // Still defined: calls fail rather than count as undefined misses.
  ASSERT_NE(DB.lookup(Edge), nullptr);
  EXPECT_TRUE(DB.lookup(Edge)->Clauses.empty());
}

TEST(ConsultAtomicityTest, FailedConsultLeavesTheDatabaseUntouched) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  size_t Clauses = DB.numClauses();
  uint64_t Rev = DB.globalRevision();

  // Parse error after two loadable clauses: nothing may load.
  EXPECT_FALSE(DB.consult("edge(d, e). edge(e, f). edge(f, ").hasValue());
  EXPECT_EQ(DB.numClauses(), Clauses);
  EXPECT_EQ(DB.globalRevision(), Rev);

  // Shape error (non-callable head) after a loadable clause: same.
  EXPECT_FALSE(DB.consult("edge(d, e). 42 :- edge(a, b).").hasValue());
  EXPECT_EQ(DB.numClauses(), Clauses);
  EXPECT_EQ(DB.globalRevision(), Rev);

  // Bad table directive after a loadable clause: same.
  EXPECT_FALSE(DB.consult("edge(d, e). :- table frob(nope).").hasValue());
  EXPECT_EQ(DB.numClauses(), Clauses);
  EXPECT_EQ(DB.globalRevision(), Rev);

  // And the database still works.
  EXPECT_TRUE(DB.consult("edge(d, e).").hasValue());
  EXPECT_EQ(DB.numClauses(), Clauses + 1);
  EXPECT_GT(DB.globalRevision(), Rev);
}

TEST(RevisionClockTest, MutationsStampPredicates) {
  SymbolTable Syms;
  Database DB(Syms);
  uint64_t Rev0 = DB.globalRevision();
  ASSERT_TRUE(DB.consult(PathProgram).hasValue());
  auto Changed = DB.predsChangedSince(Rev0);
  EXPECT_EQ(Changed.size(), 2u); // path/2 and edge/2.

  uint64_t Rev1 = DB.globalRevision();
  ASSERT_TRUE(DB.retract("edge(a, b).").hasValue());
  Changed = DB.predsChangedSince(Rev1);
  ASSERT_EQ(Changed.size(), 1u);
  EXPECT_EQ(Changed[0].Sym, Syms.intern("edge"));

  // Tabling declarations do not bump the clock (strategy, not meaning).
  uint64_t Rev2 = DB.globalRevision();
  ASSERT_TRUE(DB.consult(":- table edge/2.").hasValue());
  EXPECT_EQ(DB.globalRevision(), Rev2);
}

//===----------------------------------------------------------------------===//
// Warm-session staleness: the bug this suite exists for
//===----------------------------------------------------------------------===//

// A warm session must reflect consulted clauses in the *next* query, not
// serve answers derived under the old program.
TEST(WarmSessionTest, ConsultIntoWarmSessionInvalidatesDependentTables) {
  AnalysisSession Session;
  ASSERT_TRUE(Session.consult(PathProgram).hasValue());

  auto Q1 = Session.runQuery("path(a, X)");
  ASSERT_TRUE(Q1.hasValue());
  EXPECT_EQ(Q1->Total, 3u);

  // Extend the graph under the completed tables.
  auto C = Session.consult("edge(d, e).");
  ASSERT_TRUE(C.hasValue());
  EXPECT_GT(C->TablesInvalidated, 0u);

  auto Q2 = Session.runQuery("path(a, X)");
  ASSERT_TRUE(Q2.hasValue());
  EXPECT_EQ(Q2->Total, 4u) << "warm session served stale answers";
}

TEST(WarmSessionTest, RetractIntoWarmSessionShrinksAnswers) {
  AnalysisSession Session;
  ASSERT_TRUE(Session.consult(PathProgram).hasValue());
  ASSERT_TRUE(Session.runQuery("path(a, X)").hasValue());

  auto R = Session.retract("edge(c, d).");
  ASSERT_TRUE(R.hasValue());
  EXPECT_EQ(R->Loaded, 1u);
  EXPECT_GT(R->TablesInvalidated, 0u);

  auto Q = Session.runQuery("path(a, X)");
  ASSERT_TRUE(Q.hasValue());
  EXPECT_EQ(Q->Total, 2u);

  // Retracting something that matches nothing sweeps nothing.
  auto R0 = Session.retract("edge(c, d).");
  ASSERT_TRUE(R0.hasValue());
  EXPECT_EQ(R0->Loaded, 0u);
  EXPECT_EQ(R0->TablesInvalidated, 0u);
}

// Independent predicate families must keep their tables across a consult
// that only touches the other family.
TEST(WarmSessionTest, IndependentTablesSurviveTheSweep) {
  AnalysisSession Session;
  std::string Two = std::string(PathProgram) +
                    ":- table reach/2.\n"
                    "reach(X, Y) :- link(X, Y).\n"
                    "reach(X, Y) :- link(X, Z), reach(Z, Y).\n"
                    "link(u, v). link(v, w).\n";
  ASSERT_TRUE(Session.consult(Two).hasValue());
  ASSERT_TRUE(Session.runQuery("path(a, X)").hasValue());
  ASSERT_TRUE(Session.runQuery("reach(u, X)").hasValue());

  auto C = Session.consult("edge(d, e).");
  ASSERT_TRUE(C.hasValue());
  EXPECT_GT(C->TablesInvalidated, 0u);
  EXPECT_GT(C->TablesSurvived, 0u) << "sweep dropped independent tables";

  // reach's table answers warm (no cold misses), with the same answers.
  auto Q = Session.runQuery("reach(u, X)");
  ASSERT_TRUE(Q.hasValue());
  EXPECT_EQ(Q->Total, 2u);
  EXPECT_GT(Q->WarmHits, 0u);
  EXPECT_EQ(Q->ColdMisses, 0u);
}

// Asserting a predicate that was *undefined* when a table consumed it
// must invalidate that table: the dependency predates the definition.
TEST(WarmSessionTest, AssertingAPreviouslyUndefinedPredicateInvalidates) {
  AnalysisSession Session;
  ASSERT_TRUE(Session
                  .consult(":- table p/1.\n"
                           "p(X) :- base(X).\n"
                           "p(X) :- extra(X).\n"
                           "base(1).\n")
                  .hasValue());
  auto Q1 = Session.runQuery("p(X)");
  ASSERT_TRUE(Q1.hasValue());
  EXPECT_EQ(Q1->Total, 1u); // extra/1 is undefined: contributes nothing.

  auto C = Session.consult("extra(2).");
  ASSERT_TRUE(C.hasValue());
  EXPECT_GT(C->TablesInvalidated, 0u);

  auto Q2 = Session.runQuery("p(X)");
  ASSERT_TRUE(Q2.hasValue());
  EXPECT_EQ(Q2->Total, 2u);
}

//===----------------------------------------------------------------------===//
// Warm-vs-cold bit identity across worker counts
//===----------------------------------------------------------------------===//

/// Sorted rendered solutions of \p GoalText — the canonical fingerprint
/// order-insensitive under SLG scheduling.
std::vector<std::string> answersOf(AnalysisSession &S, const char *GoalText) {
  auto Q = S.runQuery(GoalText, /*MaxSolutions=*/100000);
  EXPECT_TRUE(Q.hasValue());
  std::vector<std::string> Out = Q ? Q->Solutions : std::vector<std::string>();
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(WarmColdIdentityTest, MutationSequenceMatchesColdSolverOnFinalProgram) {
  const char *Goals[] = {"path(a, X)", "path(X, Y)", "reach(u, X)"};
  for (size_t Workers : {size_t(0), size_t(2), size_t(4)}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));

    AnalysisSession::Options O;
    O.EvalWorkers = Workers;
    AnalysisSession Warm(O);
    std::string Base = std::string(PathProgram) +
                       ":- table reach/2.\n"
                       "reach(X, Y) :- link(X, Y).\n"
                       "reach(X, Y) :- link(X, Z), reach(Z, Y).\n"
                       "link(u, v). link(v, w).\n";
    ASSERT_TRUE(Warm.consult(Base).hasValue());
    for (const char *G : Goals)
      answersOf(Warm, G); // Complete the tables under program v1.

    // The mutation sequence: extend edge, retract an edge, extend link.
    ASSERT_TRUE(Warm.consult("edge(d, e). edge(e, f).").hasValue());
    for (const char *G : Goals)
      answersOf(Warm, G); // Re-derive under v2 (and re-warm).
    ASSERT_TRUE(Warm.retract("edge(a, b).").hasValue());
    ASSERT_TRUE(Warm.consult("link(w, u).").hasValue());

    // Cold solver on the final program.
    AnalysisSession::Options CO;
    CO.EvalWorkers = Workers;
    AnalysisSession Cold(CO);
    std::string Final = std::string(":- table path/2.\n"
                                    "path(X, Y) :- edge(X, Y).\n"
                                    "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
                                    "edge(b, c). edge(c, d).\n") +
                        "edge(d, e). edge(e, f).\n"
                        ":- table reach/2.\n"
                        "reach(X, Y) :- link(X, Y).\n"
                        "reach(X, Y) :- link(X, Z), reach(Z, Y).\n"
                        "link(u, v). link(v, w). link(w, u).\n";
    ASSERT_TRUE(Cold.consult(Final).hasValue());

    for (const char *G : Goals)
      EXPECT_EQ(answersOf(Warm, G), answersOf(Cold, G))
          << "warm/cold divergence on " << G;
  }
}

// Clause templates across edits: rule clauses consulted into a warm
// session are instantiated from their own cell blocks, and a retracted
// clause's block, still in the clause store, is never reached again.
TEST(WarmColdIdentityTest, ConsultRetractConsultUsesCurrentClauses) {
  const char *Goals[] = {"path(a, X)", "path(X, Y)", "two(X, Y)"};
  AnalysisSession Warm;
  ASSERT_TRUE(Warm.consult(":- table path/2.\n"
                           "path(X, Y) :- edge(X, Y).\n"
                           "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
                           "two(X, Y) :- edge(X, Z), edge(Z, Y).\n"
                           "edge(a, b). edge(b, c).\n")
                  .hasValue());
  for (const char *G : Goals)
    answersOf(Warm, G);
  ASSERT_TRUE(Warm.consult("path(X, Y) :- hop(X, Y).\n"
                           "two(X, Y) :- edge(X, Z), hop(Z, Y).\n"
                           "hop(c, d).\n")
                  .hasValue());
  for (const char *G : Goals)
    answersOf(Warm, G);
  auto R1 = Warm.retract("path(X, Y) :- edge(X, Z), path(Z, Y).");
  ASSERT_TRUE(R1.hasValue());
  EXPECT_EQ(R1->Loaded, 1u);
  auto R2 = Warm.retract("two(X, Y) :- edge(X, Z), edge(Z, Y).");
  ASSERT_TRUE(R2.hasValue());
  EXPECT_EQ(R2->Loaded, 1u);
  for (const char *G : Goals)
    answersOf(Warm, G);
  ASSERT_TRUE(Warm.consult("path(X, Y) :- path(X, Z), hop(Z, Y).\n"
                           "hop(d, e). edge(c, a).\n")
                  .hasValue());

  AnalysisSession Cold;
  ASSERT_TRUE(Cold.consult(":- table path/2.\n"
                           "path(X, Y) :- edge(X, Y).\n"
                           "path(X, Y) :- hop(X, Y).\n"
                           "path(X, Y) :- path(X, Z), hop(Z, Y).\n"
                           "two(X, Y) :- edge(X, Z), hop(Z, Y).\n"
                           "edge(a, b). edge(b, c). edge(c, a).\n"
                           "hop(c, d). hop(d, e).\n")
                  .hasValue());
  for (const char *G : Goals) {
    std::vector<std::string> ColdAnswers = answersOf(Cold, G);
    EXPECT_FALSE(ColdAnswers.empty()) << G;
    EXPECT_EQ(answersOf(Warm, G), ColdAnswers) << "warm/cold divergence on "
                                               << G;
  }
}

// The parallel-prime path: workers publish tables into the shared space,
// the lead imports them; a retract must retire the shared copies too, and
// the re-primed results must match a cold run on the final program.
TEST(WarmColdIdentityTest, SharedTableSpaceSurvivesRetractAndReprime) {
  for (size_t Workers : {size_t(2), size_t(4)}) {
    SCOPED_TRACE("workers=" + std::to_string(Workers));
    SymbolTable Syms;
    Database DB(Syms);
    std::string Program;
    constexpr size_t Chains = 4;
    for (size_t C = 0; C < Chains; ++C) {
      std::string P = "p" + std::to_string(C);
      std::string E = "e" + std::to_string(C);
      Program += ":- table " + P + "/2.\n";
      Program += P + "(X, Y) :- " + E + "(X, Y).\n";
      Program += P + "(X, Y) :- " + E + "(X, Z), " + P + "(Z, Y).\n";
      for (int I = 0; I < 4; ++I)
        Program += E + "(n" + std::to_string(I) + ", n" +
                   std::to_string(I + 1) + ").\n";
    }
    ASSERT_TRUE(DB.consult(Program).hasValue());

    Solver::Options O;
    O.EvalWorkers = Workers;
    Solver Warm(DB, O);

    std::vector<TermRef> Calls;
    for (size_t C = 0; C < Chains; ++C) {
      auto Call = Parser::parseTerm(Syms, Warm.store(),
                                    "p" + std::to_string(C) + "(X, Y)");
      ASSERT_TRUE(Call.hasValue());
      Calls.push_back(*Call);
    }
    Warm.primeTables(Calls);

    // Retract one chain's edge; only that chain's cone may drop.
    ASSERT_TRUE(DB.retract("e1(n3, n4).").hasValue());
    auto Changed = DB.predsChangedSince(0);
    std::vector<PredKey> Keys;
    for (PredKey K : Changed)
      if (K.Sym == Syms.intern("e1"))
        Keys.push_back(K);
    ASSERT_EQ(Keys.size(), 1u);
    Solver::InvalidationResult R = Warm.invalidateDependents(Keys);
    EXPECT_GT(R.TablesInvalidated, 0u);
    EXPECT_GT(R.TablesSurvived, 0u);

    // Re-prime and collect; compare against a cold solver.
    Warm.primeTables(Calls);
    Database ColdDB(Syms);
    std::string Final = Program;
    ASSERT_TRUE(ColdDB.consult(Final).hasValue());
    ASSERT_TRUE(ColdDB.retract("e1(n3, n4).").hasValue());
    Solver Cold(ColdDB, O);

    for (size_t C = 0; C < Chains; ++C) {
      std::string GoalText = "p" + std::to_string(C) + "(X, Y)";
      std::vector<std::string> WarmA, ColdA;
      auto Collect = [&](Solver &S, std::vector<std::string> &Out) {
        auto Goal = Parser::parseTerm(Syms, S.store(), GoalText);
        ASSERT_TRUE(Goal.hasValue());
        S.solve(*Goal, [&]() {
          Out.push_back(TermWriter::toString(Syms, S.storeConst(), *Goal));
          return false;
        });
        std::sort(Out.begin(), Out.end());
      };
      Collect(Warm, WarmA);
      Collect(Cold, ColdA);
      EXPECT_EQ(WarmA, ColdA) << "divergence on " << GoalText;
    }
  }
}

//===----------------------------------------------------------------------===//
// Static-goal memo replays keep their dependency edges
//===----------------------------------------------------------------------===//

TEST(StaticGoalMemoTest, ReplayRecordsTheCalleesOfTheStoredEvaluation) {
  // s/1 is static and reads s2/1. In one query p calls s(X) twice and q
  // once, so q's call replays what p's first call stored: q never runs
  // s/1's clause itself, yet depends on s2/1 exactly as if it had.
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(R"(
    :- table p/1.
    :- table q/1.
    s(X) :- s2(X).
    s2(a). s2(b).
    p(X) :- s(X).
    p(X) :- s(X), X = a.
    q(X) :- s(X).
  )")
                  .hasValue());
  Solver Warm(DB);
  auto Goal = Parser::parseTerm(Syms, Warm.store(), "p(X), q(Y)");
  ASSERT_TRUE(Goal.hasValue());
  EXPECT_EQ(Warm.solve(*Goal, nullptr), 4u);

  ASSERT_TRUE(DB.retract("s2(b).").hasValue());
  PredKey S2{Syms.intern("s2"), 1};
  Solver::InvalidationResult R =
      Warm.invalidateDependents(std::span<const PredKey>(&S2, 1));
  EXPECT_EQ(R.TablesInvalidated, 2u);
  for (const char *Call : {"p(X)", "q(X)"}) {
    auto C = Parser::parseTerm(Syms, Warm.store(), Call);
    ASSERT_TRUE(C.hasValue());
    const Subgoal *SG = Warm.findSubgoal(*C);
    ASSERT_NE(SG, nullptr) << Call;
    EXPECT_TRUE(SG->Invalidated) << Call;
  }
  // Re-derived on the final program: s2(b) is gone from both.
  EXPECT_EQ(Warm.solve(*Goal, nullptr), 1u);
}

//===----------------------------------------------------------------------===//
// SharedTableSpace retirement protocol
//===----------------------------------------------------------------------===//

TEST(SharedSpaceRetireTest, RetireHidesReclaimRepublishes) {
  SharedTableSpace Space(4);
  SymbolTable Syms;
  TermStore Store;
  auto Call = Parser::parseTerm(Syms, Store, "p(X)");
  ASSERT_TRUE(Call.hasValue());
  SymbolId PSym = Syms.intern("p");

  auto O1 = Space.claim(Store, *Call, PSym, 1);
  ASSERT_EQ(O1.H, SharedTableSpace::Hit::Claimed);
  auto T = std::make_unique<SharedTableSpace::PublishedTable>();
  T->NumAnswers = 7;
  Space.publish(*O1.E, std::move(T));

  auto O2 = Space.claim(Store, *Call, PSym, 1);
  ASSERT_EQ(O2.H, SharedTableSpace::Hit::Published);
  const SharedTableSpace::PublishedTable *Old = Space.published(*O2.E);
  ASSERT_NE(Old, nullptr);
  EXPECT_EQ(Old->NumAnswers, 7u);

  uint64_t Epoch0 = Space.epoch();
  EXPECT_EQ(Space.invalidatePred(PSym, 1), 1u);
  EXPECT_GT(Space.epoch(), Epoch0);
  EXPECT_EQ(Space.invalidatePred(PSym, 1), 0u); // Already retired.
  EXPECT_EQ(Space.epoch(), Epoch0 + 1);         // No second bump.

  // Retired: hidden from published()/publishedTables(), and the *old
  // pointer stays valid* (deferred reclamation).
  EXPECT_EQ(Space.published(*O2.E), nullptr);
  EXPECT_TRUE(Space.publishedTables().empty());
  EXPECT_EQ(Old->NumAnswers, 7u);

  // The next claim re-owns the variant and can republish.
  auto O3 = Space.claim(Store, *Call, PSym, 1);
  ASSERT_EQ(O3.H, SharedTableSpace::Hit::Claimed);
  EXPECT_EQ(O3.E, O2.E);
  auto T2 = std::make_unique<SharedTableSpace::PublishedTable>();
  T2->NumAnswers = 9;
  Space.publish(*O3.E, std::move(T2));
  auto O4 = Space.claim(Store, *Call, PSym, 1);
  ASSERT_EQ(O4.H, SharedTableSpace::Hit::Published);
  EXPECT_EQ(Space.published(*O4.E)->NumAnswers, 9u);
  EXPECT_EQ(Old->NumAnswers, 7u); // Still alive, still the old data.

  EXPECT_EQ(Space.stats().Retired, 1u);
}

TEST(SharedSpaceRetireTest, OnlyTheNamedPredicateRetires) {
  SharedTableSpace Space(4);
  SymbolTable Syms;
  TermStore Store;
  SymbolId P = Syms.intern("p"), Q = Syms.intern("q");
  for (const char *G : {"p(X)", "q(X)"}) {
    auto Call = Parser::parseTerm(Syms, Store, G);
    ASSERT_TRUE(Call.hasValue());
    SymbolId Sym = G[0] == 'p' ? P : Q;
    auto O = Space.claim(Store, *Call, Sym, 1);
    ASSERT_EQ(O.H, SharedTableSpace::Hit::Claimed);
    Space.publish(*O.E, std::make_unique<SharedTableSpace::PublishedTable>());
  }
  EXPECT_EQ(Space.publishedTables().size(), 2u);
  EXPECT_EQ(Space.invalidatePred(P, 1), 1u);
  EXPECT_EQ(Space.publishedTables().size(), 1u);
}

// TSan interleaving fodder: worker threads claim/publish/read while one
// thread retracts (retires) concurrently. The invariants: no torn tables
// (every published() pointer dereferences to a fully-constructed table
// whose NumAnswers matches its payload), retirement is monotone per
// epoch, and the space survives to destruction with all memory intact.
TEST(SharedSpaceRetireTest, ConcurrentRetireHammer) {
  constexpr size_t NumWorkers = 4;
  constexpr size_t NumPreds = 8;
  constexpr int Rounds = 400;

  SharedTableSpace Space(4);
  SymbolTable Syms;
  std::vector<SymbolId> PredSyms;
  std::vector<TermStore> Stores(NumWorkers);
  // Pre-intern so worker threads never mutate the symbol table.
  for (size_t P = 0; P < NumPreds; ++P)
    PredSyms.push_back(Syms.intern("hp" + std::to_string(P)));

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> TornTables{0};

  auto Worker = [&](size_t W) {
    TermStore &Store = Stores[W];
    std::vector<TermRef> Calls;
    for (size_t P = 0; P < NumPreds; ++P) {
      auto Call = Parser::parseTerm(
          Syms, Store, "hp" + std::to_string(P) + "(X)");
      ASSERT_TRUE(Call.hasValue());
      Calls.push_back(*Call);
    }
    for (int R = 0; R < Rounds; ++R) {
      size_t P = (W + R) % NumPreds;
      auto O = Space.claim(Store, Calls[P], PredSyms[P], 1);
      if (O.H == SharedTableSpace::Hit::Claimed) {
        auto T = std::make_unique<SharedTableSpace::PublishedTable>();
        T->Sym = PredSyms[P];
        T->Arity = 1;
        T->NumAnswers = 3;
        T->Answers = {TermRef{}, TermRef{}, TermRef{}};
        Space.publish(*O.E, std::move(T));
      } else if (O.H == SharedTableSpace::Hit::Published) {
        const SharedTableSpace::PublishedTable *T = Space.published(*O.E);
        // A stale Published observation may race a retire; the pointer
        // must still be a whole table either way.
        if (T && (T->NumAnswers != 3 || T->Answers.size() != 3))
          TornTables.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  std::thread Retirer([&]() {
    while (!Stop.load(std::memory_order_relaxed))
      for (size_t P = 0; P < NumPreds; ++P)
        Space.invalidatePred(PredSyms[P], 1);
  });

  std::vector<std::thread> Threads;
  for (size_t W = 0; W < NumWorkers; ++W)
    Threads.emplace_back(Worker, W);
  for (auto &T : Threads)
    T.join();
  Stop.store(true, std::memory_order_relaxed);
  Retirer.join();

  EXPECT_EQ(TornTables.load(), 0u);
  EXPECT_GT(Space.stats().Retired, 0u);
  EXPECT_GT(Space.epoch(), 0u);
}

//===----------------------------------------------------------------------===//
// reset_stats interaction
//===----------------------------------------------------------------------===//

// The contract (DESIGN.md §15): counters are per-window and reset;
// *state* — warm tables, tombstones, dependency edges — survives.
TEST(ResetStatsTest, InvalidationCountersResetButStateSurvives) {
  AnalysisSession Session;
  ASSERT_TRUE(Session.consult(PathProgram).hasValue());
  ASSERT_TRUE(Session.runQuery("path(a, X)").hasValue());
  auto C = Session.consult("edge(d, e).");
  ASSERT_TRUE(C.hasValue());
  ASSERT_GT(C->TablesInvalidated, 0u);

  // Before reset: both engine and service counters carry the sweep.
  EXPECT_GT(Session.solver().stats().TablesInvalidated, 0u);
  EXPECT_GT(Session.serviceStats().tablesInvalidated(), 0u);
  EXPECT_EQ(Session.serviceStats().invalidations(), 1u);

  Session.resetStats();

  // Path 1: counters are per-window — all zero after the reset.
  EXPECT_EQ(Session.solver().stats().TablesInvalidated, 0u);
  EXPECT_EQ(Session.solver().stats().TablesSurvived, 0u);
  EXPECT_EQ(Session.solver().stats().TablesRevived, 0u);
  EXPECT_EQ(Session.serviceStats().tablesInvalidated(), 0u);
  EXPECT_EQ(Session.serviceStats().tablesSurvived(), 0u);
  EXPECT_EQ(Session.serviceStats().invalidations(), 0u);

  // Path 2: state survived. The tombstoned path tables revive on the
  // next query (counted in the fresh window), with correct answers...
  auto Q = Session.runQuery("path(a, X)");
  ASSERT_TRUE(Q.hasValue());
  EXPECT_EQ(Q->Total, 4u);
  EXPECT_GT(Session.solver().stats().TablesRevived, 0u);

  // ...and the dependency index kept its edges: a fresh mutation still
  // sweeps the cone, counted from zero in the new window.
  auto C2 = Session.consult("edge(e, f).");
  ASSERT_TRUE(C2.hasValue());
  EXPECT_GT(C2->TablesInvalidated, 0u);
  EXPECT_EQ(Session.serviceStats().invalidations(), 1u);
}

//===----------------------------------------------------------------------===//
// Protocol surface
//===----------------------------------------------------------------------===//

JsonValue respond(AnalysisSession &Session, const std::string &Line) {
  bool Quit = false;
  std::string Resp = handleRequestLine(Session, Line, Quit);
  auto V = JsonValue::parse(Resp);
  EXPECT_TRUE(V.hasValue()) << "unparsable response: " << Resp;
  return V.hasValue() ? *V : JsonValue();
}

TEST(ProtocolIncrementalTest, AssertQueryRetractQueryRoundTrip) {
  AnalysisSession Session;
  JsonValue C = respond(
      Session,
      R"j({"op":"consult","program":":- table path/2. path(X,Y) :- edge(X,Y). path(X,Y) :- edge(X,Z), path(Z,Y). edge(a,b). edge(b,c)."})j");
  EXPECT_TRUE(C.find("ok")->asBool());
  EXPECT_DOUBLE_EQ(C.numberOr("tables_invalidated", -1), 0.0);

  JsonValue Q1 = respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");
  EXPECT_DOUBLE_EQ(Q1.numberOr("total", 0), 2.0);

  // Assert into the warm session; the cone drops and the next query sees
  // the new fact.
  JsonValue C2 =
      respond(Session, R"j({"op":"consult","program":"edge(c,d)."})j");
  EXPECT_TRUE(C2.find("ok")->asBool());
  EXPECT_GT(C2.numberOr("tables_invalidated", 0), 0.0);
  JsonValue Q2 = respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");
  EXPECT_DOUBLE_EQ(Q2.numberOr("total", 0), 3.0);

  // Retract and re-query.
  JsonValue R =
      respond(Session, R"j({"op":"retract","clause":"edge(a,b)."})j");
  EXPECT_TRUE(R.find("ok")->asBool());
  EXPECT_DOUBLE_EQ(R.numberOr("retracted", 0), 1.0);
  EXPECT_GT(R.numberOr("tables_invalidated", 0), 0.0);
  JsonValue Q3 = respond(Session, R"j({"op":"query","goal":"path(a,X)"})j");
  EXPECT_DOUBLE_EQ(Q3.numberOr("total", 0), 0.0);

  // Malformed retracts are error responses, not disconnects.
  JsonValue Bad = respond(Session, R"j({"op":"retract"})j");
  EXPECT_FALSE(Bad.find("ok")->asBool());
  JsonValue Bad2 =
      respond(Session, R"j({"op":"retract","clause":":- table p/1."})j");
  EXPECT_FALSE(Bad2.find("ok")->asBool());

  // The stats snapshot carries the cumulative invalidation telemetry.
  JsonValue St = respond(Session, R"j({"op":"stats"})j");
  const JsonValue *Stats = St.find("stats");
  ASSERT_TRUE(Stats && Stats->isObject());
  EXPECT_GT(Stats->numberOr("tables_invalidated", 0), 0.0);
  EXPECT_DOUBLE_EQ(Stats->numberOr("invalidations", 0), 2.0);
}

} // namespace
