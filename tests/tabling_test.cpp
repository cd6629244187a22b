//===- tabling_test.cpp - Tabled evaluation tests ---------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Tabling gives the two properties the paper relies on: completeness
// (termination on finite-domain programs, even left-recursive ones) and
// call capture (every subgoal is recorded, yielding input patterns).
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "engine/Solver.h"
#include "reader/Parser.h"
#include "strictness/Strictness.h"
#include "table/VariantCode.h"
#include "term/TermWriter.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace lpa;

namespace {

class TablingTest : public ::testing::Test {
protected:
  TablingTest() : DB(Syms), S(DB) {}

  void consult(const char *Text) {
    auto R = DB.consult(Text);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
  }

  std::vector<std::string> query(const char *GoalText) {
    auto Goal = Parser::parseTerm(Syms, S.store(), GoalText);
    EXPECT_TRUE(Goal.hasValue()) << GoalText;
    std::vector<std::string> Out;
    S.solve(*Goal, [&]() {
      Out.push_back(TermWriter::toString(Syms, S.storeConst(), *Goal));
      return false;
    });
    return Out;
  }

  std::set<std::string> querySet(const char *GoalText) {
    auto V = query(GoalText);
    return std::set<std::string>(V.begin(), V.end());
  }

  SymbolTable Syms;
  Database DB;
  Solver S;
};

TEST_F(TablingTest, LeftRecursiveTransitiveClosureTerminates) {
  consult(R"(
    :- table path/2.
    path(X, Y) :- path(X, Z), edge(Z, Y).
    path(X, Y) :- edge(X, Y).
    edge(a, b). edge(b, c). edge(c, d).
  )");
  auto Sols = querySet("path(a, X)");
  std::set<std::string> Expected{"path(a,b)", "path(a,c)", "path(a,d)"};
  EXPECT_EQ(Sols, Expected);
}

TEST_F(TablingTest, CyclicGraphTerminates) {
  consult(R"(
    :- table path/2.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), path(Z, Y).
    edge(a, b). edge(b, a). edge(b, c).
  )");
  auto Sols = querySet("path(a, X)");
  std::set<std::string> Expected{"path(a,a)", "path(a,b)", "path(a,c)"};
  EXPECT_EQ(Sols, Expected);
}

TEST_F(TablingTest, OpenCallComputesFullRelation) {
  consult(R"(
    :- table path/2.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    edge(a, b). edge(b, c).
  )");
  EXPECT_EQ(querySet("path(X, Y)").size(), 3u); // ab, ac, bc.
}

TEST_F(TablingTest, AnswersAreDeduplicated) {
  consult(R"(
    :- table p/1.
    p(X) :- q(X).
    p(X) :- r(X).
    q(a). q(b). r(a). r(b).
  )");
  EXPECT_EQ(query("p(X)").size(), 2u);
  EXPECT_GT(S.stats().AnswersDuplicate, 0u);
}

TEST_F(TablingTest, VariantCallsReuseTables) {
  consult(R"(
    :- table p/1.
    p(a). p(b).
  )");
  query("p(X)");
  uint64_t SubgoalsAfterFirst = S.stats().SubgoalsCreated;
  query("p(Y)"); // A variant of p(X): must hit the table.
  EXPECT_EQ(S.stats().SubgoalsCreated, SubgoalsAfterFirst);
}

TEST_F(TablingTest, NonVariantCallsGetOwnTables) {
  consult(R"(
    :- table p/2.
    p(a, 1). p(b, 2).
  )");
  query("p(X, Y)");
  uint64_t N1 = S.stats().SubgoalsCreated;
  query("p(a, Y)"); // Not a variant of p(X, Y).
  EXPECT_EQ(S.stats().SubgoalsCreated, N1 + 1);
}

TEST_F(TablingTest, MutualRecursionCompletes) {
  consult(R"(
    :- table even/1.
    :- table odd/1.
    even(z).
    even(s(X)) :- odd(X).
    odd(s(X)) :- even(X).
    num(z). num(s(X)) :- num(X).
  )");
  EXPECT_EQ(query("even(s(s(z)))").size(), 1u);
  EXPECT_EQ(query("odd(s(s(z)))").size(), 0u);
  EXPECT_EQ(query("even(s(s(s(s(z)))))").size(), 1u);
}

TEST_F(TablingTest, SameGenerationProgram) {
  // The classic same-generation benchmark; quadratic without tabling.
  consult(R"(
    :- table sg/2.
    sg(X, X).
    sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
    par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1). par(c3, p2).
  )");
  auto Sols = querySet("sg(c1, Y)");
  EXPECT_TRUE(Sols.count("sg(c1,c2)"));
  EXPECT_TRUE(Sols.count("sg(c1,c1)"));
  // c3 is in the same generation as c1 via g1 (p1/p2 are siblings).
  EXPECT_TRUE(Sols.count("sg(c1,c3)"));
}

TEST_F(TablingTest, FibonacciBecomesLinearWithTabling) {
  consult(R"(
    :- table fib/2.
    fib(0, 0).
    fib(1, 1).
    fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,
                 fib(N1, F1), fib(N2, F2), F is F1 + F2.
  )");
  auto Sols = query("fib(24, F)");
  ASSERT_EQ(Sols.size(), 1u);
  EXPECT_EQ(Sols[0], "fib(24,46368)");
  // Tabled evaluation creates exactly one subgoal per distinct call:
  // fib(24)..fib(0) = 25 subgoals.
  EXPECT_EQ(S.stats().SubgoalsCreated, 25u);
}

TEST_F(TablingTest, CallTableRecordsInputPatterns) {
  // Section 3.1: calls captured by the table are the input patterns.
  consult(R"(
    :- table p/2.
    :- table q/2.
    p(X, Y) :- q(a, Y), '='(X, Y).
    q(_, b).
  )");
  query("p(X, Y)");
  std::set<std::string> CallPatterns;
  TermWriter W(Syms, S.tableStore());
  for (const Subgoal *SG : S.subgoals())
    CallPatterns.insert(TermWriter::toString(Syms, S.tableStore(),
                                             SG->CallTerm));
  // The call to q was made with first argument bound to a.
  EXPECT_TRUE(CallPatterns.count("q(a,_A)")) << "captured calls:";
  EXPECT_TRUE(CallPatterns.count("p(_A,_B)"));
}

TEST_F(TablingTest, NonGroundAnswersAreSupported) {
  consult(R"(
    :- table p/2.
    p(X, Y) :- '='(X, f(Y)).
  )");
  auto Sols = query("p(A, B)");
  ASSERT_EQ(Sols.size(), 1u);
  EXPECT_EQ(Sols[0], "p(f(_A),_A)");
}

TEST_F(TablingTest, TablesPersistAcrossQueriesUntilCleared) {
  consult(":- table p/1. p(a).");
  query("p(X)");
  EXPECT_EQ(S.subgoals().size(), 1u);
  query("p(X)");
  EXPECT_EQ(S.subgoals().size(), 1u);
  S.clearTables();
  EXPECT_EQ(S.subgoals().size(), 0u);
  EXPECT_EQ(query("p(X)").size(), 1u);
}

TEST_F(TablingTest, TableSpaceAccountingIsPositive) {
  consult(R"(
    :- table path/2.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    edge(a, b). edge(b, c). edge(c, d). edge(d, e).
  )");
  query("path(X, Y)");
  EXPECT_GT(S.tableSpaceBytes(), 0u);
  size_t Before = S.tableSpaceBytes();
  S.clearTables();
  EXPECT_LT(S.tableSpaceBytes(), Before);
}

TEST_F(TablingTest, CompletionReleasesScaffoldingState) {
  // On SCC completion the evaluation-only state -- clause frontiers
  // (supplementary tables), answer dedup sets, consumer links -- must be freed:
  // a completed table never gains an answer. tableSpaceBytes() must shrink
  // by exactly the accounted amount (it no longer counts the freed state).
  consult(R"(
    :- table path/2.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    edge(a, b). edge(b, c). edge(c, d). edge(d, e).
  )");
  auto Goal = Parser::parseTerm(Syms, S.store(), "path(X, Y)");
  ASSERT_TRUE(Goal.hasValue());
  size_t N = S.solve(*Goal, nullptr);
  EXPECT_EQ(N, 10u); // 4-node chain: all ordered pairs.
  ASSERT_FALSE(S.subgoals().empty());
  for (const Subgoal *SG : S.subgoals()) {
    EXPECT_TRUE(SG->Complete);
    EXPECT_TRUE(SG->Frontiers.empty());
    EXPECT_EQ(SG->AnswerIndex, nullptr);
    EXPECT_TRUE(SG->Consumers.empty());
  }
  // The release was accounted, and the retained table space excludes it.
  EXPECT_GT(S.stats().FrontierBytesFreed, 0u);
  EXPECT_GT(S.tableSpaceBytes(), 0u);
  // Completed tables still answer repeat calls (from the table alone).
  size_t Again = S.solve(*Goal, nullptr);
  EXPECT_EQ(Again, N);
}

TEST_F(TablingTest, NestedTabledCallsKeepScratchBuffersReentrant) {
  // recordAnswer and bindFactoredAnswer build answer tuples through the
  // solver's shared BindScratch and RenameScratch buffers. Nested producer
  // runs (a tabled call made while another tabled predicate's clause body
  // is mid-flight) interleave uses of those buffers; each use must be
  // atomic — fill, use, done — or an inner call would clobber the outer
  // call's tuple. This pins the invariant with three levels of tabled
  // nesting plus interleaved variant lookups.
  consult(R"(
    :- table outer/2.
    :- table mid/2.
    :- table inner/2.
    outer(X, Y) :- mid(X, Z), mid(Z, Y).
    mid(X, Y) :- inner(X, Y).
    mid(X, Y) :- inner(X, Z), mid(Z, Y).
    inner(a, b). inner(b, c). inner(c, d).
  )");
  auto Goal = Parser::parseTerm(Syms, S.store(), "outer(a, Y)");
  ASSERT_TRUE(Goal.hasValue());
  std::set<std::string> Sols;
  S.solve(*Goal, [&]() {
    Sols.insert(TermWriter::toString(Syms, S.storeConst(), *Goal));
    return false;
  });
  // outer(a,Y): mid(a,Z) in {b,c,d}, then mid(Z,Y) — reachable in >= 2 steps.
  std::set<std::string> Expected{"outer(a,c)", "outer(a,d)"};
  EXPECT_EQ(Sols, Expected);
  // Every nested table completed and deduplicated correctly: repeat query
  // is answered from the tables alone with the same solutions.
  auto Again = Parser::parseTerm(Syms, S.store(), "outer(a, W)");
  ASSERT_TRUE(Again.hasValue());
  EXPECT_EQ(S.solve(*Again, nullptr), Sols.size());
  // Counts over both queries, pinned: a clobbered tuple would record a
  // wrong answer or split one variant into two.
  const EvalStats &St = S.stats();
  EXPECT_EQ(St.SubgoalsCreated, 9u);
  EXPECT_EQ(St.AnswersRecorded, 11u);
  EXPECT_EQ(St.TrieHits, 9u);
  EXPECT_EQ(St.TrieMisses, 46u);
}

TEST_F(TablingTest, SupplementaryGoalSeesLiveVariableBoundFurther) {
  // The supplementary frontier rebuilds goal J from a fresh clause instance
  // whose live variables are bound to the state's arguments. L stays live
  // across every goal and gains structure at each: q/1 binds it to
  // f(A, B), r/1 binds A, s/1 binds B. M first occurs in a later goal and
  // is bound there, then read by the last goal.
  consult(R"(
    :- table t/2.
    q(f(_, _)).
    r(f(a, _)). r(f(b, _)).
    s(f(b, c)). s(f(a, d)). s(f(b, d)). s(f(c, c)).
    w(f(_, c), one). w(f(a, _), two).
    t(L, M) :- q(L), r(L), w(L, M), s(L).
  )");
  std::set<std::string> Expected{"t(f(a,d),two)", "t(f(b,c),one)"};
  for (bool Supplementary : {true, false}) {
    SCOPED_TRACE(Supplementary ? "supp" : "sld");
    Solver::Options Opts;
    Opts.SupplementaryTabling = Supplementary;
    Solver Fresh(DB, Opts);
    auto Goal = Parser::parseTerm(Syms, Fresh.store(), "t(L, M)");
    ASSERT_TRUE(Goal.hasValue());
    std::set<std::string> Sols;
    Fresh.solve(*Goal, [&]() {
      Sols.insert(TermWriter::toString(Syms, Fresh.storeConst(), *Goal));
      return false;
    });
    EXPECT_EQ(Sols, Expected);
  }
}

TEST_F(TablingTest, FrontierDedupsVariantStatesAcrossSharing) {
  // Both q/1 solutions project goal 0's successor state onto the root
  // tuple (t(Z), f(g(V), g(V)), Z): the fact builds a tree with two g/1
  // cells, the rule one g/1 cell shared by both arguments, and every
  // solution has fresh variables. Variant dedup must keep one state.
  consult(R"(
    :- table t/1.
    mk(g(_)).
    q(f(g(V), g(V))).
    q(f(T, T)) :- mk(T).
    r(f(g(_), _), ok).
    t(Z) :- q(X), r(X, Z).
  )");
  auto Goal = Parser::parseTerm(Syms, S.store(), "t(Z)");
  ASSERT_TRUE(Goal.hasValue());
  EXPECT_EQ(S.solve(*Goal, nullptr), 1u);
  // Frontier probes: one state per level (three misses) and the second
  // q/1 solution as the one hit. The subgoal and its answer add one miss
  // each.
  const EvalStats &St = S.stats();
  EXPECT_EQ(St.TrieHits, 1u);
  EXPECT_EQ(St.TrieMisses, 5u);
}

TEST_F(TablingTest, GoalFromRootsMatchesBoundClauseInstance) {
  // Database::instantiateGoal builds goal J alone around a state's roots.
  // At every level of every clause, that goal and the live terms must code
  // like goal J of a whole clause instance whose live variables are bound
  // to the same terms. Covered: a repeated variable (p(X, X)), head
  // variables shared with the body, a variable first occurring at goal 1
  // (W) and one only in the last goal (V), ground goals and nesting.
  consult(R"(
    c1(X, Y) :- p(X, X), q(f(X, Z), g(Z)), r(Z, Y).
    c2(X) :- p(X, a), q(X, W), r(W, h(W, [1, X])), s(W).
    c3 :- p(a, b), q(U, U), r(U, V, V).
  )");
  SymbolId F = Syms.intern("k");
  TermStore Heap;
  size_t Checked = 0;
  for (auto [Name, Arity] : {std::pair<const char *, uint32_t>{"c1", 2},
                             {"c2", 1},
                             {"c3", 0}}) {
    const Predicate *P = DB.lookup({Syms.lookup(Name), Arity});
    ASSERT_NE(P, nullptr) << Name;
    const Clause &C = P->Clauses[0];
    for (size_t J = 0; J < C.Body.size(); ++J) {
      SCOPED_TRACE(std::string(Name) + " goal " + std::to_string(J));
      auto M = Heap.mark();
      // Live terms: fresh variables, one shared by two slots, and a
      // struct, so a mixed-up slot shows in the code.
      std::vector<TermRef> Live;
      TermRef Shared = Heap.mkVar();
      for (const Clause::BodyVar &B : C.BodyVars) {
        if (B.LastGoal < J)
          continue;
        switch (Live.size() % 3) {
        case 0:
          Live.push_back(Heap.mkVar());
          break;
        case 1:
          Live.push_back(Shared);
          break;
        default:
          Live.push_back(
              Heap.mkStruct(F, std::span<const TermRef>(&Shared, 1)));
        }
      }
      TermRef Delta = DB.instantiate(C, Heap);
      size_t K = 0;
      for (const Clause::BodyVar &B : C.BodyVars)
        if (B.LastGoal >= J)
          Heap.bind(B.Cell + Delta, Live[K++]);
      std::vector<TermRef> Old{C.Body[J] + Delta}, New{
          DB.instantiateGoal(C, J, Live, Heap)};
      Old.insert(Old.end(), Live.begin(), Live.end());
      New.insert(New.end(), Live.begin(), Live.end());
      std::vector<uint64_t> OldCode, NewCode;
      appendVariantCode(Heap, Old, OldCode);
      appendVariantCode(Heap, New, NewCode);
      EXPECT_EQ(NewCode, OldCode);
      EXPECT_EQ(TermWriter::toString(Syms, Heap, New[0]),
                TermWriter::toString(Syms, Heap, Old[0]));
      Heap.undoTo(M);
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 10u);
}

TEST_F(TablingTest, FrontierCountsArePinned) {
  // Every variant probe is pinned -- the totals and, apart from them, the
  // frontier levels' own share -- so a dedup that merged non-variants or
  // split variants would show. Frontier probes were also measured alone,
  // while a canonical-string table mode that probed only the frontiers
  // still existed: 15 hits and 108 misses.
  consult(R"(
    :- table path/2.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, W), link(W, Y).
    edge(a, b). edge(b, c). edge(c, a). edge(b, d). edge(d, a).
    link(a, a). link(b, b). link(c, c). link(d, d). link(a, d).
  )");
  for (const char *G : {"path(a, Y)", "path(X, Y)", "path(X, X)"}) {
    auto Goal = Parser::parseTerm(Syms, S.store(), G);
    ASSERT_TRUE(Goal.hasValue());
    S.solve(*Goal, nullptr);
  }
  const EvalStats &St = S.stats();
  EXPECT_EQ(St.TrieHits, 28u);
  EXPECT_EQ(St.TrieMisses, 135u);
  EXPECT_EQ(St.SubgoalsCreated, 3u);
  EXPECT_EQ(St.AnswersRecorded, 24u);
  EXPECT_EQ(St.TabledCalls, 10u);
  EXPECT_EQ(St.AnswersDuplicate, 6u);
  // Subgoal-index hits are repeat tabled calls and answer-set hits are
  // duplicate answers; every created subgoal and recorded answer was one
  // miss. The rest are frontier probes.
  EXPECT_EQ(St.TrieHits - (St.TabledCalls - St.SubgoalsCreated) -
                St.AnswersDuplicate,
            15u);
  EXPECT_EQ(St.TrieMisses - St.SubgoalsCreated - St.AnswersRecorded, 108u);
  EXPECT_GT(S.watermarks().PeakSccFrontierBytes, 0u);
}

TEST_F(TablingTest, ResetStatsLeavesTableAccountingIntact) {
  // resetStats() zeroes the run counters — including FrontierBytesFreed,
  // which feeds the "frontier_bytes_freed" metric — but tableSpaceBytes()
  // is derived from the live tables and must not move. Regression for the
  // interaction after SCC completion.
  consult(R"(
    :- table path/2.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
    edge(a, b). edge(b, c). edge(c, d). edge(d, e).
  )");
  auto Goal = Parser::parseTerm(Syms, S.store(), "path(X, Y)");
  ASSERT_TRUE(Goal.hasValue());
  size_t N = S.solve(*Goal, nullptr);
  EXPECT_EQ(N, 10u);
  size_t Bytes = S.tableSpaceBytes();
  EXPECT_GT(Bytes, 0u);
  EXPECT_GT(S.stats().FrontierBytesFreed, 0u);

  S.resetStats();
  EXPECT_EQ(S.stats().FrontierBytesFreed, 0u);
  EXPECT_EQ(S.stats().IncompleteTables, 0u);
  EXPECT_EQ(S.tableSpaceBytes(), Bytes);

  // A repeat query answers from the completed tables: no new subgoals,
  // no new scaffolding to free, accounting unchanged.
  EXPECT_EQ(S.solve(*Goal, nullptr), N);
  EXPECT_EQ(S.stats().FrontierBytesFreed, 0u);
  EXPECT_EQ(S.stats().SubgoalsCreated, 0u);
  EXPECT_EQ(S.tableSpaceBytes(), Bytes);

  S.clearTables();
  EXPECT_LT(S.tableSpaceBytes(), Bytes);
}

TEST_F(TablingTest, FindSubgoalByVariant) {
  consult(":- table p/1. p(a). p(b).");
  query("p(X)");
  auto Goal = Parser::parseTerm(Syms, S.store(), "p(Zz)");
  ASSERT_TRUE(Goal.hasValue());
  const Subgoal *SG = S.findSubgoal(*Goal);
  ASSERT_NE(SG, nullptr);
  EXPECT_EQ(S.answerCount(*SG), 2u);
  EXPECT_TRUE(SG->Complete);

  auto Bound = Parser::parseTerm(Syms, S.store(), "p(a)");
  ASSERT_TRUE(Bound.hasValue());
  EXPECT_EQ(S.findSubgoal(*Bound), nullptr);
}

TEST_F(TablingTest, RightRecursionWithSharedSubgoals) {
  // Grid reachability: many overlapping subgoals; tabling collapses them.
  std::string Prog = ":- table reach/2.\n"
                     "reach(X, Y) :- edge(X, Y).\n"
                     "reach(X, Y) :- edge(X, Z), reach(Z, Y).\n";
  for (int I = 0; I < 20; ++I) {
    Prog += "edge(n" + std::to_string(I) + ", n" + std::to_string(I + 1) +
            ").\n";
    if (I % 2 == 0)
      Prog += "edge(n" + std::to_string(I) + ", n" + std::to_string(I + 2) +
              ").\n";
  }
  consult(Prog.c_str());
  EXPECT_EQ(query("reach(n0, n20)").size(), 1u);
  EXPECT_EQ(query("reach(n20, n0)").size(), 0u);
}

TEST_F(TablingTest, TabledAndNontabledMix) {
  consult(R"(
    :- table tc/2.
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- tc(X, Z), e(Z, Y).
    e(X, Y) :- edge(X, Y).      % e/2 stays nontabled
    edge(a, b). edge(b, c).
  )");
  EXPECT_EQ(querySet("tc(a, X)").size(), 2u);
}

TEST_F(TablingTest, ZeroArityTabledPredicate) {
  consult(R"(
    :- table flag/0.
    flag :- cond.
    cond.
  )");
  EXPECT_EQ(query("flag").size(), 1u);
  EXPECT_EQ(query("flag").size(), 1u);
}

TEST_F(TablingTest, FixpointRoundsAreCounted) {
  consult(R"(
    :- table path/2.
    path(X, Y) :- path(X, Z), edge(Z, Y).
    path(X, Y) :- edge(X, Y).
    edge(a, b). edge(b, c).
  )");
  query("path(a, X)");
  EXPECT_GE(S.stats().FixpointRounds, 1u);
}

//===----------------------------------------------------------------------===//
// Static-goal memo: within one query, a frontier's later calls of a static
// goal variant replay the distinct solutions its first call kept.
//===----------------------------------------------------------------------===//

/// The answers of \p Call's table in recording order, read from \p Eng.
std::vector<std::string> tableAnswers(SymbolTable &Syms, Solver &Eng,
                                      const char *Call) {
  auto Goal = Parser::parseTerm(Syms, Eng.store(), Call);
  EXPECT_TRUE(Goal.hasValue()) << Call;
  const Subgoal *SG = Goal ? Eng.findSubgoal(*Goal) : nullptr;
  EXPECT_NE(SG, nullptr) << Call;
  std::vector<std::string> Out;
  for (size_t I = 0, N = SG ? Eng.answerCount(*SG) : 0; I < N; ++I) {
    TermStore Scratch;
    TermRef Inst = Eng.answerInstance(*SG, I, Scratch);
    Out.push_back(TermWriter::toString(Syms, Scratch, Inst));
  }
  return Out;
}

TEST_F(TablingTest, StaticGoalReplayKeepsAnswersAndTheirOrder) {
  // col/2 has duplicate solutions; t/1 calls col(c, _) from four clauses,
  // so clauses 2 to 4 replay it. Tuple-at-a-time SLD is the oracle.
  consult(R"(
    :- table t/1.
    col(c, red). col(c, blue). col(c, red).
    col(X, Y) :- X = c, Y = green.
    t(one(Y)) :- col(c, Y).
    t(two(Y)) :- col(c, Y).
    t(three(Y)) :- col(c, Y).
    t(four(Y)) :- col(c, Y), Y \== blue.
  )");
  std::vector<std::string> Want{
      "t(one(red))",    "t(one(blue))",   "t(one(green))",
      "t(two(red))",    "t(two(blue))",   "t(two(green))",
      "t(three(red))",  "t(three(blue))", "t(three(green))",
      "t(four(red))",   "t(four(green))"};
  uint64_t Resolutions[2];
  for (bool Supplementary : {true, false}) {
    SCOPED_TRACE(Supplementary ? "supp" : "sld");
    Solver::Options Opts;
    Opts.SupplementaryTabling = Supplementary;
    Solver Fresh(DB, Opts);
    auto Goal = Parser::parseTerm(Syms, Fresh.store(), "t(X)");
    ASSERT_TRUE(Goal.hasValue());
    Fresh.solve(*Goal, nullptr);
    EXPECT_EQ(tableAnswers(Syms, Fresh, "t(X)"), Want);
    Resolutions[Supplementary ? 0 : 1] = Fresh.stats().ClauseResolutions;
  }
  // SLD resolves col/2's four clauses in each of the four calls; the memo
  // only in the first.
  EXPECT_EQ(Resolutions[1] - Resolutions[0], 3u * 4u);
}

TEST_F(TablingTest, StaticGoalMemoStoresNoDepthLimitedEvaluation) {
  // Every evaluation of deep(60) passes MaxDepth. Later calls of the
  // variant must run, and poison their producer, again rather than replay
  // the truncated (empty) solutions of the first.
  consult(R"(
    :- table r/1.
    :- table p/1.
    :- table q/1.
    deep(0).
    deep(N) :- N > 0, M is N - 1, deep(M).
    p(1) :- deep(60).
    p(2) :- deep(60).
    q(3) :- deep(60).
    r(X) :- p(X).
    r(X) :- q(X).
  )");
  Solver::Options Opts;
  Opts.MaxDepth = 20;
  Solver Fresh(DB, Opts);
  auto Goal = Parser::parseTerm(Syms, Fresh.store(), "r(X)");
  ASSERT_TRUE(Goal.hasValue());
  EXPECT_EQ(Fresh.solve(*Goal, nullptr), 0u);
  for (const char *Call : {"p(X)", "q(X)"}) {
    auto C = Parser::parseTerm(Syms, Fresh.store(), Call);
    ASSERT_TRUE(C.hasValue());
    const Subgoal *SG = Fresh.findSubgoal(*C);
    ASSERT_NE(SG, nullptr) << Call;
    EXPECT_TRUE(SG->Complete) << Call;
    EXPECT_TRUE(SG->Incomplete) << Call;
  }
  EXPECT_EQ(Fresh.stats().IncompleteTables, 3u);
}

TEST_F(TablingTest, StaticGoalReplayAfterDeadlineYieldsNothing) {
  // Clause 1 stores s(a, _)'s solutions and clause 2 replays them; burn/1
  // then runs past the deadline's first clock check, and clause 4's
  // replay must yield nothing and poison t, as an evaluation would.
  consult(R"(
    :- table t/1.
    s(a, 1).
    s(X, 2) :- X = a.
    burn(0).
    burn(N) :- N > 0, M is N - 1, burn(M).
    t(1) :- s(a, _).
    t(2) :- s(a, _).
    t(3) :- burn(400).
    t(4) :- s(a, _).
  )");
  for (uint64_t DeadlineNs : {uint64_t(0), uint64_t(1)}) {
    SCOPED_TRACE(DeadlineNs ? "expired" : "no deadline");
    Solver Fresh(DB);
    QueryContext Q;
    Q.DeadlineNs = DeadlineNs;
    Fresh.setQueryContext(&Q);
    auto Goal = Parser::parseTerm(Syms, Fresh.store(), "t(X)");
    ASSERT_TRUE(Goal.hasValue());
    Fresh.solve(*Goal, nullptr);
    const Subgoal *SG = Fresh.findSubgoal(*Goal);
    ASSERT_NE(SG, nullptr);
    if (DeadlineNs == 0) {
      EXPECT_EQ(tableAnswers(Syms, Fresh, "t(X)"),
                (std::vector<std::string>{"t(1)", "t(2)", "t(3)", "t(4)"}));
      EXPECT_FALSE(SG->Incomplete);
    } else {
      EXPECT_EQ(tableAnswers(Syms, Fresh, "t(X)"),
                (std::vector<std::string>{"t(1)", "t(2)"}));
      EXPECT_TRUE(SG->Incomplete);
      EXPECT_EQ(Fresh.stats().DeadlineHits, 1u);
    }
  }
}

TEST_F(TablingTest, GoalUnderDisjunctionMakesItsCallerNonStatic) {
  // v/1 reaches tabled u/1 only under ;. u/1 gains b and c after t's
  // first run called v(X), so re-running t must call v(X) again: were
  // v/1 static, that call would be skipped (or replayed) and d lost.
  consult(R"(
    :- table t/1.
    :- table u/1.
    t(X) :- v(X).
    t(b).
    u(a).
    u(X) :- t(X).
    g(a, c). g(b, d).
    v(X) :- ( u(Y), g(Y, X) ; fail ).
  )");
  for (bool Supplementary : {true, false}) {
    SCOPED_TRACE(Supplementary ? "supp" : "sld");
    Solver::Options Opts;
    Opts.SupplementaryTabling = Supplementary;
    Solver Fresh(DB, Opts);
    auto Goal = Parser::parseTerm(Syms, Fresh.store(), "t(X)");
    ASSERT_TRUE(Goal.hasValue());
    std::set<std::string> Sols;
    Fresh.solve(*Goal, [&]() {
      Sols.insert(TermWriter::toString(Syms, Fresh.storeConst(), *Goal));
      return false;
    });
    EXPECT_EQ(Sols, (std::set<std::string>{"t(b)", "t(c)", "t(d)"}));
  }
}

//===----------------------------------------------------------------------===//
// =/2 folding: a frontier keeps no level before a =/2 goal; the step before
// it runs the unification on each of its solutions.
//===----------------------------------------------------------------------===//

struct FoldCase {
  const char *Name;
  const char *Program;
  /// Queried in order; afterwards each call's table is read back as
  /// "call: answer answer ..." in recording order.
  std::vector<const char *> Calls;
  std::vector<std::string> Want;
  uint64_t Subgoals, Answers; ///< Pinned before =/2 goals were folded.
};

/// Runs \p Case with supplementary frontiers and with tuple-at-a-time SLD:
/// both must give the wanted tables, answer order included, and the
/// pinned subgoal and answer counts.
void expectFoldMatchesSld(const FoldCase &Case) {
  SCOPED_TRACE(Case.Name);
  for (bool Supplementary : {true, false}) {
    SCOPED_TRACE(Supplementary ? "supp" : "sld");
    SymbolTable Syms;
    Database DB(Syms);
    auto R = DB.consult(Case.Program);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
    Solver::Options Opts;
    Opts.SupplementaryTabling = Supplementary;
    Solver Eng(DB, Opts);
    for (const char *Call : Case.Calls) {
      auto Goal = Parser::parseTerm(Syms, Eng.store(), Call);
      ASSERT_TRUE(Goal.hasValue()) << Call;
      Eng.solve(*Goal, nullptr);
    }
    std::vector<std::string> Got;
    for (const char *Call : Case.Calls) {
      std::string Line = std::string(Call) + ":";
      for (const std::string &A : tableAnswers(Syms, Eng, Call))
        Line += " " + A;
      Got.push_back(Line);
    }
    EXPECT_EQ(Got, Case.Want);
    EXPECT_EQ(Eng.stats().SubgoalsCreated, Case.Subgoals);
    EXPECT_EQ(Eng.stats().AnswersRecorded, Case.Answers);
  }
}

TEST(UnifyFolding, LeadingGoalsRunInTheSeed) {
  // a/2: =/2 as goal 0 binds head variable X to a compound; a(g(1), Y)
  // fails it for good. u/2 and v/1 are all =/2, so the seed goes straight
  // to the final level, or nowhere.
  expectFoldMatchesSld(
      {"leading",
       R"(
         :- table a/2.
         :- table u/2.
         :- table v/1.
         e(1). e(2). e(3).
         a(X, Y) :- X = f(Y), e(Y).
         u(X, Y) :- X = Y.
         v(X) :- X = a, X = b.
         v(X) :- X = c, Y = X, Y = c.
       )",
       {"a(X, Y)", "a(f(2), Y)", "a(g(1), Y)", "a(X, 2)", "u(X, Y)", "u(p, q)",
        "v(X)"},
       {"a(X, Y): a(f(1),1) a(f(2),2) a(f(3),3)",
        "a(f(2), Y): a(f(2),2)",
        "a(g(1), Y):",
        "a(X, 2): a(f(2),2)",
        "u(X, Y): u(_A,_A)",
        "u(p, q):",
        "v(X): v(c)"},
       7, 7});
}

TEST(UnifyFolding, GoalsAfterAStepRunOnItsSolutions) {
  // b/3: two =/2 in a row between kept levels; c/2: =/2 as the last goal,
  // binding a head variable; s/2: the Tx = a shape of the strictness
  // transform, with a failing d = e; k/2: a compound argument, so the goal
  // is built from the roots.
  expectFoldMatchesSld(
      {"after a step",
       R"(
         :- table b/3.
         :- table c/2.
         :- table s/2.
         :- table k/2.
         e(1). e(2).
         e2(1, x). e2(2, y). e2(2, z).
         dem(d). dem(e).
         b(X, Y, Z) :- e(X), Y = W, W = X, e2(Y, Z).
         c(X, Y) :- e(X), e(Z), Y = Z.
         s(A, B) :- dem(A), dem(B), T = A, T = B.
         k(X, Y) :- e(Y), X = g(Y, Z), e(Z), Z \== Y.
       )",
       {"b(X, Y, Z)", "c(X, Y)", "c(2, Y)", "s(A, B)", "s(d, B)", "k(X, Y)"},
       {"b(X, Y, Z): b(1,1,x) b(2,2,y) b(2,2,z)",
        "c(X, Y): c(1,1) c(1,2) c(2,1) c(2,2)",
        "c(2, Y): c(2,1) c(2,2)",
        "s(A, B): s(d,d) s(e,e)",
        "s(d, B): s(d,d)",
        "k(X, Y): k(g(1,2),1) k(g(2,1),2)"},
       6, 14});
}

TEST(UnifyFolding, RecursionThroughAFoldedGoal) {
  // The =/2 after p/2's recursive call folds into a step that later
  // producer runs resume with new answers only; q/2 ends in =/2 after a
  // tabled goal.
  expectFoldMatchesSld(
      {"recursive",
       R"(
         :- table p/2.
         :- table q/2.
         edge(a, b). edge(b, c). edge(c, a). edge(c, d).
         p(X, Y) :- edge(X, Y).
         p(X, Y) :- p(X, Z), W = Z, edge(W, Y).
         q(X, Y) :- p(X, Z), Y = f(Z).
       )",
       {"p(a, Y)", "q(X, Y)"},
       {"p(a, Y): p(a,b) p(a,c) p(a,a) p(a,d)",
        "q(X, Y): q(a,f(b)) q(b,f(c)) q(c,f(a)) q(c,f(d)) q(a,f(c)) "
        "q(b,f(a)) q(b,f(d)) q(c,f(b)) q(a,f(a)) q(a,f(d)) q(b,f(b)) "
        "q(c,f(c))"},
       3, 28});
}

/// FNV-1a over \p Lines, each newline-terminated.
uint64_t digestOf(const std::vector<std::string> &Lines) {
  uint64_t H = 14695981039346656037ull;
  for (const std::string &L : Lines)
    for (char C : L + "\n") {
      H ^= static_cast<uint8_t>(C);
      H *= 1099511628211ull;
    }
  return H;
}

TEST(StaticGoalMemoCorpus, SupplementaryMatchesSldOnEveryFlProgram) {
  // Tuple-at-a-time SLD never reaches the memo, so it is the memo's
  // differential. SLD takes seconds to minutes on five programs, whose
  // oracle is pinned instead as a digest of the summary lines: taken from
  // an SLD run for event, fft, odprove and pcprove, and for strassen
  // (over 12 CPU minutes under SLD) from the supplementary path before
  // the memo existed.
  const std::map<std::string, uint64_t> Pinned{
      {"event", 11573688258889986587ull},
      {"fft", 7719871840503524415ull},
      {"odprove", 15891241942276010801ull},
      {"pcprove", 3633719871678722106ull},
      {"strassen", 2493271739218154687ull}};
  auto Summaries = [](const CorpusProgram &P, bool Supplementary) {
    StrictnessAnalyzer::Options Opts;
    Opts.Engine.SupplementaryTabling = Supplementary;
    auto R = StrictnessAnalyzer(Opts).analyze(P.Source);
    std::vector<std::string> Out;
    EXPECT_TRUE(R.hasValue()) << R.getError().str();
    if (R) {
      EXPECT_FALSE(R->Incomplete);
      for (const FuncStrictness &F : R->Functions)
        Out.push_back(F.summary());
    }
    return Out;
  };
  for (const CorpusProgram &P : flBenchmarks()) {
    SCOPED_TRACE(P.Name);
    std::vector<std::string> Supp = Summaries(P, true);
    EXPECT_FALSE(Supp.empty());
    auto It = Pinned.find(P.Name);
    if (It != Pinned.end())
      EXPECT_EQ(digestOf(Supp), It->second);
    else
      EXPECT_EQ(Supp, Summaries(P, false));
  }
}

} // namespace
