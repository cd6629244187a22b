//===- engine_test.cpp - SLD resolution and builtin tests -------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "engine/Solver.h"
#include "reader/Parser.h"
#include "term/TermCopy.h"
#include "term/TermWriter.h"
#include "term/Variant.h"

#include <gtest/gtest.h>

#include <set>

using namespace lpa;

namespace {

/// Fixture: a database + solver, with helpers to consult programs and
/// collect solutions as rendered strings.
class EngineTest : public ::testing::Test {
protected:
  EngineTest() : DB(Syms), S(DB) {}

  void consult(const char *Text) {
    auto R = DB.consult(Text);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
  }

  /// Solves GoalText; returns rendered solutions of the whole goal term.
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

  size_t count(const char *GoalText) { return query(GoalText).size(); }

  SymbolTable Syms;
  Database DB;
  Solver S;
};

TEST_F(EngineTest, ClauseTemplatesAreSelfContainedAndMatchRenaming) {
  // Facts, rules, 'true' conjuncts, nested conjunctions, a metacall goal
  // and head-only/body-only variables. Each template must reference only
  // its own cells (the trailing ':-'/',' wrappers are cut off), and its
  // instance must equal the head and goals renamed through one map.
  consult(R"(
    f(a, X, g(X)).
    r(X, Y) :- p(X, Z), q(Z, Y), true.
    s(X) :- (t(X), u(X, W)), v(W, Y, [Y|_]).
    m(G) :- call(G), G.
    t :- true.
  )");
  const TermStore &CS = DB.store();
  for (PredKey K : DB.predicates())
    for (const Clause &C : DB.lookup(K)->Clauses) {
      for (TermRef I = C.Lo; I < C.Hi; ++I) {
        if (CS.tag(I) == TermTag::Ref) {
          EXPECT_TRUE(CS.deref(I) >= C.Lo && CS.deref(I) < C.Hi);
        } else if (CS.tag(I) == TermTag::Struct) {
          EXPECT_LT(CS.arg(I, CS.arity(I) - 1), C.Hi);
        }
      }
      TermStore Inst, Old;
      TermRef Delta = DB.instantiate(C, Inst);
      VarRenaming R;
      std::vector<TermRef> InstParts{C.Head + Delta},
          OldParts{copyTerm(CS, C.Head, Old, R)};
      for (TermRef G : C.Body) {
        InstParts.push_back(G + Delta);
        OldParts.push_back(copyTerm(CS, G, Old, R));
      }
      TermRef InstAll = Inst.mkStruct(Syms.intern("$c"), InstParts);
      TermRef OldAll = Old.mkStruct(Syms.intern("$c"), OldParts);
      EXPECT_EQ(canonicalKey(Inst, InstAll), canonicalKey(Old, OldAll))
          << Syms.name(K.Sym) << "/" << K.Arity;
    }
}

TEST_F(EngineTest, FactsSucceed) {
  consult("p(a). p(b).");
  EXPECT_EQ(count("p(a)"), 1u);
  EXPECT_EQ(count("p(c)"), 0u);
  EXPECT_EQ(count("p(X)"), 2u);
}

TEST_F(EngineTest, SolutionsEnumerateInClauseOrder) {
  consult("color(red). color(green). color(blue).");
  auto Sols = query("color(X)");
  ASSERT_EQ(Sols.size(), 3u);
  EXPECT_EQ(Sols[0], "color(red)");
  EXPECT_EQ(Sols[1], "color(green)");
  EXPECT_EQ(Sols[2], "color(blue)");
}

TEST_F(EngineTest, ConjunctionJoins) {
  consult("p(a). p(b). q(b). q(c).");
  auto Sols = query("(p(X), q(X))");
  ASSERT_EQ(Sols.size(), 1u);
  EXPECT_EQ(Sols[0], "(p(b), q(b))");
}

TEST_F(EngineTest, RecursionOverLists) {
  consult(R"(
    ap([], Ys, Ys).
    ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
  )");
  auto Sols = query("ap([1,2], [3], Z)");
  ASSERT_EQ(Sols.size(), 1u);
  EXPECT_EQ(Sols[0], "ap([1,2],[3],[1,2,3])");
  // Backward mode: split [1,2,3] in all 4 ways.
  EXPECT_EQ(count("ap(X, Y, [1,2,3])"), 4u);
}

TEST_F(EngineTest, ArithmeticBuiltins) {
  EXPECT_EQ(count("'is'(X, 3 + 4 * 2)"), 1u);
  auto Sols = query("'is'(X, 3 + 4 * 2)");
  EXPECT_EQ(Sols[0], "is(11,+(3,*(4,2)))");
  EXPECT_EQ(count("'<'(1, 2)"), 1u);
  EXPECT_EQ(count("'<'(2, 1)"), 0u);
  EXPECT_EQ(count("'=<'(2, 2)"), 1u);
  EXPECT_EQ(count("'=:='(4, 2 + 2)"), 1u);
  EXPECT_EQ(count("'is'(X, 1 // 0)"), 0u); // Division by zero fails.
}

TEST_F(EngineTest, PrologModSemantics) {
  auto Sols = query("'is'(X, -7 mod 3)");
  ASSERT_EQ(Sols.size(), 1u);
  EXPECT_EQ(Sols[0], "is(2,mod(-7,3))");
}

TEST_F(EngineTest, UnifyAndNotUnify) {
  EXPECT_EQ(count("'='(f(X, b), f(a, Y))"), 1u);
  EXPECT_EQ(count("'\\\\='(a, b)"), 1u);
  EXPECT_EQ(count("'\\\\='(X, b)"), 0u);
}

TEST_F(EngineTest, TypeTests) {
  EXPECT_EQ(count("atom(foo)"), 1u);
  EXPECT_EQ(count("atom(f(x))"), 0u);
  EXPECT_EQ(count("integer(3)"), 1u);
  EXPECT_EQ(count("var(X)"), 1u);
  EXPECT_EQ(count("nonvar(f(X))"), 1u);
  EXPECT_EQ(count("compound(f(X))"), 1u);
  EXPECT_EQ(count("atomic(3)"), 1u);
}

TEST_F(EngineTest, CutPrunesAlternatives) {
  consult(R"(
    max(X, Y, X) :- X >= Y, !.
    max(_, Y, Y).
    first(X, [X|_]) :- !.
  )");
  EXPECT_EQ(count("max(3, 2, M)"), 1u);
  auto Sols = query("max(3, 2, M)");
  EXPECT_EQ(Sols[0], "max(3,2,3)");
  auto Sols2 = query("max(2, 3, M)");
  ASSERT_EQ(Sols2.size(), 1u);
  EXPECT_EQ(Sols2[0], "max(2,3,3)");
  EXPECT_EQ(count("first(X, [1,2,3])"), 1u);
}

TEST_F(EngineTest, CutIsLocalToClause) {
  consult(R"(
    p(1). p(2).
    q(X) :- p(X), !.
    r(X, Y) :- q(X), p(Y).
  )");
  // The cut in q prunes p's alternatives inside q only.
  EXPECT_EQ(count("r(X, Y)"), 2u);
}

TEST_F(EngineTest, NegationAsFailure) {
  consult("p(a).");
  EXPECT_EQ(count("'\\\\+'(p(b))"), 1u);
  EXPECT_EQ(count("'\\\\+'(p(a))"), 0u);
  // Bindings made inside \+ do not leak.
  consult("ok(X) :- \\+ p(X).");
  EXPECT_EQ(count("ok(b)"), 1u);
}

TEST_F(EngineTest, DisjunctionAndIfThenElse) {
  consult("p(1). p(2).");
  EXPECT_EQ(count("(p(X) ; p(X))"), 4u);
  consult("sign(X, pos) :- (X > 0 -> true ; fail). "
          "sign(X, neg) :- (X > 0 -> fail ; true).");
  auto Sols = query("sign(3, S)");
  ASSERT_EQ(Sols.size(), 1u);
  EXPECT_EQ(Sols[0], "sign(3,pos)");
  auto Sols2 = query("sign(-3, S)");
  ASSERT_EQ(Sols2.size(), 1u);
  EXPECT_EQ(Sols2[0], "sign(-3,neg)");
}

TEST_F(EngineTest, IfThenElseCommitsToFirstConditionSolution) {
  consult("p(1). p(2). test(Y) :- (p(X) -> '='(Y, X) ; '='(Y, none)).");
  auto Sols = query("test(Y)");
  ASSERT_EQ(Sols.size(), 1u);
  EXPECT_EQ(Sols[0], "test(1)");
}

TEST_F(EngineTest, CallMeta) {
  consult("p(a). p(b).");
  EXPECT_EQ(count("call(p(X))"), 2u);
}

TEST_F(EngineTest, BetweenEnumerates) {
  EXPECT_EQ(count("between(1, 5, X)"), 5u);
  EXPECT_EQ(count("between(1, 5, 3)"), 1u);
  EXPECT_EQ(count("between(1, 5, 9)"), 0u);
}

TEST_F(EngineTest, FunctorArgUniv) {
  EXPECT_EQ(query("functor(f(a,b), N, A)")[0], "functor(f(a,b),f,2)");
  EXPECT_EQ(query("functor(T, f, 2)")[0], "functor(f(_A,_B),f,2)");
  EXPECT_EQ(query("arg(2, f(a,b), X)")[0], "arg(2,f(a,b),b)");
  EXPECT_EQ(query("'=..'(f(a,b), L)")[0], "=..(f(a,b),[f,a,b])");
  EXPECT_EQ(query("'=..'(T, [g,1,2])")[0], "=..(g(1,2),[g,1,2])");
}

TEST_F(EngineTest, UndefinedPredicateFails) {
  EXPECT_EQ(count("no_such_pred(a)"), 0u);
}

TEST_F(EngineTest, FirstArgIndexingPreservesSemantics) {
  consult(R"(
    t(a, 1). t(b, 2). t(c, 3). t(X, 0) :- atom(X).
  )");
  EXPECT_EQ(count("t(b, N)"), 2u); // t(b,2) and the var-headed clause.
  // With X unbound the atom(X) guard fails, leaving the three facts.
  EXPECT_EQ(count("t(X, N)"), 3u);
}

TEST_F(EngineTest, DeepRecursionHitsDepthLimitGracefully) {
  Solver::Options Opts;
  Opts.MaxDepth = 100;
  Solver Limited(DB, Opts);
  consult("loop :- loop.");
  auto Goal = Parser::parseTerm(Syms, Limited.store(), "loop");
  ASSERT_TRUE(Goal.hasValue());
  EXPECT_EQ(Limited.solve(*Goal, nullptr), 0u);
  EXPECT_GT(Limited.stats().DepthLimitHits, 0u);
}

TEST_F(EngineTest, SolveAllSnapshotsSurviveBacktracking) {
  consult("p(f(1)). p(f(2)).");
  auto Goal = Parser::parseTerm(Syms, S.store(), "p(X)");
  ASSERT_TRUE(Goal.hasValue());
  TermStore Out;
  auto Results = S.solveAll(*Goal, Out);
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(TermWriter::toString(Syms, Out, Results[0]), "p(f(1))");
  EXPECT_EQ(TermWriter::toString(Syms, Out, Results[1]), "p(f(2))");
}

TEST_F(EngineTest, StopRequestEndsSearch) {
  consult("p(1). p(2). p(3).");
  auto Goal = Parser::parseTerm(Syms, S.store(), "p(X)");
  ASSERT_TRUE(Goal.hasValue());
  size_t Calls = 0;
  size_t N = S.solve(*Goal, [&]() {
    ++Calls;
    return Calls == 2;
  });
  EXPECT_EQ(N, 2u);
}

TEST_F(EngineTest, IffTruthTable) {
  // iff(X, Y, Z) is the truth table of X <-> Y /\ Z: 4 rows.
  auto Sols = query("iff(X, Y, Z)");
  std::set<std::string> Set(Sols.begin(), Sols.end());
  std::set<std::string> Expected{
      "iff(true,true,true)", "iff(false,false,true)",
      "iff(false,true,false)", "iff(false,false,false)"};
  EXPECT_EQ(Set, Expected);
}

TEST_F(EngineTest, IffRespectsBoundArguments) {
  EXPECT_EQ(count("iff(true, true, true)"), 1u);
  EXPECT_EQ(count("iff(true, false, true)"), 0u);
  EXPECT_EQ(count("iff(X, true, true)"), 1u);  // Forces X = true.
  EXPECT_EQ(count("iff(false, X, Y)"), 3u);
  EXPECT_EQ(count("iff(X)"), 1u);              // Empty conjunction: X = true.
}

TEST_F(EngineTest, IffSharedVariables) {
  // iff(X, X): X <-> X. Both rows satisfy.
  EXPECT_EQ(count("iff(X, X)"), 2u);
  // iff(X, X, Y): X <-> (X /\ Y): rows (t,t,t),(f,f,t),(f,f,f).
  EXPECT_EQ(count("iff(X, X, Y)"), 3u);
}

TEST_F(EngineTest, StatsCountResolutions) {
  consult("p(a). p(b).");
  S.resetStats();
  query("p(X)");
  EXPECT_GE(S.stats().ClauseResolutions, 2u);
}

} // namespace
