//===- depthk_test.cpp - Depth-k abstraction tests ---------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "depthk/AbstractDomain.h"
#include "depthk/DepthK.h"
#include "reader/Parser.h"
#include "term/TermWriter.h"

#include <gtest/gtest.h>

using namespace lpa;

namespace {

//===----------------------------------------------------------------------===//
// AbstractDomain unit tests
//===----------------------------------------------------------------------===//

class DomainTest : public ::testing::Test {
protected:
  DomainTest() : Dom(Syms, 2) {}

  TermRef parse(const char *Text) {
    auto T = Parser::parseTerm(Syms, S, Text);
    EXPECT_TRUE(T.hasValue()) << Text;
    return *T;
  }
  TermRef gamma() { return S.mkAtom(Dom.gammaSymbol()); }
  std::string str(TermRef T) { return TermWriter::toString(Syms, S, T); }

  SymbolTable Syms;
  TermStore S;
  AbstractDomain Dom;
};

TEST_F(DomainTest, GammaUnifiesWithGroundTerms) {
  EXPECT_TRUE(Dom.unifyAbstract(S, gamma(), parse("f(a, b)")));
  EXPECT_TRUE(Dom.unifyAbstract(S, parse("42"), gamma()));
}

TEST_F(DomainTest, GammaGroundsVariables) {
  TermRef T = parse("f(X, g(Y))");
  ASSERT_TRUE(Dom.unifyAbstract(S, gamma(), T));
  // X and Y are now gamma: the term denotes only ground instances.
  EXPECT_TRUE(Dom.isGroundAbstract(S, T));
}

TEST_F(DomainTest, StructuralMismatchStillFails) {
  EXPECT_FALSE(Dom.unifyAbstract(S, parse("f(a)"), parse("g(a)")));
  EXPECT_FALSE(Dom.unifyAbstract(S, parse("a"), parse("b")));
}

TEST_F(DomainTest, OccursCheckHolds) {
  TermRef V = S.mkVar();
  TermRef F = S.mkStruct(Syms.intern("f"), std::span<const TermRef>(&V, 1));
  EXPECT_FALSE(Dom.unifyAbstract(S, V, F));
}

TEST_F(DomainTest, DepthCutGroundBecomesGamma) {
  VarRenaming R;
  // Depth 2: f(g(h(a))) cuts below g: h(a) is ground -> gamma.
  TermRef T = parse("f(g(h(a)))");
  TermRef Cut = Dom.depthCut(S, T, S, R);
  EXPECT_EQ(str(Cut), "f(g('$gamma'))");
}

TEST_F(DomainTest, DepthCutNonGroundBecomesVariable) {
  VarRenaming R;
  TermRef T = parse("f(g(h(X)))");
  TermRef Cut = Dom.depthCut(S, T, S, R);
  EXPECT_EQ(str(Cut), "f(g(_A))");
}

TEST_F(DomainTest, DepthCutPreservesShallowStructure) {
  VarRenaming R;
  TermRef T = parse("f(a, X, g(b))");
  TermRef Cut = Dom.depthCut(S, T, S, R);
  EXPECT_EQ(str(Cut), "f(a,_A,g(b))");
}

TEST_F(DomainTest, DepthCutSharedVariables) {
  VarRenaming R;
  TermRef T = parse("f(X, X)");
  TermRef Cut = Dom.depthCut(S, T, S, R);
  TermRef A0 = S.deref(S.arg(Cut, 0));
  TermRef A1 = S.deref(S.arg(Cut, 1));
  EXPECT_EQ(A0, A1);
}

TEST_F(DomainTest, GroundifyBindsAllVariables) {
  TermRef T = parse("f(X, g(Y, a))");
  Dom.groundify(S, T);
  EXPECT_TRUE(Dom.isGroundAbstract(S, T));
  EXPECT_EQ(str(T), "f('$gamma',g('$gamma',a))");
}

//===----------------------------------------------------------------------===//
// End-to-end depth-k analysis
//===----------------------------------------------------------------------===//

class DepthKTest : public ::testing::Test {
protected:
  DepthKResult analyze(const char *Source, unsigned Depth = 2) {
    SymbolTable Syms;
    DepthKAnalyzer::Options Opts;
    Opts.Depth = Depth;
    DepthKAnalyzer A(Syms, Opts);
    auto R = A.analyze(Source);
    EXPECT_TRUE(R.hasValue()) << (R ? "" : R.getError().str());
    return R ? std::move(*R) : DepthKResult();
  }
};

TEST_F(DepthKTest, AppendGroundness) {
  auto R = analyze(R"(
    ap([], Ys, Ys).
    ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
  )");
  const DepthKPred *Ap = R.find("ap", 3);
  ASSERT_NE(Ap, nullptr);
  EXPECT_TRUE(Ap->CanSucceed);
  // Open call: nothing is ground on success in general.
  EXPECT_EQ(Ap->GroundOnSuccess, (std::vector<uint8_t>{0, 0, 0}));
}

TEST_F(DepthKTest, GroundFacts) {
  auto R = analyze("p(a, f(b)). p(c, f(d)).");
  const DepthKPred *P = R.find("p", 2);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->GroundOnSuccess, (std::vector<uint8_t>{1, 1}));
}

TEST_F(DepthKTest, ArithmeticGrounds) {
  auto R = analyze(R"(
    len([], 0).
    len([_|T], N) :- len(T, M), N is M + 1.
  )");
  const DepthKPred *L = R.find("len", 2);
  ASSERT_NE(L, nullptr);
  EXPECT_EQ(L->GroundOnSuccess, (std::vector<uint8_t>{0, 1}));
}

TEST_F(DepthKTest, StructureIsMorePreciseThanProp) {
  // Depth-k tracks which *part* of a structure is ground: the Prop domain
  // can only say "arg 2 is not always ground"; depth-k sees pair(g, var).
  auto R = analyze("mk(X, pair(a, X)).");
  const DepthKPred *M = R.find("mk", 2);
  ASSERT_NE(M, nullptr);
  ASSERT_EQ(M->AnswerPatterns.size(), 1u);
  EXPECT_EQ(M->AnswerPatterns[0], "mk(_A,pair(a,_A))");
}

TEST_F(DepthKTest, DeepTermsAreCutFinite) {
  // s(s(s(...))) recursion: depth cut keeps the table finite.
  auto R = analyze(R"(
    nat(z).
    nat(s(X)) :- nat(X).
  )", 2);
  const DepthKPred *N = R.find("nat", 1);
  ASSERT_NE(N, nullptr);
  EXPECT_TRUE(N->CanSucceed);
  // Patterns: z, s(z), s(s(...)) widened at depth 2.
  EXPECT_LE(N->AnswerPatterns.size(), 4u);
  EXPECT_GE(R.FixpointRounds, 2u);
}

TEST_F(DepthKTest, NeverSucceeds) {
  auto R = analyze("p(X) :- fail.");
  const DepthKPred *P = R.find("p", 1);
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(P->CanSucceed);
}

TEST_F(DepthKTest, CallPatternsAreRecorded) {
  auto R = analyze(R"(
    main(Y) :- helper(a, Y).
    helper(X, X).
  )");
  const DepthKPred *H = R.find("helper", 2);
  ASSERT_NE(H, nullptr);
  // Two call patterns: the analyzer's open call and main's helper(a, _).
  EXPECT_EQ(H->CallPatterns.size(), 2u);
}

TEST_F(DepthKTest, DepthOneIsCoarserThanDepthTwo) {
  const char *Prog = "p(f(g(a))). p(f(g(b))).";
  auto R1 = analyze(Prog, 1);
  auto R2 = analyze(Prog, 3);
  const DepthKPred *P1 = R1.find("p", 1);
  const DepthKPred *P2 = R2.find("p", 1);
  ASSERT_NE(P1, nullptr);
  ASSERT_NE(P2, nullptr);
  // Depth 1 widens both facts to one pattern p(f(gamma)) [cut below f];
  // depth 3 keeps them apart.
  EXPECT_EQ(P1->AnswerPatterns.size(), 1u);
  EXPECT_EQ(P2->AnswerPatterns.size(), 2u);
  // Both agree the argument is ground.
  EXPECT_EQ(P1->GroundOnSuccess, P2->GroundOnSuccess);
}

TEST_F(DepthKTest, MetricsPopulated) {
  auto R = analyze("p(a).");
  EXPECT_GT(R.TableSpaceBytes, 0u);
  EXPECT_GE(R.NumCallPatterns, 1u);
  EXPECT_GE(R.NumAnswers, 1u);
}

} // namespace
