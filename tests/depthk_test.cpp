//===- depthk_test.cpp - Depth-k abstraction tests ---------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "depthk/AbstractDomain.h"
#include "depthk/DepthK.h"
#include "reader/Parser.h"
#include "term/TermWriter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

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

//===----------------------------------------------------------------------===//
// Clause-body states: projection, edge cases, pinned corpus results
//===----------------------------------------------------------------------===//

/// Sorted canonical rendering of a result: per predicate (sorted), its
/// answer patterns and call patterns (each sorted), ground bits and
/// whether it can succeed.
std::string renderSorted(const DepthKResult &R) {
  std::vector<std::string> Preds;
  for (const DepthKPred &P : R.Predicates) {
    std::string Line = P.Name + "/" + std::to_string(P.Arity) + " succeeds=" +
                       std::to_string(P.CanSucceed) + " ground=";
    for (uint8_t G : P.GroundOnSuccess)
      Line += char('0' + G);
    auto Append = [&](const char *Tag, std::vector<std::string> Items) {
      std::sort(Items.begin(), Items.end());
      Line += Tag;
      for (const std::string &I : Items)
        Line += " " + I;
    };
    Append(" answers:", P.AnswerPatterns);
    Append(" calls:", P.CallPatterns);
    Preds.push_back(std::move(Line));
  }
  std::sort(Preds.begin(), Preds.end());
  std::string Out;
  for (const std::string &L : Preds)
    Out += L + "\n";
  return Out;
}

/// Rendering in result order: each predicate's answer patterns and call
/// patterns in the order they were first recorded.
std::string renderOrdered(const DepthKResult &R) {
  std::string Out;
  for (const DepthKPred &P : R.Predicates) {
    for (const std::string &A : P.AnswerPatterns)
      Out += A + ";";
    for (const std::string &C : P.CallPatterns)
      Out += C + ";";
    Out += "\n";
  }
  return Out;
}

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

TEST_F(DepthKTest, CorpusResultsPinned) {
  // Measured before clause-body states were projected onto their live
  // variables; the projection must change no result, no order of first
  // appearance, no count and no justification.
  struct Pin {
    const char *Name;
    uint64_t SortedFnv, OrderedFnv;
    uint64_t CallPatterns, Answers, ProducerRuns, Widenings, Premises;
  };
  const Pin Pins[] = {
      {"cs", 0xcc07d0aa48b44cc0ull,
       0x670db595e0e1136aull, 361, 1467, 1274, 29, 2511},
      {"disj", 0x8ad609eb6e52c314ull,
       0x5b40925a6f6faa0aull, 176, 463, 476, 2, 715},
      {"gabriel", 0x6c84828cddb438dfull,
       0xd3dae6fabec55010ull, 111, 413, 327, 8, 585},
      {"kalah", 0xf1df3fd2f6e2149cull,
       0xc193e74a3a488202ull, 545, 1939, 1838, 24, 3256},
      {"peep", 0x2787cf969b3b3204ull,
       0x2a73ae064ea0e711ull, 304, 1147, 808, 34, 1818},
      {"pg", 0x6f84f6bfe8854029ull,
       0x17554fc189a2cd05ull, 120, 220, 299, 8, 306},
      {"plan", 0x62366fa994883b5full,
       0xf26b0c82c0a177e5ull, 299, 1192, 1033, 24, 2379},
      {"press1", 0xbbd3c75f20ea9930ull,
       0xb96813097f857cddull, 943, 3113, 2769, 187, 4348},
      {"press2", 0x806d5625ea143b45ull,
       0x972c9bde8f4aab15ull, 1073, 3323, 2976, 192, 4452},
      {"qsort", 0x98c434d8b2a48887ull,
       0x38302e4552257cc7ull, 47, 131, 124, 2, 206},
      {"queens", 0x02f1cc3d521fb1d6ull,
       0x763364782db4c985ull, 62, 165, 166, 0, 225},
      {"read", 0x9f8e2b3865f5ec65ull,
       0x6fcc1f1cd7e00ddcull, 359, 1062, 1079, 133, 1808},
  };
  ASSERT_EQ(prologBenchmarks().size(), std::size(Pins));
  for (const Pin &P : Pins) {
    SCOPED_TRACE(P.Name);
    const CorpusProgram *Prog = findBenchmark(P.Name);
    ASSERT_NE(Prog, nullptr);
    SymbolTable Syms;
    DepthKAnalyzer::Options Opts;
    Opts.RecordProvenance = true;
    DepthKAnalyzer A(Syms, Opts);
    auto R = A.analyze(Prog->Source);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
    EXPECT_EQ(fnv1a(renderSorted(*R)), P.SortedFnv);
    EXPECT_EQ(fnv1a(renderOrdered(*R)), P.OrderedFnv);
    EXPECT_EQ(R->NumCallPatterns, P.CallPatterns);
    EXPECT_EQ(R->NumAnswers, P.Answers);
    EXPECT_EQ(R->FixpointRounds, P.ProducerRuns);
    EXPECT_EQ(R->Widenings, P.Widenings);
    EXPECT_EQ(R->JustifiedAnswers, R->NumAnswers);
    EXPECT_EQ(R->JustificationPremises, P.Premises);
    EXPECT_EQ(R->DanglingPremises, 0u);
  }
}

TEST_F(DepthKTest, DeadVariablesCollapseStates) {
  // q/2 has two answers that differ only in B, which is dead after the
  // first goal of p/1: both solutions reach the same clause-body state,
  // so p/1 derives its one answer once.
  const char *Prog = R"(
    q(a, x).
    q(a, y).
    r(a).
    p(A) :- q(A, B), r(A).
  )";
  SymbolTable Syms;
  MetricsRegistry M;
  DepthKAnalyzer::Options Opts;
  Opts.RecordProvenance = true;
  Opts.Metrics = &M;
  DepthKAnalyzer A(Syms, Opts);
  auto R = A.analyze(Prog);
  ASSERT_TRUE(R.hasValue()) << R.getError().str();
  const DepthKPred *P = R->find("p", 1);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->AnswerPatterns, (std::vector<std::string>{"p(a)"}));
  EXPECT_EQ(P->GroundOnSuccess, (std::vector<uint8_t>{1}));
  const DepthKPred *Q = R->find("q", 2);
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Q->AnswerPatterns.size(), 2u);
  EXPECT_EQ(R->DanglingPremises, 0u);
  EXPECT_EQ(R->JustifiedAnswers, R->NumAnswers);
  const PredMetrics *PM = nullptr;
  for (const PredMetrics *X : M.predicates())
    if (X->Name == "p" && X->Arity == 1)
      PM = X;
  ASSERT_NE(PM, nullptr);
  EXPECT_EQ(PM->NewAnswers, 1u);
  EXPECT_EQ(PM->DupAnswers, 0u); // One final state, not one per q answer.

  SymbolTable Syms2;
  DepthKAnalyzer E(Syms2);
  auto Text = E.explain(Prog, "p", 1, 0);
  ASSERT_TRUE(Text.hasValue()) << Text.getError().str();
  EXPECT_NE(Text->find("why p/1"), std::string::npos) << *Text;
  EXPECT_NE(Text->find("q(a,x)"), std::string::npos) << *Text;
  EXPECT_NE(Text->find("r(a)"), std::string::npos) << *Text;
}

TEST_F(DepthKTest, FactsNeedNoBodyStates) {
  auto R = analyze("f(a, X). f(b, c).");
  const DepthKPred *F = R.find("f", 2);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->AnswerPatterns,
            (std::vector<std::string>{"f(a,_A)", "f(b,c)"}));
  EXPECT_EQ(F->GroundOnSuccess, (std::vector<uint8_t>{1, 0}));
}

TEST_F(DepthKTest, HeadUnificationFailure) {
  // The call p(b) matches no clause head of p/1, so main/0 cannot succeed.
  auto R = analyze(R"(
    p(a).
    main :- p(b).
  )");
  const DepthKPred *Main = R.find("main", 0);
  ASSERT_NE(Main, nullptr);
  EXPECT_FALSE(Main->CanSucceed);
  const DepthKPred *P = R.find("p", 1);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->CallPatterns, (std::vector<std::string>{"p(_A)", "p(b)"}));
}

TEST_F(DepthKTest, ArityZeroPredicates) {
  auto R = analyze(R"(
    go :- ready, steady.
    ready.
    steady :- ready.
    stuck :- missing.
  )");
  for (const char *Name : {"go", "ready", "steady"}) {
    const DepthKPred *P = R.find(Name, 0);
    ASSERT_NE(P, nullptr) << Name;
    EXPECT_TRUE(P->CanSucceed) << Name;
    EXPECT_EQ(P->AnswerPatterns, (std::vector<std::string>{Name}));
  }
  const DepthKPred *Stuck = R.find("stuck", 0);
  ASSERT_NE(Stuck, nullptr);
  EXPECT_FALSE(Stuck->CanSucceed);
}

TEST_F(DepthKTest, LongClauseBody) {
  // A 40-goal chain X0 -> X1 -> ... -> X40 over an s/2 that relates each
  // of a and b to both: 2^41 paths through the body. After goal I only
  // X0 (in the call) and X(I+1) are live, so each level holds at most
  // four states.
  std::string Prog = "s(a, a). s(a, b). s(b, a). s(b, b).\n"
                     "chain(X0, X40) :- ";
  for (int I = 0; I < 40; ++I)
    Prog += (I ? ", s(X" : "s(X") + std::to_string(I) + ", X" +
            std::to_string(I + 1) + ")";
  Prog += ".\n";
  auto R = analyze(Prog.c_str());
  const DepthKPred *C = R.find("chain", 2);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->AnswerPatterns,
            (std::vector<std::string>{"chain(a,a)", "chain(a,b)",
                                      "chain(b,a)", "chain(b,b)"}));
  EXPECT_EQ(C->GroundOnSuccess, (std::vector<uint8_t>{1, 1}));
  // The open calls of chain/2 and s/2, plus s(a,_) and s(b,_).
  EXPECT_EQ(R.NumCallPatterns, 4u);
}

//===----------------------------------------------------------------------===//
// Widenings
//===----------------------------------------------------------------------===//

/// The value of the named counter or watermark in \p Items, or ~0.
uint64_t lookup(const std::vector<std::pair<std::string, uint64_t>> &Items,
                const std::string &Name) {
  for (const auto &[N, V] : Items)
    if (N == Name)
      return V;
  return ~uint64_t(0);
}

TEST_F(DepthKTest, CallWideningServesFromTheOpenEntry) {
  const char *Prog = R"(
    main(Y, Z) :- helper(a, Y), helper(b, Z).
    helper(X, X).
  )";
  SymbolTable Syms;
  DepthKAnalyzer::Options Opts;
  Opts.MaxCallsPerPred = 1;
  DepthKAnalyzer A(Syms, Opts);
  auto R = A.analyze(Prog);
  ASSERT_TRUE(R.hasValue()) << R.getError().str();
  // helper(a,_) takes the one closed pattern; helper(b,_) is widened to
  // the open call, which it creates, and takes no position of its own.
  const DepthKPred *H = R->find("helper", 2);
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->CallPatterns,
            (std::vector<std::string>{"helper(a,_A)", "helper(_A,_B)"}));
  EXPECT_EQ(R->NumCallPatterns, 3u);
  // The open entry's answer helper(_A,_A) still binds Z to b.
  const DepthKPred *M = R->find("main", 2);
  ASSERT_NE(M, nullptr);
  EXPECT_EQ(M->AnswerPatterns, (std::vector<std::string>{"main(a,b)"}));

  // Unwidened, the second call pattern gets its own entry.
  auto Plain = analyze(Prog);
  EXPECT_EQ(Plain.find("helper", 2)->CallPatterns,
            (std::vector<std::string>{"helper(a,_A)", "helper(b,_A)",
                                      "helper(_A,_B)"}));
}

TEST_F(DepthKTest, AnswerWideningFoldsToTheLgg) {
  SymbolTable Syms;
  MetricsRegistry M;
  DepthKAnalyzer::Options Opts;
  Opts.MaxAnswersPerCall = 2;
  Opts.Metrics = &M;
  DepthKAnalyzer A(Syms, Opts);
  // The third answer folds the set to its lgg; the fourth is an instance
  // of the fold, so it is a duplicate.
  auto R = A.analyze("p(a, f(a)). p(b, f(b)). p(c, f(c)). p(d, f(d)).");
  ASSERT_TRUE(R.hasValue()) << R.getError().str();
  const DepthKPred *P = R->find("p", 2);
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->AnswerPatterns,
            (std::vector<std::string>{"p('$gamma',f('$gamma'))"}));
  EXPECT_EQ(P->GroundOnSuccess, (std::vector<uint8_t>{1, 1}));
  EXPECT_EQ(R->Widenings, 1u);
  EXPECT_EQ(R->NumAnswers, 1u);
  const PredMetrics *PM = nullptr;
  for (const PredMetrics *X : M.predicates())
    if (X->Name == "p" && X->Arity == 2)
      PM = X;
  ASSERT_NE(PM, nullptr);
  EXPECT_EQ(PM->NewAnswers, 3u);
  EXPECT_EQ(PM->DupAnswers, 1u);

  // The fold freed the old answer set, so the tables shrank; the peak
  // keeps what they held before.
  uint64_t Final = lookup(M.counters(), "table_space_bytes");
  EXPECT_EQ(Final, R->TableSpaceBytes);
  EXPECT_GT(lookup(M.watermarks(), "peak_table_space_bytes"), Final);
}

} // namespace
