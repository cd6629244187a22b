//===- justify_test.cpp - Answer provenance & forest export tests -------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The justification suite (ctest -L just): answer provenance recording
// under both clause-evaluation modes,
// proof-tree reconstruction (well-foundedness, cycle guard, bounded
// elision), the null-cost disabled path, analyzer explain() entry points,
// SLG forest export (DOT + JSON), and justification validity under the
// parallel fleet.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "engine/Solver.h"
#include "fl/FLParser.h"
#include "obs/Forest.h"
#include "obs/Provenance.h"
#include "par/CorpusScheduler.h"
#include "prop/Groundness.h"
#include "reader/Parser.h"
#include "strictness/StrictTransform.h"
#include "strictness/Strictness.h"
#include "depthk/DepthK.h"

#include <gtest/gtest.h>

#include <set>

using namespace lpa;

namespace {

/// Brackets/braces/parens stay balanced — the well-formedness check the
/// rendered proof trees and DOT output must satisfy whenever term labels
/// do (they always do here: plain atoms and integers).
bool bracketBalanced(const std::string &S) {
  int Paren = 0, Square = 0, Curly = 0;
  for (char C : S) {
    switch (C) {
    case '(': ++Paren; break;
    case ')': --Paren; break;
    case '[': ++Square; break;
    case ']': --Square; break;
    case '{': ++Curly; break;
    case '}': --Curly; break;
    default: break;
    }
    if (Paren < 0 || Square < 0 || Curly < 0)
      return false;
  }
  return Paren == 0 && Square == 0 && Curly == 0;
}

/// Walks a proof tree; fails the test if any node is a cycle back-edge.
void expectAcyclic(const ProofNode &N) {
  EXPECT_FALSE(N.Cycle);
  for (const ProofNode &P : N.Premises)
    expectAcyclic(P);
}

size_t countNodes(const ProofNode &N) {
  size_t Total = 1;
  for (const ProofNode &P : N.Premises)
    Total += countNodes(P);
  return Total;
}

const char *PathProg = ":- table path/2.\n"
                       "path(X, Y) :- edge(X, Y).\n"
                       "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
                       "edge(a, b). edge(b, c). edge(c, a).\n";

//===----------------------------------------------------------------------===//
// ProvenanceArena unit behaviour
//===----------------------------------------------------------------------===//

TEST(ProvenanceArena, RecordFindOverwriteDrop) {
  ProvenanceArena A;
  EXPECT_FALSE(A.find(0, 0).has_value());

  ProvPremise P[] = {{2, 0}, {3, 1}};
  A.record(0, 0, 5, P);
  auto J = A.find(0, 0);
  ASSERT_TRUE(J.has_value());
  EXPECT_EQ(J->ClauseIdx, 5u);
  ASSERT_EQ(J->Premises.size(), 2u);
  EXPECT_EQ(J->Premises[0], (ProvPremise{2, 0}));
  EXPECT_EQ(J->Premises[1], (ProvPremise{3, 1}));
  EXPECT_EQ(A.justificationCount(), 1u);

  // Overwrite in place (the aggregation-join path) keeps the count at 1.
  A.record(0, 0, ProvFoldedClause, {});
  J = A.find(0, 0);
  ASSERT_TRUE(J.has_value());
  EXPECT_EQ(J->ClauseIdx, ProvFoldedClause);
  EXPECT_TRUE(J->Premises.empty());
  EXPECT_EQ(A.justificationCount(), 1u);

  A.record(0, 3, 1, {}); // Sparse slot: answers 1-2 stay unjustified.
  EXPECT_FALSE(A.find(0, 1).has_value());
  EXPECT_FALSE(A.find(0, 2).has_value());
  EXPECT_TRUE(A.find(0, 3).has_value());
  EXPECT_EQ(A.justificationCount(), 2u);

  A.dropSubgoal(0);
  EXPECT_FALSE(A.find(0, 0).has_value());
  EXPECT_FALSE(A.find(0, 3).has_value());
  EXPECT_EQ(A.justificationCount(), 0u);
}

TEST(ProvenanceArena, CheckCountsDangling) {
  ProvenanceArena A;
  ProvPremise Ok{0, 0}, Bad{7, 9};
  ProvPremise Both[] = {Ok, Bad};
  A.record(1, 0, 0, std::span<const ProvPremise>(&Ok, 1));
  A.record(1, 1, 1, Both);
  auto CS = A.check([](ProvPremise P) { return P.SubgoalIdx == 0; });
  EXPECT_EQ(CS.Justified, 2u);
  EXPECT_EQ(CS.Premises, 3u);
  EXPECT_EQ(CS.Dangling, 1u);
}

TEST(ProofTree, DepthAndWidthElisionAreExplicit) {
  // A linear chain of justifications: answer I of subgoal 0 consumes
  // answer I-1.
  ProvenanceArena A;
  A.record(0, 0, 0, {});
  for (uint32_t I = 1; I < 20; ++I) {
    ProvPremise P{0, I - 1};
    A.record(0, I, 1, std::span<const ProvPremise>(&P, 1));
  }
  ProofBuildOptions O;
  O.MaxDepth = 4;
  ProofNode Root = buildProofTree(A, 0, 19, O);
  EXPECT_LE(countNodes(Root), 5u);
  std::string Text =
      renderProofTree(Root, [](const ProofNode &N) {
        return "a" + std::to_string(N.AnswerIdx);
      });
  EXPECT_NE(Text.find("elided"), std::string::npos);
  EXPECT_TRUE(bracketBalanced(Text));

  // Width elision: one answer with many premises.
  ProvenanceArena B;
  B.record(1, 0, 0, {});
  std::vector<ProvPremise> Many;
  for (uint32_t I = 0; I < 30; ++I)
    Many.push_back({1, 0});
  B.record(0, 0, 0, Many);
  ProofBuildOptions WO;
  WO.MaxPremises = 3;
  ProofNode W = buildProofTree(B, 0, 0, WO);
  EXPECT_EQ(W.Premises.size(), 3u);
  EXPECT_EQ(W.ElidedPremises, 27u);
  std::string WText = renderProofTree(W, [](const ProofNode &) {
    return std::string("x");
  });
  EXPECT_NE(WText.find("27 more premises elided"), std::string::npos);
}

TEST(ProofTree, SelfReferenceRendersAsCycleBackEdge) {
  // An aggregation join can overwrite answer 0 with a justification that
  // consumes answer 0 itself; the walker must mark, not loop.
  ProvenanceArena A;
  ProvPremise Self{0, 0};
  A.record(0, 0, ProvFoldedClause, std::span<const ProvPremise>(&Self, 1));
  ProofNode Root = buildProofTree(A, 0, 0);
  ASSERT_EQ(Root.Premises.size(), 1u);
  EXPECT_TRUE(Root.Premises[0].Cycle);
  std::string Text = renderProofTree(Root, [](const ProofNode &) {
    return std::string("n");
  });
  EXPECT_NE(Text.find("cycle back-edge"), std::string::npos);
  EXPECT_NE(Text.find("folded"), std::string::npos);
  EXPECT_TRUE(bracketBalanced(Text));
}

//===----------------------------------------------------------------------===//
// Engine recording: both evaluation modes
//===----------------------------------------------------------------------===//

/// Parameter: Options::SupplementaryTabling.
class JustifyModes : public ::testing::TestWithParam<bool> {};

TEST_P(JustifyModes, EveryAnswerJustifiedAndWellFounded) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProg).hasValue());
  Solver::Options O;
  O.SupplementaryTabling = GetParam();
  O.RecordProvenance = true;
  Solver Engine(DB, O);

  auto G = Parser::parseTerm(Syms, Engine.store(), "path(a, X)");
  ASSERT_TRUE(G.hasValue());
  EXPECT_EQ(Engine.solve(*G, nullptr), 3u);

  // Every unique answer across every subgoal carries a justification, and
  // every premise resolves to a live tabled answer.
  ASSERT_NE(Engine.provenance(), nullptr);
  auto CS = Engine.checkProvenance();
  EXPECT_EQ(CS.Justified, Engine.stats().AnswersRecorded);
  EXPECT_GT(CS.Premises, 0u);
  EXPECT_EQ(CS.Dangling, 0u);

  // Plain tabling records premises strictly before their consumers, so
  // every reconstructed proof tree is acyclic and bracket-balanced.
  for (const Subgoal *SG : Engine.subgoals()) {
    for (size_t I = 0, E = Engine.answerCount(*SG); I < E; ++I) {
      auto Proof = Engine.justifyAnswer(*SG, I);
      ASSERT_TRUE(Proof.has_value());
      expectAcyclic(*Proof);
      std::string Text = Engine.renderProof(*Proof);
      EXPECT_FALSE(Text.empty());
      EXPECT_TRUE(bracketBalanced(Text)) << Text;
      // A well-founded leaf exists: some node derived by a fact clause
      // with no premises.
      EXPECT_EQ(Text.find("no recorded justification"), std::string::npos)
          << Text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EvalModes, JustifyModes, ::testing::Bool());

TEST(Justify, DisabledPathRecordsNothing) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProg).hasValue());
  Solver Engine(DB); // RecordProvenance defaults off.
  auto G = Parser::parseTerm(Syms, Engine.store(), "path(a, X)");
  EXPECT_EQ(Engine.solve(*G, nullptr), 3u);
  EXPECT_EQ(Engine.provenance(), nullptr);
  const Subgoal *SG = Engine.findSubgoal(*G);
  ASSERT_NE(SG, nullptr);
  EXPECT_FALSE(Engine.justifyAnswer(*SG, 0).has_value());
  auto CS = Engine.checkProvenance();
  EXPECT_EQ(CS.Justified, 0u);
  // The forest is still exported (SCC / completion bookkeeping is
  // unconditional) — only the consumer->producer edges need recording.
  ForestGraph F = Engine.exportForest();
  EXPECT_EQ(F.Nodes.size(), Engine.subgoals().size());
  EXPECT_TRUE(F.Edges.empty());
}

TEST(Justify, SurvivesReleaseCompletedState) {
  // Supplementary tabling frees clause frontiers at completion
  // (releaseCompletedState); justifications are materialized into the
  // arena at record time and must survive that.
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProg).hasValue());
  Solver::Options O;
  O.SupplementaryTabling = true;
  O.RecordProvenance = true;
  Solver Engine(DB, O);
  auto G = Parser::parseTerm(Syms, Engine.store(), "path(a, X)");
  Engine.solve(*G, nullptr);
  EXPECT_GT(Engine.stats().FrontierBytesFreed, 0u);
  auto CS = Engine.checkProvenance();
  EXPECT_EQ(CS.Justified, Engine.stats().AnswersRecorded);
  EXPECT_EQ(CS.Dangling, 0u);
  // And the arena is accounted in table space.
  EXPECT_GT(Engine.provenance()->memoryBytes(), 0u);
}

//===----------------------------------------------------------------------===//
// Forest export
//===----------------------------------------------------------------------===//

TEST(Forest, DotIsBalancedDedupedAndComplete) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(PathProg).hasValue());
  Solver::Options O;
  O.RecordProvenance = true;
  Solver Engine(DB, O);
  auto G = Parser::parseTerm(Syms, Engine.store(), "path(a, X)");
  Engine.solve(*G, nullptr);

  ForestGraph F = Engine.exportForest();
  ASSERT_EQ(F.Nodes.size(), Engine.subgoals().size());
  EXPECT_FALSE(F.Edges.empty());
  for (const ForestNode &N : F.Nodes) {
    EXPECT_TRUE(N.Complete);
    EXPECT_FALSE(N.Incomplete);
    EXPECT_GT(N.SccId, 0u);           // 1-based; 0 = never completed.
    EXPECT_GT(N.CompletionOrder, 0u);
  }

  std::string Dot = forestToDot(F);
  EXPECT_TRUE(bracketBalanced(Dot)) << Dot;
  EXPECT_NE(Dot.find("digraph slg_forest"), std::string::npos);
  // Every edge line appears exactly once (edges are deduped).
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  size_t EdgeLines = 0;
  for (size_t Pos = 0; (Pos = Dot.find(" -> ", Pos)) != std::string::npos;
       ++Pos)
    ++EdgeLines;
  for (const ForestEdge &E : F.Edges) {
    EXPECT_TRUE(Seen.insert({E.Consumer, E.Producer}).second)
        << "duplicate edge " << E.Consumer << "->" << E.Producer;
    EXPECT_LT(E.Consumer, F.Nodes.size());
    EXPECT_LT(E.Producer, F.Nodes.size());
  }
  EXPECT_EQ(EdgeLines, F.Edges.size());

  std::string Json = forestToJson(F);
  EXPECT_TRUE(bracketBalanced(Json)) << Json;
  EXPECT_NE(Json.find("\"nodes\""), std::string::npos);
  EXPECT_NE(Json.find("\"edges\""), std::string::npos);
  EXPECT_NE(Json.find("\"scc\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Aggregation joins (Section 6.2 mode summaries)
//===----------------------------------------------------------------------===//

TEST(Justify, AggregatedAnswersStayValid) {
  // AggregateModes joins answers in place (answer 0 is overwritten);
  // justification premises must stay within the live tables and the proof
  // walker must not loop on any self-reference the join introduces.
  SymbolTable Syms;
  GroundnessAnalyzer::Options O;
  O.AggregateModes = true;
  O.Engine.RecordProvenance = true;
  GroundnessAnalyzer A(Syms, O);
  auto R = A.analyze(R"(
    app([], Ys, Ys).
    app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    rev([], []).
    rev([X|Xs], R) :- rev(Xs, T), app(T, [X], R).
  )");
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.getError().str());
  EXPECT_GT(R->JustifiedAnswers, 0u);
  EXPECT_EQ(R->DanglingPremises, 0u);
}

//===----------------------------------------------------------------------===//
// Analyzer explain() entry points
//===----------------------------------------------------------------------===//

TEST(Explain, GroundnessProofTreeOverSourceClauses) {
  SymbolTable Syms;
  GroundnessAnalyzer A(Syms);
  auto Text = A.explain(R"(
    app([], Ys, Ys).
    app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
  )",
                        "app", 3, 2);
  ASSERT_TRUE(Text.hasValue()) << (Text ? "" : Text.getError().str());
  EXPECT_NE(Text->find("why app/3"), std::string::npos) << *Text;
  EXPECT_NE(Text->find("clause"), std::string::npos) << *Text;
  // Labels read over the source program: the gp_ prefix is stripped.
  EXPECT_EQ(Text->find("gp_"), std::string::npos) << *Text;
  EXPECT_TRUE(bracketBalanced(*Text)) << *Text;

  EXPECT_FALSE(A.explain("p(a).", "q", 1, 0).hasValue()); // Unknown pred.
  EXPECT_FALSE(A.explain("p(a).", "p", 1, 5).hasValue()); // Arg range.
}

TEST(Explain, StrictnessWitnessOverDemandRules) {
  StrictnessAnalyzer A;
  auto Text = A.explain(R"(
    ap(nil, ys) = ys.
    ap(cons(x, xs), ys) = cons(x, ap(xs, ys)).
  )",
                        "ap", 0);
  ASSERT_TRUE(Text.hasValue()) << (Text ? "" : Text.getError().str());
  EXPECT_NE(Text->find("why ap/2"), std::string::npos) << *Text;
  EXPECT_NE(Text->find("meet over"), std::string::npos) << *Text;
  EXPECT_TRUE(bracketBalanced(*Text)) << *Text;

  EXPECT_FALSE(A.explain("id(x) = x.", "nope", 0).hasValue());
  EXPECT_FALSE(A.explain("id(x) = x.", "id", 3).hasValue());
}

TEST(Explain, DepthKConcreteClausesAndWidening) {
  SymbolTable Syms;
  DepthKAnalyzer A(Syms);
  auto Text = A.explain(R"(
    app([], Ys, Ys).
    app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    main(R) :- app([a, b], [c], R).
  )",
                        "main", 1, 0);
  ASSERT_TRUE(Text.hasValue()) << (Text ? "" : Text.getError().str());
  EXPECT_NE(Text->find("why main/1"), std::string::npos) << *Text;
  EXPECT_TRUE(bracketBalanced(*Text)) << *Text;

  // Forced widening: justification collapses to the fold marker instead
  // of misattributing a dead derivation, and nothing dangles.
  SymbolTable Syms2;
  DepthKAnalyzer::Options WO;
  WO.MaxAnswersPerCall = 1;
  WO.RecordProvenance = true;
  DepthKAnalyzer W(Syms2, WO);
  auto R = W.analyze(R"(
    color(red). color(green). color(blue).
    pick(C) :- color(C).
  )");
  ASSERT_TRUE(R.hasValue()) << (R ? "" : R.getError().str());
  EXPECT_GT(R->Widenings, 0u);
  EXPECT_EQ(R->DanglingPremises, 0u);

  SymbolTable Syms3;
  DepthKAnalyzer WE(Syms3, WO);
  auto WText = WE.explain(R"(
    color(red). color(green). color(blue).
    pick(C) :- color(C).
  )",
                          "pick", 1, 0);
  ASSERT_TRUE(WText.hasValue()) << (WText ? "" : WText.getError().str());
  EXPECT_NE(WText->find("folded"), std::string::npos) << *WText;
  EXPECT_TRUE(bracketBalanced(*WText)) << *WText;
}

//===----------------------------------------------------------------------===//
// Supplementary premise chains on the strictness corpus
//===----------------------------------------------------------------------===//

struct PremisePin {
  const char *Program;
  uint64_t Justified;
  uint64_t Premises;
  uint64_t Digest; ///< FNV-1a over one line per answer, in table order.
};

/// Runs strictness on \p Pin's corpus program the way StrictnessAnalyzer
/// does (sp_f tabled, sp_f(e, ...) then sp_f(d, ...) per function) with
/// provenance on, and checks every answer's clause and premise list.
void expectPremisesPinned(const PremisePin &Pin) {
  SCOPED_TRACE(Pin.Program);
  auto FL = FLParser::parse(findBenchmark(Pin.Program)->Source);
  ASSERT_TRUE(bool(FL));
  SymbolTable Syms;
  StrictTransformer Transformer(Syms);
  TermStore AbsStore;
  auto Abs = Transformer.transform(*FL, AbsStore);
  ASSERT_TRUE(bool(Abs));
  Database DB(Syms);
  ASSERT_TRUE(bool(DB.loadProgram(AbsStore, Abs->Clauses)));
  for (const auto &[Name, Arity] : Abs->Functions)
    DB.setTabled(Syms.intern(Transformer.spName(Name)), Arity + 1);
  Solver::Options O;
  O.RecordProvenance = true;
  Solver Engine(DB, O);
  for (const auto &[Name, Arity] : Abs->Functions) {
    SymbolId Sp = Syms.intern(Transformer.spName(Name));
    for (const char *Demand : {"e", "d"}) {
      std::vector<TermRef> Args{Engine.store().mkAtom(Syms.intern(Demand))};
      for (uint32_t I = 0; I < Arity; ++I)
        Args.push_back(Engine.store().mkVar());
      Engine.solve(Engine.store().mkStruct(Sp, Args), nullptr);
    }
  }
  uint64_t Justified = 0, Premises = 0, H = 14695981039346656037ull;
  for (const Subgoal *SG : Engine.subgoals())
    for (size_t I = 0, E = Engine.answerCount(*SG); I < E; ++I) {
      auto J = Engine.provenance()->find(SG->Ordinal, I);
      if (!J)
        continue;
      ++Justified;
      Premises += J->Premises.size();
      std::string Line = std::to_string(SG->Ordinal) + ":" +
                         std::to_string(I) + " c" +
                         std::to_string(J->ClauseIdx);
      for (const ProvPremise &P : J->Premises)
        Line += " " + std::to_string(P.SubgoalIdx) + "." +
                std::to_string(P.AnswerIdx);
      for (char C : Line + "\n") {
        H ^= static_cast<uint8_t>(C);
        H *= 1099511628211ull;
      }
    }
  EXPECT_EQ(Justified, Engine.stats().AnswersRecorded);
  EXPECT_EQ(Engine.checkProvenance().Dangling, 0u);
  EXPECT_EQ(Justified, Pin.Justified);
  EXPECT_EQ(Premises, Pin.Premises);
  EXPECT_EQ(H, Pin.Digest);
}

TEST(Justify, StrictnessPremiseListsArePinned) {
  // Strictness clause bodies hold the Tx = a goals of repeated variables,
  // so these chains cross every kind of frontier level. Pinned from the
  // evaluation that kept a frontier level before every body goal.
  for (const PremisePin &Pin : {PremisePin{"eu", 98, 182, 7365723039090951341ull},
        PremisePin{"mergesort", 65, 55, 8229476413354166364ull}})
    expectPremisesPinned(Pin);
}

//===----------------------------------------------------------------------===//
// Fleet: justifications stay valid under --jobs N
//===----------------------------------------------------------------------===//

TEST(Justify, FleetParallelMatchesSerialWithProvenance) {
  std::vector<CorpusJob> Jobs =
      CorpusScheduler::kindJobs(CorpusJobKind::Groundness);

  CorpusScheduler::Options SO;
  SO.Jobs = 1;
  SO.RecordProvenance = true;
  CorpusScheduler Serial(SO);
  auto SerialRes = Serial.run(Jobs);

  CorpusScheduler::Options PO;
  PO.Jobs = 4;
  PO.RecordProvenance = true;
  CorpusScheduler Par(PO);
  auto ParRes = Par.run(Jobs);

  ASSERT_EQ(SerialRes.size(), ParRes.size());
  for (size_t I = 0; I < SerialRes.size(); ++I) {
    const CorpusJobResult &S = SerialRes[I];
    const CorpusJobResult &P = ParRes[I];
    EXPECT_TRUE(S.Ok) << S.Program << ": " << S.Error;
    EXPECT_EQ(S.Ok, P.Ok) << S.Program;
    EXPECT_EQ(S.Fingerprints, P.Fingerprints) << S.Program;
    EXPECT_GT(S.JustifiedAnswers, 0u) << S.Program;
    EXPECT_EQ(S.DanglingPremises, 0u) << S.Program;
    EXPECT_EQ(P.DanglingPremises, 0u) << P.Program;
    // The "$provenance ..." fingerprint line participates in the
    // comparison above; make sure it is actually there.
    ASSERT_FALSE(S.Fingerprints.empty());
    EXPECT_EQ(S.Fingerprints.back().rfind("$provenance ", 0), 0u)
        << S.Fingerprints.back();
  }
}

} // namespace
