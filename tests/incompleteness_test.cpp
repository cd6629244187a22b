//===- incompleteness_test.cpp - Depth-limit truncation soundness -----------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The depth limit is a safety net, but a net with a hole: when it fires
// during a tabled producer run, the table completes while missing answers,
// and everything downstream silently treats the truncated set as the
// minimal model. These tests pin the fix: truncation poisons the subgoal
// (Subgoal::Incomplete), poison spreads to consumers and across the SCC,
// the count lands in EvalStats::IncompleteTables, and the analyzers refuse
// to report truncated results unless the caller opts into the explicit
// warning mode (AllowIncomplete).
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "depthk/DepthK.h"
#include "engine/Solver.h"
#include "prop/Groundness.h"
#include "reader/Parser.h"
#include "strictness/Strictness.h"

#include <gtest/gtest.h>

using namespace lpa;

namespace {

// A tabled predicate over a non-tabled linear recursion: the step/2 walk
// deepens by one frame per edge, so a small MaxDepth prunes the far end of
// the chain out of reach/1's answer table.
const char *ChainProgram = R"(
  :- table reach/1.
  reach(X) :- step(c0, X).
  step(X, X).
  step(X, Y) :- edge(X, Z), step(Z, Y).
  edge(c0, c1). edge(c1, c2). edge(c2, c3). edge(c3, c4).
  edge(c4, c5). edge(c5, c6). edge(c6, c7). edge(c7, c8).
  edge(c8, c9). edge(c9, c10).
)";

size_t countReach(SymbolTable &Syms, Solver &S) {
  auto Goal = Parser::parseTerm(Syms, S.store(), "reach(X)");
  EXPECT_TRUE(Goal.hasValue());
  return S.solve(*Goal, nullptr);
}

TEST(IncompletenessTest, UntruncatedRunIsClean) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(ChainProgram).hasValue());
  Solver S(DB);
  EXPECT_EQ(countReach(Syms, S), 11u); // c0..c10.
  EXPECT_EQ(S.stats().DepthLimitHits, 0u);
  EXPECT_EQ(S.stats().IncompleteTables, 0u);
  for (const Subgoal *SG : S.subgoals())
    EXPECT_FALSE(SG->Incomplete);
}

// The regression this PR fixes: before the poisoning existed, this setup
// dropped answers while every observable counter said the table was fine.
TEST(IncompletenessTest, DepthLimitHitPoisonsTheProducerTable) {
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(ChainProgram).hasValue());
  Solver::Options Opts;
  Opts.MaxDepth = 8;
  Solver S(DB, Opts);
  size_t N = countReach(Syms, S);
  EXPECT_LT(N, 11u); // Answers were dropped...
  EXPECT_GT(S.stats().DepthLimitHits, 0u);
  // ...and the truncation is no longer silent:
  EXPECT_GE(S.stats().IncompleteTables, 1u);
  const Subgoal *Reach = nullptr;
  for (const Subgoal *SG : S.subgoals())
    Reach = SG;
  ASSERT_NE(Reach, nullptr);
  EXPECT_TRUE(Reach->Complete);
  EXPECT_TRUE(Reach->Incomplete);
}

TEST(IncompletenessTest, ConsumingATruncatedTableTaintsTheConsumer) {
  std::string Prog = ChainProgram;
  Prog += R"(
    :- table wrap/1.
    wrap(X) :- reach(X).
  )";
  SymbolTable Syms;
  Database DB(Syms);
  ASSERT_TRUE(DB.consult(Prog).hasValue());
  Solver::Options Opts;
  Opts.MaxDepth = 8;
  Solver S(DB, Opts);
  auto Goal = Parser::parseTerm(Syms, S.store(), "wrap(X)");
  ASSERT_TRUE(Goal.hasValue());
  size_t N = S.solve(*Goal, nullptr);
  EXPECT_LT(N, 11u);
  // wrap/1 never hit the limit itself; it is incomplete because its only
  // source of answers is.
  for (const Subgoal *SG : S.subgoals())
    EXPECT_TRUE(SG->Incomplete);
  EXPECT_GE(S.stats().IncompleteTables, 2u);
}

TEST(IncompletenessTest, GroundnessRefusesTruncatedResults) {
  // Depth accumulates along a chained clause body only on the
  // tuple-at-a-time path (supplementary tabling solves pure bodies
  // goal-at-a-time from frontiers, each at depth 1), so pin that path and
  // let MaxDepth 1 prune the two-goal body mid-producer-run.
  const char *Prog = R"(
    p(X, Z) :- q(X, Y), q(Y, Z).
    q(a, b). q(b, c).
  )";
  GroundnessAnalyzer::Options Opts;
  Opts.Engine.MaxDepth = 1;
  Opts.Engine.SupplementaryTabling = false;
  {
    SymbolTable Syms;
    GroundnessAnalyzer A(Syms, Opts);
    auto R = A.analyze(Prog);
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.getError().str().find("incomplete"), std::string::npos);
  }
  // Explicit warning mode: same truncation, but the caller asked for a
  // lower bound and gets it, flagged.
  Opts.AllowIncomplete = true;
  {
    SymbolTable Syms;
    GroundnessAnalyzer A(Syms, Opts);
    auto R = A.analyze(Prog);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
    EXPECT_TRUE(R->Incomplete);
    EXPECT_GE(R->Stats.IncompleteTables, 1u);
  }
  // Default limit: clean, exact, unflagged.
  {
    SymbolTable Syms;
    GroundnessAnalyzer A(Syms);
    auto R = A.analyze(Prog);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
    EXPECT_FALSE(R->Incomplete);
    EXPECT_EQ(R->Stats.IncompleteTables, 0u);
  }
}

TEST(IncompletenessTest, StrictnessRefusesTruncatedResults) {
  // "event" has transformed clauses whose evaluation provably exceeds
  // depth 1 (verified: hundreds of DepthLimitHits at MaxDepth 1); the
  // simplest FL programs never hit the limit at any setting.
  const CorpusProgram *Event = nullptr;
  for (const CorpusProgram &P : flBenchmarks())
    if (std::string_view(P.Name) == "event")
      Event = &P;
  ASSERT_NE(Event, nullptr);
  const char *Src = Event->Source;
  StrictnessAnalyzer::Options Opts;
  Opts.Engine.MaxDepth = 1;
  {
    StrictnessAnalyzer A(Opts);
    auto R = A.analyze(Src);
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.getError().str().find("incomplete"), std::string::npos);
  }
  Opts.AllowIncomplete = true;
  {
    StrictnessAnalyzer A(Opts);
    auto R = A.analyze(Src);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
    EXPECT_TRUE(R->Incomplete);
  }
  {
    StrictnessAnalyzer A;
    auto R = A.analyze(Src);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
    EXPECT_FALSE(R->Incomplete);
  }
}

TEST(IncompletenessTest, DepthKProducerRunBudgetIsGated) {
  // Depth-k never calls the Solver — its truncation surface is the
  // producer-run budget of its own worklist interpreter.
  const std::string &Src = std::string(prologBenchmarks().front().Source);
  DepthKAnalyzer::Options Opts;
  Opts.MaxProducerRuns = 1;
  {
    SymbolTable Syms;
    DepthKAnalyzer A(Syms, Opts);
    auto R = A.analyze(Src);
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.getError().str().find("incomplete"), std::string::npos);
  }
  Opts.AllowIncomplete = true;
  {
    SymbolTable Syms;
    DepthKAnalyzer A(Syms, Opts);
    auto R = A.analyze(Src);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
    EXPECT_TRUE(R->Incomplete);
  }
  {
    SymbolTable Syms;
    DepthKAnalyzer A(Syms);
    auto R = A.analyze(Src);
    ASSERT_TRUE(R.hasValue()) << R.getError().str();
    EXPECT_FALSE(R->Incomplete);
  }
}

} // namespace
