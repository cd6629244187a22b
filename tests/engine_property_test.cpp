//===- engine_property_test.cpp - Engine equivalence properties --------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Cross-checks between independent evaluation mechanisms:
//  * supplementary tabling on/off must give identical answer sets;
//  * tabled and bounded nontabled evaluation agree on terminating queries;
//  * on randomly generated Datalog programs, the tabled engine's
//    groundness results must equal the bottom-up baseline's (a randomized
//    extension of Table 2's identical-results claim).
//
//===----------------------------------------------------------------------===//

#include "baseline/GaiaLike.h"
#include "engine/Solver.h"
#include "prop/Groundness.h"
#include "reader/Parser.h"
#include "term/TermWriter.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace lpa;

namespace {

/// Collects the rendered solution set of Goal over a fresh solver. With
/// \p FrontierStates given, stores how many states the solver's
/// supplementary frontiers recorded: its variant-table misses other than
/// new subgoals and new answers.
std::set<std::string> solutions(const char *Program, const char *Goal,
                                bool Supplementary,
                                uint64_t *FrontierStates = nullptr) {
  SymbolTable Syms;
  Database DB(Syms);
  auto L = DB.consult(Program);
  EXPECT_TRUE(L.hasValue()) << L.getError().str();
  Solver::Options Opts;
  Opts.SupplementaryTabling = Supplementary;
  Solver S(DB, Opts);
  auto G = Parser::parseTerm(Syms, S.store(), Goal);
  EXPECT_TRUE(G.hasValue());
  std::set<std::string> Out;
  S.solve(*G, [&]() {
    Out.insert(TermWriter::toString(Syms, S.storeConst(), *G));
    return false;
  });
  if (FrontierStates) {
    const EvalStats &St = S.stats();
    *FrontierStates = St.TrieMisses - St.SubgoalsCreated - St.AnswersRecorded;
  }
  return Out;
}

struct SupplementaryCase {
  const char *Name;
  const char *Program;
  const char *Goal;
  /// Whether the supplementary arm runs a clause through its frontier
  /// (Solver::ClauseStrategy). The impure cases check the SLD fallback and
  /// must keep no frontier state.
  bool Frontier;
};

class SupplementaryEquivalence
    : public ::testing::TestWithParam<SupplementaryCase> {};

TEST_P(SupplementaryEquivalence, OnOffAgree) {
  const auto &C = GetParam();
  uint64_t FrontierStates = 0;
  EXPECT_EQ(solutions(C.Program, C.Goal, true, &FrontierStates),
            solutions(C.Program, C.Goal, false))
      << C.Name;
  EXPECT_EQ(FrontierStates > 0, C.Frontier) << FrontierStates;
}

const SupplementaryCase SupplementaryCases[] = {
    {"left_recursive_tc",
     ":- table path/2.\n"
     "path(X, Y) :- path(X, Z), edge(Z, Y).\n"
     "path(X, Y) :- edge(X, Y).\n"
     "edge(a, b). edge(b, c). edge(c, a). edge(c, d).",
     "path(a, X)", true},
    {"mutual_recursion",
     // nat/1 is a static rules goal, so even/1's clause keeps a frontier
     // while odd/1's, with a tabled goal only, runs SLD.
     ":- table even/1.\n:- table odd/1.\n"
     "even(z). even(s(X)) :- nat(X), odd(X). odd(s(X)) :- even(X).\n"
     "nat(z). nat(s(X)) :- nat(X).",
     "even(s(s(s(s(z)))))", true},
    {"same_generation",
     ":- table sg/2.\n"
     "sg(X, X).\n"
     "sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).\n"
     "par(c1, p1). par(c2, p1). par(p1, g1). par(p2, g1). par(c3, p2).",
     "sg(c1, Y)", true},
    {"nonground_answers",
     // box/2 is a static rules goal, so its clause keeps a frontier.
     ":- table p/2.\n"
     "p(X, Y) :- '='(X, f(Y)).\n"
     "p(X, Y) :- box(X, Y).\n"
     "p(a, b).\n"
     "box(X, Y) :- X = g(Y, _).",
     "p(A, B)", true},
    {"arithmetic_guards",
     // above/2 is a static rules goal, so the recursive clause keeps a
     // frontier.
     ":- table fib/2.\n"
     "fib(0, 0). fib(1, 1).\n"
     "fib(N, F) :- above(N, 1), N1 is N - 1, N2 is N - 2,\n"
     "             fib(N1, F1), fib(N2, F2), F is F1 + F2.\n"
     "above(N, M) :- N > M.",
     "fib(15, F)", true},
    {"impure_bodies_fall_back",
     ":- table q/1.\n"
     "q(X) :- p(X), !.\n"
     "q(X) :- r(X).\n"
     "p(1). p(2). r(3).",
     "q(X)", false},
    {"negation_in_body",
     ":- table ok/1.\n"
     "ok(X) :- c(X), \\+ bad(X).\n"
     "c(1). c(2). c(3). bad(2).",
     "ok(X)", false},
    {"once_clause_after_a_cut",
     // c(X)'s first run cuts clause 2 away; after q gains an answer the
     // cut no longer fires, so clause 2, which reaches no table, must
     // still run on the re-run.
     ":- table c/1.\n:- table q/0.\n"
     "c(X) :- \\+ q, !, X = first.\n"
     "c(second).\n"
     "q :- c(_).",
     "c(X)", false},
    {"shared_nontabled_helpers",
     ":- table tc/2.\n"
     "tc(X, Y) :- e(X, Y).\n"
     "tc(X, Y) :- tc(X, Z), e(Z, Y).\n"
     "e(X, Y) :- edge(X, Y).\n"
     "edge(a, b). edge(b, c). edge(b, d).",
     "tc(a, X)", true},
};

INSTANTIATE_TEST_SUITE_P(Programs, SupplementaryEquivalence,
                         ::testing::ValuesIn(SupplementaryCases),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

TEST(TabledVsUntabled, AgreeOnTerminatingQueries) {
  // Right-recursive closure terminates both ways on a DAG.
  const char *Tabled = ":- table path/2.\n"
                       "path(X, Y) :- edge(X, Y).\n"
                       "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
                       "edge(a, b). edge(a, c). edge(b, d). edge(c, d). "
                       "edge(d, e).";
  const char *Untabled = "path(X, Y) :- edge(X, Y).\n"
                         "path(X, Y) :- edge(X, Z), path(Z, Y).\n"
                         "edge(a, b). edge(a, c). edge(b, d). edge(c, d). "
                         "edge(d, e).";
  EXPECT_EQ(solutions(Tabled, "path(a, X)", true),
            solutions(Untabled, "path(a, X)", true));
}

//===----------------------------------------------------------------------===//
// Random Datalog programs: engine vs baseline groundness
//===----------------------------------------------------------------------===//

/// Generates a random program over predicates p0..p4 with facts and rules
/// mixing ground/nonground arguments, structures and chains of calls.
std::string randomProgram(std::mt19937 &Rng) {
  std::uniform_int_distribution<int> NumClauses(4, 14);
  std::uniform_int_distribution<int> PredD(0, 4);
  std::uniform_int_distribution<int> ArityD(1, 3);
  // Fixed arity per predicate index for well-formedness.
  int Arity[5];
  for (int &A : Arity)
    A = ArityD(Rng);

  auto Term = [&](int Depth) {
    std::string T;
    std::function<void(int)> Gen = [&](int D) {
      int Pick = static_cast<int>(Rng() % (D <= 0 ? 3 : 4));
      switch (Pick) {
      case 0:
        T += "X" + std::to_string(Rng() % 3); // Variable.
        break;
      case 1:
        T += (Rng() % 2) ? "a" : "b";
        break;
      case 2:
        T += std::to_string(Rng() % 3);
        break;
      default:
        T += "f(";
        Gen(D - 1);
        T += ",";
        Gen(D - 1);
        T += ")";
        break;
      }
    };
    Gen(Depth);
    return T;
  };

  auto Atom = [&](int Pred) {
    std::string A = "p" + std::to_string(Pred) + "(";
    for (int I = 0; I < Arity[Pred]; ++I) {
      if (I)
        A += ",";
      A += Term(2);
    }
    return A + ")";
  };

  std::string Prog;
  int N = NumClauses(Rng);
  for (int I = 0; I < N; ++I) {
    int Head = PredD(Rng);
    Prog += Atom(Head);
    int BodyLen = static_cast<int>(Rng() % 3);
    for (int B = 0; B < BodyLen; ++B)
      Prog += (B ? ", " : " :- ") + Atom(PredD(Rng));
    Prog += ".\n";
  }
  return Prog;
}

class RandomProgramTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomProgramTest, EngineAndBaselineGroundnessAgree) {
  std::mt19937 Rng(GetParam());
  std::string Prog = randomProgram(Rng);

  SymbolTable Syms1, Syms2;
  GroundnessAnalyzer Engine(Syms1);
  GaiaLikeAnalyzer Baseline(Syms2);
  auto RE = Engine.analyze(Prog);
  auto RB = Baseline.analyze(Prog);
  ASSERT_TRUE(RE.hasValue()) << Prog;
  ASSERT_TRUE(RB.hasValue()) << Prog;
  ASSERT_EQ(RE->Predicates.size(), RB->Predicates.size()) << Prog;
  for (size_t I = 0; I < RE->Predicates.size(); ++I)
    EXPECT_EQ(RE->Predicates[I].SuccessSet, RB->Predicates[I].SuccessSet)
        << "program:\n"
        << Prog << "predicate " << RE->Predicates[I].Name;
}

TEST_P(RandomProgramTest, SupplementaryOnOffGiveSameGroundness) {
  std::mt19937 Rng(GetParam() + 10000);
  std::string Prog = randomProgram(Rng);

  // Run the abstract program under both producer strategies via the
  // public analyzer (which uses the default) and a manual engine run.
  SymbolTable Syms1;
  GroundnessAnalyzer A1(Syms1);
  auto R1 = A1.analyze(Prog);
  ASSERT_TRUE(R1.hasValue());

  // Second run: transform by hand, evaluate with supplementary off.
  SymbolTable Syms2;
  PropTransformer T(Syms2);
  TermStore Abs;
  auto PP = T.transformText(Prog, Abs);
  ASSERT_TRUE(PP.hasValue());
  Database DB(Syms2);
  ASSERT_TRUE(DB.loadProgram(Abs, PP->Clauses).hasValue());
  DB.tableAllPredicates();
  Solver::Options Opts;
  Opts.SupplementaryTabling = false;
  Solver S(DB, Opts);
  for (PredKey P : PP->Predicates) {
    std::vector<TermRef> Args;
    for (uint32_t I = 0; I < P.Arity; ++I)
      Args.push_back(S.store().mkVar());
    SymbolId AbsSym = T.abstractSymbol(P.Sym);
    TermRef Call = P.Arity == 0 ? S.store().mkAtom(AbsSym)
                                : S.store().mkStruct(AbsSym, Args);
    size_t NumAnswers = 0;
    S.solve(Call, nullptr);
    const Subgoal *SG = S.findSubgoal(Call);
    if (SG)
      NumAnswers = S.answerCount(*SG);
    // Compare raw answer counts with the analyzer's expanded success set
    // only loosely (free variables expand), but emptiness must agree.
    const PredGroundness *PG = R1->find(Syms2.name(P.Sym), P.Arity);
    ASSERT_NE(PG, nullptr);
    EXPECT_EQ(PG->CanSucceed, NumAnswers > 0) << Prog;
  }
}

/// Generates a random function-free program over tabled t0/2, t1/2 and
/// t2/2 whose clause bodies mix tabled goals, static facts e/2, static
/// rules h/2, the nontabled d/2 that calls a table, and X = const goals,
/// so that every clause strategy is taken. Each head variable occurs in a
/// body goal that grounds it, so every answer is ground and every table
/// finite. t0's first clause calls h/2 and always keeps a frontier.
std::string randomTabledProgram(std::mt19937 &Rng) {
  const char *Consts[] = {"a", "b", "c"};
  auto Const = [&]() { return std::string(Consts[Rng() % 3]); };
  std::string Prog = ":- table t0/2.\n:- table t1/2.\n:- table t2/2.\n"
                     "h(X, Y) :- e(X, Z), e(Z, Y).\n"
                     "h(X, X) :- e(X, _).\n"
                     "d(X, Y) :- t1(Y, X).\n"
                     "t0(X, Y) :- h(X, Y).\n";
  for (int I = 0, N = 2 + static_cast<int>(Rng() % 5); I < N; ++I)
    Prog += "e(" + Const() + ", " + Const() + ").\n";
  for (int I = 0, N = 3 + static_cast<int>(Rng() % 7); I < N; ++I) {
    std::vector<std::string> Bound; // Variables some body goal grounds.
    auto Arg = [&]() {
      if (Rng() % 4 == 0)
        return Const();
      std::string V = "X" + std::to_string(Rng() % 4);
      Bound.push_back(V);
      return V;
    };
    std::string Body;
    for (int G = 0, Len = 1 + static_cast<int>(Rng() % 3); G < Len; ++G) {
      Body += G ? ", " : " :- ";
      switch (Rng() % 5) {
      case 0:
        Body += Arg() + " = " + Const();
        break;
      case 1:
        Body += "e(" + Arg() + ", " + Arg() + ")";
        break;
      case 2:
        Body += "h(" + Arg() + ", " + Arg() + ")";
        break;
      case 3:
        Body += "d(" + Arg() + ", " + Arg() + ")";
        break;
      default:
        Body += "t" + std::to_string(Rng() % 3) + "(" + Arg() + ", " +
                Arg() + ")";
        break;
      }
    }
    auto HeadArg = [&]() {
      return Bound.empty() || Rng() % 4 == 0 ? Const()
                                             : Bound[Rng() % Bound.size()];
    };
    std::string Head = "t" + std::to_string(Rng() % 3) + "(" + HeadArg();
    Head += ", " + HeadArg() + ")";
    Prog += Head + Body + ".\n";
  }
  return Prog;
}

TEST_P(RandomProgramTest, SupplementaryOnOffAgreeWithStaticHelpers) {
  // The Prop programs above pair iff/N only with tabled goals, so their
  // clauses keep no frontier. These programs call static rules, static
  // facts and a nontabled predicate over a table beside tabled goals, so
  // the supplementary arm runs clauses through their frontiers; its
  // answers must be SLD's.
  std::mt19937 Rng(GetParam() + 20000);
  std::string Prog = randomTabledProgram(Rng);
  std::set<std::string> Got[2];
  EvalStats Stats[2];
  for (bool Supplementary : {false, true}) {
    SymbolTable Syms;
    Database DB(Syms);
    auto L = DB.consult(Prog);
    ASSERT_TRUE(L.hasValue()) << L.getError().str() << "\n" << Prog;
    Solver::Options Opts;
    Opts.SupplementaryTabling = Supplementary;
    Solver S(DB, Opts);
    for (const char *Goal : {"t0(X, Y)", "t1(X, Y)", "t2(X, Y)"}) {
      auto G = Parser::parseTerm(Syms, S.store(), Goal);
      ASSERT_TRUE(G.hasValue());
      S.solve(*G, [&]() {
        Got[Supplementary].insert(
            TermWriter::toString(Syms, S.storeConst(), *G));
        return false;
      });
    }
    Stats[Supplementary] = S.stats();
  }
  EXPECT_EQ(Got[1], Got[0]) << Prog;
  EXPECT_EQ(Stats[1].AnswersRecorded, Stats[0].AnswersRecorded) << Prog;
  const EvalStats &St = Stats[1];
  EXPECT_GT(St.TrieMisses - St.SubgoalsCreated - St.AnswersRecorded, 0u)
      << "no frontier state recorded:\n"
      << Prog;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(0u, 40u));

} // namespace
