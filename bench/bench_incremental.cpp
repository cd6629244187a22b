//===- bench_incremental.cpp - Invalidate-the-cone vs re-derive-the-world -===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The payoff measurement for dependency-driven incremental table
// invalidation (DESIGN.md §15). Each workload is warmed to completion,
// then mutated (a retract, or a redefinition of one predicate), and the
// cost of answering the same queries again is measured two ways:
//
//  * recompute — a fresh solver re-derives the world from scratch (what a
//    warm session had to do before incremental invalidation, via
//    clearTables);
//  * incremental — the warm solver sweeps the changed predicate's
//    dependency cone (invalidateDependents), keeps everything outside it,
//    and re-derives only the cone on the next solve.
//
// Workloads: the K-independent-chains generator (best case: the mutation
// touches one chain, K-1 chains' tables survive) and the two largest
// corpus programs (read, press2) under the Prop groundness transform with
// every predicate tabled (realistic case: cones overlap).
//
// Correctness is part of the bench: the incremental arm's canonical
// fingerprints (sorted answer sets per open call) must be bit-identical
// to a cold solver on the final program. Any divergence — or a chains run
// where no table survived the sweep — exits nonzero so the CI gate trips.
//
// Usage: bench_incremental [--chains K] [--nodes N] [--json PATH]
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "corpus/Corpus.h"
#include "engine/Solver.h"
#include "prop/PropTransform.h"
#include "reader/Parser.h"
#include "support/Stopwatch.h"
#include "support/TableFormat.h"
#include "term/TermWriter.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace lpa;

namespace {

/// Sorted rendered answers of \p Goal, solved on \p S — the canonical
/// order-insensitive digest both arms are compared by.
std::string fingerprintGoal(SymbolTable &Syms, Solver &S, TermRef Goal) {
  std::vector<std::string> Answers;
  S.solve(Goal, [&]() {
    Answers.push_back(TermWriter::toString(Syms, S.storeConst(), Goal));
    return false;
  });
  std::sort(Answers.begin(), Answers.end());
  std::string FP = std::to_string(Answers.size()) + ":";
  for (const std::string &A : Answers)
    FP += A + ";";
  return FP;
}

struct ArmResult {
  double ColdMs = 0;        ///< First full derivation, warm start.
  double RecomputeMs = 0;   ///< Fresh solver after the mutation.
  double IncrementalMs = 0; ///< Sweep + re-solve on the warm solver.
  uint64_t TablesInvalidated = 0;
  uint64_t TablesSurvived = 0;
  uint64_t TablesRevived = 0;
  bool Match = false;
  bool SurvivorsSeen = false;
  std::string Error;
  bool Ok = false;
};

/// Runs the three-arm measurement over \p DB: warm \p Solve-all, apply
/// \p Mutate (returning the changed predicates), then the recompute and
/// incremental arms, fingerprint-checked against each other (the
/// recompute arm IS the cold solver on the final program).
template <typename MutateFn>
ArmResult measure(SymbolTable &Syms, Database &DB,
                  const std::vector<std::string> &GoalTexts,
                  MutateFn &&Mutate) {
  ArmResult R;

  auto SolveAll = [&](Solver &S, std::vector<std::string> *FPs) -> bool {
    for (const std::string &G : GoalTexts) {
      auto Goal = Parser::parseTerm(Syms, S.store(), G);
      if (!Goal) {
        R.Error = Goal.getError().str();
        return false;
      }
      if (FPs)
        FPs->push_back(fingerprintGoal(Syms, S, *Goal));
      else
        S.solve(*Goal, nullptr);
    }
    return true;
  };

  Solver Warm(DB);
  Stopwatch Watch;
  if (!SolveAll(Warm, nullptr))
    return R;
  R.ColdMs = Watch.elapsedSeconds() * 1e3;

  // The mutation: everything it stamps after this revision is changed.
  uint64_t Rev = DB.globalRevision();
  if (!Mutate(R.Error))
    return R;
  std::vector<PredKey> Changed = DB.predsChangedSince(Rev);

  // Incremental arm: sweep the cone, then answer everything again.
  Watch.restart();
  Solver::InvalidationResult Sweep = Warm.invalidateDependents(Changed);
  std::vector<std::string> IncFPs;
  if (!SolveAll(Warm, &IncFPs))
    return R;
  R.IncrementalMs = Watch.elapsedSeconds() * 1e3;
  R.TablesInvalidated = Sweep.TablesInvalidated;
  R.TablesSurvived = Sweep.TablesSurvived;
  R.TablesRevived = Warm.stats().TablesRevived;
  R.SurvivorsSeen = Sweep.TablesSurvived > 0;

  // Recompute arm: what the session did before — drop the world, start
  // cold on the final program. Also the correctness oracle.
  Watch.restart();
  Solver Cold(DB);
  std::vector<std::string> ColdFPs;
  if (!SolveAll(Cold, &ColdFPs))
    return R;
  R.RecomputeMs = Watch.elapsedSeconds() * 1e3;

  R.Match = IncFPs == ColdFPs;
  R.Ok = true;
  return R;
}

/// K disjoint left-recursive path chains (the bench_parallel_eval
/// generator, reused: the mutation retracts one edge of chain 0, so
/// chains 1..K-1 are the survivors the sweep must keep).
std::string makeChains(size_t K, size_t N) {
  std::string P;
  for (size_t C = 0; C < K; ++C) {
    std::string Pred = "path" + std::to_string(C);
    std::string Edge = "edge" + std::to_string(C);
    P += ":- table " + Pred + "/2.\n";
    P += Pred + "(X, Y) :- " + Pred + "(X, Z), " + Edge + "(Z, Y).\n";
    P += Pred + "(X, Y) :- " + Edge + "(X, Y).\n";
    for (size_t I = 0; I + 1 < N; ++I)
      P += Edge + "(c" + std::to_string(C) + "n" + std::to_string(I) + ", c" +
           std::to_string(C) + "n" + std::to_string(I + 1) + ").\n";
  }
  return P;
}

ArmResult runChains(size_t K, size_t N) {
  ArmResult R;
  SymbolTable Syms;
  Database DB(Syms);
  auto Loaded = DB.consult(makeChains(K, N));
  if (!Loaded) {
    R.Error = Loaded.getError().str();
    return R;
  }
  std::vector<std::string> Goals;
  for (size_t C = 0; C < K; ++C)
    Goals.push_back("path" + std::to_string(C) + "(X, Y)");

  std::string Retracted = "edge0(c0n" + std::to_string(N - 2) + ", c0n" +
                          std::to_string(N - 1) + ").";
  return measure(Syms, DB, Goals, [&](std::string &Err) {
    auto RR = DB.retract(Retracted);
    if (!RR) {
      Err = RR.getError().str();
      return false;
    }
    if (*RR != 1) {
      Err = "retract matched " + std::to_string(*RR) + " clauses";
      return false;
    }
    return true;
  });
}

/// Head predicate of an abstract clause term (directives never reach the
/// transformed program).
PredKey headPredOf(const TermStore &S, const SymbolTable &Syms,
                   TermRef Clause) {
  TermRef D = S.deref(Clause);
  if (S.tag(D) == TermTag::Struct && S.symbol(D) == Syms.Neck &&
      S.arity(D) == 2)
    D = S.deref(S.arg(D, 0));
  return {S.symbol(D), S.arity(D)};
}

/// A corpus program under the Prop groundness transform, all predicates
/// tabled; the mutation redefines one abstract predicate (retractAll +
/// re-assert the same clauses), which bumps its revision and forces its
/// cone — and only its cone — to re-derive.
ArmResult runCorpus(const CorpusProgram &P) {
  ArmResult R;
  SymbolTable Syms;
  TermStore AbsStore;
  PropTransformer Transformer(Syms);
  auto Program = Transformer.transformText(P.Source, AbsStore);
  if (!Program) {
    R.Error = Program.getError().str();
    return R;
  }
  Database DB(Syms);
  auto Loaded = DB.loadProgram(AbsStore, Program->Clauses);
  if (!Loaded) {
    R.Error = Loaded.getError().str();
    return R;
  }
  DB.tableAllPredicates();

  // Open call of every abstract predicate, text form (re-parsed per arm).
  std::vector<std::string> Goals;
  for (PredKey PK : Program->Predicates) {
    std::string Name = Syms.name(Transformer.abstractSymbol(PK.Sym));
    if (PK.Arity == 0) {
      Goals.push_back(Name);
      continue;
    }
    std::string G = Name + "(";
    for (uint32_t I = 0; I < PK.Arity; ++I)
      G += (I ? ", V" : "V") + std::to_string(I);
    Goals.push_back(G + ")");
  }

  // The redefined predicate: the middle of definition order, so it has
  // both dependents (later preds calling it) and independents.
  PredKey Victim{Transformer.abstractSymbol(
                     Program->Predicates[Program->Predicates.size() / 2].Sym),
                 Program->Predicates[Program->Predicates.size() / 2].Arity};
  std::vector<TermRef> VictimClauses;
  for (TermRef C : Program->Clauses)
    if (headPredOf(AbsStore, Syms, C) == Victim)
      VictimClauses.push_back(C);

  return measure(Syms, DB, Goals, [&](std::string &Err) {
    DB.retractAll(Victim);
    for (TermRef C : VictimClauses) {
      auto LR = DB.loadClause(AbsStore, C);
      if (!LR) {
        Err = LR.getError().str();
        return false;
      }
    }
    return true;
  });
}

} // namespace

int main(int argc, char **argv) {
  size_t K = sizeArg(argc, argv, "--chains", 8);
  size_t N = sizeArg(argc, argv, "--nodes", 160);

  std::printf("Incremental invalidation vs full recomputation after one "
              "mutation\n\n");

  std::string Json;
  JsonWriter W(Json);
  W.beginObject();
  W.member("benchmark", "incremental");
  writeBenchMeta(W);
  W.member("chains", static_cast<uint64_t>(K));
  W.member("chain_nodes", static_cast<uint64_t>(N));
  W.key("programs");
  W.beginArray();

  int Failures = 0;
  TextTable Out;
  Out.addRow({"Program", "Cold(ms)", "Recompute(ms)", "Incremental(ms)",
              "Speedup", "Dropped", "Survived", "Fingerprints"});

  struct Workload {
    std::string Name;
    ArmResult R;
    bool RequireSurvivors;
  };
  std::vector<Workload> Work;
  Work.push_back({"chains_" + std::to_string(K) + "x" + std::to_string(N),
                  runChains(K, N), /*RequireSurvivors=*/true});
  for (const char *Name : {"read", "press2"}) {
    const CorpusProgram *P = findBenchmark(Name);
    if (!P) {
      std::fprintf(stderr, "missing corpus program %s\n", Name);
      ++Failures;
      continue;
    }
    // Corpus cones can legitimately cover everything; survivors are
    // asserted only on the chains generator, where independence is by
    // construction.
    Work.push_back({Name, runCorpus(*P), /*RequireSurvivors=*/false});
  }

  for (const Workload &WL : Work) {
    const ArmResult &R = WL.R;
    if (!R.Ok) {
      std::fprintf(stderr, "%s: %s\n", WL.Name.c_str(), R.Error.c_str());
      ++Failures;
      continue;
    }
    if (!R.Match)
      ++Failures;
    if (WL.RequireSurvivors && !R.SurvivorsSeen) {
      std::fprintf(stderr,
                   "%s: no table survived the sweep (cone imprecision)\n",
                   WL.Name.c_str());
      ++Failures;
    }
    double Speedup =
        R.IncrementalMs > 0 ? R.RecomputeMs / R.IncrementalMs : 0;
    Out.addRow({WL.Name, ms(R.ColdMs), ms(R.RecomputeMs),
                ms(R.IncrementalMs), ms(Speedup) + "x",
                std::to_string(R.TablesInvalidated),
                std::to_string(R.TablesSurvived),
                R.Match ? "identical" : "DIVERGED"});
    W.beginObject();
    W.member("name", WL.Name);
    W.member("cold_ms", R.ColdMs);
    W.member("recompute_ms", R.RecomputeMs);
    W.member("incremental_ms", R.IncrementalMs);
    W.member("speedup", Speedup);
    W.member("tables_invalidated", R.TablesInvalidated);
    W.member("tables_survived", R.TablesSurvived);
    W.member("tables_revived", R.TablesRevived);
    W.member("fingerprints_match", R.Match);
    W.endObject();
  }

  W.endArray();
  W.endObject();

  std::printf("%s\n", Out.render().c_str());
  writeJsonFile(jsonOutPath(argc, argv, "bench/out/bench_incremental.json"),
                Json);
  std::printf(
      "Notes:\n"
      " * 'Recompute' is a fresh solver on the mutated program — the\n"
      "   pre-incremental warm-session cost (clearTables + re-derive).\n"
      " * 'Incremental' sweeps the changed predicate's dependency cone\n"
      "   on the warm solver and re-derives only that; 'Survived' tables\n"
      "   answer warm. Fingerprints compare the incremental arm against\n"
      "   the fresh solver bit for bit; divergence fails the run.\n");
  return Failures;
}
