//===- bench_engine_micro.cpp - Engine primitive micro-benchmarks -*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// google-benchmark microbenchmarks for the substrate primitives the
// analyses lean on (unification, variant keys, clause resolution, tabled
// evaluation, native iff enumeration), plus the tabling-vs-SLD ablation on
// right-recursive transitive closure.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "engine/Solver.h"
#include "obs/EvalObserver.h"
#include "reader/Parser.h"
#include "table/VariantCode.h"
#include "term/TermCopy.h"
#include "term/Unify.h"
#include "term/Variant.h"
#include "wamlite/WamMachine.h"

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

using namespace lpa;

namespace {

/// Builds a list [0, 1, ..., N-1] in \p Store.
TermRef buildList(SymbolTable &Syms, TermStore &Store, int N) {
  TermRef L = Store.mkAtom(Syms.Nil);
  for (int I = N; I-- > 0;)
    L = Store.mkStruct2(Syms.Cons, Store.mkInt(I), L);
  return L;
}

void BM_UnifyLists(benchmark::State &State) {
  SymbolTable Syms;
  TermStore Store;
  int N = static_cast<int>(State.range(0));
  TermRef A = buildList(Syms, Store, N);
  for (auto _ : State) {
    auto M = Store.mark();
    // Unify against a fresh open list of the same length.
    TermRef B = Store.mkAtom(Syms.Nil);
    for (int I = N; I-- > 0;)
      B = Store.mkStruct2(Syms.Cons, Store.mkVar(), B);
    benchmark::DoNotOptimize(unify(Store, A, B));
    Store.undoTo(M);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_UnifyLists)->Arg(16)->Arg(256)->Arg(4096);

void BM_CanonicalKey(benchmark::State &State) {
  SymbolTable Syms;
  TermStore Store;
  TermRef L = buildList(Syms, Store, static_cast<int>(State.range(0)));
  for (auto _ : State) {
    std::string Key = canonicalKey(Store, L);
    benchmark::DoNotOptimize(Key);
  }
}
BENCHMARK(BM_CanonicalKey)->Arg(16)->Arg(256);

void BM_CopyTerm(benchmark::State &State) {
  SymbolTable Syms;
  TermStore Store;
  TermRef L = buildList(Syms, Store, static_cast<int>(State.range(0)));
  for (auto _ : State) {
    TermStore Dst;
    benchmark::DoNotOptimize(copyTerm(Store, L, Dst));
  }
}
BENCHMARK(BM_CopyTerm)->Arg(16)->Arg(256);

void BM_ClauseResolution(benchmark::State &State) {
  SymbolTable Syms;
  Database DB(Syms);
  (void)DB.consult(R"(
    ap([], Ys, Ys).
    ap([X|Xs], Ys, [X|Zs]) :- ap(Xs, Ys, Zs).
  )");
  Solver Engine(DB);
  std::string Goal = "ap([";
  for (int I = 0; I < 64; ++I)
    Goal += (I ? "," : "") + std::to_string(I);
  Goal += "], [x], Z)";
  for (auto _ : State) {
    Engine.resetHeap();
    auto G = Parser::parseTerm(Syms, Engine.store(), Goal);
    benchmark::DoNotOptimize(Engine.solveOnce(*G));
  }
}
BENCHMARK(BM_ClauseResolution);

/// Tabled transitive closure over a chain: the workload the analyses
/// effectively run (fixpoint with answer dedup).
void BM_TabledClosure(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  std::string Prog = ":- table path/2.\n"
                     "path(X, Y) :- edge(X, Y).\n"
                     "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  for (int I = 0; I < N; ++I)
    Prog += "edge(n" + std::to_string(I) + ", n" + std::to_string(I + 1) +
            ").\n";
  for (auto _ : State) {
    SymbolTable Syms;
    Database DB(Syms);
    (void)DB.consult(Prog);
    Solver Engine(DB);
    auto G = Parser::parseTerm(Syms, Engine.store(), "path(n0, X)");
    size_t Count = Engine.solve(*G, nullptr);
    benchmark::DoNotOptimize(Count);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_TabledClosure)->Arg(16)->Arg(64)->Arg(128);

/// Ablation: the same closure right-recursively WITHOUT tabling (bounded
/// by SLD; left recursion would not terminate at all). Quadratic blowup
/// in redundant subderivations vs the tabled run.
void BM_UntabledClosure(benchmark::State &State) {
  int N = static_cast<int>(State.range(0));
  std::string Prog = "path(X, Y) :- edge(X, Y).\n"
                     "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  for (int I = 0; I < N; ++I)
    Prog += "edge(n" + std::to_string(I) + ", n" + std::to_string(I + 1) +
            ").\n";
  for (auto _ : State) {
    SymbolTable Syms;
    Database DB(Syms);
    (void)DB.consult(Prog);
    Solver Engine(DB);
    auto G = Parser::parseTerm(Syms, Engine.store(), "path(n0, X)");
    size_t Count = Engine.solve(*G, nullptr);
    benchmark::DoNotOptimize(Count);
  }
  State.SetItemsProcessed(State.iterations() * N);
}
BENCHMARK(BM_UntabledClosure)->Arg(16)->Arg(64)->Arg(128);

/// Native iff/N enumeration (the Prop truth-table literal).
void BM_IffEnumeration(benchmark::State &State) {
  SymbolTable Syms;
  Database DB(Syms);
  (void)DB.consult("seed(1)."); // Engine needs a database.
  Solver Engine(DB);
  int K = static_cast<int>(State.range(0));
  std::string Goal = "iff(X0";
  for (int I = 1; I <= K; ++I)
    Goal += ", X" + std::to_string(I);
  Goal += ")";
  for (auto _ : State) {
    Engine.resetHeap();
    auto G = Parser::parseTerm(Syms, Engine.store(), Goal);
    size_t Rows = Engine.solve(*G, nullptr);
    benchmark::DoNotOptimize(Rows);
  }
}
BENCHMARK(BM_IffEnumeration)->Arg(2)->Arg(6)->Arg(10);

// Section 4's evaluation-side tradeoff: the same naive-reverse workload
// run by the dynamic-code interpreter versus compiled WAM-lite code.
// (The paper chose interpretation because preprocessing dominates; these
// two benchmarks quantify what that choice costs at evaluation time.)
const char *NrevProg = "nrev([], []).\n"
                       "nrev([X|Xs], R) :- nrev(Xs, T), app(T, [X], R).\n"
                       "app([], Y, Y).\n"
                       "app([X|Xs], Y, [X|Z]) :- app(Xs, Y, Z).\n";

std::string nrevGoal(int N) {
  std::string Goal = "nrev([";
  for (int I = 0; I < N; ++I)
    Goal += (I ? "," : "") + std::to_string(I);
  return Goal + "], R)";
}

void BM_EvalInterpreted(benchmark::State &State) {
  SymbolTable Syms;
  Database DB(Syms);
  (void)DB.consult(NrevProg);
  Solver Engine(DB);
  std::string Goal = nrevGoal(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    Engine.resetHeap();
    auto G = Parser::parseTerm(Syms, Engine.store(), Goal);
    benchmark::DoNotOptimize(Engine.solveOnce(*G));
  }
}
BENCHMARK(BM_EvalInterpreted)->Arg(16)->Arg(30);

void BM_EvalCompiled(benchmark::State &State) {
  SymbolTable Syms;
  WamCompiler Compiler(Syms);
  auto P = Compiler.compileText(NrevProg);
  std::string Goal = nrevGoal(static_cast<int>(State.range(0)));
  for (auto _ : State) {
    WamMachine M(Syms, *P);
    auto G = Parser::parseTerm(Syms, M.store(), Goal);
    size_t N = M.solve(*G, []() { return true; });
    benchmark::DoNotOptimize(N);
  }
}
BENCHMARK(BM_EvalCompiled)->Arg(16)->Arg(30);

/// Repeated tabled CALLS against a warm table. The call carries a large
/// ground structure: the subgoal trie walks it once per call and the
/// factored answer binds only the answer variable.
void BM_TabledCallMicro(benchmark::State &State) {
  SymbolTable Syms;
  Database DB(Syms);
  (void)DB.consult(":- table p/2.\n p(_, done).");
  Solver Engine(DB);
  std::string Goal = "p([";
  for (int I = 0; I < 64; ++I)
    Goal += (I ? "," : "") + std::to_string(I);
  Goal += "], R)";
  auto G = Parser::parseTerm(Syms, Engine.store(), Goal);
  Engine.solve(*G, nullptr); // Warm the table: later calls are hits.
  for (auto _ : State) {
    size_t N = Engine.solve(*G, nullptr);
    benchmark::DoNotOptimize(N);
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_TabledCallMicro);

/// Answer INSERTION under the canonical tabling workload -- transitive
/// closure of a complete digraph. Answers are derived many times over
/// (every intermediate vertex re-derives every path), and the recursive
/// calls path(v, Y) are partially bound, which is where substitution
/// factoring pays: each derivation walks only the binding of Y.
void BM_AnswerInsertMicro(benchmark::State &State) {
  const int N = 12;
  std::string Prog = ":- table path/2.\n"
                     "path(X, Y) :- edge(X, Y).\n"
                     "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      Prog += "edge(" + std::to_string(I) + ", " + std::to_string(J) + ").\n";
  SymbolTable Syms;
  Database DB(Syms);
  (void)DB.consult(Prog);
  for (auto _ : State) {
    Solver Engine(DB);
    auto G = Parser::parseTerm(Syms, Engine.store(), "path(X, Y)");
    size_t Sols = Engine.solve(*G, nullptr);
    benchmark::DoNotOptimize(Sols);
  }
  // recordAnswer calls per run: 2N^2 unique answers + 2N^2 duplicates.
  State.SetItemsProcessed(State.iterations() * 4 * N * N);
}
BENCHMARK(BM_AnswerInsertMicro);

/// A/B ablation of answer provenance (Options::RecordProvenance) on the
/// same complete-digraph closure as BM_AnswerInsertMicro: every unique
/// answer additionally records its producing clause and consumed premise
/// answers. Arg: 1 = recording on, 0 = off (the null-cost path — one
/// pointer test per hook). The delta is the full recording cost including
/// premise-stack maintenance around every tabled answer return.
void BM_RecordAnswerProvenance(benchmark::State &State) {
  const int N = 12;
  std::string Prog = ":- table path/2.\n"
                     "path(X, Y) :- edge(X, Y).\n"
                     "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      Prog += "edge(" + std::to_string(I) + ", " + std::to_string(J) +
              ").\n";
  SymbolTable Syms;
  Database DB(Syms);
  (void)DB.consult(Prog);
  Solver::Options EO;
  EO.RecordProvenance = State.range(0) != 0;
  for (auto _ : State) {
    Solver Engine(DB, EO);
    auto G = Parser::parseTerm(Syms, Engine.store(), "path(X, Y)");
    size_t Sols = Engine.solve(*G, nullptr);
    benchmark::DoNotOptimize(Sols);
  }
  State.SetItemsProcessed(State.iterations() * 4 * N * N);
}
BENCHMARK(BM_RecordAnswerProvenance)->Arg(0)->Arg(1);

/// A/B ablation of the engine observer on the same complete-digraph
/// closure. Arg 0: no observer and no query context (the batch default;
/// one pointer test per event site). Arg 1: a daemon-session-shaped
/// observer — a tracer with no sink, a metrics registry, a sampling cursor
/// nobody reads, a flight recorder and a cost profile — plus a query
/// context whose deadline is armed but unreachable. The delta is the full
/// cost of the telemetry a session keeps attached (per-predicate counters,
/// seqlock publishes, clock reads at producer switches, decimated
/// deadline checks); Arg 0 pins the detached path, which must not regress
/// when event hooks change.
void BM_EvalObserver(benchmark::State &State) {
  const int N = 12;
  std::string Prog = ":- table path/2.\n"
                     "path(X, Y) :- edge(X, Y).\n"
                     "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      Prog += "edge(" + std::to_string(I) + ", " + std::to_string(J) +
              ").\n";
  SymbolTable Syms;
  Database DB(Syms);
  (void)DB.consult(Prog);
  Tracer Trace;
  MetricsRegistry Metrics;
  EvalCursor Cursor;
  FlightRecorder Recorder;
  CostProfile Costs;
  EvalObserver Obs;
  Obs.Trace = &Trace;
  Obs.Metrics = &Metrics;
  Obs.Cursor = &Cursor;
  Obs.Recorder = &Recorder;
  Obs.Costs = &Costs;
  QueryContext Ctx;
  Ctx.DeadlineNs = ~uint64_t(0); // Armed but unreachable.
  for (auto _ : State) {
    Solver Engine(DB);
    if (State.range(0) != 0) {
      ++Ctx.Id;
      Engine.setObserver(&Obs);
      Engine.setQueryContext(&Ctx);
    }
    auto G = Parser::parseTerm(Syms, Engine.store(), "path(X, Y)");
    size_t Sols = Engine.solve(*G, nullptr);
    benchmark::DoNotOptimize(Sols);
  }
  State.SetItemsProcessed(State.iterations() * 4 * N * N);
}
BENCHMARK(BM_EvalObserver)->Arg(0)->Arg(1);

/// Supplementary-frontier state probes: VariantCodeStore::insert of a
/// 6-root projected state with 3 variables, (p(X, f(Y), I), X, Y, g(Z, X),
/// Z, h(I, [Y])), for 1024 distinct I. Arg 0: every probe misses, so it is
/// encoded and stored; the level is replaced by an empty one (untimed)
/// after each 1024. Arg 1: every probe hits a level already holding all
/// 1024, so it is encoded, found and dropped.
void BM_FrontierStateProbe(benchmark::State &State) {
  constexpr size_t NumStates = 1024;
  SymbolTable Syms;
  TermStore Heap;
  SymbolId P = Syms.intern("p"), F = Syms.intern("f"), G = Syms.intern("g"),
           H = Syms.intern("h");
  std::vector<std::array<TermRef, 6>> States;
  for (size_t I = 0; I < NumStates; ++I) {
    TermRef X = Heap.mkVar(), Y = Heap.mkVar(), Z = Heap.mkVar();
    TermRef N = Heap.mkInt(static_cast<int64_t>(I));
    TermRef CallArgs[3] = {X, Heap.mkStruct(F, {&Y, 1}), N};
    TermRef GArgs[2] = {Z, X};
    TermRef HArgs[2] = {N, Heap.mkList(Syms, {&Y, 1})};
    States.push_back({Heap.mkStruct(P, CallArgs), X, Y,
                      Heap.mkStruct(G, GArgs), Z, Heap.mkStruct(H, HArgs)});
  }
  bool Hit = State.range(0) != 0;
  auto Level = std::make_unique<VariantCodeStore>(1);
  if (Hit)
    for (const auto &S : States)
      Level->insert(0, Heap, S);
  size_t Next = 0;
  for (auto _ : State) {
    if (Next == NumStates) {
      Next = 0;
      if (!Hit) {
        State.PauseTiming();
        Level = std::make_unique<VariantCodeStore>(1);
        State.ResumeTiming();
      }
    }
    benchmark::DoNotOptimize(Level->insert(0, Heap, States[Next++]));
    benchmark::ClobberMemory();
  }
  State.SetItemsProcessed(State.iterations());
}
BENCHMARK(BM_FrontierStateProbe)->Arg(0)->Arg(1);

void BM_TabledFib(benchmark::State &State) {
  const char *Prog = ":- table fib/2.\n"
                     "fib(0, 0). fib(1, 1).\n"
                     "fib(N, F) :- N > 1, N1 is N - 1, N2 is N - 2,\n"
                     "             fib(N1, F1), fib(N2, F2), F is F1 + F2.\n";
  for (auto _ : State) {
    SymbolTable Syms;
    Database DB(Syms);
    (void)DB.consult(Prog);
    Solver Engine(DB);
    auto G = Parser::parseTerm(Syms, Engine.store(), "fib(25, F)");
    benchmark::DoNotOptimize(Engine.solveOnce(*G));
  }
}
BENCHMARK(BM_TabledFib);

} // namespace

// Like BENCHMARK_MAIN(), but every run leaves a JSON trajectory file:
// unless the caller passes --benchmark_out themselves, results also go to
// bench/out/bench_engine_micro.json (gitignored; created on demand).
// "--json PATH" (the flag the table harnesses take) is translated to
// --benchmark_out=PATH.
int main(int argc, char **argv) {
  std::vector<char *> Args;
  Args.push_back(argv[0]);
  std::string OutFlag = "--benchmark_out=bench/out/bench_engine_micro.json";
  std::string FmtFlag = "--benchmark_out_format=json";
  bool HasOut = false;
  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (A == "--json" && I + 1 < argc) {
      OutFlag = std::string("--benchmark_out=") + argv[I + 1];
      HasOut = false;
      ++I;
      continue;
    }
    if (A.substr(0, 7) == "--json=") {
      OutFlag = std::string("--benchmark_out=") + std::string(A.substr(7));
      HasOut = false;
      continue;
    }
    if (A.substr(0, 16) == "--benchmark_out=")
      HasOut = true;
    Args.push_back(argv[I]);
  }
  if (!HasOut) {
    // google-benchmark fopen()s the out path without creating directories.
    std::filesystem::path Parent =
        std::filesystem::path(OutFlag.substr(16)).parent_path();
    if (!Parent.empty()) {
      std::error_code EC;
      std::filesystem::create_directories(Parent, EC);
    }
    Args.push_back(OutFlag.data());
    Args.push_back(FmtFlag.data());
  }
  // Provenance in the benchmark context block, mirroring
  // BenchUtil::writeBenchMeta for the google-benchmark JSON schema.
  benchmark::AddCustomContext("git_sha", LPA_GIT_SHA);
  benchmark::AddCustomContext("build_type", LPA_BUILD_TYPE);
  int Argc = static_cast<int>(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
