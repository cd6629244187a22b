//===- CorpusWorkloads.cpp - Seeded passes over the paper's corpora -------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// prop_corpus   - the 12 Prolog programs under Prop groundness (Tables 1/2),
//                 each checked against the GAIA-like baseline, which also
//                 runs in the pass as the yardstick;
// strict_corpus - the 10 FL programs under strictness (Table 3);
// depthk_corpus - the 12 Prolog programs under depth-k, k = 2 (Table 4).
//
// A pass reads+loads each program concretely (the compile denominator of
// Tables 1 and 3), then analyzes it. The seed fixes the program order of
// every pass. Results are checked after the pass's clock stops.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "baseline/GaiaLike.h"
#include "corpus/Corpus.h"
#include "depthk/DepthK.h"
#include "prop/Groundness.h"
#include "strictness/Strictness.h"
#include "support/TableFormat.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

using namespace lpa;
using namespace perfbench;

namespace {

enum class Kind { Prop, Strict, DepthK };

/// Set-ups before the warm-up pass; one more precedes every timed pass.
constexpr int InitialSetups = 3;

/// Back-to-back repeats of each program's concrete read+load in a pass. It
/// takes well under a millisecond, and the fastest repeat is the pass's
/// sample, so its minimum over passes rests on more samples; this matters
/// on depthk_corpus, whose runs hold fewer than 20 passes.
constexpr int CompileRepeats = 3;

Kind kindOf(const std::string &Workload) {
  if (Workload == "strict_corpus")
    return Kind::Strict;
  if (Workload == "depthk_corpus")
    return Kind::DepthK;
  return Kind::Prop;
}

const char *workloadName(Kind K) {
  switch (K) {
  case Kind::Prop:
    return "prop_corpus";
  case Kind::Strict:
    return "strict_corpus";
  case Kind::DepthK:
    return "depthk_corpus";
  }
  return "";
}

const std::vector<CorpusProgram> &programsOf(Kind K) {
  return K == Kind::Strict ? flBenchmarks() : prologBenchmarks();
}

/// \name Explicit options: serial evaluation, every other knob at its
/// documented default. No process-wide default is read or written.
/// @{
Solver::Options engineOptions() {
  Solver::Options O;
  O.EvalWorkers = 0;
  return O;
}

GroundnessAnalyzer::Options propOptions(MetricsRegistry *Registry) {
  GroundnessAnalyzer::Options O;
  O.Engine = engineOptions();
  O.Metrics = Registry;
  return O;
}

StrictnessAnalyzer::Options strictOptions() {
  StrictnessAnalyzer::Options O;
  O.Engine = engineOptions();
  return O;
}

DepthKAnalyzer::Options depthkOptions() {
  DepthKAnalyzer::Options O;
  O.Depth = 2;
  return O;
}

GaiaLikeAnalyzer::Options baselineOptions() {
  GaiaLikeAnalyzer::Options O;
  O.Seminaive = true;
  return O;
}
/// @}

/// One program analyzed in one pass.
struct ProgramRun {
  size_t Index = 0;
  double CompileUs = 0;
  double AnalyzeUs = 0;
  double BaselineUs = 0;
  double PreprocS = 0, AnalysisS = 0, CollectS = 0;
  double BaselineTotalS = 0;
  uint64_t TableBytes = 0;
  EvalStats Stats;
  /// Table watermarks (traced passes only: read from a metrics registry).
  uint64_t PeakTermStore = 0, PeakAnswer = 0, PeakFrontier = 0;
  /// Depth-k result counters.
  uint64_t CallPatterns = 0, Answers = 0, ProducerRuns = 0, Widenings = 0;
  std::string Error;
  /// Results kept until the pass's clock has stopped, then checked and
  /// dropped.
  std::optional<GroundnessResult> Prop;
  std::optional<BaselineResult> Base;
  std::optional<StrictnessResult> Strict;
  std::optional<DepthKResult> DK;

  double engineTotalS() const { return PreprocS + AnalysisS + CollectS; }
  double totalUs() const { return CompileUs + AnalyzeUs + BaselineUs; }
};

struct PassRun {
  double WallMs = 0;
  std::vector<ProgramRun> Programs;
};

std::string joinSorted(std::vector<std::string> Lines) {
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

std::string bits(const std::vector<uint8_t> &V) {
  std::string Out;
  for (uint8_t B : V)
    Out += B ? '1' : '0';
  return Out;
}

std::string canonicalProp(const GroundnessResult &R) {
  std::vector<std::string> Lines;
  for (const PredGroundness &P : R.Predicates)
    Lines.push_back(P.Name + "/" + std::to_string(P.Arity) +
                    " call=" + formatTruthTable(P.CallPatterns) +
                    " succ=" + formatTruthTable(P.SuccessSet));
  return joinSorted(std::move(Lines));
}

std::string canonicalStrict(const StrictnessResult &R) {
  std::vector<std::string> Lines;
  for (const FuncStrictness &F : R.Functions)
    Lines.push_back(std::to_string(F.Arity) + " " + F.summary());
  return joinSorted(std::move(Lines));
}

std::string canonicalDepthK(const DepthKResult &R) {
  std::vector<std::string> Lines;
  for (const DepthKPred &P : R.Predicates) {
    std::vector<std::string> Ans = P.AnswerPatterns, Calls = P.CallPatterns;
    std::sort(Ans.begin(), Ans.end());
    std::sort(Calls.begin(), Calls.end());
    std::string L = P.Name + "/" + std::to_string(P.Arity) + " ans=";
    for (const std::string &A : Ans)
      L += A + ";";
    L += " calls=";
    for (const std::string &C : Calls)
      L += C + ";";
    L += " ground=" + bits(P.GroundOnSuccess) +
         (P.CanSucceed ? " succeeds" : " fails");
    Lines.push_back(std::move(L));
  }
  return joinSorted(std::move(Lines));
}

/// The independent-implementation oracle: the baseline must compute the
/// same success set for every predicate.
bool baselineAgrees(const GroundnessResult &E, const BaselineResult &B,
                    std::string &Why) {
  if (E.Predicates.size() != B.Predicates.size()) {
    Why = "baseline has a different predicate count";
    return false;
  }
  for (const PredGroundness &P : E.Predicates) {
    const PredGroundness *Q = B.find(P.Name, P.Arity);
    if (!Q || Q->SuccessSet != P.SuccessSet) {
      Why = "success set of " + P.Name + "/" + std::to_string(P.Arity) +
            " differs from the baseline";
      return false;
    }
  }
  return true;
}

uint64_t watermark(const MetricsRegistry &M, std::string_view Name) {
  for (const auto &[N, V] : M.watermarks())
    if (N == Name)
      return V;
  return 0;
}

/// Reads and loads \p Source concretely (the compile denominator of Tables
/// 1 and 3). \returns the error, or "" on success.
std::string compileOnce(Kind K, const std::string &Source) {
  SymbolTable Symbols;
  ErrorOr<double> Compile =
      K == Kind::Strict
          ? StrictnessAnalyzer(strictOptions()).measureCompileSeconds(Source)
          : GroundnessAnalyzer(Symbols, propOptions(nullptr))
                .measureCompileSeconds(Source);
  return Compile ? "" : Compile.getError().str();
}

/// Compile (read+load concretely), analyze and, for Prop, run the baseline:
/// each call timed from outside and recorded as a span under \p Parent.
void analyzeProgram(Kind K, const std::string &Source, SpanRecorder &Spans,
                    int64_t Parent, uint64_t Group, ProgramRun &Out) {
  double T0 = 0, T1 = 0;
  for (int Rep = 0; Rep < CompileRepeats; ++Rep) {
    T0 = nowUs();
    std::string Err = compileOnce(K, Source);
    if (!Err.empty() && Out.Error.empty())
      Out.Error = "compile: " + Err;
    T1 = nowUs();
    Out.CompileUs = Rep ? std::min(Out.CompileUs, T1 - T0) : T1 - T0;
    Spans.add("compile", "", T0, T1, Parent, Group);
  }

  MetricsRegistry Registry;
  MetricsRegistry *Reg = Spans.enabled() ? &Registry : nullptr;
  SymbolTable Symbols;
  T0 = nowUs();
  std::string Err;
  switch (K) {
  case Kind::Prop: {
    GroundnessAnalyzer A(Symbols, propOptions(Reg));
    auto R = A.analyze(Source);
    if (R)
      Out.Prop = std::move(*R);
    else
      Err = R.getError().str();
    break;
  }
  case Kind::Strict: {
    StrictnessAnalyzer A(strictOptions());
    A.setObservability(nullptr, Reg);
    auto R = A.analyze(Source);
    if (R)
      Out.Strict = std::move(*R);
    else
      Err = R.getError().str();
    break;
  }
  case Kind::DepthK: {
    DepthKAnalyzer A(Symbols, depthkOptions());
    auto R = A.analyze(Source);
    if (R)
      Out.DK = std::move(*R);
    else
      Err = R.getError().str();
    break;
  }
  }
  T1 = nowUs();
  Out.AnalyzeUs = T1 - T0;
  if (!Err.empty() && Out.Error.empty())
    Out.Error = "analyze: " + Err;

  if (Out.Prop) {
    Out.PreprocS = Out.Prop->PreprocSeconds;
    Out.AnalysisS = Out.Prop->AnalysisSeconds;
    Out.CollectS = Out.Prop->CollectSeconds;
    Out.TableBytes = Out.Prop->TableSpaceBytes;
    Out.Stats = Out.Prop->Stats;
  } else if (Out.Strict) {
    Out.PreprocS = Out.Strict->PreprocSeconds;
    Out.AnalysisS = Out.Strict->AnalysisSeconds;
    Out.CollectS = Out.Strict->CollectSeconds;
    Out.TableBytes = Out.Strict->TableSpaceBytes;
    Out.Stats = Out.Strict->Stats;
  } else if (Out.DK) {
    Out.PreprocS = Out.DK->PreprocSeconds;
    Out.AnalysisS = Out.DK->AnalysisSeconds;
    Out.CollectS = Out.DK->CollectSeconds;
    Out.TableBytes = Out.DK->TableSpaceBytes;
    Out.CallPatterns = Out.DK->NumCallPatterns;
    Out.Answers = Out.DK->NumAnswers;
    Out.ProducerRuns = Out.DK->FixpointRounds;
    Out.Widenings = Out.DK->Widenings;
  }
  if (Reg) {
    Out.PeakTermStore = watermark(Registry, "peak_term_store_bytes");
    Out.PeakAnswer = watermark(Registry, "peak_subgoal_answer_bytes");
    Out.PeakFrontier = watermark(Registry, "peak_scc_frontier_bytes");
  }
  if (Spans.enabled()) {
    // The phase children come from the result's own phase timings, laid
    // end to end from the start of the call.
    int64_t A = Spans.add("analyze", "", T0, T1, Parent, Group);
    double At = T0;
    for (auto [Name, S] : {std::pair{"preproc", Out.PreprocS},
                           std::pair{"analysis", Out.AnalysisS},
                           std::pair{"collect", Out.CollectS}}) {
      Spans.add(Name, "", At, At + S * 1e6, A, Group);
      At += S * 1e6;
    }
  }

  if (K != Kind::Prop)
    return;
  T0 = nowUs();
  {
    SymbolTable BaseSymbols;
    GaiaLikeAnalyzer B(BaseSymbols, baselineOptions());
    auto R = B.analyze(Source);
    if (R)
      Out.Base = std::move(*R);
    else if (Out.Error.empty())
      Out.Error = "baseline: " + R.getError().str();
  }
  T1 = nowUs();
  Out.BaselineUs = T1 - T0;
  if (Out.Base)
    Out.BaselineTotalS = Out.Base->totalSeconds();
  Spans.add("baseline", "", T0, T1, Parent, Group);
}

PassRun runPass(Kind K, const std::vector<std::string> &Sources,
                const std::vector<size_t> &Order, SpanRecorder &Spans,
                uint64_t Group) {
  const auto &Progs = programsOf(K);
  PassRun Pass;
  Pass.Programs.resize(Order.size());
  double Start = nowUs();
  int64_t PassSpan = Spans.open("pass", "", -1, Group);
  for (size_t I = 0; I < Order.size(); ++I) {
    ProgramRun &PR = Pass.Programs[I];
    PR.Index = Order[I];
    int64_t ProgSpan = Spans.open("program", Progs[PR.Index].Name, PassSpan,
                                  Group);
    analyzeProgram(K, Sources[PR.Index], Spans, ProgSpan, Group, PR);
    Spans.close(ProgSpan);
  }
  Spans.close(PassSpan);
  Pass.WallMs = (nowUs() - Start) / 1e3;
  return Pass;
}

using GoldenMap = std::map<std::string, uint64_t>;

GoldenMap loadGolden(const std::string &Path) {
  GoldenMap G;
  std::ifstream F(Path);
  std::string Name, Hex;
  while (F >> Name >> Hex)
    G[Name] = std::stoull(Hex, nullptr, 16);
  return G;
}

/// Hash of the canonical result text of an analysis that succeeded.
uint64_t fingerprintOf(const ProgramRun &PR) {
  return fnv1a(PR.Prop     ? canonicalProp(*PR.Prop)
               : PR.Strict ? canonicalStrict(*PR.Strict)
                           : canonicalDepthK(*PR.DK));
}

/// Fingerprints and checks every program of \p Pass (one operation each),
/// then drops the kept results.
void checkPass(Kind K, PassRun &Pass, const GoldenMap &Golden,
               ErrorLedger &Errors) {
  const auto &Progs = programsOf(K);
  for (ProgramRun &PR : Pass.Programs) {
    std::string Why = PR.Error;
    if (Why.empty()) {
      auto It = Golden.find(Progs[PR.Index].Name);
      if (It == Golden.end() || It->second != fingerprintOf(PR))
        Why = "result fingerprint differs from the golden one";
      else if (PR.Prop && PR.Base)
        baselineAgrees(*PR.Prop, *PR.Base, Why);
    }
    Errors.check(Why.empty(), std::string(workloadName(K)) + " " +
                                  Progs[PR.Index].Name + ": " + Why);
    PR.Prop.reset();
    PR.Base.reset();
    PR.Strict.reset();
    PR.DK.reset();
  }
}

/// Per-pass sum of \p F over the programs.
template <typename Fn> double passSum(const PassRun &P, Fn F) {
  double S = 0;
  for (const ProgramRun &PR : P.Programs)
    S += double(F(PR));
  return S;
}

/// \p F of every program in every pass, by corpus index.
template <typename Fn>
RepeatedOps perProgram(const std::vector<PassRun> &Passes, Fn F) {
  RepeatedOps Ops;
  for (const PassRun &P : Passes)
    for (const ProgramRun &PR : P.Programs)
      Ops.add(PR.Index, double(F(PR)));
  return Ops;
}

/// Quiet-machine time of one pass, in ms: the sum over programs of each
/// program's quiet() read+load, analysis and baseline time.
double quietPassMs(const std::vector<PassRun> &Passes) {
  return perProgram(Passes, [](const ProgramRun &PR) {
           return PR.totalUs();
         }).quietSum() /
         1e3;
}

/// For corpus workloads a query is one program's analysis and a mutation
/// one program's concrete read+load. Each program's time is its quiet()
/// time over the passes; percentiles are taken over the programs.
void endToEnd(const std::vector<PassRun> &Passes,
              const std::vector<double> &SetupS, RunResult &R) {
  double PassMs = quietPassMs(Passes);
  std::vector<double> QueryUs =
      perProgram(Passes, [](const ProgramRun &PR) { return PR.AnalyzeUs; })
          .quietEach();
  std::vector<double> LoadMs =
      perProgram(Passes,
                 [](const ProgramRun &PR) { return PR.CompileUs / 1e3; })
          .quietEach();
  std::vector<double> WallMs;
  for (const PassRun &P : Passes)
    WallMs.push_back(P.WallMs);
  R.set("pass_ms", PassMs);
  R.set("table_bytes",
        passSum(Passes.front(), [](const ProgramRun &PR) {
          return PR.TableBytes;
        }));
  R.set("peak_rss_mb", peakRssMb());
  R.set("query_us_p50", nearestRank(QueryUs, 50).Value);
  R.set("query_us_p99", nearestRank(QueryUs, 99).Value);
  R.set("mutation_ms_p50", nearestRank(LoadMs, 50).Value);
  R.set("ops_per_s", ratio(double(QueryUs.size()), PassMs / 1e3));
  R.set("setup_s", median(SetupS));
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "samples: %zu passes of %zu programs, each program's time "
                "its minimum over the passes; median pass wall %.3f ms "
                "(the machine's load); setup_s over %zu set-ups",
                Passes.size(), QueryUs.size(), median(WallMs), SetupS.size());
  R.Report.push_back(Buf);
}

/// Per-layer metrics of the traced passes. Times are sums over programs of
/// each program's quiet() time; counts are per pass (every pass does the
/// same work).
void perLayer(Kind K, const std::vector<PassRun> &Passes, RunResult &R) {
  const PassRun &First = Passes.front();
  auto Count = [&](auto F) { return passSum(First, F); };
  auto QuietMs = [&](auto F) { return perProgram(Passes, F).quietSum(); };
  double CompileMs =
      QuietMs([](const ProgramRun &PR) { return PR.CompileUs / 1e3; });
  double PreMs =
      QuietMs([](const ProgramRun &PR) { return PR.PreprocS * 1e3; });
  double AnaMs =
      QuietMs([](const ProgramRun &PR) { return PR.AnalysisS * 1e3; });
  double ColMs =
      QuietMs([](const ProgramRun &PR) { return PR.CollectS * 1e3; });

  if (K == Kind::DepthK) {
    R.set("reader.compile_ms", CompileMs);
    R.set("depthk.preproc_ms", PreMs);
    R.set("depthk.analysis_ms", AnaMs);
    R.set("depthk.collect_ms", ColMs);
    R.set("depthk.call_patterns",
          Count([](const ProgramRun &PR) { return PR.CallPatterns; }));
    R.set("depthk.answers",
          Count([](const ProgramRun &PR) { return PR.Answers; }));
    R.set("depthk.producer_runs",
          Count([](const ProgramRun &PR) { return PR.ProducerRuns; }));
    R.set("depthk.widenings",
          Count([](const ProgramRun &PR) { return PR.Widenings; }));
    R.set("depthk.table_bytes",
          Count([](const ProgramRun &PR) { return PR.TableBytes; }));
    return;
  }

  const char *Layer = K == Kind::Prop ? "prop" : "strictness";
  R.set(K == Kind::Prop ? "reader.compile_ms" : "fl.compile_ms", CompileMs);
  R.set(std::string(Layer) + ".preproc_ms", PreMs);
  R.set(std::string(Layer) + ".collect_ms", ColMs);

  // Engine counters and table peaks summed over the programs of one pass.
  EvalStats Sum;
  TableWatermarks Water;
  for (const ProgramRun &PR : First.Programs) {
    for (uint64_t EvalStats::*Field :
         {&EvalStats::ClauseResolutions, &EvalStats::TabledCalls,
          &EvalStats::SubgoalsCreated, &EvalStats::AnswersRecorded,
          &EvalStats::AnswersDuplicate, &EvalStats::FixpointRounds,
          &EvalStats::ClauseIndexFiltered, &EvalStats::BuiltinEvals,
          &EvalStats::TrieHits, &EvalStats::TrieMisses,
          &EvalStats::TrieNodesCreated, &EvalStats::FrontierBytesFreed})
      Sum.*Field += PR.Stats.*Field;
    Water.PeakTermStoreBytes += PR.PeakTermStore;
    Water.PeakSubgoalAnswerBytes += PR.PeakAnswer;
    Water.PeakSccFrontierBytes += PR.PeakFrontier;
  }
  setEngineMetrics(Sum, Water, AnaMs, R);

  if (K != Kind::Prop)
    return;
  R.set("baseline.analyze_ms",
        QuietMs([](const ProgramRun &PR) { return PR.BaselineUs / 1e3; }));
}

/// Quiet-machine value of \p F over the passes for the program with corpus
/// index \p Index.
template <typename Fn>
double programQuiet(const std::vector<PassRun> &Passes, size_t Index, Fn F) {
  std::vector<double> V;
  for (const PassRun &P : Passes)
    for (const ProgramRun &PR : P.Programs)
      if (PR.Index == Index)
        V.push_back(double(F(PR)));
  return quiet(V);
}

const ProgramRun *programIn(const PassRun &P, size_t Index) {
  for (const ProgramRun &PR : P.Programs)
    if (PR.Index == Index)
      return &PR;
  return nullptr;
}

/// The traced run's report: one row per program (minima over the
/// traced passes), the engine/baseline geometric mean beside the paper's
/// XSB/GAIA one, and self time per span name.
void report(Kind K, const std::vector<PassRun> &Passes,
            const SpanRecorder &Spans, RunResult &R) {
  const auto &Progs = programsOf(K);
  TextTable T;
  std::vector<std::string> Head = {"program",  "compile_ms", "analyze_ms",
                                   "preproc_ms", "analysis_ms", "collect_ms",
                                   "table_bytes"};
  if (K == Kind::DepthK) {
    Head.insert(Head.end(), {"call_patterns", "answers", "widenings"});
  } else {
    Head.insert(Head.end(), {"resolutions", "subgoals", "answers"});
  }
  if (K == Kind::Prop)
    Head.insert(Head.end(), {"baseline_ms", "engine/base", "paper XSB/GAIA"});
  T.addRow(Head);

  double LogSum = 0, PaperLogSum = 0;
  size_t N = 0, PaperN = 0;
  for (size_t I = 0; I < Progs.size(); ++I) {
    const ProgramRun *PR = programIn(Passes.front(), I);
    if (!PR)
      continue;
    auto Ms = [&](auto F) {
      return TextTable::fmt(programQuiet(Passes, I, F), 3);
    };
    std::vector<std::string> Row = {
        Progs[I].Name,
        Ms([](const ProgramRun &P) { return P.CompileUs / 1e3; }),
        Ms([](const ProgramRun &P) { return P.AnalyzeUs / 1e3; }),
        Ms([](const ProgramRun &P) { return P.PreprocS * 1e3; }),
        Ms([](const ProgramRun &P) { return P.AnalysisS * 1e3; }),
        Ms([](const ProgramRun &P) { return P.CollectS * 1e3; }),
        TextTable::fmt((unsigned long long)PR->TableBytes)};
    if (K == Kind::DepthK) {
      Row.push_back(TextTable::fmt((unsigned long long)PR->CallPatterns));
      Row.push_back(TextTable::fmt((unsigned long long)PR->Answers));
      Row.push_back(TextTable::fmt((unsigned long long)PR->Widenings));
    } else {
      Row.push_back(
          TextTable::fmt((unsigned long long)PR->Stats.ClauseResolutions));
      Row.push_back(
          TextTable::fmt((unsigned long long)PR->Stats.SubgoalsCreated));
      Row.push_back(
          TextTable::fmt((unsigned long long)PR->Stats.AnswersRecorded));
    }
    if (K == Kind::Prop) {
      double Eng = programQuiet(
          Passes, I, [](const ProgramRun &P) { return P.engineTotalS(); });
      double Base = programQuiet(
          Passes, I, [](const ProgramRun &P) { return P.BaselineTotalS; });
      double Ratio = ratio(Eng, Base);
      if (Ratio > 0) {
        LogSum += std::log(Ratio);
        ++N;
      }
      double Paper = ratio(Progs[I].Table1.Total, Progs[I].GaiaSeconds);
      if (Paper > 0) {
        PaperLogSum += std::log(Paper);
        ++PaperN;
      }
      Row.push_back(Ms([](const ProgramRun &P) { return P.BaselineUs / 1e3; }));
      Row.push_back(TextTable::fmt(Ratio, 2));
      Row.push_back(Paper > 0 ? TextTable::fmt(Paper, 2) : "-");
    }
    T.addRow(Row);
  }
  R.Report.push_back(std::string(workloadName(K)) + ": per-program rows, " +
                     "minima over " + std::to_string(Passes.size()) +
                     " traced passes");
  std::istringstream Lines(T.render());
  for (std::string L; std::getline(Lines, L);)
    R.Report.push_back(L);
  if (K == Kind::Prop) {
    double Geo = N ? std::exp(LogSum / double(N)) : 0.0;
    double PaperGeo = PaperN ? std::exp(PaperLogSum / double(PaperN)) : 0.0;
    R.set("baseline.engine_ratio_geomean", Geo);
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "engine/baseline total, geometric mean over %zu programs: "
                  "%.2f (paper XSB/GAIA over %zu: %.2f)",
                  N, Geo, PaperN, PaperGeo);
    R.Report.push_back(Buf);
  }

  for (std::string &L : selfTimeReport(Spans.spans(), Passes.size()))
    R.Report.push_back(std::move(L));
}

std::vector<std::string> loadSources(Kind K) {
  std::vector<std::string> Sources;
  for (const CorpusProgram &P : programsOf(K))
    Sources.emplace_back(P.Source);
  return Sources;
}

} // namespace

void perfbench::setEngineMetrics(const EvalStats &St,
                                 const TableWatermarks &Water,
                                 double AnalysisMs, RunResult &R) {
  double Res = double(St.ClauseResolutions);
  double Rec = double(St.AnswersRecorded), Dup = double(St.AnswersDuplicate);
  double Filt = double(St.ClauseIndexFiltered);
  R.set("engine.analysis_ms", AnalysisMs);
  R.set("engine.resolutions", Res);
  R.set("engine.ns_per_resolution", ratio(AnalysisMs * 1e6, Res));
  R.set("engine.tabled_calls", double(St.TabledCalls));
  R.set("engine.subgoals", double(St.SubgoalsCreated));
  R.set("engine.answers", Rec);
  R.set("engine.answer_dup_ratio", ratio(Dup, Dup + Rec));
  R.set("engine.fixpoint_rounds", double(St.FixpointRounds));
  R.set("engine.index_skip_ratio", ratio(Filt, Filt + Res));
  R.set("engine.builtin_evals", double(St.BuiltinEvals));
  R.set("table.trie_hit_ratio",
        ratio(double(St.TrieHits), double(St.TrieHits + St.TrieMisses)));
  R.set("table.trie_nodes", double(St.TrieNodesCreated));
  R.set("table.peak_termstore_bytes", double(Water.PeakTermStoreBytes));
  R.set("table.peak_answer_bytes", double(Water.PeakSubgoalAnswerBytes));
  R.set("table.peak_frontier_bytes", double(Water.PeakSccFrontierBytes));
  R.set("table.frontier_bytes_freed", double(St.FrontierBytesFreed));
}

bool perfbench::isCorpusWorkload(const std::string &Name) {
  return Name == "prop_corpus" || Name == "strict_corpus" ||
         Name == "depthk_corpus";
}

std::vector<size_t> perfbench::passOrder(uint64_t Seed, uint64_t Pass,
                                         size_t N) {
  return shuffledOrder(streamSeed(Seed, Pass), N);
}

RunResult perfbench::runCorpusWorkload(const RunConfig &C) {
  Kind K = kindOf(C.Workload);
  size_t N = programsOf(K).size();
  GoldenMap Golden = loadGolden(C.GoldenDir + "/" + C.Workload + ".txt");
  RunResult R;
  SpanRecorder Untraced(false);
  uint64_t PassNo = 0;

  // Set-up: materialize the corpus and read+load every program concretely,
  // as a user loads the programs before analyzing them. It runs
  // InitialSetups times before an untimed warm-up pass (caches filled, lazy
  // initialization done) and again before every timed pass, so its median
  // spans the whole run, as session_edit's does.
  const auto &Progs = programsOf(K);
  std::vector<std::string> Sources;
  std::vector<double> SetupS;
  auto SetUp = [&] {
    auto Start = std::chrono::steady_clock::now();
    Sources = loadSources(K);
    std::vector<std::string> Errs;
    for (const std::string &Source : Sources)
      Errs.push_back(compileOnce(K, Source));
    SetupS.push_back(secondsSince(Start));
    for (size_t I = 0; I < Errs.size(); ++I)
      R.Errors.check(Errs[I].empty(), std::string(workloadName(K)) +
                                          " set-up " + Progs[I].Name +
                                          ": " + Errs[I]);
  };
  for (int I = 0; I < InitialSetups; ++I)
    SetUp();
  PassRun Warm =
      runPass(K, Sources, passOrder(C.Seed, PassNo++, N), Untraced, 0);
  checkPass(K, Warm, Golden, R.Errors);

  auto RunPhase = [&](SpanRecorder &Spans, double Seconds) {
    std::vector<PassRun> Passes;
    auto Start = std::chrono::steady_clock::now();
    do {
      SetUp();
      Passes.push_back(
          runPass(K, Sources, passOrder(C.Seed, PassNo, N), Spans, PassNo));
      ++PassNo;
      checkPass(K, Passes.back(), Golden, R.Errors);
    } while (secondsSince(Start) < Seconds || Passes.size() < 2);
    return Passes;
  };

  if (!C.Trace) {
    endToEnd(RunPhase(Untraced, C.Seconds), SetupS, R);
    return R;
  }

  // Traced run: an untraced half for the overhead baseline, then a traced
  // half that yields the per-layer metrics.
  std::vector<PassRun> Base = RunPhase(Untraced, C.Seconds / 2);
  SpanRecorder Spans(true);
  std::vector<PassRun> Traced = RunPhase(Spans, C.Seconds / 2);
  perLayer(K, Traced, R);
  report(K, Traced, Spans, R);
  R.set("trace.overhead_pct",
        overheadPct(quietPassMs(Base), quietPassMs(Traced)));
  // One file per workload: each traced run replaces the last one's.
  std::string Path = C.OutDir + "/" + C.Workload + ".trace.json";
  if (Spans.writeChromeTrace(Path))
    R.Report.push_back("chrome trace: " + Path);
  return R;
}

bool perfbench::writeGoldenFingerprints(const std::string &Dir) {
  bool Ok = true;
  for (Kind K : {Kind::Prop, Kind::Strict, Kind::DepthK}) {
    const auto &Progs = programsOf(K);
    SpanRecorder Untraced(false);
    std::vector<size_t> Order(Progs.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    PassRun Pass = runPass(K, loadSources(K), Order, Untraced, 0);
    std::string Out;
    for (const ProgramRun &PR : Pass.Programs) {
      std::string Why = PR.Error;
      if (Why.empty() && PR.Prop && PR.Base)
        baselineAgrees(*PR.Prop, *PR.Base, Why);
      if (!Why.empty()) {
        std::fprintf(stderr, "%s %s: %s\n", workloadName(K),
                     Progs[PR.Index].Name, Why.c_str());
        Ok = false;
        continue;
      }
      char Line[128];
      std::snprintf(Line, sizeof(Line), "%s %016llx\n", Progs[PR.Index].Name,
                    (unsigned long long)fingerprintOf(PR));
      Out += Line;
    }
    std::ofstream F(Dir + "/" + workloadName(K) + ".txt");
    F << Out;
    Ok = Ok && bool(F);
  }
  return Ok;
}
