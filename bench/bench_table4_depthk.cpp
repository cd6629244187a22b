//===- bench_table4_depthk.cpp - Regenerate Table 4 -------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Table 4: "Performance of groundness analysis with term depth
// abstraction" (Section 5's non-enumerative analysis). The paper reports
// nine of the twelve benchmarks — gabriel, press1 and press2 are absent
// from its table; we run the same nine and additionally report the three
// missing ones under the widening thresholds that make them tractable.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchFleet.h"
#include "bench/BenchUtil.h"
#include "corpus/Corpus.h"
#include "depthk/DepthK.h"
#include "obs/Metrics.h"
#include "support/TableFormat.h"

#include <cstdio>
#include <set>
#include <string>

using namespace lpa;

int main(int argc, char **argv) {
  std::printf("Table 4: groundness with term-depth abstraction, k=2 "
              "(ours in ms; paper columns in seconds, SPARC 20)\n\n");

  // The nine rows of the paper's Table 4.
  const std::set<std::string> PaperRows{"cs",   "disj",  "kalah",
                                        "peep", "pg",    "plan",
                                        "qsort", "queens", "read"};

  TextTable Out;
  Out.addRow({"Program", "Preproc", "Analysis", "Collect", "Total",
              "Table(B)", "Calls", "Widen", "|", "paperTot(s)",
              "paperTab(B)"});

  std::string Json;
  JsonWriter W(Json);
  W.beginObject();
  W.member("benchmark", "table4_depthk");
  writeBenchMeta(W);
  W.key("programs");
  W.beginArray();

  int Failures = 0;
  for (const CorpusProgram &P : prologBenchmarks()) {
    uint64_t Calls = 0, Widenings = 0;
    MeasuredRow Best = bestOf(3, [&]() {
      MeasuredRow Row;
      SymbolTable Symbols;
      DepthKAnalyzer Analyzer(Symbols);
      auto R = Analyzer.analyze(P.Source);
      if (!R) {
        Row.Error = R.getError().str();
        return Row;
      }
      Row.PreprocMs = R->PreprocSeconds * 1e3;
      Row.AnalysisMs = R->AnalysisSeconds * 1e3;
      Row.CollectMs = R->CollectSeconds * 1e3;
      Row.TableBytes = R->TableSpaceBytes;
      Calls = R->NumCallPatterns;
      Widenings = R->Widenings;
      Row.Ok = true;
      return Row;
    });
    if (!Best.Ok) {
      std::fprintf(stderr, "%s: %s\n", P.Name, Best.Error.c_str());
      ++Failures;
      continue;
    }

    bool InPaper = PaperRows.count(P.Name) > 0;
    std::string Name = P.Name;
    if (!InPaper)
      Name += "*";
    Out.addRow({Name, ms(Best.PreprocMs), ms(Best.AnalysisMs),
                ms(Best.CollectMs), ms(Best.totalMs()),
                std::to_string(Best.TableBytes), std::to_string(Calls),
                std::to_string(Widenings), "|",
                paperSec(P.Table4.Total),
                P.Table4.TableBytes < 0 ? "-"
                                        : std::to_string(P.Table4.TableBytes)});

    // Instrumented re-run for per-predicate call-pattern/answer detail.
    MetricsRegistry Reg;
    {
      SymbolTable Symbols;
      DepthKAnalyzer::Options ObsOpts;
      ObsOpts.Metrics = &Reg;
      DepthKAnalyzer Analyzer(Symbols, ObsOpts);
      (void)Analyzer.analyze(P.Source);
    }
    W.beginObject();
    W.member("name", P.Name);
    W.member("in_paper_table", InPaper);
    writeMeasuredRow(W, Best);
    W.member("table_bytes", static_cast<uint64_t>(Best.TableBytes));
    W.member("call_patterns", Calls);
    W.member("widenings", Widenings);
    W.key("metrics");
    Reg.writeJson(W);
    W.endObject();
  }

  W.endArray();

  // Parallel arm: the 12 programs through depth-k on the fleet.
  Failures +=
      runFleetPhase(W, "fleet", CorpusJobKind::DepthK, jobsArg(argc, argv),
                    provenanceArg(argc, argv), sampleHzArg(argc, argv),
                    foldedOutArg(argc, argv));

  W.endObject();
  std::printf("%s\n", Out.render().c_str());
  writeJsonFile(jsonOutPath(argc, argv, "bench/out/bench_table4_depthk.json"),
                Json);
  std::printf(
      "Notes:\n"
      " * Rows marked '*' (gabriel, press1, press2) are absent from the\n"
      "   paper's Table 4; they are tractable here only because of the\n"
      "   answer/call widening (Section 6's proposed on-the-fly\n"
      "   approximation, which we implement).\n"
      " * Shape checks vs the paper: depth-k tables are larger than the\n"
      "   Prop tables for the same programs (compare Table 1), and\n"
      "   qsort/queens are the lightest rows. Unlike the paper, read is\n"
      "   not the heaviest: the answer widening folds its tables most\n"
      "   often of the paper's rows, and kalah leads in time and bytes.\n");
  return Failures;
}
