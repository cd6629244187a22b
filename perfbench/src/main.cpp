//===- main.cpp - The repository benchmark's command line -----------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--golden DIR] [--out DIR]
//   perfbench --write-golden DIR
//
// Runs one workload (prop_corpus, strict_corpus, depthk_corpus,
// session_edit) and prints, as the last stdout line, one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// perfbench/run.py builds this binary and is the intended entry point.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string_view>

using namespace perfbench;

namespace {

struct CatalogEntry {
  const char *Name;
  const char *Unit;
};

/// End-to-end metrics, reported by every workload on an untraced run.
const CatalogEntry EndToEnd[] = {
    {"pass_ms", "ms"},         {"table_bytes", "bytes"},
    {"peak_rss_mb", "MB"},
    {"query_us_p50", "us"},    {"query_us_p99", "us"},
    {"mutation_ms_p50", "ms"}, {"ops_per_s", "1/s"},
    {"setup_s", "s"},
};

/// Per-layer metrics, reported by every workload on a traced run; a layer
/// the workload does not exercise reads 0.
const CatalogEntry PerLayer[] = {
    {"reader.compile_ms", "ms"},
    {"fl.compile_ms", "ms"},
    {"prop.preproc_ms", "ms"},
    {"prop.collect_ms", "ms"},
    {"strictness.preproc_ms", "ms"},
    {"strictness.collect_ms", "ms"},
    {"engine.analysis_ms", "ms"},
    {"engine.resolutions", "count"},
    {"engine.ns_per_resolution", "ns"},
    {"engine.tabled_calls", "count"},
    {"engine.subgoals", "count"},
    {"engine.answers", "count"},
    {"engine.answer_dup_ratio", "ratio"},
    {"engine.fixpoint_rounds", "count"},
    {"engine.index_skip_ratio", "ratio"},
    {"engine.builtin_evals", "count"},
    {"table.trie_hit_ratio", "ratio"},
    {"table.trie_nodes", "count"},
    {"table.peak_termstore_bytes", "bytes"},
    {"table.peak_answer_bytes", "bytes"},
    {"table.peak_frontier_bytes", "bytes"},
    {"table.frontier_bytes_freed", "bytes"},
    {"baseline.analyze_ms", "ms"},
    {"baseline.engine_ratio_geomean", "ratio"},
    {"depthk.preproc_ms", "ms"},
    {"depthk.analysis_ms", "ms"},
    {"depthk.collect_ms", "ms"},
    {"depthk.call_patterns", "count"},
    {"depthk.answers", "count"},
    {"depthk.producer_runs", "count"},
    {"depthk.widenings", "count"},
    {"depthk.table_bytes", "bytes"},
    {"srv.query_warm_us_p50", "us"},
    {"srv.query_cold_us_p50", "us"},
    {"srv.protocol_us_p50", "us"},
    {"srv.count_query_us_p50", "us"},
    {"srv.consult_ms_p50", "ms"},
    {"srv.retract_ms_p50", "ms"},
    {"srv.telemetry_ms_p50", "ms"},
    {"srv.warm_hit_rate", "ratio"},
    {"engine.tables_invalidated", "count"},
    {"engine.tables_survived", "count"},
    {"engine.sweep_survival_ratio", "ratio"},
    {"engine.tables_revived", "count"},
    {"trace.overhead_pct", "%"},
    {"error_rate", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--golden DIR] [--out DIR]\n"
               "       perfbench --write-golden DIR\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig C;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (I + 1 >= argc)
      return usage();
    const char *V = argv[++I];
    if (A == "--workload") {
      C.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      C.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      C.Seconds = std::strtod(V, nullptr);
    } else if (A == "--trace") {
      C.Trace = std::string_view(V) == "1";
    } else if (A == "--golden") {
      C.GoldenDir = V;
    } else if (A == "--out") {
      C.OutDir = V;
    } else if (A == "--write-golden") {
      return writeGoldenFingerprints(V) ? 0 : 1;
    } else {
      return usage();
    }
  }
  if (!HaveWorkload || !(C.Seconds > 0))
    return usage();

  RunResult R;
  if (isCorpusWorkload(C.Workload))
    R = runCorpusWorkload(C);
  else if (C.Workload == "session_edit")
    R = runSessionWorkload(C);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", C.Workload.c_str());
    return 2;
  }
  R.set("error_rate", R.Errors.rate());

  for (const std::string &L : R.Report)
    std::printf("%s\n", L.c_str());
  for (const std::string &F : R.Errors.firstFailures())
    std::fprintf(stderr, "FAILED %s\n", F.c_str());

  std::span<const CatalogEntry> Catalog =
      C.Trace ? std::span<const CatalogEntry>(PerLayer)
              : std::span<const CatalogEntry>(EndToEnd);
  for (const auto &[Name, Value] : R.Values) {
    bool Known = Name == "error_rate";
    for (const CatalogEntry &E : Catalog)
      Known = Known || Name == E.Name;
    if (!Known) {
      std::fprintf(stderr, "metric '%s' is not in the catalog\n", Name.c_str());
      return 3;
    }
  }
  std::vector<Metric> Out;
  for (const CatalogEntry &E : Catalog) {
    auto It = R.Values.find(E.Name);
    Out.push_back({E.Name, It == R.Values.end() ? 0.0 : It->second, E.Unit});
  }
  std::printf("%s\n", resultLine(R.Errors, Out).c_str());
  return 0;
}
