//===- Workloads.h - The benchmark's four workloads -------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads: three seeded passes over the paper's corpora (Tables 1-4)
/// and one seeded editing session against the daemon's request handler.
/// Every analyzer, solver and session is built with explicit options,
/// serial (EvalWorkers = 0), in this one process.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Harness.h"

#include "engine/Solver.h"

#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Sets the engine.* and table.* per-layer metrics from the counters and
/// table peaks of one pass and the engine's analysis time in it.
void setEngineMetrics(const lpa::EvalStats &Stats,
                      const lpa::TableWatermarks &Water, double AnalysisMs,
                      RunResult &R);

/// \name Corpus workloads: prop_corpus, strict_corpus, depthk_corpus.
/// @{

/// \returns true for the three corpus workload names.
bool isCorpusWorkload(const std::string &Name);

/// Program order of timed pass \p Pass (a seeded permutation of 0..N-1).
std::vector<size_t> passOrder(uint64_t Seed, uint64_t Pass, size_t N);

RunResult runCorpusWorkload(const RunConfig &C);

/// Analyzes every program of every corpus once and writes the golden
/// fingerprint files (<workload>.txt) into \p Dir. \returns false on any
/// analysis or I/O failure.
bool writeGoldenFingerprints(const std::string &Dir);

/// @}

/// \name The session_edit workload.
/// @{

/// One graph's edge set: (from, to) node numbers.
using EdgeSet = std::set<std::pair<int, int>>;

/// Nodes reachable from \p From over one or more edges (BFS), ascending.
std::vector<int> reachableFrom(const EdgeSet &Edges, int From);

/// One request of the op stream plus what its response must say.
struct SessionOp {
  enum Kind : uint8_t {
    PathQuery,  ///< path_k(nI, X): bound first argument.
    OpenQuery,  ///< path_k(X, Y).
    CountQuery, ///< count(N, S): nontabled recursion.
    Consult,    ///< Adds one edge.
    Retract,    ///< Removes one edge.
    Stats,
    Inspect,
    Metrics,
  };
  Kind K = PathQuery;
  std::string Line; ///< The JSON request line.
  /// Expected answers of a query, rendered as the session renders them and
  /// sorted: path_k(nI,nJ) terms, or the one count(N,S) term.
  std::vector<std::string> Expected;
};

/// The seeded input of one session: the initial program and the op
/// stream, with the oracle's answers computed against the edge set each
/// op sees.
struct SessionScript {
  std::string Program;
  std::vector<SessionOp> Ops;
};

SessionScript generateSession(uint64_t Seed);

/// Checks \p Response against \p Op's expectation; on failure \p Why says
/// what differed.
bool checkResponse(const SessionOp &Op, const std::string &Response,
                   std::string &Why);

RunResult runSessionWorkload(const RunConfig &C);

/// @}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
