//===- Session.h - Shared REPL/daemon command layer -------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One long-lived analysis session: the loaded program, a persistent
/// Solver whose tables survive across queries (the XSB-style warm-table
/// payoff the ROADMAP's service north-star banks on), the observability
/// stack wired to it (tracer, metrics registry, sampling cursor, optional
/// background sampler), and the service telemetry (ServiceStats).
///
/// Both front ends drive this one layer: the interactive REPL
/// (examples/repl.cpp) and the lpa_serve daemon (src/srv/Protocol.h +
/// tools/lpa_serve.cpp). Each query runs under a QueryContext carrying a
/// monotonic id — so every trace event, sampler stack and warm/cold
/// counter delta is attributable to the query that caused it — and an
/// optional deadline.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_SRV_SESSION_H
#define LPA_SRV_SESSION_H

#include "engine/Solver.h"
#include "obs/EvalObserver.h"
#include "obs/FlightRecorder.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/MetricsHistory.h"
#include "obs/Sampler.h"
#include "obs/Trace.h"
#include "srv/ServiceStats.h"
#include "srv/SlowLog.h"

#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lpa {

/// The shared command layer. Not thread-safe: one session serves one
/// request stream (the daemon is a single-threaded event loop; parallel
/// service would shard sessions the way the corpus fleet shards solvers).
class AnalysisSession {
public:
  struct Options {
    /// Record justifications (the REPL's ":why" needs them; the daemon
    /// leaves them off unless asked — long-lived arenas grow).
    bool RecordProvenance = false;
    /// Record per-subgoal cost profiles on *every* query: the session's
    /// profile stays attached to its observer. Off by default: `explain`
    /// attaches the profile for just its own query, so ordinary sessions
    /// pay only the null-test disabled path.
    bool RecordCosts = false;
    /// Background sampling profiler rate; 0 = no sampler thread (the
    /// cursor is still attached, so a later profiler could be).
    uint32_t SampleHz = 0;
    /// Lane label for the sampler ("repl", "serve", ...).
    std::string SampleLane = "srv";
    /// Intra-query evaluation workers (Solver::Options::EvalWorkers).
    /// 0/1 = serial; N > 1 primes independent tabled seeds in parallel.
    /// When a sampler is attached, each eval worker gets its own lane
    /// ("<SampleLane>.wK") so worker stacks fold separately.
    size_t EvalWorkers = 0;
    /// Structured logger (borrowed, may be null).
    Logger *Log = nullptr;
    /// Telemetry ring sizes.
    ServiceStats::Options Stats;
    /// Flight-recorder ring capacity and post-mortem dump policy. The
    /// recorder itself is always on (it is request-granular and bounded);
    /// dumps only happen when Recorder.DumpDir is set.
    FlightRecorder::Options Recorder;
    /// Slow-query exemplar capture (SlowLog.ThresholdMs: > 0 fixed ms,
    /// 0 adaptive vs the rolling p95, < 0 off). SlowLog.Dir persists
    /// evicted/shutdown exemplars and reloads them on start.
    SlowQueryLog::Options SlowLog;
    /// Telemetry ring of periodic counter/gauge snapshots, sampled
    /// opportunistically per protocol request and served by the
    /// `metrics` op.
    MetricsHistory::Options History;
  };

  /// What one query returned. Solutions are rendered as text because the
  /// heap bindings they came from are unwound by the time solve returns.
  struct QueryResult {
    uint64_t Id = 0;
    size_t Total = 0; ///< All solutions found (not just those rendered).
    std::vector<std::string> Solutions; ///< First MaxSolutions, rendered.
    double WallMs = 0;
    uint64_t WarmHits = 0;
    uint64_t ColdMisses = 0;
    bool Truncated = false; ///< The deadline expired mid-search.
    /// A table completed tainted during this query (depth/deadline
    /// pruning starved a producer), so the answer set may be a strict
    /// subset of the minimal model even when Truncated is false.
    bool Incomplete = false;
  };

  AnalysisSession() : AnalysisSession(Options{}) {}
  explicit AnalysisSession(Options O);
  ~AnalysisSession(); ///< Stops the sampler if one is running.

  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  /// What one program mutation (consult/retract) did to the warm tables.
  struct ConsultResult {
    size_t Loaded = 0;  ///< Clauses added (consult) or removed (retract).
    uint64_t TablesInvalidated = 0; ///< Warm tables in the changed cone.
    uint64_t TablesSurvived = 0;    ///< Warm tables outside it, kept.
  };

  /// Loads clauses/directives into the database (the dynamic-code path
  /// both front ends use), then invalidates exactly the completed tables
  /// whose predicates transitively depend on what changed — a warm
  /// session never serves answers derived under the old program, and
  /// never re-derives tables the change cannot reach.
  ErrorOr<ConsultResult> consult(std::string_view ProgramText);

  /// Parses \p ClauseText as one clause and retracts the first stored
  /// variant of it (Database::retract), then invalidates the changed
  /// cone exactly like consult(). Loaded is the number of clauses
  /// removed (0 when nothing matched — no invalidation happens then).
  ErrorOr<ConsultResult> retract(std::string_view ClauseText);

  /// Parses and proves \p GoalText under a fresh QueryContext: bumps the
  /// query id, arms the deadline (0 = none), collects up to
  /// \p MaxSolutions rendered solutions, and folds latency and warm/cold
  /// deltas into the service telemetry.
  ErrorOr<QueryResult> runQuery(std::string_view GoalText,
                                size_t MaxSolutions = 10,
                                uint64_t DeadlineMs = 0);

  /// The full stats snapshot (schema "lpa.stats.v1"): service telemetry,
  /// engine metrics (per-predicate + counters + watermarks), and — when a
  /// sampler is attached — its folded profile. The sampler pauses around
  /// the profile read (profile() is only stable stopped) and resumes.
  std::string statsJson();

  /// The cheap liveness snapshot (schema "lpa.health.v1").
  std::string healthJson() const;

  /// The slow-query log (schema "lpa.slowlog.v1"), most-recent first.
  std::string slowlogJson() const;

  /// Evaluates \p GoalText with a cost profile attached (temporarily, when
  /// the session does not already record costs) and returns the top-\p
  /// TopK cost tree (schema "lpa.explain.v1"): query outcome plus the
  /// full CostSummary — per-subgoal self/cumulative ns, steps, answer
  /// traffic, and the per-predicate / per-SCC rollups.
  ErrorOr<std::string> explainJson(std::string_view GoalText,
                                   size_t TopK = 10,
                                   size_t MaxSolutions = 10,
                                   uint64_t DeadlineMs = 0);

  /// Human-readable cost profile for the REPL's ":explain" (parse errors
  /// render inline).
  std::string explainReport(std::string_view GoalText, size_t TopK = 10);

  /// Current values in Prometheus text exposition format (counters,
  /// gauges, the latency histogram, per-predicate labeled series).
  std::string metricsText();

  /// The `metrics` op payload (schema "lpa.metrics.v1"): the exposition
  /// text as an escaped string field plus the history ring
  /// (MetricsHistory::writeJson, bounded by \p MaxSamples).
  std::string metricsJson(size_t MaxSamples = 0);

  /// Samples the history ring if its interval has elapsed. The protocol
  /// layer calls this once per request — opportunistic sampling, no
  /// extra thread.
  void tickMetricsHistory();

  /// Live table-space introspection (schema "lpa.inspect.v1"): top-\p
  /// TopN tables by \p Sort ("bytes" or "answers"), per-predicate
  /// warm-hit rates, dependency-index size, shared-space retirement and
  /// per-shard contention, and the flight-recorder tail. This is the
  /// feed `tools/lpa_top` renders and the ROADMAP's eviction/shard-tuning
  /// work reads.
  std::string inspectJson(size_t TopN = 10, std::string_view Sort = "bytes");

  /// Human-readable slow-query table for the REPL's ":slowlog".
  std::string slowlogReport() const;

  /// One-line warm/cold summary for the REPL's ":stats".
  std::string warmColdLine() const;

  /// The REPL's ":queries" report (latency histogram + recent queries).
  std::string queriesReport() const { return Stats.renderReport(); }

  /// Folded sampler stacks (empty string when no sampler or no samples).
  /// Pauses and resumes the sampler like statsJson().
  std::string foldedStacks();

  /// Zeroes engine counters AND service telemetry — including the
  /// cumulative invalidation counters (tables_invalidated /
  /// tables_survived): counters are per-window, always. What survives a
  /// reset is *state*, never counts: completed tables stay warm,
  /// tombstoned tables stay tombstoned, and the dependency index keeps
  /// its edges, so post-reset queries report pure warm traffic and a
  /// post-reset consult still invalidates exactly the right cone.
  void resetStats();

  /// \name Component access for front-end-specific commands
  /// (":why", ":forest", ":trace on") — prefer the methods above.
  /// @{
  Solver &solver() { return Engine; }
  const Solver &solver() const { return Engine; }
  SymbolTable &symbols() { return Symbols; }
  Database &database() { return DB; }
  Tracer &tracer() { return Trace; }
  MetricsRegistry &metrics() { return Metrics; }
  ServiceStats &serviceStats() { return Stats; }
  Sampler *sampler() { return Prof.get(); }
  Logger *log() { return Log; }
  FlightRecorder &flightRecorder() { return Fr; }
  SlowQueryLog &slowlog() { return Slow; }
  MetricsHistory &metricsHistory() { return Hist; }
  /// @}

  uint64_t queriesServed() const { return Stats.queriesServed(); }

private:
  /// Shared tail of consult()/retract(): sweeps the tables whose
  /// predicates changed after revision \p FromRev and folds the counts
  /// into the service telemetry.
  ConsultResult sweepInvalidation(uint64_t FromRev, size_t Loaded);

  /// Captures a slow-query exemplar for the query that just finished:
  /// per-predicate deltas against \p PredsBefore, top tables by bytes,
  /// and the recorder slice for \p R.Id.
  void captureSlowQuery(const QueryResult &R, std::string_view Goal,
                        double ThresholdMs,
                        const std::vector<std::pair<
                            std::string, std::array<uint64_t, 3>>> &PredsBefore);

  /// Writes a post-mortem (recorder + watermarks + folded stacks) for an
  /// anomalous query; no-op unless the recorder has a dump directory.
  void dumpAnomaly(std::string_view Reason);

  /// runQuery with the session's cost profile attached for the query;
  /// \p Summary receives its cost attribution (the `explain` verbs).
  ErrorOr<QueryResult> runCosted(std::string_view GoalText,
                                 size_t MaxSolutions, uint64_t DeadlineMs,
                                 CostSummary &Summary);

  Options Opts;
  SymbolTable Symbols;
  Database DB;
  Solver Engine;
  Tracer Trace;
  MetricsRegistry Metrics;
  EvalCursor Cursor;
  /// Eval workers' cursors (Options::EvalWorkers > 1), one lane each.
  std::vector<std::unique_ptr<EvalCursor>> WorkerCursors;
  std::unique_ptr<Sampler> Prof; ///< Null when Options::SampleHz == 0.
  ServiceStats Stats;
  FlightRecorder Fr; ///< Always-on bounded journal (engine-attached).
  SlowQueryLog Slow; ///< Slow-query exemplars (LRU).
  MetricsHistory Hist; ///< Periodic counter/gauge snapshot ring.
  /// Attached for good with Options::RecordCosts, else by `explain`.
  CostProfile Costs;
  EvalObserver Obs; ///< Over the channels above, for the session's life.
  Logger *Log = nullptr;
  QueryContext Ctx;        ///< Attached to the engine for the session's life.
  uint64_t NextQueryId = 0;
};

} // namespace lpa

#endif // LPA_SRV_SESSION_H
