//===- Session.cpp - Shared REPL/daemon command layer -------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "srv/Session.h"

#include "obs/Json.h"
#include "reader/Parser.h"
#include "support/Stopwatch.h"
#include "support/TableFormat.h"
#include "term/TermWriter.h"

#include <algorithm>

using namespace lpa;

/// \p Goal without surrounding whitespace: the REPL hands over raw input
/// whose newlines would mangle the report table and the JSON snapshot.
static std::string_view trimmed(std::string_view Goal) {
  size_t B = Goal.find_first_not_of(" \t\r\n");
  if (B == std::string_view::npos)
    return Goal;
  return Goal.substr(B, Goal.find_last_not_of(" \t\r\n") - B + 1);
}

static Solver::Options engineOptions(const AnalysisSession::Options &O) {
  return {.RecordProvenance = O.RecordProvenance,
          .EvalWorkers = O.EvalWorkers};
}

AnalysisSession::AnalysisSession(Options O)
    : Opts(std::move(O)), DB(Symbols), Engine(DB, engineOptions(Opts)),
      Stats(Opts.Stats), Fr(Opts.Recorder), Slow(Opts.SlowLog),
      Hist(Opts.History), Log(Opts.Log) {
  Obs = {.Trace = &Trace,
         .Metrics = &Metrics,
         .Cursor = &Cursor,
         .Recorder = &Fr,
         .Costs = Opts.RecordCosts ? &Costs : nullptr};
  // One cursor per eval worker, allocated up front so sampler lanes bind
  // to stable addresses before any parallel phase runs.
  for (size_t I = 0; Opts.EvalWorkers > 1 && I < Opts.EvalWorkers; ++I) {
    WorkerCursors.push_back(std::make_unique<EvalCursor>());
    Obs.WorkerCursors.push_back(WorkerCursors.back().get());
  }
  Engine.setObserver(&Obs);
  Engine.setQueryContext(&Ctx);
  // History series, registered once; tickMetricsHistory() samples them in
  // exactly this order.
  Hist.addSeries("queries_served");
  Hist.addSeries("clause_resolutions");
  Hist.addSeries("answers_recorded");
  Hist.addSeries("warm_hits");
  Hist.addSeries("cold_misses");
  Hist.addSeries("deadline_hits");
  Hist.addSeries("incomplete_tables");
  Hist.addSeries("tables_invalidated");
  Hist.addSeries("slowlog_captured");
  Hist.addSeries("recorder_alarms");
  Hist.addSeries("table_space_bytes", /*Counter=*/false);
  Hist.addSeries("subgoals", /*Counter=*/false);
  Hist.addSeries("dep_index_edges", /*Counter=*/false);
  if (Opts.SampleHz) {
    Prof = std::make_unique<Sampler>(Sampler::Options{Opts.SampleHz});
    Prof->addLane(Opts.SampleLane, &Cursor);
    // One lane per eval worker: parallel-prime stacks fold under
    // "<lane>.wK" instead of vanishing (the workers never touch the
    // session cursor).
    for (size_t I = 0; I < WorkerCursors.size(); ++I)
      Prof->addLane(Opts.SampleLane + ".w" + std::to_string(I),
                    WorkerCursors[I].get());
    // Adaptive sampling: when the recorder journals a deadline or taint
    // alarm mid-query, the sampler boosts its rate for the remainder.
    Prof->setAlarmSource(Fr.alarmCounter());
    Prof->start();
  }
}

AnalysisSession::~AnalysisSession() {
  if (Prof)
    Prof->stop();
  // Detach the hooks before members destruct under the engine.
  Engine.setObserver(nullptr);
  Engine.setQueryContext(nullptr);
}

AnalysisSession::ConsultResult
AnalysisSession::sweepInvalidation(uint64_t FromRev, size_t Loaded) {
  ConsultResult Out;
  Out.Loaded = Loaded;
  std::vector<PredKey> Changed = DB.predsChangedSince(FromRev);
  if (!Changed.empty()) {
    Solver::InvalidationResult R = Engine.invalidateDependents(Changed);
    Out.TablesInvalidated = R.TablesInvalidated;
    Out.TablesSurvived = R.TablesSurvived;
    // A sweep over an engine with no completed tables (the common case:
    // the initial consult) is not an invalidation event.
    if (R.TablesInvalidated || R.TablesSurvived)
      Stats.recordInvalidation(R.TablesInvalidated, R.TablesSurvived);
  }
  return Out;
}

ErrorOr<AnalysisSession::ConsultResult>
AnalysisSession::consult(std::string_view ProgramText) {
  size_t Before = DB.numClauses();
  // Snapshot the revision clock first: everything the consult stamps
  // after this point is in the changed set the sweep walks.
  uint64_t Rev = DB.globalRevision();
  auto R = DB.consult(ProgramText);
  if (!R)
    return R.getError();
  ConsultResult Out = sweepInvalidation(Rev, DB.numClauses() - Before);
  Fr.record(FrEventKind::ConsultSweep, 0, Out.Loaded, Out.TablesInvalidated,
            Out.TablesSurvived);
  if (Log)
    Log->info("consult", {{"clauses", uint64_t(Out.Loaded)},
                          {"tables_invalidated", Out.TablesInvalidated},
                          {"tables_survived", Out.TablesSurvived}});
  return Out;
}

ErrorOr<AnalysisSession::ConsultResult>
AnalysisSession::retract(std::string_view ClauseText) {
  uint64_t Rev = DB.globalRevision();
  auto R = DB.retract(ClauseText);
  if (!R)
    return R.getError();
  ConsultResult Out = sweepInvalidation(Rev, *R);
  Fr.record(FrEventKind::RetractSweep, 0, Out.Loaded, Out.TablesInvalidated,
            Out.TablesSurvived);
  if (Log)
    Log->info("retract", {{"clauses", uint64_t(Out.Loaded)},
                          {"tables_invalidated", Out.TablesInvalidated},
                          {"tables_survived", Out.TablesSurvived}});
  return Out;
}

ErrorOr<AnalysisSession::QueryResult>
AnalysisSession::runQuery(std::string_view GoalText, size_t MaxSolutions,
                          uint64_t DeadlineMs) {
  auto Goal = Parser::parseTerm(Symbols, Engine.store(), GoalText);
  if (!Goal)
    return Goal.getError();

  std::string_view Shown = trimmed(GoalText);

  // Open the query scope: a fresh id, and the deadline as an absolute
  // point on the engine's steady clock. The context object is attached
  // for the session's whole life; only its fields change between solves.
  QueryResult R;
  R.Id = ++NextQueryId;
  Ctx.Id = R.Id;
  Ctx.DeadlineNs = DeadlineMs ? Solver::steadyNowNs() + DeadlineMs * 1000000u
                              : 0;

  // The slow-query threshold is taken against the window *before* this
  // query lands in it, and the per-predicate baseline is only snapshotted
  // when capture is possible at all.
  double ThresholdMs = Slow.effectiveThresholdMs(Stats.windowQuantileUs(0.95));
  std::vector<std::pair<std::string, std::array<uint64_t, 3>>> PredsBefore;
  if (ThresholdMs >= 0)
    for (const PredMetrics *PM : Metrics.predicates())
      PredsBefore.emplace_back(
          PM->qualifiedName(),
          std::array<uint64_t, 3>{PM->Calls, PM->Resolutions, PM->NewAnswers});

  Fr.record(FrEventKind::QueryStart, R.Id, DeadlineMs, MaxSolutions, 0, 0,
            Shown);
  SharedTableSpace::Stats SharedBefore = Engine.sharedTableStats();

  EvalStats Before = Engine.stats();
  // Boost window: alarms recorded from here on (deadline hits, taint)
  // raise the sampler rate until the query ends.
  if (Prof)
    Prof->armBoostBaseline(Fr.alarmCount());
  Stopwatch Watch;
  R.Total = Engine.solve(*Goal, [&]() {
    if (R.Solutions.size() < MaxSolutions)
      R.Solutions.push_back(
          TermWriter::toString(Symbols, Engine.storeConst(), *Goal));
    return false;
  });
  R.WallMs = Watch.elapsedSeconds() * 1e3;
  Ctx.DeadlineNs = 0;
  if (Prof)
    Prof->disarmBoost();

  const EvalStats &After = Engine.stats();
  R.WarmHits = After.WarmTableHits - Before.WarmTableHits;
  R.ColdMisses = After.ColdTableMisses - Before.ColdTableMisses;
  R.Truncated = After.DeadlineHits != Before.DeadlineHits;
  R.Incomplete = After.IncompleteTables != Before.IncompleteTables;

  // Shard-lock contention this query induced (parallel prime phases
  // only; zero deltas stay out of the journal).
  const SharedTableSpace::Stats &SharedAfter = Engine.sharedTableStats();
  if (SharedAfter.LockContended != SharedBefore.LockContended)
    Fr.record(FrEventKind::ContentionSpike, R.Id,
              SharedAfter.LockContended - SharedBefore.LockContended,
              SharedAfter.LockWaitNs - SharedBefore.LockWaitNs);

  uint32_t Outcome = (R.Truncated ? FrOutcomeDeadline : 0u) |
                     (R.Incomplete ? FrOutcomeIncomplete : 0u);
  Fr.record(FrEventKind::QueryEnd, R.Id, R.Total, R.WarmHits, R.ColdMisses,
            Outcome);

  QueryRecord Rec;
  Rec.Id = R.Id;
  Rec.Goal = std::string(Shown);
  Rec.WallMs = R.WallMs;
  Rec.Solutions = R.Total;
  Rec.WarmHits = R.WarmHits;
  Rec.ColdMisses = R.ColdMisses;
  Rec.Truncated = R.Truncated;
  Stats.recordQuery(Rec);
  Stats.recordGauges({R.Id, Engine.tableSpaceBytes(),
                      After.SubgoalsCreated, After.AnswersRecorded});

  if (ThresholdMs >= 0 && R.WallMs >= ThresholdMs)
    captureSlowQuery(R, Shown, ThresholdMs, PredsBefore);

  // Anomalous outcome: the journal already holds the lifecycle, so dump
  // it (plus watermarks and the sampler's folded stacks) while the
  // context is hot. Rate-capped by FlightRecorder::Options::MaxDumps.
  if (R.Truncated || R.Incomplete)
    dumpAnomaly(R.Truncated ? "deadline" : "incomplete");

  if (Log)
    Log->info("query",
              {{"id", R.Id},
               {"goal", Shown},
               {"solutions", uint64_t(R.Total)},
               {"wall_ms", R.WallMs},
               {"warm_hits", R.WarmHits},
               {"cold_misses", R.ColdMisses},
               {"truncated", R.Truncated},
               {"incomplete", R.Incomplete}});
  return R;
}

std::string AnalysisSession::statsJson() {
  Engine.snapshotTableMetrics(Metrics);

  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", "lpa.stats.v1");
  Stats.writeJsonMembers(W);

  W.key("engine");
  Metrics.writeJson(W);

  if (Prof) {
    // profile() is only stable while the sampler thread is stopped.
    bool WasRunning = Prof->running();
    if (WasRunning)
      Prof->stop();
    W.key("sample_profile");
    Prof->profile().writeJson(W, &Symbols, /*TopN=*/25);
    if (WasRunning)
      Prof->start();
  }
  W.endObject();
  return Out;
}

std::string AnalysisSession::healthJson() const {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", "lpa.health.v1");
  W.member("ok", true);
  W.member("uptime_ms", Stats.uptimeMs());
  W.member("queries_served", Stats.queriesServed());
  W.member("clauses", static_cast<uint64_t>(DB.numClauses()));
  W.member("subgoals", static_cast<uint64_t>(Engine.subgoals().size()));
  W.member("eval_workers", static_cast<uint64_t>(Opts.EvalWorkers));
  W.member("table_space_bytes",
           static_cast<uint64_t>(Engine.tableSpaceBytes()));
  W.member("sampler_running", Prof && Prof->running());
  // Long-uptime gauges (ROADMAP: dependency-index eviction and shared
  // retirement both need these visible before they can be tuned).
  W.member("dep_index_edges",
           static_cast<uint64_t>(Engine.dependencyIndex().edgeCount()));
  W.member("dep_index_bytes",
           static_cast<uint64_t>(Engine.dependencyIndex().memoryBytes()));
  W.member("shared_retired", Engine.sharedTableStats().Retired);
  W.member("recorder_events", Fr.totalRecorded());
  W.member("recorder_dropped", Fr.droppedCount());
  W.member("recorder_alarms", Fr.alarmCount());
  W.member("postmortem_dumps", Fr.dumpsWritten());
  W.member("slowlog_entries", static_cast<uint64_t>(Slow.size()));
  W.endObject();
  return Out;
}

void AnalysisSession::captureSlowQuery(
    const QueryResult &R, std::string_view Goal, double ThresholdMs,
    const std::vector<std::pair<std::string, std::array<uint64_t, 3>>>
        &PredsBefore) {
  SlowQueryExemplar Ex;
  Ex.Id = R.Id;
  Ex.Goal = std::string(Goal);
  Ex.WallMs = R.WallMs;
  Ex.ThresholdMs = ThresholdMs;
  Ex.Solutions = R.Total;
  Ex.WarmHits = R.WarmHits;
  Ex.ColdMisses = R.ColdMisses;
  Ex.DeadlineHit = R.Truncated;
  Ex.Incomplete = R.Incomplete;

  // Per-predicate deltas against the pre-query baseline (a predicate
  // first touched during this query has baseline zero).
  std::vector<SlowQueryExemplar::PredDelta> Deltas;
  for (const PredMetrics *PM : Metrics.predicates()) {
    std::array<uint64_t, 3> Base{};
    std::string QName = PM->qualifiedName();
    for (const auto &[Name, Counts] : PredsBefore)
      if (Name == QName) {
        Base = Counts;
        break;
      }
    SlowQueryExemplar::PredDelta D;
    D.Pred = std::move(QName);
    D.Calls = PM->Calls - Base[0];
    D.Resolutions = PM->Resolutions - Base[1];
    D.NewAnswers = PM->NewAnswers - Base[2];
    if (D.Calls || D.Resolutions || D.NewAnswers)
      Deltas.push_back(std::move(D));
  }
  std::sort(Deltas.begin(), Deltas.end(),
            [](const auto &A, const auto &B) {
              return A.Resolutions > B.Resolutions;
            });
  if (Deltas.size() > Slow.options().TopK)
    Deltas.resize(Slow.options().TopK);
  Ex.TopPreds = std::move(Deltas);

  // Top tables by apportioned bytes — the whole table space ranked, not
  // just this query's additions: what an operator triaging a slow query
  // needs is "what is big *now*".
  std::vector<const Subgoal *> Ranked(Engine.subgoals().begin(),
                                      Engine.subgoals().end());
  std::sort(Ranked.begin(), Ranked.end(),
            [this](const Subgoal *A, const Subgoal *B) {
              return Engine.subgoalMemoryBytes(*A) >
                     Engine.subgoalMemoryBytes(*B);
            });
  size_t N = std::min(Ranked.size(), Slow.options().TopK);
  for (size_t I = 0; I < N; ++I) {
    const Subgoal *SG = Ranked[I];
    SlowQueryExemplar::TableEntry T;
    T.Call = Engine.formatCall(*SG);
    T.Answers = Engine.answerCount(*SG);
    T.Bytes = Engine.subgoalMemoryBytes(*SG);
    T.Incomplete = SG->Incomplete;
    Ex.TopTables.push_back(std::move(T));
  }

  Ex.Trace = Fr.eventsForQuery(R.Id);

  // Embed the cost rollup when a profile covered this query (sessions
  // with RecordCosts on, or an explain evaluation that crossed the
  // threshold) — the exemplar then says *where* the time went, not just
  // that it went.
  if (const CostProfile *CP = Obs.Costs; CP && CP->queryId() == R.Id) {
    CostSummary CS = Engine.exportCostSummary();
    Ex.CostAttributedNs = CS.AttributedNs;
    Ex.CostRootNs = CS.RootNs;
    size_t NC = std::min(CS.PerPred.size(), Slow.options().TopK);
    for (size_t I = 0; I < NC; ++I) {
      const CostRollup &CR = CS.PerPred[I];
      Ex.TopCosts.push_back(
          {CR.Key, CR.SelfNs, CR.Steps, static_cast<uint32_t>(CR.WarmHits)});
    }
  }
  Slow.insert(std::move(Ex));
}

void AnalysisSession::dumpAnomaly(std::string_view Reason) {
  const TableWatermarks &W = Engine.watermarks();
  std::string Path = Fr.dump(
      Reason,
      {{"table_space_bytes", Engine.tableSpaceBytes()},
       {"peak_table_space_bytes", W.PeakTableSpaceBytes},
       {"peak_term_store_bytes", W.PeakTermStoreBytes},
       {"peak_subgoal_answer_bytes", W.PeakSubgoalAnswerBytes},
       {"peak_scc_frontier_bytes", W.PeakSccFrontierBytes},
       {"subgoals", Engine.subgoals().size()},
       {"dep_index_edges", Engine.dependencyIndex().edgeCount()},
       {"queries_served", Stats.queriesServed()}},
      foldedStacks());
  if (!Path.empty() && Log)
    Log->info("postmortem", {{"reason", Reason}, {"path", Path}});
}

std::string AnalysisSession::slowlogJson() const {
  std::string Out;
  JsonWriter W(Out);
  Slow.writeJson(W, Slow.effectiveThresholdMs(Stats.windowQuantileUs(0.95)));
  return Out;
}

std::string AnalysisSession::slowlogReport() const {
  std::string Out;
  double T = Slow.effectiveThresholdMs(Stats.windowQuantileUs(0.95));
  char L[160];
  if (T < 0)
    Out += "Slow-query log: capture disabled\n";
  else {
    std::snprintf(L, sizeof(L),
                  "Slow-query log: %zu/%zu entries, threshold %.3f ms "
                  "(%llu captured, %llu evicted)\n",
                  Slow.size(), Slow.capacity(), T,
                  static_cast<unsigned long long>(Slow.captured()),
                  static_cast<unsigned long long>(Slow.evicted()));
    Out += L;
  }
  if (!Slow.size())
    return Out;
  TextTable Tab;
  Tab.addRow({"Id", "Goal", "ms", "Thresh", "Sols", "Warm", "Cold", "DL",
              "Inc", "TopPred"});
  for (const SlowQueryExemplar *E : Slow.entries())
    Tab.addRow({std::to_string(E->Id), E->Goal, TextTable::fmt(E->WallMs, 3),
                TextTable::fmt(E->ThresholdMs, 3),
                std::to_string(E->Solutions), std::to_string(E->WarmHits),
                std::to_string(E->ColdMisses), E->DeadlineHit ? "yes" : "-",
                E->Incomplete ? "yes" : "-",
                E->TopPreds.empty() ? "-" : E->TopPreds.front().Pred});
  Out += Tab.render();
  return Out;
}

std::string AnalysisSession::inspectJson(size_t TopN, std::string_view Sort) {
  // Refresh the per-predicate table gauges the warm-hit-rate view reads.
  Engine.snapshotTableMetrics(Metrics);

  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", "lpa.inspect.v1");
  W.member("top", static_cast<uint64_t>(TopN));
  W.member("sort", Sort);

  const EvalStats &S = Engine.stats();
  W.key("totals");
  W.beginObject();
  W.member("subgoals", static_cast<uint64_t>(Engine.subgoals().size()));
  W.member("answers", S.AnswersRecorded);
  W.member("table_space_bytes",
           static_cast<uint64_t>(Engine.tableSpaceBytes()));
  W.member("warm_hits", S.WarmTableHits);
  W.member("cold_misses", S.ColdTableMisses);
  W.member("incomplete_tables", S.IncompleteTables);
  W.member("tables_invalidated", S.TablesInvalidated);
  W.endObject();

  // Top-N tables by bytes or answers.
  std::vector<const Subgoal *> Ranked(Engine.subgoals().begin(),
                                      Engine.subgoals().end());
  // "contention" ranks the shard list below; tables fall back to bytes.
  bool ByAnswers = Sort == "answers";
  std::sort(Ranked.begin(), Ranked.end(),
            [&](const Subgoal *A, const Subgoal *B) {
              if (ByAnswers)
                return Engine.answerCount(*A) > Engine.answerCount(*B);
              return Engine.subgoalMemoryBytes(*A) >
                     Engine.subgoalMemoryBytes(*B);
            });
  if (Ranked.size() > TopN)
    Ranked.resize(TopN);
  W.key("top_tables");
  W.beginArray();
  for (const Subgoal *SG : Ranked) {
    W.beginObject();
    W.member("call", Engine.formatCall(*SG));
    W.member("pred", Symbols.name(SG->Pred.Sym) + "/" +
                         std::to_string(SG->Pred.Arity));
    W.member("answers", static_cast<uint64_t>(Engine.answerCount(*SG)));
    W.member("bytes", static_cast<uint64_t>(Engine.subgoalMemoryBytes(*SG)));
    W.member("complete", SG->Complete);
    W.member("incomplete", SG->Incomplete);
    W.member("invalidated", SG->Invalidated);
    W.member("completed_in_query", SG->CompletedInQuery);
    W.endObject();
  }
  W.endArray();

  // Per-predicate reuse rates.
  W.key("predicates");
  W.beginArray();
  for (const PredMetrics *PM : Metrics.predicates()) {
    if (!PM->Calls && !PM->TableSubgoals)
      continue;
    W.beginObject();
    W.member("pred", PM->qualifiedName());
    W.member("calls", PM->Calls);
    W.member("warm_hits", PM->WarmHits);
    W.member("cold_misses", PM->ColdMisses);
    uint64_t Reuse = PM->WarmHits + PM->ColdMisses;
    W.member("warm_hit_rate",
             Reuse ? double(PM->WarmHits) / double(Reuse) : 0.0);
    W.member("table_subgoals", PM->TableSubgoals);
    W.member("table_answers", PM->TableAnswers);
    W.member("table_bytes", PM->TableBytes);
    W.endObject();
  }
  W.endArray();

  W.key("dep_index");
  W.beginObject();
  W.member("edges",
           static_cast<uint64_t>(Engine.dependencyIndex().edgeCount()));
  W.member("producers",
           static_cast<uint64_t>(Engine.dependencyIndex().producerCount()));
  W.member("bytes",
           static_cast<uint64_t>(Engine.dependencyIndex().memoryBytes()));
  W.endObject();

  const SharedTableSpace::Stats &SS = Engine.sharedTableStats();
  W.key("shared_space");
  W.beginObject();
  W.member("lookups", SS.Lookups);
  W.member("warm_hits", SS.WarmHits);
  W.member("inflight_misses", SS.InFlightMisses);
  W.member("claims", SS.Claims);
  W.member("publishes", SS.Publishes);
  W.member("retired", SS.Retired);
  W.member("lock_acquisitions", SS.LockAcquisitions);
  W.member("lock_contended", SS.LockContended);
  W.member("lock_wait_ns", SS.LockWaitNs);
  W.key("shards");
  W.beginArray();
  {
    // Keep the shard index stable under re-ranking: an operator chasing a
    // hot lock needs "shard 3 is contended", not its sorted position.
    std::vector<SharedTableSpace::ShardStats> Shards =
        Engine.sharedShardStats();
    std::vector<std::pair<uint32_t, const SharedTableSpace::ShardStats *>>
        Indexed;
    Indexed.reserve(Shards.size());
    for (size_t I = 0; I < Shards.size(); ++I)
      Indexed.emplace_back(static_cast<uint32_t>(I), &Shards[I]);
    auto Ratio = [](const SharedTableSpace::ShardStats &S) {
      return S.LockAcquisitions
                 ? double(S.LockContended) / double(S.LockAcquisitions)
                 : 0.0;
    };
    if (Sort == "contention")
      std::sort(Indexed.begin(), Indexed.end(),
                [&](const auto &A, const auto &B) {
                  return Ratio(*A.second) > Ratio(*B.second);
                });
    for (const auto &[Idx, Sh] : Indexed) {
      W.beginObject();
      W.member("shard", static_cast<uint64_t>(Idx));
      W.member("lookups", Sh->Lookups);
      W.member("warm_hits", Sh->WarmHits);
      W.member("claims", Sh->Claims);
      W.member("retired", Sh->Retired);
      W.member("entries", static_cast<uint64_t>(Sh->Entries));
      W.member("lock_acquisitions", Sh->LockAcquisitions);
      W.member("lock_contended", Sh->LockContended);
      W.member("lock_wait_ns", Sh->LockWaitNs);
      W.member("contention_ratio", Ratio(*Sh));
      W.endObject();
    }
  }
  W.endArray();
  W.endObject();

  W.key("recorder");
  Fr.writeJson(W, /*MaxEvents=*/32);
  W.endObject();
  return Out;
}

std::string AnalysisSession::warmColdLine() const {
  char L[160];
  std::snprintf(L, sizeof(L),
                "Warm/cold: %llu warm table hits, %llu cold misses "
                "(%.1f%% warm) across %llu queries\n",
                static_cast<unsigned long long>(Stats.warmHits()),
                static_cast<unsigned long long>(Stats.coldMisses()),
                Stats.warmHitRate() * 100.0,
                static_cast<unsigned long long>(Stats.queriesServed()));
  return L;
}

std::string AnalysisSession::foldedStacks() {
  if (!Prof)
    return {};
  bool WasRunning = Prof->running();
  if (WasRunning)
    Prof->stop();
  std::string Out;
  if (!Prof->profile().empty())
    Out = Prof->profile().formatFolded(&Symbols);
  if (WasRunning)
    Prof->start();
  return Out;
}

void AnalysisSession::resetStats() {
  Engine.resetStats();
  Stats.reset();
  if (Log)
    Log->info("reset_stats");
}

//===----------------------------------------------------------------------===//
// Cost profiles (explain)
//===----------------------------------------------------------------------===//

ErrorOr<AnalysisSession::QueryResult>
AnalysisSession::runCosted(std::string_view GoalText, size_t MaxSolutions,
                           uint64_t DeadlineMs, CostSummary &Summary) {
  // With Options::RecordCosts the profile is attached for good and this
  // swap is a no-op; otherwise it covers just this query.
  CostProfile *Prev = Obs.Costs;
  Obs.Costs = &Costs;
  auto R = runQuery(GoalText, MaxSolutions, DeadlineMs);
  if (R)
    Summary = Engine.exportCostSummary();
  Obs.Costs = Prev;
  return R;
}

ErrorOr<std::string> AnalysisSession::explainJson(std::string_view GoalText,
                                                  size_t TopK,
                                                  size_t MaxSolutions,
                                                  uint64_t DeadlineMs) {
  CostSummary CS;
  auto R = runCosted(GoalText, MaxSolutions, DeadlineMs, CS);
  if (!R)
    return R.getError();

  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", "lpa.explain.v1");
  W.member("goal", trimmed(GoalText));
  W.member("id", R->Id);
  W.member("solutions", static_cast<uint64_t>(R->Total));
  W.member("wall_ms", R->WallMs);
  W.member("truncated", R->Truncated);
  W.member("incomplete", R->Incomplete);
  W.key("cost");
  writeCostSummaryJson(CS, W, TopK);
  W.endObject();
  return Out;
}

std::string AnalysisSession::explainReport(std::string_view GoalText,
                                           size_t TopK) {
  CostSummary CS;
  auto R = runCosted(GoalText, /*MaxSolutions=*/10, /*DeadlineMs=*/0, CS);
  if (!R)
    return "explain: " + R.getError().str() + "\n";

  std::string Out;
  char L[200];
  double WallMs = double(CS.QueryWallNs) / 1e6;
  double Pct = CS.QueryWallNs
                   ? 100.0 * double(CS.AttributedNs) / double(CS.QueryWallNs)
                   : 0.0;
  std::snprintf(L, sizeof(L),
                "Query %llu: %zu solutions in %.3f ms; %.1f%% attributed to "
                "%zu subgoals (root %.3f ms)\n",
                static_cast<unsigned long long>(CS.QueryId), R->Total,
                WallMs, Pct, CS.Nodes.size(), double(CS.RootNs) / 1e6);
  Out += L;
  if (CS.Nodes.empty())
    return Out;

  std::vector<const CostNode *> BySelf;
  BySelf.reserve(CS.Nodes.size());
  for (const CostNode &N : CS.Nodes)
    BySelf.push_back(&N);
  std::sort(BySelf.begin(), BySelf.end(),
            [](const CostNode *A, const CostNode *B) {
              return A->SelfNs > B->SelfNs;
            });
  if (TopK && BySelf.size() > TopK)
    BySelf.resize(TopK);

  TextTable Tab;
  Tab.addRow({"Self ms", "Cum ms", "Steps", "AnsIn", "AnsOut", "Resum",
              "Warm", "Call"});
  for (const CostNode *N : BySelf)
    Tab.addRow({TextTable::fmt(double(N->SelfNs) / 1e6, 3),
                TextTable::fmt(double(N->CumNs) / 1e6, 3),
                std::to_string(N->Steps), std::to_string(N->AnswersInserted),
                std::to_string(N->AnswersConsumed),
                std::to_string(N->Resumptions), N->Warm ? "yes" : "-",
                N->Label});
  Out += Tab.render();

  if (!CS.PerPred.empty()) {
    Out += "Per predicate:\n";
    TextTable PT;
    PT.addRow({"Self ms", "Steps", "Subgoals", "Warm", "Bytes", "Pred"});
    size_t NP = TopK ? std::min(CS.PerPred.size(), TopK) : CS.PerPred.size();
    for (size_t I = 0; I < NP; ++I) {
      const CostRollup &CR = CS.PerPred[I];
      PT.addRow({TextTable::fmt(double(CR.SelfNs) / 1e6, 3),
                 std::to_string(CR.Steps), std::to_string(CR.Subgoals),
                 std::to_string(CR.WarmHits), std::to_string(CR.TableBytes),
                 CR.Key});
    }
    Out += PT.render();
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Metrics exposition + history ring
//===----------------------------------------------------------------------===//

void AnalysisSession::tickMetricsHistory() {
  uint64_t Now = Solver::steadyNowNs();
  if (!Hist.due(Now))
    return;
  const EvalStats &S = Engine.stats();
  // Aligned with the addSeries() order in the constructor.
  const uint64_t Values[] = {
      Stats.queriesServed(),
      S.ClauseResolutions,
      S.AnswersRecorded,
      S.WarmTableHits,
      S.ColdTableMisses,
      S.DeadlineHits,
      S.IncompleteTables,
      S.TablesInvalidated,
      Slow.captured(),
      Fr.alarmCount(),
      static_cast<uint64_t>(Engine.tableSpaceBytes()),
      static_cast<uint64_t>(Engine.subgoals().size()),
      static_cast<uint64_t>(Engine.dependencyIndex().edgeCount()),
  };
  Hist.sample(Now, Values);
}

std::string AnalysisSession::metricsText() {
  Engine.snapshotTableMetrics(Metrics);
  const EvalStats &S = Engine.stats();
  const TableWatermarks &WM = Engine.watermarks();

  std::string Out;
  PrometheusWriter P(Out);
  P.gauge("lpa_uptime_seconds", "Seconds since service start (or reset)",
          double(Stats.uptimeMs()) / 1000.0);
  P.counter("lpa_queries_total", "Queries served", Stats.queriesServed());
  P.counter("lpa_queries_truncated_total",
            "Queries whose deadline expired mid-search",
            Stats.truncatedQueries());
  P.counter("lpa_clause_resolutions_total",
            "Program-clause resolution attempts", S.ClauseResolutions);
  P.counter("lpa_answers_recorded_total",
            "Unique answers entered into tables", S.AnswersRecorded);
  P.counter("lpa_answers_duplicate_total",
            "Answers rejected by the variant check", S.AnswersDuplicate);
  P.counter("lpa_fixpoint_rounds_total", "SCC fixpoint iteration rounds",
            S.FixpointRounds);
  P.counter("lpa_warm_table_hits_total",
            "Tabled calls answered from an earlier query's table",
            S.WarmTableHits);
  P.counter("lpa_cold_table_misses_total",
            "Tabled calls that created a new subgoal variant",
            S.ColdTableMisses);
  P.counter("lpa_deadline_hits_total",
            "Query deadlines that expired during evaluation", S.DeadlineHits);
  P.counter("lpa_incomplete_tables_total",
            "Tables completed under depth or deadline pruning",
            S.IncompleteTables);
  P.counter("lpa_tables_invalidated_total",
            "Completed tables tombstoned by consult/retract sweeps",
            S.TablesInvalidated);
  P.counter("lpa_tables_revived_total",
            "Tombstoned tables re-derived on demand", S.TablesRevived);
  P.gauge("lpa_table_space_bytes", "Live answer-table footprint",
          double(Engine.tableSpaceBytes()));
  P.gauge("lpa_peak_table_space_bytes", "High-water table footprint",
          double(WM.PeakTableSpaceBytes));
  P.gauge("lpa_subgoals", "Tabled subgoal variants resident",
          double(Engine.subgoals().size()));
  P.gauge("lpa_dep_index_edges", "Dependency-index edges resident",
          double(Engine.dependencyIndex().edgeCount()));
  P.gauge("lpa_dep_index_bytes", "Dependency-index footprint",
          double(Engine.dependencyIndex().memoryBytes()));
  P.counter("lpa_recorder_events_total", "Flight-recorder events journaled",
            Fr.totalRecorded());
  P.counter("lpa_recorder_alarms_total",
            "Deadline/incomplete anomaly events journaled", Fr.alarmCount());
  P.gauge("lpa_slowlog_entries", "Slow-query exemplars resident",
          double(Slow.size()));
  P.counter("lpa_slowlog_captured_total", "Slow-query exemplars captured",
            Slow.captured());
  P.counter("lpa_slowlog_persisted_total",
            "Slow-query exemplar files written", Slow.persisted());
  P.counter("lpa_metrics_history_samples_total",
            "History-ring snapshots taken", Hist.totalSamples());
  P.counter("lpa_metrics_history_evicted_total",
            "History-ring snapshots evicted", Hist.evicted());
  if (Prof) {
    P.gauge("lpa_sampler_effective_hz",
            "Sampling rate last sweep (boosted when alarmed)",
            double(Prof->effectiveHz()));
    P.counter("lpa_sampler_boosted_sweeps_total",
              "Sampler sweeps taken at the boosted rate",
              Prof->boostedSweeps());
  }
  P.histogramLog2("lpa_query_latency_us",
                  "Per-query wall latency in microseconds", Stats.latency());
  for (const PredMetrics *PM : Metrics.predicates()) {
    if (!PM->Calls && !PM->TableSubgoals)
      continue;
    std::string Name = PM->qualifiedName();
    P.counterLabeled("lpa_pred_calls_total", "Calls per predicate", "pred",
                     Name, PM->Calls);
    P.counterLabeled("lpa_pred_resolutions_total",
                     "Clause resolutions per predicate", "pred", Name,
                     PM->Resolutions);
    P.counterLabeled("lpa_pred_warm_hits_total",
                     "Warm table hits per predicate", "pred", Name,
                     PM->WarmHits);
    P.gaugeLabeled("lpa_pred_table_bytes", "Table footprint per predicate",
                   "pred", Name, double(PM->TableBytes));
  }
  return Out;
}

std::string AnalysisSession::metricsJson(size_t MaxSamples) {
  tickMetricsHistory();
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("schema", "lpa.metrics.v1");
  // The exposition rides as one escaped string member so the protocol's
  // one-JSON-object-per-line invariant holds; scrapers unwrap one field.
  W.member("exposition", metricsText());
  W.key("history");
  Hist.writeJson(W, MaxSamples);
  W.endObject();
  return Out;
}
