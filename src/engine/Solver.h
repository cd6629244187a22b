//===- Solver.h - Tabled SLD resolution engine ------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation engine: SLD resolution with XSB-style variant tabling.
///
/// Nontabled predicates resolve against program clauses by ordinary
/// backtracking. A call to a *tabled* predicate first looks for a variant
/// of itself in the subgoal table: on a hit it resolves against the
/// recorded answers; on a miss the subgoal is entered, its answers are
/// produced by clause resolution (deduplicated by variant checks), and
/// mutually recursive subgoals are driven to fixpoint per strongly
/// connected component before being marked complete.
///
/// This gives the two properties the paper leans on:
///   * completeness — the minimal model of a finite-domain program is
///     computed in full, and evaluation terminates;
///   * call capture — every subgoal encountered under the left-to-right
///     selection rule is recorded, so input patterns (e.g. input
///     groundness) come for free from the call table.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_ENGINE_SOLVER_H
#define LPA_ENGINE_SOLVER_H

#include "engine/Builtins.h"
#include "engine/Database.h"
#include "obs/CostProfile.h"
#include "obs/Forest.h"
#include "obs/Metrics.h"
#include "obs/Provenance.h"
#include "par/ThreadPool.h"
#include "table/DependencyIndex.h"
#include "table/SharedTables.h"
#include "table/VariantCode.h"
#include "term/TermCopy.h"
#include "term/TermStore.h"

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace lpa {

class EvalObserver;

/// Identity and budget of one top-level query against a long-lived solver.
/// The service layer (src/srv) allocates one per protocol request and
/// attaches it with Solver::setQueryContext; the engine then stamps the id
/// on every trace event and sampler snapshot, counts warm/cold table reuse
/// against it, and fails branches fast once the deadline passes. With no
/// context attached (the default — batch analyzers, tests) the solver
/// numbers outermost queries itself, so warm-hit accounting still works;
/// the extra cost is one pointer test per outermost solve().
struct QueryContext {
  /// Caller-assigned query id; 0 lets the solver use its own sequence.
  /// Ids must be nonzero and increasing if the caller assigns them —
  /// warm-hit detection compares ids for inequality only, but trace
  /// consumers assume they order requests.
  uint64_t Id = 0;
  /// Absolute deadline on the solver's steady clock, in nanoseconds since
  /// epoch (Solver::steadyNowNs); 0 = no deadline. Expiry does not unwind
  /// the C++ stack: the search fails fast branch by branch, poisoning any
  /// producer mid-derivation (Subgoal::Incomplete) exactly like the depth
  /// limit, so truncated tables are never certified complete.
  uint64_t DeadlineNs = 0;
};

/// Counters describing one evaluation (the paper reports table space and
/// uses call/answer tables as the analysis result).
struct EvalStats {
  uint64_t ClauseResolutions = 0; ///< Program-clause resolution attempts.
  uint64_t TabledCalls = 0;       ///< Tabled call sites executed.
  uint64_t SubgoalsCreated = 0;   ///< Distinct tabled subgoals (variants).
  uint64_t AnswersRecorded = 0;   ///< Unique answers entered in tables.
  uint64_t AnswersDuplicate = 0;  ///< Answers rejected by variant check.
  uint64_t FixpointRounds = 0;    ///< SCC iteration rounds.
  uint64_t DepthLimitHits = 0;    ///< Searches pruned by the depth limit.
  uint64_t BuiltinEvals = 0;      ///< Builtin goals evaluated.
  /// Clause resolutions avoided by the first-argument index (candidate
  /// clauses skipped because their FirstArgKey cannot match the call).
  uint64_t ClauseIndexFiltered = 0;
  /// \name Variant-dedup counters.
  /// @{
  /// Variant-set probes that found an existing variant, and probes that
  /// inserted a new one: the subgoal index, factored answer dedup and every
  /// supplementary-frontier level. (The names predate the code sets, which
  /// replaced term tries; the counts are the same.)
  uint64_t TrieHits = 0;
  uint64_t TrieMisses = 0;
  /// Always 0: every variant set is a code set, with no trie nodes to
  /// allocate. Kept because perfbench's `table.trie_nodes` reads it.
  uint64_t TrieNodesCreated = 0;
  /// @}
  /// Bytes of supplementary-table state freed at SCC completion (frontier
  /// stores, dedup structures) and query end (the static-goal memo).
  /// tableSpaceBytes() excludes it; see the completion-shrink test.
  uint64_t FrontierBytesFreed = 0;
  /// Tables completed while the depth limit had pruned part of their
  /// derivation tree (Subgoal::Incomplete). A nonzero count means the
  /// answer tables may be a strict subset of the minimal model; analyzers
  /// must not report them as exact results.
  uint64_t IncompleteTables = 0;
  /// \name Cross-query table reuse (see QueryContext).
  /// @{
  /// Tabled calls answered entirely from a table completed by an earlier
  /// query. The service's warm-hit rate is WarmTableHits over
  /// (WarmTableHits + ColdTableMisses).
  uint64_t WarmTableHits = 0;
  /// Tabled calls whose subgoal variant had to be created.
  uint64_t ColdTableMisses = 0;
  /// @}
  /// Query deadlines that expired mid-evaluation (each expiry counts
  /// once, however many branches it then prunes).
  uint64_t DeadlineHits = 0;
  /// \name Intra-query parallelism (Options::EvalWorkers).
  /// @{
  /// Parallel priming phases run by this solver (lead side).
  uint64_t ParallelPrimeRuns = 0;
  /// Subgoal variants this worker claimed in the shared space (it ran the
  /// producer and published the completed table).
  uint64_t SharedClaims = 0;
  /// Completed tables this worker published to the shared space.
  uint64_t SharedPublishes = 0;
  /// Variants answered entirely from another worker's published table
  /// (no producer run at all — the cross-worker warm hit).
  uint64_t SharedWarmImports = 0;
  /// Variants evaluated privately because another worker held the claim
  /// but had not yet published (duplicate work instead of blocking — the
  /// no-cross-worker-wait rule that makes deadlock impossible).
  uint64_t SharedDupEvals = 0;
  /// Published tables the lead imported after the parallel phase.
  uint64_t SharedTablesImported = 0;
  /// Answers copied into the lead's tables by those imports.
  uint64_t SharedAnswersImported = 0;
  /// @}
  /// \name Incremental invalidation (invalidateDependents).
  /// @{
  /// Completed tables tombstoned because a predicate in their dependency
  /// cone was asserted into or retracted from.
  uint64_t TablesInvalidated = 0;
  /// Completed tables that survived an invalidation sweep warm (outside
  /// every changed cone). Counted per sweep, so one long-lived table can
  /// contribute once per consult/retract.
  uint64_t TablesSurvived = 0;
  /// Invalidated subgoal variants re-driven to completion on their next
  /// call (the in-place revival path of ensureSubgoal). Every revival is
  /// also a ColdTableMiss — the table had to be re-derived.
  uint64_t TablesRevived = 0;
  /// Answer/index storage released by invalidation sweeps (the same
  /// accounting discipline as FrontierBytesFreed; term cells stay in the
  /// table arena until clearTables()).
  uint64_t InvalidationBytesFreed = 0;
  /// @}
};

/// Table-space high-watermarks: the paper's "Table space" column as a
/// *peak*, not just an end-of-run figure (completion frees frontiers, so
/// the footprint at the end understates what evaluation needed). Tracked
/// unconditionally — every update is a compare against an O(1) byte count
/// at a point the bytes are already in hand.
struct TableWatermarks {
  /// Peak of the table TermStore arena (call/answer term cells), refreshed
  /// on every recorded answer and subgoal creation. Exact.
  uint64_t PeakTermStoreBytes = 0;
  /// Largest per-subgoal answer-table footprint (answer dedup set plus
  /// answer vectors), measured at that subgoal's completion — answer
  /// tables only grow until completion, so this is the lifetime peak.
  uint64_t PeakSubgoalAnswerBytes = 0;
  /// Largest frontier footprint freed at once: an SCC's at completion (what
  /// releaseCompletedState freed) or a query's static-goal memo at its end.
  uint64_t PeakSccFrontierBytes = 0;
  /// Peak of tableSpaceBytes(), refreshed whenever that walk runs anyway:
  /// at every outermost-SCC completion (taken *before* the release, so the
  /// pre-free maximum is seen) and on explicit tableSpaceBytes() calls.
  uint64_t PeakTableSpaceBytes = 0;
};

/// Persistent intermediate state of evaluating one pure clause for one
/// subgoal: the deduplicated set of partial derivations ("supplementary
/// tables", the optimization the paper points to for deep clause bodies).
/// Levels[j] holds the states with the first j body goals solved; a
/// producer re-run pushes only *new* answers through these frontiers.
/// Only the final level and levels before a goal other than =/2 are kept:
/// a =/2 goal runs inside the step before it (or the seed), so the level
/// in front of it stays empty.
struct ClauseFrontier {
  explicit ClauseFrontier(size_t NumGoals) : Levels(NumGoals + 1) {}

  /// Level j: states with the first j body goals solved. A state is the
  /// root tuple (Call, V...): the call instance plus the bindings of
  /// exactly the clause variables still *live* (occurring in a goal >= j,
  /// see Clause::BodyVars), so states stay small and dead bindings do not
  /// defeat deduplication. Goal j itself is built from the clause store
  /// around the decoded roots (Database::instantiateGoal).
  /// Each state is stored once, as its variant code: the code is both the
  /// dedup key and what a frontier pass decodes back into the heap, with
  /// fresh variables, to resume the state.
  VariantCodeStore Levels;
  uint64_t Watermark = 0; ///< Global answer seq at the previous run's start.
  bool Initialized = false;
  /// The head, or a leading =/2 goal, failed against the call: the clause
  /// contributes nothing to this subgoal, ever.
  bool HeadFailed = false;

  /// How one frontier state was reached (populated only when the solver
  /// records provenance). Origins[j][i] pairs state i of Levels[j] with its
  /// predecessor's index on the previous kept level k (the =/2 goals k+1
  /// to j-1 folded into the step) and the premise answers goal k consumed
  /// on that step; walking the chain back to the seed recovers the full
  /// premise list of a derived answer. Justifications are materialized
  /// into the ProvenanceArena the moment an answer is recorded, so this
  /// per-frontier state is transient and freed with the frontier by
  /// releaseCompletedState.
  struct StateOrigin {
    uint32_t Prev = 0;
    std::vector<ProvPremise> Premises;
  };
  std::vector<std::vector<StateOrigin>> Origins;

  size_t memoryBytes() const;
};

/// One tabled subgoal: the canonicalized call, its answers, and SCC
/// bookkeeping used for completion.
struct Subgoal {
  PredKey Pred;
  TermRef CallTerm; ///< Copy of the call in the table store.
  /// Distinct unbound variables of CallTerm in first-occurrence order (the
  /// variables substitution-factored answers bind).
  std::vector<TermRef> CallVars;
  /// Aggregated predicates (an answer join registered, so not Factored):
  /// the single joined call instance, in the table store. Empty when
  /// Factored.
  std::vector<TermRef> Answers;
  /// Substitution-factored answers (Factored): bindings of CallVars only,
  /// CallVars.size() consecutive entries per answer, in the table store.
  /// The whole instance is never materialized unless an inspector asks
  /// (Solver::answerInstance).
  std::vector<TermRef> AnswerBindings;
  std::vector<uint64_t> AnswerSeq; ///< Global sequence number per answer.
  /// Answer dedup of a factored table: a one-level code set over the
  /// binding tuples, released on completion -- no answer is ever inserted
  /// into a completed table.
  std::unique_ptr<VariantCodeStore> AnswerIndex;
  /// True when answers are stored substitution-factored: no answer join is
  /// registered for the predicate.
  bool Factored = false;
  bool Complete = false;
  /// Poisoned: the depth limit pruned a branch while this subgoal (or a
  /// member of its SCC, or a table it consumed) was being produced, so the
  /// answer set may be truncated. Sticky across completion; counted in
  /// EvalStats::IncompleteTables when the table completes.
  bool Incomplete = false;

  /// Creation-order index into Solver::subgoals() — the subgoal half of a
  /// ProvPremise and the node id in the exported forest.
  uint32_t Ordinal = 0;
  /// 1-based id of the completion SCC this subgoal completed in (subgoals
  /// completed together share one id); 0 until completed.
  uint32_t SccId = 0;
  /// 1-based position in the global completion order; 0 until completed.
  uint32_t CompletionSeq = 0;
  /// Id of the outermost query that completed this table (0 before
  /// completion). A later query calling the variant is a *warm* hit —
  /// the cross-query reuse EvalStats::WarmTableHits counts.
  uint64_t CompletedInQuery = 0;
  /// Database revision (Database::globalRevision) this table's answers
  /// were derived under, stamped at completion. Diagnostic complement of
  /// the dependency index: a table is stale exactly when a predicate in
  /// its cone changed after this revision.
  uint64_t DerivedAtRevision = 0;
  /// Tombstone: a dependency-cone sweep (Solver::invalidateDependents)
  /// found this completed table potentially stale and released its
  /// answers. The variant stays in the subgoal index (code sets have no
  /// delete); the next call revives it in place and re-runs the producer.
  bool Invalidated = false;

  // Completion (approximate Tarjan SCC) machinery.
  uint64_t Dfn = 0;
  uint64_t MinLink = 0;
  bool OnStack = false;
  size_t StackPos = 0;

  // Semi-naive scheduling: producers that consumed our answers while we
  // were incomplete; they re-run only when we gain an answer.
  std::unordered_set<Subgoal *> Consumers;
  bool Dirty = true;

  /// Supplementary tables, one per pure clause (freed on completion).
  std::vector<std::unique_ptr<ClauseFrontier>> Frontiers;

  /// \name Shared-table coordination (intra-query parallel mode).
  /// @{

  /// Non-null while this worker holds the claim on the variant in the
  /// shared table space; publication at SCC completion clears it.
  SharedTableSpace::Entry *SharedClaim = nullptr;

  /// @}
};

/// Evaluation engine over one Database.
///
/// The solver owns a scratch heap for resolution (exposed via store()) and
/// a table store holding subgoals and answers, which persist across solve()
/// calls until clearTables().
class Solver {
public:
  /// Tunables.
  struct Options {
    /// Maximum resolution depth for nontabled recursion; exceeding it
    /// fails that branch and sets EvalStats::DepthLimitHits (a safety
    /// valve, not part of the paper's semantics).
    size_t MaxDepth = 100000;
    /// Perform the occur check in unification (Section 6 discussion).
    bool OccursCheck = false;
    /// Evaluate pure clause bodies of tabled predicates set-at-a-time
    /// with persistent intermediate frontiers, pushing only new answers
    /// through on re-runs ("supplementary tabling", Section 4.2's
    /// suggested optimization). Off = plain tuple-at-a-time re-runs, which
    /// the tests use as the differential oracle for the frontier path.
    bool SupplementaryTabling = true;
    /// Record, for every unique answer, which clause produced it and which
    /// premise answers — (subgoal, answer-index) pairs — its derivation
    /// consumed, in a per-solver ProvenanceArena (src/obs). Also records
    /// the subgoal dependency edges backing exportForest(). Off by
    /// default: every hook then reduces to a null-pointer test and the
    /// arena is never allocated.
    bool RecordProvenance = false;
    /// Intra-query parallelism: 0 or 1 evaluates serially; N > 1 lets an
    /// outermost solve() (or an explicit primeTables() call) dispatch
    /// independent tabled seed goals to N pool workers that share one
    /// SharedTableSpace, then import every published table before the
    /// ordinary serial search runs against the now-warm tables. Provenance
    /// recording forces the serial path (proof premise indices are
    /// per-solver and cannot cross worker boundaries).
    /// Answer SETS are identical to serial evaluation — SLG computes the
    /// unique minimal model per subgoal regardless of scheduling — so
    /// set-based fingerprints are bit-identical; raw enumeration order of
    /// subgoals/answers may differ.
    size_t EvalWorkers = 0;
  };

  explicit Solver(Database &DB);
  Solver(Database &DB, Options Opts);

  /// How a producer run evaluates one clause body of a tabled predicate.
  enum class ClauseStrategy : uint8_t {
    /// Tuple-at-a-time SLD, re-run in full on every producer run.
    Sld,
    /// Tuple-at-a-time SLD on the subgoal's first producer run only: the
    /// body reaches no table, so a fixpoint re-run could only find the
    /// same answers again.
    Once,
    /// A supplementary frontier (Options::SupplementaryTabling): the
    /// states between body goals are kept, so a re-run pushes only new
    /// tabled answers through.
    Frontier,
  };

  /// The strategy of clause \p ClauseIdx of predicate \p Key under the
  /// current database (DESIGN.md §19.5), decided once per database
  /// revision. A pure body keeps a frontier iff it calls a static
  /// predicate with rules or a dynamic nontabled one, or calls static
  /// facts beside a tabled goal; one that reaches no table runs Once;
  /// the rest, impure bodies, and every body with SupplementaryTabling
  /// off run Sld.
  ClauseStrategy clauseStrategy(PredKey Key, size_t ClauseIdx);

  /// The scratch store in which callers build query goals.
  TermStore &store() { return Heap; }
  const TermStore &storeConst() const { return Heap; }

  /// Called on each solution; return true to stop the search.
  using SolutionFn = std::function<bool()>;

  /// Proves \p Goal (a term in store()). \p OnSolution fires with the
  /// goal's variables bound; bindings are undone as the search backtracks,
  /// so callers must copy out what they need.
  /// \returns the number of solutions delivered.
  size_t solve(TermRef Goal, const SolutionFn &OnSolution);

  /// Proves \p Goal, collecting up to \p Limit solution snapshots (resolved
  /// copies of the goal) into \p Out. Snapshots must not be collected into
  /// store() itself: the solver truncates its scratch heap on backtracking.
  std::vector<TermRef> solveAll(TermRef Goal, TermStore &Out,
                                size_t Limit = SIZE_MAX);

  /// True if \p Goal has at least one solution.
  bool solveOnce(TermRef Goal);

  /// Parses \p GoalText and proves it. Convenience for tests/examples.
  ErrorOr<size_t> solveText(std::string_view GoalText,
                            const SolutionFn &OnSolution);

  /// \name Intra-query parallel evaluation (Options::EvalWorkers).
  /// @{

  /// Drives every tabled seed goal of \p Goals (terms in store()) to
  /// completion, in parallel when the parallel gate is open (EvalWorkers
  /// > 1, provenance off, and at least two eligible seeds with
  /// pairwise-disjoint variables); otherwise each seed is solved
  /// serially in order. The parallel phase evaluates seeds in per-worker
  /// solvers against one SharedTableSpace — a worker that claims a variant
  /// runs its producer and publishes the completed table; a worker that
  /// sees the published table imports it without any producer run; a
  /// worker racing an in-flight claim duplicates the evaluation privately
  /// rather than waiting (no cross-worker blocking, hence no deadlock).
  /// Afterwards the lead imports every published table in a deterministic
  /// order, so subsequent (serial) solve() calls hit warm tables.
  /// Depth/deadline poisoning crosses worker boundaries: a table published
  /// Incomplete imports as Incomplete and taints its consumers exactly as
  /// in serial evaluation. \returns the number of seeds evaluated.
  size_t primeTables(std::span<const TermRef> Goals);

  /// Aggregated EvalStats of all parallel workers across primeTables runs
  /// (lead-side Stats never includes worker-side work).
  const EvalStats &parallelWorkerStats() const { return WorkerStats; }

  /// Accumulated shared-table-space counters across primeTables runs.
  const SharedTableSpace::Stats &sharedTableStats() const {
    return SharedStats;
  }

  /// Per-shard shared-space counters, accumulated element-wise across
  /// primeTables runs (the space itself lives on the lead's stack for one
  /// phase, so cross-phase figures must be folded here). Empty before the
  /// first parallel phase. Feeds the `inspect` op's contention view — the
  /// ROADMAP's shard-tuning item needs the per-shard skew, not just the
  /// aggregate sharedTableStats().
  const std::vector<SharedTableSpace::ShardStats> &sharedShardStats() const {
    return SharedShardStats;
  }

  /// Counters of the intra-query eval pool (zeros before the first
  /// parallel phase).
  ThreadPool::PoolStats evalPoolStats() const {
    return EvalPool ? EvalPool->stats() : ThreadPool::PoolStats{};
  }

  /// @}

  /// \name Table inspection (the analysis result interface).
  /// @{

  /// The store holding subgoal call terms and answers.
  const TermStore &tableStore() const { return Tables; }

  /// Iterates all subgoals in creation order.
  const std::vector<Subgoal *> &subgoals() const { return SubgoalOrder; }

  /// \returns the completed subgoal variant of \p Call (a term in
  /// store()), or nullptr if that variant was never called.
  const Subgoal *findSubgoal(TermRef Call) const;

  /// Number of answers in \p SG's table.
  size_t answerCount(const Subgoal &SG) const { return SG.AnswerSeq.size(); }

  /// Materializes answer \p I of \p SG as a full instance of the call,
  /// built in \p Out. For substitution-factored tables this instantiates
  /// the stored call skeleton with the answer's bindings (sharing between
  /// binding slots preserved); for aggregated tables it copies the stored
  /// joined instance. This is the inspection path -- evaluation itself never
  /// rebuilds instances.
  TermRef answerInstance(const Subgoal &SG, size_t I, TermStore &Out) const;

  /// Bytes attributable to the tables: call/answer terms, variant sets,
  /// index structures. This is the paper's "Table space" column.
  size_t tableSpaceBytes() const;

  /// Bytes attributable to ONE subgoal's table: the subgoal record, its
  /// answer dedup set, its term cells in the table store (call +
  /// answers), and any live supplementary frontiers. snapshotTableMetrics
  /// apportions per-predicate TableBytes with this, and the service
  /// layer's `inspect` op ranks tables by it.
  size_t subgoalMemoryBytes(const Subgoal &SG) const;

  /// Drops all tables (subgoals and answers).
  void clearTables();

  /// @}

  /// \name Incremental invalidation (XSB-style incremental tabling).
  /// @{

  /// Outcome of one invalidation sweep.
  struct InvalidationResult {
    uint64_t TablesInvalidated = 0; ///< Completed tables tombstoned.
    uint64_t TablesSurvived = 0;    ///< Completed tables left warm.
    uint64_t BytesFreed = 0;        ///< Storage released by the sweep.
    uint64_t PredsAffected = 0;     ///< Predicates in the union of cones.
  };

  /// Reverse-reachability sweep over the live dependency index: every
  /// table whose predicate transitively consumed any predicate in
  /// \p Changed is tombstoned (answers and index storage released,
  /// Subgoal::Invalidated set, revived in place on the next call);
  /// independent completed tables stay warm and are counted as survivors.
  /// Must be called *between* queries — never while a solve() or parallel
  /// phase is in flight. Also retires matching published tables if a
  /// SharedTableSpace is attached for the current phase, clears the
  /// static-predicate cache (a static pred may have gained a tabled
  /// dependency), and drops the affected predicates' recorded dependency
  /// edges so re-derivation re-records them against the new program.
  InvalidationResult invalidateDependents(std::span<const PredKey> Changed);

  /// The live predicate-level dependency index (see DependencyIndex).
  const DependencyIndex &dependencyIndex() const { return DepIndex; }

  /// @}

  /// \name Answer aggregation (Section 6.2).
  ///
  /// A predicate with a registered join keeps ONE answer per subgoal: the
  /// lattice join of everything derived so far, recomputed on each new
  /// derivation and replaced when it grows. Joins must be monotone
  /// over-approximations (e.g. anti-unification), which keeps fixpoint
  /// computation terminating and sound. This is the paper's "answer
  /// collection via generic aggregation" realized as mode-directed
  /// tabling: analyses that only need per-argument summaries trade the
  /// full truth tables for constant-size answer entries.
  /// @{

  /// Joins two answers (both terms in \p Store); returns the join, built
  /// in \p Store.
  using AnswerJoinFn =
      std::function<TermRef(TermStore &Store, TermRef A, TermRef B)>;

  /// Registers \p Join for \p Pred. Must be called before the predicate
  /// is first evaluated.
  void setAnswerJoin(PredKey Pred, AnswerJoinFn Join);

  /// @}

  /// Resets the scratch heap. Invalidates terms previously built in
  /// store(); tables are unaffected.
  void resetHeap() { Heap.clear(); }

  const EvalStats &stats() const { return Stats; }

  /// Zeroes the evaluation counters. Tables are deliberately NOT touched:
  /// after resetStats() the counters describe only *new* work, so
  /// re-evaluating a goal whose subgoals are already complete reports zero
  /// SubgoalsCreated/AnswersRecorded (the answers replay from the tables)
  /// while TabledCalls still counts the table hits. For a from-scratch
  /// measurement call clearTables() as well. An attached observer is
  /// unaffected. The invalidation counters
  /// (TablesInvalidated/TablesSurvived/TablesRevived) reset with the rest
  /// — they are per-window like every EvalStats field; tables already
  /// tombstoned stay tombstoned (resetStats never revives or drops state),
  /// and the service layer keeps its own cumulative invalidation totals in
  /// ServiceStats.
  void resetStats() { Stats = EvalStats(); }

  /// \name Observability (src/obs).
  /// @{

  /// Attaches (or, with nullptr, detaches) the observer every engine
  /// event is reported to (obs/EvalObserver.h, DESIGN.md §8). Observation
  /// never changes evaluation. The caller keeps the observer alive while
  /// attached and changes its channels only between solve() calls; eval
  /// workers report to EvalObserver::WorkerCursors.
  void setObserver(EvalObserver *O) { Obs = O; }
  EvalObserver *observer() const { return Obs; }

  /// Attaches (or, with nullptr, detaches) the query context consulted at
  /// each outermost solve(): its Id scopes trace events, sampler stacks
  /// and warm-hit accounting; its DeadlineNs bounds the search (see
  /// QueryContext). Unlike the observer it changes results (a deadline
  /// truncates tables). The caller keeps the context alive across the
  /// queries it covers, and may mutate it *between* (never during) solve()
  /// calls.
  void setQueryContext(const QueryContext *Q) { Query = Q; }
  const QueryContext *queryContext() const { return Query; }

  /// Id of the query the solver is serving (or last served): the attached
  /// context's Id, else the internal outermost-solve sequence number.
  uint64_t currentQueryId() const { return CurQueryId; }

  /// Nanoseconds on the clock QueryContext::DeadlineNs is measured
  /// against (steady, process-wide).
  static uint64_t steadyNowNs();

  /// Table-space high-watermarks (see TableWatermarks). PeakTermStoreBytes
  /// and PeakTableSpaceBytes are refreshed before returning.
  const TableWatermarks &watermarks() const;

  /// Writes the current table state into \p M: per-predicate subgoal and
  /// answer counts, table-space bytes apportioned from the table store via
  /// TermStore arena measurements, answer-count histograms, and the global
  /// counters (EvalStats plus total table bytes). Snapshot fields are
  /// assigned, not accumulated, so repeated snapshots are idempotent.
  void snapshotTableMetrics(MetricsRegistry &M) const;

  /// @}

  /// \name Answer provenance & forest export (Options::RecordProvenance).
  /// @{

  /// The justification arena, or nullptr when recording is off.
  const ProvenanceArena *provenance() const { return Prov.get(); }

  /// Reconstructs the proof tree of answer \p AnswerIdx of \p SG from the
  /// recorded justifications (cycle-safe, bounded per \p O with explicit
  /// elision markers). \returns nullopt when recording is off.
  std::optional<ProofNode> justifyAnswer(const Subgoal &SG, size_t AnswerIdx,
                                         const ProofBuildOptions &O = {}) const;

  /// Renders \p Root with answer instances materialized through TermWriter
  /// and 1-based clause annotations.
  std::string renderProof(const ProofNode &Root) const;

  /// Answer \p I of \p SG rendered as text (materialized via
  /// answerInstance into a scratch store).
  std::string formatAnswer(const Subgoal &SG, size_t I) const;

  /// \p SG's call term rendered as text.
  std::string formatCall(const Subgoal &SG) const;

  /// Snapshot of the SLG forest: one node per subgoal in creation order,
  /// consumer -> producer dependency edges (recorded only while provenance
  /// is on), SCC membership, completion order and Incomplete taint.
  ForestGraph exportForest() const;

  /// One query's cost attribution (the attached observer's cost profile,
  /// current/last query), with predicate names, call labels and SCC ids
  /// resolved and cumulative times computed over the first-touch tree;
  /// per-predicate and per-SCC rollups sorted by self time. Empty when no
  /// profile is attached. See obs/CostProfile.h for the attribution
  /// discipline.
  CostSummary exportCostSummary() const;

  /// Validates every recorded justification against the live answer
  /// tables: each premise must name an existing subgoal and an answer
  /// index inside its table. Zeros when recording is off.
  ProvenanceArena::CheckStats checkProvenance() const;

  /// @}

private:
  /// Linked-list resolvent; nodes live in GoalArena for the duration of a
  /// query.
  struct GoalNode {
    TermRef Goal;
    const GoalNode *Next;
  };

  /// Result of exploring a branch: how backtracking should proceed.
  struct Signal {
    enum Kind : uint8_t {
      Exhausted, ///< All alternatives tried; keep backtracking normally.
      Stop,      ///< A callback asked to end the whole search.
      CutTo,     ///< A cut fired; unwind clause choices up to Level.
    } K = Exhausted;
    uint64_t Level = 0;

    static Signal exhausted() { return {Exhausted, 0}; }
    static Signal stop() { return {Stop, 0}; }
    static Signal cutTo(uint64_t L) { return {CutTo, L}; }
  };

  Signal solveGoals(const GoalNode *Goals, size_t Depth, uint64_t CutLevel,
                    const SolutionFn &OnSolution);
  /// The limits solveGoals checks before running a goal at \p Depth: past
  /// MaxDepth or the query's deadline it counts the hit, poisons the
  /// running producer and \returns true (the goal must fail).
  bool pastLimits(size_t Depth);
  Signal solveCall(TermRef Goal, const GoalNode *Rest, size_t Depth,
                   uint64_t CutLevel, const SolutionFn &OnSolution);
  Signal solveNontabled(const Predicate &P, TermRef Goal,
                        const GoalNode *Rest, size_t Depth,
                        const SolutionFn &OnSolution);
  Signal solveTabled(const Predicate &P, TermRef Goal, const GoalNode *Rest,
                     size_t Depth, uint64_t CutLevel,
                     const SolutionFn &OnSolution);
  Signal solveBuiltin(BuiltinKind Kind, TermRef Goal, const GoalNode *Rest,
                      size_t Depth, uint64_t CutLevel,
                      const SolutionFn &OnSolution);
  Signal solveIff(TermRef Goal, const GoalNode *Rest, size_t Depth,
                  uint64_t CutLevel, const SolutionFn &OnSolution);

  /// Runs the clause-resolution producer for \p SG once; new answers go to
  /// the table. \returns true if any new answer was recorded. Each clause
  /// body runs by its ClauseStrategy: through a persistent state frontier,
  /// so a re-run costs only the propagation of new answers, or by
  /// tuple-at-a-time SLD. \p Resumed marks a fixpoint re-run, which skips
  /// the Once clauses.
  bool runProducer(Subgoal &SG, bool Resumed);

  /// Semi-naive evaluation of pure clause \p C (index \p ClauseIdx in its
  /// predicate) for \p SG, through the subgoal's ClauseFrontier.
  void runClauseSupplementary(Subgoal &SG, const Clause &C, size_t ClauseIdx,
                              size_t NumClauses);

  /// What a pure clause goal calls. It is fixed per clause goal between
  /// database edits, so runClauseSupplementary finds it once per level and
  /// run, not once per state.
  enum class GoalKind : uint8_t {
    Unify,       ///< =/2: runs folded into the frontier step before it.
    Builtin,     ///< Any other builtin.
    Tabled,      ///< A tabled predicate.
    StaticRules, ///< Static with rules: answered through the memo.
    StaticFacts, ///< Static facts: plain SLD.
    Dynamic,     ///< Nontabled, and its call cone is not static.
    Undefined,   ///< No predicate: fails.
  };
  struct SemiGoal {
    GoalKind Kind = GoalKind::Builtin;
    BuiltinKind Builtin = BuiltinKind::None; ///< Builtin and Unify.
    PredKey Key{};
    const Predicate *Pred = nullptr; ///< Tabled and nontabled kinds.
  };
  /// Classifies clause goal \p Goal (a ref into the clause store).
  SemiGoal semiGoalOf(TermRef Goal);

  /// One level of a runClauseSupplementary run: its old/new boundary, its
  /// goal and, for a =/2 goal, how the fold runs it on a level-J root
  /// tuple.
  struct LevelPlan {
    size_t OldCount = 0; ///< Levels.size(J) before the run's seed.
    SemiGoal Goal;       ///< Goal J; unset at the final level.
    /// Unify goals: the root positions of the two arguments when both are
    /// clause variables, else 0 (the goal is built from the roots); and
    /// keptAfter(J), as the range [KeepBegin, KeepEnd) of KeepStack.
    uint32_t ArgSlot[2] = {0, 0};
    uint32_t KeepBegin = 0, KeepEnd = 0;
  };
  /// Plans level \p J of clause \p C, whose level holds \p OldCount states.
  LevelPlan planLevel(const Clause &C, size_t J, size_t OldCount);

  /// Runs the =/2 goals \p From to \p To - 1 of \p C on the level-From
  /// root tuple in RootScratch, projecting it after each, so that it ends
  /// as a level-To tuple. The run's plan starts at PlanStack[\p PlanBase].
  /// \returns false if a unification fails.
  bool runFoldedUnifies(const Clause &C, size_t From, size_t To,
                        size_t PlanBase);
  /// One =/2 of a fold: the limit check, count and observer event
  /// solveGoals and solveCall give a builtin, then the unification.
  bool foldUnify(TermRef A, TermRef B);

  /// Solves the single pure goal \p G, of kind \p S, under the current
  /// heap bindings. \p MinSeq > 0 marks a re-propagation pass: only tabled
  /// answers with sequence number above it are consumed, and goals whose
  /// solutions cannot have changed (builtins, static nontabled predicates)
  /// yield nothing.
  void solveSemiGoal(TermRef G, const SemiGoal &S, uint64_t MinSeq,
                     const std::function<void()> &OnSolution);

  /// solveSemiGoal for a static goal \p G, through the query's
  /// StaticGoalMemo: SLD that stores the distinct solutions at a call
  /// variant's first sight, a replay of them from the second on.
  void solveStaticGoal(TermRef G, const std::function<void()> &OnSolution);

  /// \returns true if every body goal of \p C is free of control
  /// constructs (evaluable set-at-a-time).
  bool clauseIsPure(const Clause &C) const;

  /// Decides \p C's ClauseStrategy from the kinds of its body goals;
  /// \p Pure is clauseIsPure(C).
  ClauseStrategy chooseStrategy(const Clause &C, bool Pure);

  /// The strategies of \p P's clauses, in clause order: chosen at the
  /// first call under a database revision, then read from
  /// ClauseStrategies.
  const std::vector<ClauseStrategy> &strategiesOf(const Predicate &P);

  /// The kind of a call to nontabled \p Key. Static (StaticRules or
  /// StaticFacts): its call cone, goals under control constructs
  /// included, has no tabled predicate and no metacall, so its solutions
  /// never change. StaticFacts: all of \p Key's clauses are facts.
  /// Otherwise Dynamic.
  GoalKind staticness(PredKey Key);

  /// Creates/loads the subgoal for \p Goal and drives it as far toward
  /// completion as its SCC allows. \p GoalVars receives \p Goal's distinct
  /// unbound variables in first-occurrence order -- the variables factored
  /// answers bind -- as a free byproduct of the table walk.
  Subgoal &ensureSubgoal(TermRef Goal, PredKey Key,
                         std::vector<TermRef> &GoalVars);

  /// Pushes \p SG onto the completion machinery, runs its producer, and —
  /// when it turns out to be an SCC root — drives the SCC to fixpoint and
  /// completes every member. Shared by the fresh-subgoal path and the
  /// invalidated-table revival path of ensureSubgoal.
  void driveSubgoal(Subgoal &SG);

  /// In-place revival of an invalidated subgoal variant: clears the
  /// tombstone, reallocates the answer dedup set a factored table needs,
  /// and counts the re-derivation (cold miss + TablesRevived).
  /// driveSubgoal must follow.
  void reviveSubgoal(Subgoal &SG);

  /// Feeds the live dependency index with "the innermost tabled producer
  /// depends on \p Callee". No-op outside a producer run. Covers tabled,
  /// nontabled and *undefined* callees — asserting a predicate that calls
  /// failed against must still invalidate the tables that saw it fail.
  void recordPredDependency(PredKey Callee);

  /// The shared head of every tabled call (solveTabled and the
  /// supplementary path's solveSemiGoal): counts the call, finds or drives
  /// the subgoal (see ensureSubgoal), does the warm/cold accounting, and
  /// links the calling producer to it (SCC dependency, answer
  /// subscription, Incomplete taint, dependency edge).
  Subgoal &callTabled(TermRef Goal, PredKey Key,
                      std::vector<TermRef> &GoalVars);

  /// Returns answers \p Start.. of \p SG to the consumer \p Goal (whose
  /// free variables are \p GoalVars), each under its own heap mark, and
  /// runs \p Cont on each; \p Cont returns true to stop.
  template <typename ContFn>
  void returnAnswers(const Subgoal &SG, size_t Start, TermRef Goal,
                     const std::vector<TermRef> &GoalVars, ContFn &&Cont);

  /// Counts one clause resolution of \p Key and reports it;
  /// \p ProducerStep charges it to the running producer's cost frame.
  void noteClauseResolve(PredKey Key, bool ProducerStep);

  /// One producer run of \p SG with its frame on the producer stack (and
  /// the observer's); \p Resumed marks a fixpoint re-run.
  void runProducerFrame(Subgoal &SG, bool Resumed);

  /// Records \p Instance (resolved call in Heap) as an answer of \p SG.
  bool recordAnswer(Subgoal &SG, TermRef Instance);

  /// Substitution factoring: walks CallTerm (tables) and \p Instance
  /// (heap) in lockstep and collects, for each of SG.CallVars in order,
  /// the heap subterm it is bound to in this instance.
  void extractCallBindings(const Subgoal &SG, TermRef Instance,
                           std::vector<TermRef> &Out);

  /// Instantiates the consumer's \p GoalVars (its free variables in
  /// first-occurrence order; the goal is a variant of SG.CallTerm) with
  /// answer \p I's factored bindings, copied into the heap. Bindings land
  /// on the trail; the caller unwinds with undoTo. No instance is copied
  /// and no unification runs.
  void bindFactoredAnswer(const Subgoal &SG, size_t I,
                          const std::vector<TermRef> &GoalVars);

  /// Releases evaluation-only state of a completed subgoal: supplementary
  /// frontiers, consumer links and answer dedup structures. Counts the
  /// freed bytes into EvalStats::FrontierBytesFreed. Provenance already
  /// recorded for the subgoal's answers is deliberately KEPT — the arena
  /// materializes justifications at record time precisely so that
  /// completion can free the transient frontier Origins without losing
  /// explainability (arena bytes stay counted in tableSpaceBytes()).
  /// \returns the frontier bytes freed, so the completion loop can fold a
  /// whole SCC's release into TableWatermarks::PeakSccFrontierBytes.
  size_t releaseCompletedState(Subgoal &SG);

  /// \name Provenance recording internals (all no-ops when !Prov).
  /// @{

  /// Stores the justification of answer \p AnswerIdx of \p SG from the
  /// current clause context: premises come from PendingPremises when set
  /// (supplementary path), else from PremiseStack above PremiseBase
  /// (tuple-at-a-time path).
  void recordJustification(Subgoal &SG, size_t AnswerIdx);

  /// Records a consumer -> producer forest edge, deduplicated.
  void addDepEdge(uint32_t Consumer, uint32_t Producer);

  /// Walks the Origin chain of frontier state \p StateIdx at \p Level back
  /// to the seed, over the levels \p Plan keeps, and appends the consumed
  /// premises in body-goal order.
  void collectFrontierPremises(const ClauseFrontier &CF,
                               std::span<const LevelPlan> Plan, size_t Level,
                               size_t StateIdx,
                               std::vector<ProvPremise> &Out) const;

  /// @}

  /// \name Intra-query parallel evaluation internals.
  /// @{

  /// Collects the tabled conjuncts of \p Goal (a ','/2 tree in Heap) as
  /// candidate parallel seeds, in left-to-right order.
  void collectSpawnSeeds(TermRef Goal, std::vector<TermRef> &Seeds);

  /// Runs the parallel phase proper over \p Seeds (all gating already
  /// checked): worker solvers, shared space, import pass.
  void runParallelPrime(const std::vector<TermRef> &Seeds);

  /// Snapshots completed subgoal \p SG as a self-contained PublishedTable
  /// (own TermStore; per-answer copies preserve intra-answer sharing).
  std::unique_ptr<SharedTableSpace::PublishedTable>
  buildPublishedTable(const Subgoal &SG) const;

  /// Copies \p PT's answers into \p SG (a freshly created local subgoal of
  /// the same variant) and marks it complete, propagating the Incomplete
  /// taint. Used by workers hitting another worker's published table and
  /// by the lead's post-phase import.
  void fillSubgoalFromPublished(Subgoal &SG,
                                const SharedTableSpace::PublishedTable &PT);

  /// Lead-side import of one published table: creates the subgoal variant
  /// if the lead does not already have it complete.
  void importPublishedTable(const SharedTableSpace::PublishedTable &PT);

  /// @}

  const GoalNode *makeGoals(const std::vector<TermRef> &Goals,
                            const GoalNode *Tail);
  const GoalNode *makeGoal(TermRef Goal, const GoalNode *Tail);

  Database &DB;
  SymbolTable &Symbols;
  Options Opts;
  BuiltinTable Builtins;

  TermStore Heap;   ///< Scratch resolution heap.
  TermStore Tables; ///< Call/answer terms.

  /// Subgoal storage, in creation order.
  std::vector<std::unique_ptr<Subgoal>> SubgoalOwned;
  /// Subgoal index: one encode of the call checks and inserts; a code's
  /// position is its subgoal's ordinal, the index into SubgoalOwned.
  VariantCodeStore SubgoalIndex{1};
  std::vector<Subgoal *> SubgoalOrder;
  /// Scratch buffer for factored answer extraction, reused across one
  /// producer run's candidates (never live across a reentrant call).
  std::vector<TermRef> BindScratch;
  /// Same discipline: extractCallBindings' walk, the answer-tuple renaming
  /// of recordAnswer/bindFactoredAnswer, the state roots the supplementary
  /// frontier callback projects, and a decoded static-goal solution.
  std::vector<std::pair<TermRef, TermRef>> BindWork;
  VarRenaming RenameScratch;
  std::vector<TermRef> RootScratch;
  /// The level plans of the runClauseSupplementary calls in progress,
  /// stacked: a run owns the top NumGoals + 1 entries (indexed, since
  /// nested runs may grow the vector) and pops them on return. KeepStack
  /// holds their =/2 levels' keptAfter positions the same way.
  std::vector<LevelPlan> PlanStack;
  std::vector<uint32_t> KeepStack;
  std::vector<uint32_t> KeepScratch;
  std::vector<Subgoal *> CompletionStack;
  std::vector<Subgoal *> ProducerStack;
  uint64_t DfnCounter = 0;
  uint64_t CutCounter = 0;
  uint64_t AnswerSeqCounter = 0;
  std::unordered_map<uint64_t, GoalKind> StaticPredCache;
  /// Per tabled predicate, the strategy of each clause (strategiesOf),
  /// and the database revision they were chosen under.
  std::unordered_map<uint64_t, std::vector<ClauseStrategy>> ClauseStrategies;
  uint64_t StrategiesRevision = 0;
  /// Highest answer sequence per predicate (for frontier skip checks).
  std::unordered_map<uint64_t, uint64_t> PredMaxAnswerSeq;
  /// Per-predicate answer joins (Section 6.2 aggregation).
  std::unordered_map<uint64_t, AnswerJoinFn> AnswerJoins;

  std::vector<std::unique_ptr<GoalNode>> GoalArena;
  EvalStats Stats;

  /// Observer (null when detached; see setObserver).
  EvalObserver *Obs = nullptr;
  /// Query context (null when detached; see setQueryContext).
  const QueryContext *Query = nullptr;
  /// Internal outermost-query sequence, used when no context supplies an
  /// id. Never reset: warm-hit detection needs ids unique across the
  /// solver's whole life, including across resetStats()/clearTables().
  uint64_t QuerySeq = 0;
  /// Id of the query currently (or last) served; see currentQueryId().
  uint64_t CurQueryId = 0;
  /// Deadline short-circuit: set once per query when the deadline first
  /// passes, so subsequent solveGoals entries fail on one flag test
  /// instead of re-reading the clock.
  bool DeadlineExpired = false;
  /// Clock-check decimation counter (the clock is read every 1024th
  /// solveGoals entry while a deadline is armed).
  uint32_t DeadlineTick = 0;
  /// Table-space peaks. Mutable: tableSpaceBytes() is const but refreshes
  /// PeakTableSpaceBytes whenever it walks the tables anyway.
  mutable TableWatermarks Water;

  /// \name Provenance state (Options::RecordProvenance; null/empty when
  /// off — the disabled path is one pointer test per hook).
  /// @{

  /// Justification arena, allocated in the constructor iff recording.
  std::unique_ptr<ProvenanceArena> Prov;
  /// Premise answers consumed on the current derivation path, in
  /// consumption order. Tabled answer returns push on entry to the
  /// continuation and pop when it backtracks, so at recordAnswer time the
  /// stack above PremiseBase is exactly the premises of the new answer.
  std::vector<ProvPremise> PremiseStack;
  /// Stack floor of the innermost producer's current clause body (nested
  /// producer runs save/restore around themselves).
  size_t PremiseBase = 0;
  /// Clause index the innermost producer is currently resolving.
  uint32_t CurClauseIdx = 0;
  /// When non-null, recordAnswer takes its premises from here instead of
  /// PremiseStack (the supplementary path reconstructs them from frontier
  /// Origin chains). Only ever set around the non-reentrant final answer
  /// loop of runClauseSupplementary.
  const std::vector<ProvPremise> *PendingPremises = nullptr;
  /// Scratch for collectFrontierPremises (same single-use discipline as
  /// BindScratch).
  std::vector<ProvPremise> SuppPremiseScratch;
  /// Deduplicated consumer -> producer subgoal dependency edges (the
  /// forest edges), with a packed-u64 membership set.
  std::vector<ForestEdge> DepEdges;
  std::unordered_set<uint64_t> DepEdgeSet;
  /// Completion bookkeeping for forest export (maintained even without
  /// provenance — two counters per completed SCC member).
  uint32_t SccCounter = 0;
  uint32_t CompletionCounter = 0;

  /// @}

  /// Live predicate-level dependency graph feeding invalidateDependents.
  /// Fed from the same call sites that record forest edges (addDepEdge)
  /// plus the nontabled/undefined-callee hooks — maintained
  /// unconditionally, unlike DepEdges which need RecordProvenance.
  DependencyIndex DepIndex;

  /// \name Intra-query parallelism state.
  /// @{

  /// A frequently-tested symbol, interned once at construction so no eval
  /// path interns (SymbolTable::intern mutates; workers share the table).
  SymbolId ArrowSym;
  /// Shared table space this solver coordinates through, non-null only in
  /// worker solvers during a parallel phase (the lead owns the space on
  /// its stack for the phase's duration).
  SharedTableSpace *Shared = nullptr;
  /// Reentrancy guard: primeTables never re-enters its own parallel phase
  /// (and worker solvers never spawn sub-pools — their EvalWorkers is 0).
  bool Priming = false;
  /// The intra-query pool, created lazily at the first parallel phase and
  /// reused across phases; sized to Opts.EvalWorkers.
  std::unique_ptr<ThreadPool> EvalPool;
  /// Aggregate of worker-solver EvalStats across parallel phases.
  EvalStats WorkerStats;
  /// Accumulated SharedTableSpace counters across parallel phases.
  SharedTableSpace::Stats SharedStats{};
  /// Per-shard accumulation of the same (see sharedShardStats()).
  std::vector<SharedTableSpace::ShardStats> SharedShardStats;

  /// @}

  /// Solutions of the static goals frontiers called in the current
  /// outermost query, by call variant (DESIGN.md §19.2).
  struct StaticGoalMemo {
    struct Entry {
      bool Stored = false;   ///< Filled by an untruncated evaluation.
      uint32_t DepBegin = 0; ///< Its slice of Deps.
      uint32_t DepEnd = 0;
    };
    VariantCodeStore Calls{1}; ///< Call variants; code I is Entries[I]'s.
    /// Level I: the distinct goal instances Entries[I]'s evaluation found,
    /// in first-occurrence order.
    VariantCodeStore Solutions{0};
    std::vector<Entry> Entries;
    /// Per entry, the callees recordPredDependency saw in its evaluation,
    /// recorded again for the producer of each replay.
    std::vector<PredKey> Deps;
    size_t memoryBytes() const;
  };
  std::unique_ptr<StaticGoalMemo> Memo;
  /// While a static goal's first evaluation runs: recordPredDependency
  /// adds each callee to *DepCapture past DepCaptureBegin, once.
  std::vector<PredKey> *DepCapture = nullptr;
  size_t DepCaptureBegin = 0;
};

/// Evaluates an arithmetic expression over integers (is/2 and comparisons).
/// \returns std::nullopt on type errors or unbound variables.
std::optional<int64_t> evalArith(const TermStore &Store,
                                 const SymbolTable &Symbols, TermRef T);

} // namespace lpa

#endif // LPA_ENGINE_SOLVER_H
