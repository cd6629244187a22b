//===- Solver.cpp - Tabled SLD resolution engine ----------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "engine/Solver.h"

#include "obs/EvalObserver.h"
#include "reader/Parser.h"
#include "term/TermCopy.h"
#include "term/TermWriter.h"
#include "term/Unify.h"
#include "term/Variant.h"

#include <algorithm>
#include <chrono>

using namespace lpa;

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

std::optional<int64_t> lpa::evalArith(const TermStore &Store,
                                      const SymbolTable &Symbols, TermRef T) {
  T = Store.deref(T);
  switch (Store.tag(T)) {
  case TermTag::Int:
    return Store.intValue(T);
  case TermTag::Ref:
  case TermTag::Atom:
    return std::nullopt;
  case TermTag::Struct:
    break;
  }

  const std::string &Name = Symbols.name(Store.symbol(T));
  uint32_t Arity = Store.arity(T);
  auto Eval = [&](uint32_t I) {
    return evalArith(Store, Symbols, Store.arg(T, I));
  };

  if (Arity == 1) {
    auto A = Eval(0);
    if (!A)
      return std::nullopt;
    if (Name == "-")
      return -*A;
    if (Name == "+")
      return *A;
    if (Name == "abs")
      return *A < 0 ? -*A : *A;
    return std::nullopt;
  }
  if (Arity != 2)
    return std::nullopt;
  auto A = Eval(0), B = Eval(1);
  if (!A || !B)
    return std::nullopt;
  if (Name == "+")
    return *A + *B;
  if (Name == "-")
    return *A - *B;
  if (Name == "*")
    return *A * *B;
  if (Name == "//" || Name == "/") {
    if (*B == 0)
      return std::nullopt;
    return *A / *B;
  }
  if (Name == "mod") {
    if (*B == 0)
      return std::nullopt;
    int64_t M = *A % *B;
    // Prolog's mod follows the divisor's sign.
    if (M != 0 && ((M < 0) != (*B < 0)))
      M += *B;
    return M;
  }
  if (Name == "rem") {
    if (*B == 0)
      return std::nullopt;
    return *A % *B;
  }
  if (Name == "min")
    return std::min(*A, *B);
  if (Name == "max")
    return std::max(*A, *B);
  if (Name == ">>")
    return *A >> *B;
  if (Name == "<<")
    return *A << *B;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Construction and small helpers
//===----------------------------------------------------------------------===//

Solver::Solver(Database &DB) : Solver(DB, Options()) {}

Solver::Solver(Database &DB, Options Opts)
    : DB(DB), Symbols(DB.symbols()), Opts(Opts), Builtins(DB.symbols()) {
  if (this->Opts.RecordProvenance)
    Prov = std::make_unique<ProvenanceArena>();
  // Intern every symbol evaluation tests up front: the symbol table is
  // shared across parallel eval workers and interning mutates it, so no
  // eval path may intern.
  ArrowSym = Symbols.intern("->");
}

const Solver::GoalNode *Solver::makeGoal(TermRef Goal, const GoalNode *Tail) {
  GoalArena.push_back(std::make_unique<GoalNode>(GoalNode{Goal, Tail}));
  return GoalArena.back().get();
}

const Solver::GoalNode *Solver::makeGoals(const std::vector<TermRef> &Goals,
                                          const GoalNode *Tail) {
  const GoalNode *List = Tail;
  for (size_t I = Goals.size(); I-- > 0;)
    List = makeGoal(Goals[I], List);
  return List;
}

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

uint64_t Solver::steadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t Solver::solve(TermRef Goal, const SolutionFn &OnSolution) {
  // An outermost entry (no producer or completion in flight — reentrant
  // solves from builtins/analyzers share their enclosing query) opens a
  // new query scope: pick its id, re-arm the deadline, and stamp the id
  // into the observability channels.
  if (ProducerStack.empty() && CompletionStack.empty()) {
    CurQueryId = (Query && Query->Id) ? Query->Id : ++QuerySeq;
    DeadlineExpired = false;
    DeadlineTick = 0;
    if (Obs)
      Obs->queryBegin(CurQueryId);
    // Intra-query parallelism: an outermost conjunction of independent
    // tabled goals is primed in parallel first; the ordinary serial search
    // below then runs entirely against warm tables. primeTables re-checks
    // the full gate (worker count, no provenance, >= 2 variable-disjoint
    // seeds) and degrades to a no-op when it fails.
    if (Opts.EvalWorkers > 1 && !Opts.RecordProvenance && !Priming) {
      std::vector<TermRef> Seeds;
      collectSpawnSeeds(Goal, Seeds);
      if (Seeds.size() >= 2)
        primeTables(Seeds);
    }
  }
  size_t Count = 0;
  auto Wrapped = [&]() -> bool {
    ++Count;
    return OnSolution ? OnSolution() : false;
  };
  const GoalNode *G = makeGoal(Goal, nullptr);
  solveGoals(G, 0, ++CutCounter, Wrapped);
  // Goal nodes are only reachable during the query; recycle them when no
  // producer is active (i.e. this was an outermost query).
  if (ProducerStack.empty() && CompletionStack.empty()) {
    if (Memo) {
      // Frontier scaffolding of this query, released as an SCC's is.
      size_t Bytes = Memo->memoryBytes();
      Stats.FrontierBytesFreed += Bytes;
      Water.PeakSccFrontierBytes =
          std::max<uint64_t>(Water.PeakSccFrontierBytes, Bytes);
      Memo.reset();
    }
    if (Obs)
      Obs->queryEnd();
    GoalArena.clear();
  }
  return Count;
}

std::vector<TermRef> Solver::solveAll(TermRef Goal, TermStore &Out,
                                      size_t Limit) {
  assert(&Out != &Heap && "snapshots cannot live in the scratch heap");
  std::vector<TermRef> Results;
  solve(Goal, [&]() {
    Results.push_back(copyTerm(Heap, Goal, Out));
    return Results.size() >= Limit;
  });
  return Results;
}

bool Solver::solveOnce(TermRef Goal) {
  return solve(Goal, []() { return true; }) > 0;
}

ErrorOr<size_t> Solver::solveText(std::string_view GoalText,
                                  const SolutionFn &OnSolution) {
  auto Goal = Parser::parseTerm(Symbols, Heap, GoalText);
  if (!Goal)
    return Goal.getError();
  return solve(*Goal, OnSolution);
}

const Subgoal *Solver::findSubgoal(TermRef Call) const {
  uint32_t Idx = SubgoalIndex.find(0, Heap, {&Call, 1});
  return Idx == VariantCodeStore::NotFound ? nullptr : SubgoalOwned[Idx].get();
}

TermRef Solver::answerInstance(const Subgoal &SG, size_t I,
                               TermStore &Out) const {
  if (!SG.Factored)
    return copyTerm(Tables, SG.Answers[I], Out);
  // Copy the binding tuple first (one shared renaming keeps sharing
  // between slots), then instantiate the call skeleton through it. The
  // tuple's variables are cells of their own, never call variables, so
  // each call variable can be mapped as soon as its binding is copied.
  size_t K = SG.CallVars.size();
  VarRenaming Renaming;
  const TermRef *B = SG.AnswerBindings.data() + I * K;
  for (size_t J = 0; J < K; ++J)
    Renaming.insert(SG.CallVars[J], copyTerm(Tables, B[J], Out, Renaming));
  return copyTerm(Tables, SG.CallTerm, Out, Renaming);
}

size_t ClauseFrontier::memoryBytes() const {
  size_t Bytes = Levels.memoryBytes() + sizeof(ClauseFrontier);
  for (const auto &L : Origins) {
    Bytes += L.capacity() * sizeof(StateOrigin);
    for (const StateOrigin &O : L)
      Bytes += O.Premises.capacity() * sizeof(ProvPremise);
  }
  return Bytes;
}

namespace {

/// \p SG's answer dedup set (released at completion).
size_t dedupBytes(const Subgoal &SG) {
  return SG.AnswerIndex
             ? sizeof(VariantCodeStore) + SG.AnswerIndex->memoryBytes()
             : 0;
}

/// \p SG's answer table: the dedup set plus the answer vectors.
size_t answerTableBytes(const Subgoal &SG) {
  return dedupBytes(SG) +
         (SG.Answers.capacity() + SG.AnswerBindings.capacity()) *
             sizeof(TermRef) +
         SG.AnswerSeq.capacity() * sizeof(uint64_t);
}

/// \p SG's live supplementary frontiers (released at completion).
size_t frontierBytes(const Subgoal &SG) {
  size_t Bytes = 0;
  for (const auto &CF : SG.Frontiers)
    if (CF)
      Bytes += CF->memoryBytes();
  return Bytes;
}

/// The subgoal record with its answer table and frontiers; its term cells
/// in the table store are counted apart.
size_t recordBytes(const Subgoal &SG) {
  return sizeof(Subgoal) + SG.CallVars.capacity() * sizeof(TermRef) +
         answerTableBytes(SG) + frontierBytes(SG);
}

} // namespace

size_t Solver::tableSpaceBytes() const {
  // The paper's "Table space" column: memory held by call and answer
  // tables. We count the table store's cells, the variant sets, the answer
  // vectors and the per-subgoal records.
  size_t Bytes = Tables.memoryBytes();
  for (const Subgoal *SG : SubgoalOrder)
    Bytes += recordBytes(*SG);
  Bytes += SubgoalIndex.memoryBytes();
  // Provenance survives completion (the frontiers it was distilled from do
  // not), so its arena is table space, not evaluation scratch.
  if (Prov)
    Bytes += Prov->memoryBytes();
  Bytes += DepEdges.capacity() * sizeof(ForestEdge);
  Bytes += DepEdgeSet.size() * sizeof(uint64_t) * 2;
  // The live dependency index persists across queries like the tables it
  // guards, so its footprint is table space too.
  Bytes += DepIndex.memoryBytes();
  // Every full walk refreshes the peak for free; the completion path also
  // calls this right before releasing an outermost SCC's frontiers, so the
  // pre-free maximum is captured (see ensureSubgoal).
  if (Bytes > Water.PeakTableSpaceBytes)
    Water.PeakTableSpaceBytes = Bytes;
  return Bytes;
}

const TableWatermarks &Solver::watermarks() const {
  size_t StoreBytes = Tables.memoryBytes();
  if (StoreBytes > Water.PeakTermStoreBytes)
    Water.PeakTermStoreBytes = StoreBytes;
  (void)tableSpaceBytes(); // Refreshes PeakTableSpaceBytes.
  return Water;
}

size_t Solver::subgoalMemoryBytes(const Subgoal &SG) const {
  // Apportioned table space: the subgoal record, its answer dedup set, its
  // term cells in the shared table store (call +
  // answers, measured via the TermStore arena), and any live
  // supplementary frontiers.
  size_t Bytes = recordBytes(SG) + Tables.termBytes(SG.CallTerm);
  for (TermRef Ans : SG.Answers)
    Bytes += Tables.termBytes(Ans);
  for (TermRef B : SG.AnswerBindings)
    Bytes += Tables.termBytes(B);
  return Bytes;
}

void Solver::snapshotTableMetrics(MetricsRegistry &M) const {
  M.resetTableSnapshot();
  for (const Subgoal *SG : SubgoalOrder) {
    PredMetrics &PM = M.pred(Symbols, SG->Pred.Sym, SG->Pred.Arity);
    ++PM.TableSubgoals;
    PM.TableAnswers += answerCount(*SG);
    PM.AnswersPerSubgoal.record(answerCount(*SG));
    PM.TableBytes += subgoalMemoryBytes(*SG);
  }

  M.setCounter("clause_resolutions", Stats.ClauseResolutions);
  M.setCounter("clause_index_filtered", Stats.ClauseIndexFiltered);
  M.setCounter("tabled_calls", Stats.TabledCalls);
  M.setCounter("subgoals_created", Stats.SubgoalsCreated);
  M.setCounter("answers_recorded", Stats.AnswersRecorded);
  M.setCounter("answers_duplicate", Stats.AnswersDuplicate);
  M.setCounter("fixpoint_rounds", Stats.FixpointRounds);
  M.setCounter("depth_limit_hits", Stats.DepthLimitHits);
  M.setCounter("builtin_evals", Stats.BuiltinEvals);
  M.setCounter("table_space_bytes", tableSpaceBytes());
  M.setCounter("db_lookups", DB.lookupStats().Lookups);
  M.setCounter("db_lookup_misses", DB.lookupStats().Misses);
  M.setCounter("trie_hits", Stats.TrieHits);
  M.setCounter("trie_misses", Stats.TrieMisses);
  M.setCounter("frontier_bytes_freed", Stats.FrontierBytesFreed);
  M.setCounter("incomplete_tables", Stats.IncompleteTables);
  M.setCounter("warm_table_hits", Stats.WarmTableHits);
  M.setCounter("cold_table_misses", Stats.ColdTableMisses);
  M.setCounter("deadline_hits", Stats.DeadlineHits);
  M.setCounter("tables_invalidated", Stats.TablesInvalidated);
  M.setCounter("tables_survived", Stats.TablesSurvived);
  M.setCounter("tables_revived", Stats.TablesRevived);
  M.setCounter("invalidation_bytes_freed", Stats.InvalidationBytesFreed);
  M.setCounter("dep_index_edges", DepIndex.edgeCount());
  M.setCounter("dep_index_bytes", DepIndex.memoryBytes());
  M.setCounter("subgoal_index_bytes", SubgoalIndex.memoryBytes());
  // Intra-query parallelism: lead-side import counters, the aggregate of
  // every worker solver's counters, the shared-space striped-lock figures
  // and the eval pool's scheduling counters.
  M.setCounter("eval_workers", Opts.EvalWorkers);
  M.setCounter("parallel_prime_runs", Stats.ParallelPrimeRuns);
  M.setCounter("shared_tables_imported", Stats.SharedTablesImported);
  M.setCounter("shared_answers_imported", Stats.SharedAnswersImported);
  M.setCounter("worker_subgoals_created", WorkerStats.SubgoalsCreated);
  M.setCounter("worker_answers_recorded", WorkerStats.AnswersRecorded);
  M.setCounter("worker_clause_resolutions", WorkerStats.ClauseResolutions);
  M.setCounter("worker_shared_claims", WorkerStats.SharedClaims);
  M.setCounter("worker_shared_publishes", WorkerStats.SharedPublishes);
  M.setCounter("worker_shared_warm_imports", WorkerStats.SharedWarmImports);
  M.setCounter("worker_shared_dup_evals", WorkerStats.SharedDupEvals);
  M.setCounter("shared_space_lookups", SharedStats.Lookups);
  M.setCounter("shared_space_warm_hits", SharedStats.WarmHits);
  M.setCounter("shared_space_inflight_misses", SharedStats.InFlightMisses);
  M.setCounter("shared_space_claims", SharedStats.Claims);
  M.setCounter("shared_space_publishes", SharedStats.Publishes);
  M.setCounter("shared_space_retired", SharedStats.Retired);
  M.setCounter("shared_space_shards", SharedStats.Shards);
  M.setCounter("shared_lock_acquisitions", SharedStats.LockAcquisitions);
  M.setCounter("shared_lock_contended", SharedStats.LockContended);
  M.setCounter("shared_lock_wait_ns", SharedStats.LockWaitNs);
  if (EvalPool) {
    ThreadPool::PoolStats PS = EvalPool->stats();
    M.setCounter("eval_pool_submitted", PS.Submitted);
    M.setCounter("eval_pool_executed", PS.Executed);
    M.setCounter("eval_pool_steals", PS.Steals);
    M.setCounter("eval_pool_idle_sleeps", PS.IdleSleeps);
  }
  const TableWatermarks &W = watermarks();
  M.noteWatermark("peak_term_store_bytes", W.PeakTermStoreBytes);
  M.noteWatermark("peak_subgoal_answer_bytes", W.PeakSubgoalAnswerBytes);
  M.noteWatermark("peak_scc_frontier_bytes", W.PeakSccFrontierBytes);
  M.noteWatermark("peak_table_space_bytes", W.PeakTableSpaceBytes);
  if (Prov) {
    M.setCounter("provenance_justifications", Prov->justificationCount());
    M.setCounter("provenance_bytes", Prov->memoryBytes());
    M.setCounter("forest_dep_edges", DepEdges.size());
  }
}

void Solver::clearTables() {
  assert(ProducerStack.empty() && CompletionStack.empty() &&
         "cannot clear tables during evaluation");
  SubgoalOwned.clear();
  SubgoalIndex = VariantCodeStore(1);
  SubgoalOrder.clear();
  Tables.clear();
  DfnCounter = 0;
  if (Prov)
    Prov->clear();
  DepEdges.clear();
  DepEdgeSet.clear();
  DepIndex.clear();
  StaticPredCache.clear();
  SccCounter = 0;
  CompletionCounter = 0;
}

Solver::InvalidationResult
Solver::invalidateDependents(std::span<const PredKey> Changed) {
  assert(ProducerStack.empty() && CompletionStack.empty() &&
         "cannot invalidate tables during evaluation");
  InvalidationResult R;
  if (Changed.empty())
    return R;

  std::vector<uint64_t> Packed;
  Packed.reserve(Changed.size());
  for (const PredKey &K : Changed)
    Packed.push_back(DependencyIndex::packPred(K.Sym, K.Arity));
  std::unordered_set<uint64_t> Affected = DepIndex.dependentsOf(Packed);
  R.PredsAffected = Affected.size();

  for (Subgoal *SG : SubgoalOrder) {
    uint64_t PK = DependencyIndex::packPred(SG->Pred.Sym, SG->Pred.Arity);
    if (!Affected.count(PK)) {
      if (SG->Complete && !SG->Invalidated)
        ++R.TablesSurvived;
      continue;
    }
    if (SG->Invalidated)
      continue; // Tombstoned by an earlier sweep; nothing left to free.

    // Tombstone: release the answer vectors along with everything the SCC
    // frontier-release discipline frees at completion. Term cells stay in
    // the table arena until clearTables() — the arena has no per-term
    // free — which tableSpaceBytes() keeps counting honestly.
    size_t Freed = answerTableBytes(*SG) + frontierBytes(*SG);
    SG->Answers.clear();
    SG->Answers.shrink_to_fit();
    SG->AnswerBindings.clear();
    SG->AnswerBindings.shrink_to_fit();
    SG->AnswerSeq.clear();
    SG->AnswerSeq.shrink_to_fit();
    SG->AnswerIndex.reset();
    SG->Frontiers.clear();
    SG->Frontiers.shrink_to_fit();
    SG->Consumers.clear();
    SG->Complete = false;
    SG->Incomplete = false;
    SG->Invalidated = true;
    SG->SccId = 0;
    SG->CompletionSeq = 0;
    SG->CompletedInQuery = 0;
    SG->DerivedAtRevision = 0;
    SG->Dfn = SG->MinLink = 0;
    SG->OnStack = false;
    SG->Dirty = false;
    ++R.TablesInvalidated;
    R.BytesFreed += Freed;
  }

  // The affected predicates' consumer edges are dropped — re-derivation
  // re-records exactly the dependencies the new program induces (keeping
  // them would pin dropped dependencies forever).
  DepIndex.dropConsumers(Affected);
  // staticness caches reachability over the old program; any mutation
  // can flip it (an asserted clause may reach a tabled predicate).
  StaticPredCache.clear();
  if (R.TablesInvalidated) {
    // Provenance and forest edges are per-derivation-era: premise indices
    // into tombstoned answer tables dangle, so the arena restarts with the
    // re-derivation. Surviving tables lose explainability but never
    // correctness (checkProvenance stays clean either way).
    if (Prov)
      Prov->clear();
    DepEdges.clear();
    DepEdgeSet.clear();
  }
  // Retire matching published tables when a shared space is attached so
  // no late reader imports a stale table (lead solvers own their space
  // per-phase and detach before invalidation can run; this is the worker/
  // external-space path).
  if (Shared)
    for (uint64_t PK : Affected)
      Shared->invalidatePred(static_cast<SymbolId>(PK >> 32),
                             static_cast<uint32_t>(PK));

  Stats.TablesInvalidated += R.TablesInvalidated;
  Stats.TablesSurvived += R.TablesSurvived;
  Stats.InvalidationBytesFreed += R.BytesFreed;
  return R;
}

//===----------------------------------------------------------------------===//
// Intra-query parallel evaluation (Options::EvalWorkers)
//===----------------------------------------------------------------------===//

namespace {

/// Folds one worker solver's counters into the lead's aggregate.
void accumulateStats(EvalStats &Into, const EvalStats &S) {
  Into.ClauseResolutions += S.ClauseResolutions;
  Into.TabledCalls += S.TabledCalls;
  Into.SubgoalsCreated += S.SubgoalsCreated;
  Into.AnswersRecorded += S.AnswersRecorded;
  Into.AnswersDuplicate += S.AnswersDuplicate;
  Into.FixpointRounds += S.FixpointRounds;
  Into.DepthLimitHits += S.DepthLimitHits;
  Into.BuiltinEvals += S.BuiltinEvals;
  Into.ClauseIndexFiltered += S.ClauseIndexFiltered;
  Into.TrieHits += S.TrieHits;
  Into.TrieMisses += S.TrieMisses;
  Into.FrontierBytesFreed += S.FrontierBytesFreed;
  Into.IncompleteTables += S.IncompleteTables;
  Into.WarmTableHits += S.WarmTableHits;
  Into.ColdTableMisses += S.ColdTableMisses;
  Into.DeadlineHits += S.DeadlineHits;
  Into.ParallelPrimeRuns += S.ParallelPrimeRuns;
  Into.SharedClaims += S.SharedClaims;
  Into.SharedPublishes += S.SharedPublishes;
  Into.SharedWarmImports += S.SharedWarmImports;
  Into.SharedDupEvals += S.SharedDupEvals;
  Into.SharedTablesImported += S.SharedTablesImported;
  Into.SharedAnswersImported += S.SharedAnswersImported;
  Into.TablesInvalidated += S.TablesInvalidated;
  Into.TablesSurvived += S.TablesSurvived;
  Into.TablesRevived += S.TablesRevived;
  Into.InvalidationBytesFreed += S.InvalidationBytesFreed;
}

void accumulateShared(SharedTableSpace::Stats &Into,
                      const SharedTableSpace::Stats &S) {
  Into.Lookups += S.Lookups;
  Into.WarmHits += S.WarmHits;
  Into.InFlightMisses += S.InFlightMisses;
  Into.Claims += S.Claims;
  Into.Publishes += S.Publishes;
  Into.Retired += S.Retired;
  Into.LockAcquisitions += S.LockAcquisitions;
  Into.LockContended += S.LockContended;
  Into.LockWaitNs += S.LockWaitNs;
  Into.Shards = S.Shards;
}

} // namespace

void Solver::collectSpawnSeeds(TermRef Goal, std::vector<TermRef> &Seeds) {
  TermRef D = Heap.deref(Goal);
  if (Heap.tag(D) == TermTag::Struct && Heap.symbol(D) == Symbols.Comma &&
      Heap.arity(D) == 2) {
    collectSpawnSeeds(Heap.arg(D, 0), Seeds);
    collectSpawnSeeds(Heap.arg(D, 1), Seeds);
    return;
  }
  TermTag T = Heap.tag(D);
  if (T != TermTag::Atom && T != TermTag::Struct)
    return;
  PredKey Key{Heap.symbol(D), Heap.arity(D)};
  if (Builtins.classify(Key.Sym, Key.Arity) != BuiltinKind::None)
    return;
  const Predicate *P = DB.lookup(Key);
  if (P && P->Tabled)
    Seeds.push_back(D);
}

size_t Solver::primeTables(std::span<const TermRef> Goals) {
  // Eligibility: tabled calls this solver has not already completed, with
  // pairwise-disjoint variables. A variable shared between two seeds would
  // make their independent most-general evaluations useless to the serial
  // re-run (it calls a more-bound variant), so such seeds are dropped.
  std::vector<TermRef> Seeds;
  std::vector<TermRef> SeenVars;
  for (TermRef G : Goals) {
    TermRef D = Heap.deref(G);
    TermTag T = Heap.tag(D);
    if (T != TermTag::Atom && T != TermTag::Struct)
      continue;
    PredKey Key{Heap.symbol(D), Heap.arity(D)};
    if (Builtins.classify(Key.Sym, Key.Arity) != BuiltinKind::None)
      continue;
    const Predicate *P = DB.lookup(Key);
    if (!P || !P->Tabled)
      continue;
    if (const Subgoal *Existing = findSubgoal(D);
        Existing && Existing->Complete)
      continue; // Already warm.
    std::vector<TermRef> Vars;
    collectFreeVars(Heap, D, Vars);
    bool Overlaps = false;
    for (TermRef V : Vars)
      if (std::find(SeenVars.begin(), SeenVars.end(), V) != SeenVars.end()) {
        Overlaps = true;
        break;
      }
    if (Overlaps)
      continue;
    SeenVars.insert(SeenVars.end(), Vars.begin(), Vars.end());
    Seeds.push_back(D);
  }
  if (Seeds.empty())
    return 0;

  bool Parallel = Opts.EvalWorkers > 1 && !Opts.RecordProvenance &&
                  !Priming && Seeds.size() >= 2;
  if (!Parallel) {
    // Serial fallback: drive each seed to completion in order — the same
    // tables the parallel phase computes, minus the concurrency.
    for (TermRef G : Seeds)
      solve(G, nullptr);
    return Seeds.size();
  }
  ++Stats.ParallelPrimeRuns;
  Priming = true;
  runParallelPrime(Seeds);
  Priming = false;
  return Seeds.size();
}

void Solver::runParallelPrime(const std::vector<TermRef> &Seeds) {
  size_t NumWorkers = Opts.EvalWorkers;
  // The space lives on the lead's stack for exactly one phase; worker
  // solvers coordinate through it and die before it does.
  SharedTableSpace Space;
  // A worker reports through its own cursor only (its tables reach the
  // lead by import, its counters by EvalStats); without one it runs
  // detached.
  std::vector<EvalObserver> WorkerObs(NumWorkers);
  std::vector<std::unique_ptr<Solver>> Workers;
  Workers.reserve(NumWorkers);
  for (size_t I = 0; I < NumWorkers; ++I) {
    Options WO = Opts;
    WO.EvalWorkers = 0;        // Workers never spawn sub-pools.
    WO.RecordProvenance = false;
    auto WS = std::make_unique<Solver>(DB, WO);
    WS->Shared = &Space;
    WS->AnswerJoins = AnswerJoins;
    WS->Query = Query; // Deadlines bound workers exactly like the lead.
    if (Obs && I < Obs->WorkerCursors.size()) {
      WorkerObs[I].Cursor = Obs->WorkerCursors[I];
      WS->Obs = &WorkerObs[I];
    }
    Workers.push_back(std::move(WS));
  }

  if (!EvalPool)
    EvalPool = std::make_unique<ThreadPool>(NumWorkers);
  for (TermRef G : Seeds) {
    EvalPool->submit([this, &Workers, G] {
      // Worker solvers are picked by executing pool thread, so one solver
      // is never driven from two threads (stolen tasks run on the
      // thief's solver).
      size_t Id = ThreadPool::currentWorkerId();
      if (Id >= Workers.size())
        Id = 0; // Inline-serial pools run tasks on the caller.
      Solver &WS = *Workers[Id];
      // The lead heap is quiescent for the whole phase (the lead blocks
      // in wait() below), so reading the seed term out of it is safe.
      TermRef Local = copyTerm(Heap, G, WS.Heap);
      WS.solve(Local, nullptr);
    });
  }
  EvalPool->wait();

  // Workers are quiescent. Fold their counters and the space's, then
  // import every published table in a deterministic order (predicate,
  // rendered call) so lead-side subgoal creation order never depends on
  // worker scheduling.
  for (const auto &WS : Workers) {
    accumulateStats(WorkerStats, WS->Stats);
    // Workers ran the producers, so they — not the lead, which imports the
    // finished tables — observed the dependency edges. Fold them into the
    // lead's live index or imported tables would be un-invalidatable.
    DepIndex.merge(WS->DepIndex);
  }
  accumulateShared(SharedStats, Space.stats());
  // Per-shard accumulation: the space dies with this phase, so the
  // striped view (which shard ran hot) must be folded here to survive.
  {
    std::vector<SharedTableSpace::ShardStats> Phase = Space.perShardStats();
    if (SharedShardStats.size() < Phase.size())
      SharedShardStats.resize(Phase.size());
    for (size_t I = 0; I < Phase.size(); ++I) {
      SharedTableSpace::ShardStats &Acc = SharedShardStats[I];
      const SharedTableSpace::ShardStats &P = Phase[I];
      Acc.Lookups += P.Lookups;
      Acc.WarmHits += P.WarmHits;
      Acc.InFlightMisses += P.InFlightMisses;
      Acc.Claims += P.Claims;
      Acc.Retired += P.Retired;
      Acc.LockAcquisitions += P.LockAcquisitions;
      Acc.LockContended += P.LockContended;
      Acc.LockWaitNs += P.LockWaitNs;
      Acc.Entries += P.Entries;
    }
  }

  std::vector<
      std::pair<std::string, const SharedTableSpace::PublishedTable *>>
      Ordered;
  for (const SharedTableSpace::PublishedTable *PT : Space.publishedTables()) {
    std::string K = Symbols.name(PT->Sym) + "/" + std::to_string(PT->Arity) +
                    " " + TermWriter::toString(Symbols, PT->Terms, PT->Call);
    Ordered.emplace_back(std::move(K), PT);
  }
  std::sort(Ordered.begin(), Ordered.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  for (const auto &[K, PT] : Ordered)
    importPublishedTable(*PT);
}

std::unique_ptr<SharedTableSpace::PublishedTable>
Solver::buildPublishedTable(const Subgoal &SG) const {
  auto PT = std::make_unique<SharedTableSpace::PublishedTable>();
  PT->Sym = SG.Pred.Sym;
  PT->Arity = SG.Pred.Arity;
  PT->Factored = SG.Factored;
  PT->Incomplete = SG.Incomplete;
  PT->NumCallVars = static_cast<uint32_t>(SG.CallVars.size());
  PT->NumAnswers = static_cast<uint32_t>(SG.AnswerSeq.size());
  PT->Call = copyTerm(Tables, SG.CallTerm, PT->Terms);
  if (SG.Factored) {
    size_t K = SG.CallVars.size();
    PT->Answers.reserve(size_t(PT->NumAnswers) * K);
    for (uint32_t I = 0; I < PT->NumAnswers; ++I) {
      // One renaming per answer: variables shared between binding slots
      // stay shared in the published copy, and no further.
      VarRenaming Renaming;
      const TermRef *B = SG.AnswerBindings.data() + size_t(I) * K;
      for (size_t J = 0; J < K; ++J)
        PT->Answers.push_back(copyTerm(Tables, B[J], PT->Terms, Renaming));
    }
  } else {
    PT->Answers.reserve(PT->NumAnswers);
    for (TermRef A : SG.Answers)
      PT->Answers.push_back(copyTerm(Tables, A, PT->Terms));
  }
  return PT;
}

void Solver::fillSubgoalFromPublished(
    Subgoal &SG, const SharedTableSpace::PublishedTable &PT) {
  assert(SG.Factored == PT.Factored &&
         "publisher and importer disagree on answer aggregation");
  size_t K = PT.NumCallVars;
  if (PT.Factored) {
    assert(SG.CallVars.size() == K && "variant call shapes must agree");
    SG.AnswerBindings.reserve(size_t(PT.NumAnswers) * K);
    for (uint32_t I = 0; I < PT.NumAnswers; ++I) {
      VarRenaming Renaming;
      for (size_t J = 0; J < K; ++J)
        SG.AnswerBindings.push_back(
            copyTerm(PT.Terms, PT.Answers[size_t(I) * K + J], Tables,
                     Renaming));
      SG.AnswerSeq.push_back(++AnswerSeqCounter);
    }
  } else {
    SG.Answers.reserve(PT.NumAnswers);
    for (uint32_t I = 0; I < PT.NumAnswers; ++I) {
      SG.Answers.push_back(copyTerm(PT.Terms, PT.Answers[I], Tables));
      SG.AnswerSeq.push_back(++AnswerSeqCounter);
    }
  }
  if (PT.NumAnswers)
    PredMaxAnswerSeq[(uint64_t(SG.Pred.Sym) << 32) | SG.Pred.Arity] =
        AnswerSeqCounter;
  Stats.SharedAnswersImported += PT.NumAnswers;
  if (size_t StoreBytes = Tables.memoryBytes();
      StoreBytes > Water.PeakTermStoreBytes)
    Water.PeakTermStoreBytes = StoreBytes;
  SG.Complete = true;
  SG.Incomplete = PT.Incomplete;
  if (PT.Incomplete) {
    ++Stats.IncompleteTables; // Taint crosses the worker boundary.
    if (Obs)
      Obs->incompleteTable(Symbols, SG.Pred.Sym, CurQueryId, SG.Ordinal);
  }
  SG.SccId = ++SccCounter;
  SG.CompletionSeq = ++CompletionCounter;
  SG.CompletedInQuery = CurQueryId;
  SG.DerivedAtRevision = DB.globalRevision();
}

void Solver::importPublishedTable(
    const SharedTableSpace::PublishedTable &PT) {
  auto M = Heap.mark();
  TermRef Call = copyTerm(PT.Terms, PT.Call, Heap);
  VariantCodeStore::InsertResult R = SubgoalIndex.insert(0, Heap, {&Call, 1});
  if (!R.Inserted) {
    ++Stats.TrieHits;
    Subgoal &Existing = *SubgoalOwned[R.Index];
    if (Existing.Invalidated) {
      // A tombstoned lead variant takes the worker's table (derived
      // against the mutated program) instead of re-running the producer.
      Existing.Invalidated = false;
      ++Stats.TablesRevived;
      ++Stats.SharedTablesImported;
      fillSubgoalFromPublished(Existing, PT);
    }
    // Otherwise the lead already holds this variant warm; its table wins.
    Heap.undoTo(M);
    return;
  }
  ++Stats.TrieMisses;
  ++Stats.SubgoalsCreated;
  ++Stats.SharedTablesImported;
  if (Obs)
    Obs->subgoalImported(Symbols, PT.Sym, PT.Arity);
  auto Owned = std::make_unique<Subgoal>();
  Subgoal &SG = *Owned;
  SG.Pred = {PT.Sym, PT.Arity};
  SG.Ordinal = static_cast<uint32_t>(SubgoalOwned.size());
  SG.CallTerm = copyTerm(Heap, Call, Tables);
  collectFreeVars(Tables, SG.CallTerm, SG.CallVars);
  SG.Factored = PT.Factored;
  SG.Dfn = SG.MinLink = ++DfnCounter;
  SG.Dirty = false;
  fillSubgoalFromPublished(SG, PT);
  SubgoalOwned.push_back(std::move(Owned));
  SubgoalOrder.push_back(&SG);
  Heap.undoTo(M);
}

//===----------------------------------------------------------------------===//
// Core resolution
//===----------------------------------------------------------------------===//

inline bool Solver::pastLimits(size_t Depth) {
  if (Depth > Opts.MaxDepth) {
    ++Stats.DepthLimitHits;
    // Soundness: the pruned branch may have carried derivations the
    // current producer's table never sees. Poison that producer so SCC
    // completion cannot certify its answer set as the minimal model.
    if (!ProducerStack.empty())
      ProducerStack.back()->Incomplete = true;
    if (Obs)
      Obs->depthLimit(Depth);
    return true;
  }
  if (Query && Query->DeadlineNs) {
    if (!DeadlineExpired && (++DeadlineTick & 1023u) == 0 &&
        steadyNowNs() >= Query->DeadlineNs) {
      DeadlineExpired = true;
      ++Stats.DeadlineHits;
      if (Obs)
        Obs->deadline(CurQueryId, Depth);
    }
    if (DeadlineExpired) {
      // Same soundness discipline as the depth limit: every branch the
      // expiry prunes may starve the producer's table, so its completion
      // must carry the Incomplete taint.
      if (!ProducerStack.empty())
        ProducerStack.back()->Incomplete = true;
      return true;
    }
  }
  return false;
}

Solver::Signal Solver::solveGoals(const GoalNode *Goals, size_t Depth,
                                  uint64_t CutLevel,
                                  const SolutionFn &OnSolution) {
  if (!Goals)
    return OnSolution() ? Signal::stop() : Signal::exhausted();
  if (pastLimits(Depth))
    return Signal::exhausted();
  TermRef G = Heap.deref(Goals->Goal);
  return solveCall(G, Goals->Next, Depth, CutLevel, OnSolution);
}

Solver::Signal Solver::solveCall(TermRef Goal, const GoalNode *Rest,
                                 size_t Depth, uint64_t CutLevel,
                                 const SolutionFn &OnSolution) {
  TermTag T = Heap.tag(Goal);
  if (T == TermTag::Ref || T == TermTag::Int)
    return Signal::exhausted(); // Ill-typed goal: fail.

  SymbolId Sym = Heap.symbol(Goal);
  uint32_t Arity = Heap.arity(Goal);

  // Inline conjunctions into the resolvent.
  if (Sym == Symbols.Comma && Arity == 2)
    return solveGoals(
        makeGoal(Heap.arg(Goal, 0), makeGoal(Heap.arg(Goal, 1), Rest)), Depth,
        CutLevel, OnSolution);

  BuiltinKind BK = Builtins.classify(Sym, Arity);
  if (BK != BuiltinKind::None) {
    ++Stats.BuiltinEvals;
    if (Obs)
      Obs->builtin(Sym, Arity);
    return solveBuiltin(BK, Goal, Rest, Depth, CutLevel, OnSolution);
  }

  const Predicate *P = DB.lookup({Sym, Arity});
  if (!P) {
    // Undefined predicate: fail — but first record the dependency. The
    // enclosing producer's table saw this call fail; asserting the
    // predicate later must invalidate that table.
    recordPredDependency({Sym, Arity});
    return Signal::exhausted();
  }
  if (P->Tabled)
    return solveTabled(*P, Goal, Rest, Depth, CutLevel, OnSolution);
  // Nontabled: the callee's clauses fold straight into the producer's
  // derivation, so the producer depends on them (tabled callees record
  // this at the addDepEdge chokepoint instead).
  recordPredDependency({Sym, Arity});
  return solveNontabled(*P, Goal, Rest, Depth, OnSolution);
}

Solver::Signal Solver::solveNontabled(const Predicate &P, TermRef Goal,
                                      const GoalNode *Rest, size_t Depth,
                                      const SolutionFn &OnSolution) {
  uint64_t MyLevel = ++CutCounter;
  uint64_t CallKey =
      P.Key.Arity == 0 ? 0 : Database::firstArgKey(Heap, Heap.arg(Goal, 0));

  for (const Clause &C : P.Clauses) {
    // First-argument filtering: skip clauses that cannot match.
    if (CallKey != 0 && C.FirstArgKey != 0 && C.FirstArgKey != CallKey) {
      ++Stats.ClauseIndexFiltered;
      continue;
    }
    noteClauseResolve(P.Key, /*ProducerStep=*/false);

    auto M = Heap.mark();
    TermRef Delta = DB.instantiate(C, Heap);
    Signal S = Signal::exhausted();
    if (unify(Heap, Goal, C.Head + Delta, Opts.OccursCheck)) {
      const GoalNode *BodyGoals = Rest;
      for (size_t I = C.Body.size(); I-- > 0;)
        BodyGoals = makeGoal(C.Body[I] + Delta, BodyGoals);
      S = solveGoals(BodyGoals, Depth + 1, MyLevel, OnSolution);
    }
    Heap.undoTo(M);

    if (S.K == Signal::Stop)
      return S;
    if (S.K == Signal::CutTo) {
      if (S.Level == MyLevel)
        return Signal::exhausted(); // Our alternatives were cut away.
      assert(S.Level < MyLevel && "cut to an inner level escaped its loop");
      return S; // An outer cut keeps propagating.
    }
  }
  return Signal::exhausted();
}

//===----------------------------------------------------------------------===//
// Tabling
//===----------------------------------------------------------------------===//

void Solver::setAnswerJoin(PredKey Pred, AnswerJoinFn Join) {
  AnswerJoins[(uint64_t(Pred.Sym) << 32) | Pred.Arity] = std::move(Join);
}

bool Solver::recordAnswer(Subgoal &SG, TermRef Instance) {
  auto NoteDuplicate = [&]() {
    ++Stats.AnswersDuplicate;
    if (Obs)
      Obs->answerDup(Symbols, SG.Pred.Sym, SG.Pred.Arity);
  };
  auto NoteRecorded = [&]() {
    ++Stats.AnswersRecorded;
    // Term-store watermark: memoryBytes() is O(1) (two capacity reads), so
    // every recorded answer refreshes the exact peak.
    size_t StoreBytes = Tables.memoryBytes();
    if (StoreBytes > Water.PeakTermStoreBytes)
      Water.PeakTermStoreBytes = StoreBytes;
    if (Obs)
      Obs->answerNew(Symbols, SG.Pred.Sym, SG.Pred.Arity, SG.Ordinal,
                     SG.AnswerSeq.size(), StoreBytes, Stats.AnswersRecorded,
                     Stats.SubgoalsCreated);
  };

  // Aggregated predicates keep a single joined answer per subgoal.
  auto JIt = AnswerJoins.find((uint64_t(SG.Pred.Sym) << 32) | SG.Pred.Arity);
  if (JIt != AnswerJoins.end()) {
    TermRef Stored = copyTerm(Heap, Instance, Tables);
    if (SG.Answers.empty()) {
      SG.Answers.push_back(Stored);
      SG.AnswerSeq.push_back(++AnswerSeqCounter);
    } else {
      TermRef Joined = JIt->second(Tables, SG.Answers[0], Stored);
      if (isVariant(Tables, Joined, SG.Answers[0])) {
        NoteDuplicate();
        return false; // The join absorbed the new derivation.
      }
      SG.Answers[0] = Joined;
      SG.AnswerSeq[0] = ++AnswerSeqCounter;
    }
    PredMaxAnswerSeq[(uint64_t(SG.Pred.Sym) << 32) | SG.Pred.Arity] =
        AnswerSeqCounter;
    NoteRecorded();
    // The joined answer overwrites slot 0 in place, so its justification
    // reflects only the latest derivation folded in — and may reference
    // answer 0 of this very subgoal (the join consumed it). The proof
    // walker's on-path guard renders that as an explicit cycle back-edge.
    if (Prov)
      recordJustification(SG, 0);
    for (Subgoal *C : SG.Consumers)
      C->Dirty = true;
    return true;
  }

  // Every table without an answer join is factored. Substitution
  // factoring: the answer is the tuple of bindings of the call's free
  // variables; the whole instance is never materialized. One encode of
  // the tuple both checks for a duplicate variant and claims the slot
  // (check/insert fusion).
  assert(SG.Factored && "unfactored tables take the answer-join path");
  extractCallBindings(SG, Instance, BindScratch);
  if (!SG.AnswerIndex->insert(0, Heap, BindScratch).Inserted) {
    ++Stats.TrieHits;
    NoteDuplicate();
    return false;
  }
  ++Stats.TrieMisses;
  // One shared renaming across the tuple: variables shared between
  // binding slots stay shared in the table store.
  RenameScratch.clear();
  for (TermRef B : BindScratch)
    SG.AnswerBindings.push_back(copyTerm(Heap, B, Tables, RenameScratch));
  SG.AnswerSeq.push_back(++AnswerSeqCounter);
  PredMaxAnswerSeq[(uint64_t(SG.Pred.Sym) << 32) | SG.Pred.Arity] =
      AnswerSeqCounter;
  NoteRecorded();
  // Every premise answer on the stack was recorded with a strictly smaller
  // global sequence number than this answer gets, so justifications stay
  // well-founded (the proof DAG is acyclic for non-aggregated tables).
  if (Prov)
    recordJustification(SG, SG.AnswerSeq.size() - 1);
  // Semi-naive scheduling: everyone who consumed from this table has
  // potentially more derivations now.
  for (Subgoal *C : SG.Consumers)
    C->Dirty = true;
  return true;
}

void Solver::recordJustification(Subgoal &SG, size_t AnswerIdx) {
  if (PendingPremises)
    Prov->record(SG.Ordinal, static_cast<uint32_t>(AnswerIdx), CurClauseIdx,
                 std::span<const ProvPremise>(*PendingPremises));
  else
    Prov->record(SG.Ordinal, static_cast<uint32_t>(AnswerIdx), CurClauseIdx,
                 std::span<const ProvPremise>(
                     PremiseStack.data() + PremiseBase,
                     PremiseStack.size() - PremiseBase));
}

void Solver::addDepEdge(uint32_t Consumer, uint32_t Producer) {
  // Shared recording point: the same producer/consumer edge feeds both the
  // exported forest and the live dependency index. The index's pred-level
  // projection is maintained unconditionally — invalidation must work
  // without provenance — while the ordinal-level forest edge list stays
  // provenance-gated (its premise indices are meaningless without the
  // arena).
  const PredKey &CP = SubgoalOrder[Consumer]->Pred;
  const PredKey &PP = SubgoalOrder[Producer]->Pred;
  DepIndex.addEdge(DependencyIndex::packPred(CP.Sym, CP.Arity),
                   DependencyIndex::packPred(PP.Sym, PP.Arity));
  if (!Prov)
    return;
  uint64_t Packed = (uint64_t(Consumer) << 32) | Producer;
  if (DepEdgeSet.insert(Packed).second)
    DepEdges.push_back({Consumer, Producer});
}

void Solver::recordPredDependency(PredKey Callee) {
  if (ProducerStack.empty())
    return;
  if (DepCapture && std::find(DepCapture->begin() + DepCaptureBegin,
                               DepCapture->end(), Callee) == DepCapture->end())
    DepCapture->push_back(Callee);
  const PredKey &P = ProducerStack.back()->Pred;
  DepIndex.addEdge(DependencyIndex::packPred(P.Sym, P.Arity),
                   DependencyIndex::packPred(Callee.Sym, Callee.Arity));
}

bool Solver::clauseIsPure(const Clause &C) const {
  const TermStore &CS = DB.store();
  for (TermRef G : C.Body) {
    TermRef D = CS.deref(G);
    TermTag T = CS.tag(D);
    if (T != TermTag::Atom && T != TermTag::Struct)
      return false; // Variable or number goal: metacall territory.
    switch (Builtins.classify(CS.symbol(D), CS.arity(D))) {
    case BuiltinKind::Cut:
    case BuiltinKind::Not:
    case BuiltinKind::Disj:
    case BuiltinKind::IfThen:
    case BuiltinKind::Call:
      return false;
    default:
      break;
    }
  }
  return true;
}

Solver::ClauseStrategy Solver::chooseStrategy(const Clause &C, bool Pure) {
  if (!Opts.SupplementaryTabling || !Pure)
    return ClauseStrategy::Sld;
  // A frontier pays where reaching a state costs clause resolutions that
  // a later run can skip: a static rules goal (its memo lives only in
  // frontiers), a dynamic goal, or static facts whose fan-out feeds a
  // tabled goal (path(X, Z), edge(Z, Y) keeps its semi-naive rounds).
  // Builtins such as iff/N are table lookups, cheaper to re-run than a
  // state is to encode, probe and decode.
  bool Tabled = false, Facts = false;
  for (TermRef G : C.Body)
    switch (semiGoalOf(G).Kind) {
    case GoalKind::StaticRules:
    case GoalKind::Dynamic:
      return ClauseStrategy::Frontier;
    case GoalKind::StaticFacts:
      Facts = true;
      break;
    case GoalKind::Tabled:
      Tabled = true;
      break;
    default:
      break;
    }
  if (!Tabled)
    return ClauseStrategy::Once; // Reaches no table: its answers are fixed.
  return Facts ? ClauseStrategy::Frontier : ClauseStrategy::Sld;
}

const std::vector<Solver::ClauseStrategy> &
Solver::strategiesOf(const Predicate &P) {
  if (StrategiesRevision != DB.globalRevision()) {
    // A clause was added or removed since they were chosen, which may
    // also have changed a goal's staticness.
    ClauseStrategies.clear();
    StaticPredCache.clear();
    StrategiesRevision = DB.globalRevision();
  }
  std::vector<ClauseStrategy> &S =
      ClauseStrategies[(uint64_t(P.Key.Sym) << 32) | P.Key.Arity];
  if (S.size() == P.Clauses.size())
    return S;
  S.clear();
  bool AfterImpure = false;
  for (const Clause &C : P.Clauses) {
    bool Pure = clauseIsPure(C);
    ClauseStrategy CS = chooseStrategy(C, Pure);
    // A cut in an earlier impure body may skip this clause on the first
    // run and not on a later one, so it must not be skipped then.
    if (CS == ClauseStrategy::Once && AfterImpure)
      CS = ClauseStrategy::Sld;
    AfterImpure |= !Pure;
    S.push_back(CS);
  }
  return S;
}

Solver::ClauseStrategy Solver::clauseStrategy(PredKey Key, size_t ClauseIdx) {
  const Predicate *P = DB.lookup(Key);
  assert(P && ClauseIdx < P->Clauses.size() && "no such clause");
  return strategiesOf(*P)[ClauseIdx];
}

Solver::GoalKind Solver::staticness(PredKey Key) {
  uint64_t K = (uint64_t(Key.Sym) << 32) | Key.Arity;
  auto It = StaticPredCache.find(K);
  if (It != StaticPredCache.end())
    return It->second;
  // Walk Key's whole call cone, the goals under control constructs
  // included, marking each member static as it is reached. Key is static
  // iff the cone holds no tabled predicate and no metacall, and then so is
  // every member; otherwise the marks are taken back.
  const TermStore &CS = DB.store();
  std::vector<uint64_t> Cone{K};
  std::vector<bool> HasRules;
  std::vector<TermRef> Work;
  StaticPredCache[K] = GoalKind::StaticRules;
  bool Static = true;
  for (size_t I = 0; Static && I < Cone.size(); ++I) {
    PredKey PK{static_cast<SymbolId>(Cone[I] >> 32),
               static_cast<uint32_t>(Cone[I])};
    const Predicate *P = DB.lookup(PK);
    if (DB.isTabled(PK) || (P && P->Tabled))
      Static = false;
    else if (P)
      for (const Clause &C : P->Clauses)
        Work.insert(Work.end(), C.Body.begin(), C.Body.end());
    HasRules.push_back(!Work.empty());
    while (Static && !Work.empty()) {
      TermRef D = CS.deref(Work.back());
      Work.pop_back();
      TermTag T = CS.tag(D);
      if (T != TermTag::Atom && T != TermTag::Struct) {
        Static = false; // Metacall: anything can happen.
        break;
      }
      SymbolId Sym = CS.symbol(D);
      uint32_t Arity = CS.arity(D);
      BuiltinKind BK = Builtins.classify(Sym, Arity);
      if (BK == BuiltinKind::Not || BK == BuiltinKind::Disj ||
          BK == BuiltinKind::IfThen || (Sym == Symbols.Comma && Arity == 2)) {
        for (uint32_t A = 0; A < Arity; ++A)
          Work.push_back(CS.arg(D, A)); // Control: its goals run too.
      } else if (BK == BuiltinKind::Call) {
        Static = false;
      } else if (BK == BuiltinKind::None) { // Other builtins are timeless.
        auto [Mark, New] = StaticPredCache.emplace(
            (uint64_t(Sym) << 32) | Arity, GoalKind::StaticRules);
        if (New)
          Cone.push_back(Mark->first);
        Static = Mark->second != GoalKind::Dynamic;
      }
    }
  }
  for (size_t I = 0; I < Cone.size(); ++I)
    if (!Static)
      StaticPredCache.erase(Cone[I]);
    else if (!HasRules[I])
      StaticPredCache[Cone[I]] = GoalKind::StaticFacts;
  if (!Static)
    StaticPredCache[K] = GoalKind::Dynamic;
  return StaticPredCache[K];
}

Solver::SemiGoal Solver::semiGoalOf(TermRef Goal) {
  const TermStore &CS = DB.store();
  TermRef D = CS.deref(Goal);
  assert((CS.tag(D) == TermTag::Atom || CS.tag(D) == TermTag::Struct) &&
         "pure clauses contain no metacalls");
  SemiGoal S;
  S.Key = {CS.symbol(D), CS.arity(D)};
  S.Builtin = Builtins.classify(S.Key.Sym, S.Key.Arity);
  if (S.Builtin != BuiltinKind::None) {
    S.Kind = S.Builtin == BuiltinKind::Unify ? GoalKind::Unify
                                             : GoalKind::Builtin;
    return S;
  }
  S.Pred = DB.lookup(S.Key);
  if (!S.Pred)
    S.Kind = GoalKind::Undefined;
  else if (S.Pred->Tabled)
    S.Kind = GoalKind::Tabled;
  else
    S.Kind = staticness(S.Key);
  return S;
}

void Solver::solveSemiGoal(TermRef G, const SemiGoal &S, uint64_t MinSeq,
                           const std::function<void()> &OnSolution) {
  // Each case runs G the way solveGoals and solveCall would at depth 1,
  // without classifying or looking it up again.
  G = Heap.deref(G);
  auto Each = [&]() {
    OnSolution();
    return false;
  };
  switch (S.Kind) {
  case GoalKind::Unify:
  case GoalKind::Builtin: {
    // Builtins are deterministic in their inputs: an old state times an
    // unchanged builtin was fully explored in an earlier pass.
    if (MinSeq > 0)
      return;
    uint64_t CutLevel = ++CutCounter;
    if (pastLimits(/*Depth=*/1))
      return;
    ++Stats.BuiltinEvals;
    if (Obs)
      Obs->builtin(S.Key.Sym, S.Key.Arity);
    solveBuiltin(S.Builtin, G, nullptr, /*Depth=*/1, CutLevel, Each);
    return;
  }
  case GoalKind::Undefined:
    recordPredDependency(S.Key); // Undefined callee: see solveCall.
    return;
  case GoalKind::StaticRules:
  case GoalKind::StaticFacts:
  case GoalKind::Dynamic:
    recordPredDependency(S.Key);
    if (S.Kind != GoalKind::Dynamic && MinSeq > 0)
      return; // Static goals cannot yield anything new.
    if (S.Kind == GoalKind::StaticRules) {
      solveStaticGoal(G, OnSolution);
      return;
    }
    if (!pastLimits(/*Depth=*/1))
      solveNontabled(*S.Pred, G, nullptr, /*Depth=*/1, Each);
    return;
  case GoalKind::Tabled:
    break;
  }

  // Tabled: consume (a slice of) the answer table.
  std::vector<TermRef> GoalVars;
  Subgoal &SG = callTabled(G, S.Key, GoalVars);
  // AnswerSeq is strictly increasing: jump straight to the new slice.
  size_t Start =
      std::upper_bound(SG.AnswerSeq.begin(), SG.AnswerSeq.end(), MinSeq) -
      SG.AnswerSeq.begin();
  returnAnswers(SG, Start, G, GoalVars, Each);
}

size_t Solver::StaticGoalMemo::memoryBytes() const {
  return Calls.memoryBytes() + Solutions.memoryBytes() +
         Entries.capacity() * sizeof(Entry) + Deps.capacity() * sizeof(PredKey);
}

void Solver::solveStaticGoal(TermRef G,
                             const std::function<void()> &OnSolution) {
  if (!Memo)
    Memo = std::make_unique<StaticGoalMemo>();
  VariantCodeStore::InsertResult Call = Memo->Calls.insert(0, Heap, {&G, 1});
  if (Call.Inserted) {
    Memo->Entries.emplace_back();
    Memo->Solutions.addLevel();
  }
  StaticGoalMemo::Entry E = Memo->Entries[Call.Index];
  if (E.Stored && DeadlineExpired) {
    // As solveGoals after expiry: no solutions, a poisoned producer.
    ProducerStack.back()->Incomplete = true;
  } else if (E.Stored) {
    for (uint32_t I = E.DepBegin; I < E.DepEnd; ++I)
      recordPredDependency(Memo->Deps[I]);
    for (size_t I = 0, N = Memo->Solutions.size(Call.Index); I < N; ++I) {
      auto M = Heap.mark();
      Memo->Solutions.decode(Call.Index, I, Heap, RootScratch);
      if (unify(Heap, G, RootScratch[0], Opts.OccursCheck))
        OnSolution();
      Heap.undoTo(M);
    }
  } else {
    // Evaluate, keeping the distinct goal instances and the callees; a
    // truncated evaluation is not stored. Static goals reach no table, so
    // nothing reached from here re-enters the memo.
    uint64_t DepthHits = Stats.DepthLimitHits;
    E.DepBegin = static_cast<uint32_t>(Memo->Deps.size());
    DepCapture = &Memo->Deps;
    DepCaptureBegin = E.DepBegin;
    GoalNode Node{G, nullptr};
    solveGoals(&Node, /*Depth=*/1, ++CutCounter, [&]() {
      Memo->Solutions.insert(Call.Index, Heap, {&G, 1});
      OnSolution();
      return false;
    });
    DepCapture = nullptr;
    E.DepEnd = static_cast<uint32_t>(Memo->Deps.size());
    E.Stored = Stats.DepthLimitHits == DepthHits && !DeadlineExpired;
    Memo->Entries[Call.Index] = E;
  }
}

Solver::LevelPlan Solver::planLevel(const Clause &C, size_t J,
                                    size_t OldCount) {
  LevelPlan P;
  P.OldCount = OldCount;
  if (J == C.Body.size())
    return P; // The final level runs no goal.
  P.Goal = semiGoalOf(C.Body[J]);
  if (P.Goal.Kind != GoalKind::Unify)
    return P;
  // Where the fold finds the arguments among a level-J tuple's roots, and
  // which roots the level-J+1 tuple keeps.
  const TermStore &CS = DB.store();
  TermRef G = CS.deref(C.Body[J]);
  TermRef Arg[2] = {CS.deref(CS.arg(G, 0)), CS.deref(CS.arg(G, 1))};
  uint32_t Slot = 0;
  for (const Clause::BodyVar &B : C.BodyVars) {
    if (B.LastGoal < J)
      continue; // Not in a level-J tuple.
    ++Slot;
    for (int I = 0; I < 2; ++I)
      if (B.Cell == Arg[I])
        P.ArgSlot[I] = Slot;
  }
  if (!P.ArgSlot[0] || !P.ArgSlot[1])
    P.ArgSlot[0] = P.ArgSlot[1] = 0; // Not two variables: build the goal.
  C.keptAfter(J, KeepScratch);
  P.KeepBegin = static_cast<uint32_t>(KeepStack.size());
  KeepStack.insert(KeepStack.end(), KeepScratch.begin(), KeepScratch.end());
  P.KeepEnd = static_cast<uint32_t>(KeepStack.size());
  return P;
}

bool Solver::foldUnify(TermRef A, TermRef B) {
  if (pastLimits(/*Depth=*/1))
    return false;
  ++Stats.BuiltinEvals;
  if (Obs)
    Obs->builtin(Symbols.Unify, 2);
  return unify(Heap, A, B, Opts.OccursCheck);
}

bool Solver::runFoldedUnifies(const Clause &C, size_t From, size_t To,
                              size_t PlanBase) {
  for (size_t U = From; U < To; ++U) {
    const LevelPlan &P = PlanStack[PlanBase + U];
    TermRef A, B;
    if (P.ArgSlot[0]) {
      A = RootScratch[P.ArgSlot[0]];
      B = RootScratch[P.ArgSlot[1]];
    } else {
      TermRef G = DB.instantiateGoal(
          C, U, std::span<const TermRef>(RootScratch).subspan(1), Heap);
      A = Heap.arg(G, 0);
      B = Heap.arg(G, 1);
    }
    if (!foldUnify(A, B))
      return false;
    // Project onto the variables still live after goal U, in place: the
    // kept positions are increasing and each is at least its new one.
    size_t N = 1;
    for (uint32_t I = P.KeepBegin; I < P.KeepEnd; ++I)
      RootScratch[N++] = RootScratch[KeepStack[I]];
    RootScratch.resize(N);
  }
  return true;
}

void Solver::runClauseSupplementary(Subgoal &SG, const Clause &C,
                                    size_t ClauseIdx, size_t NumClauses) {
  noteClauseResolve(SG.Pred, /*ProducerStep=*/true);
  size_t NumGoals = C.Body.size();

  if (SG.Frontiers.size() < NumClauses)
    SG.Frontiers.resize(NumClauses);
  if (!SG.Frontiers[ClauseIdx]) {
    SG.Frontiers[ClauseIdx] = std::make_unique<ClauseFrontier>(NumGoals);
    if (Prov)
      SG.Frontiers[ClauseIdx]->Origins.resize(NumGoals + 1);
  }
  ClauseFrontier &CF = *SG.Frontiers[ClauseIdx];
  if (CF.HeadFailed)
    return;

  // Plan every level. Its old/new boundary is snapshot *before*
  // initialization so the seed counts as new on the first run (facts must
  // record answers).
  size_t Base = PlanStack.size(), KeepBase = KeepStack.size();
  for (size_t J = 0; J <= NumGoals; ++J)
    PlanStack.push_back(planLevel(C, J, CF.Levels.size(J)));
  auto Kind = [&](size_t J) { return PlanStack[Base + J].Goal.Kind; };
  auto PopPlan = [&]() {
    PlanStack.resize(Base);
    KeepStack.resize(KeepBase);
  };

  if (!CF.Initialized) {
    CF.Initialized = true;
    auto M = Heap.mark();
    TermRef Call = copyTerm(Tables, SG.CallTerm, Heap);
    TermRef Delta = DB.instantiate(C, Heap);
    bool Ok = unify(Heap, Call, C.Head + Delta, Opts.OccursCheck);
    // Leading =/2 goals run on the clause instance: the seed's level is
    // the first that is kept. Their outcome is fixed by the call, so a
    // failure is as permanent as the head's.
    size_t Seed = 0;
    for (; Ok && Seed < NumGoals && Kind(Seed) == GoalKind::Unify; ++Seed) {
      TermRef G = Heap.deref(C.Body[Seed] + Delta);
      Ok = foldUnify(Heap.arg(G, 0), Heap.arg(G, 1));
    }
    if (!Ok) {
      CF.HeadFailed = true;
      Heap.undoTo(M);
      PopPlan();
      return;
    }
    // The seed state: (Call, the variables live at its level). Head
    // variables shared with body goals carry the head unification's
    // bindings.
    RootScratch.assign(1, Call);
    for (const Clause::BodyVar &B : C.BodyVars)
      if (B.LastGoal >= Seed)
        RootScratch.push_back(B.Cell + Delta);
    CF.Levels.insert(Seed, Heap, RootScratch);
    ++Stats.TrieMisses; // The seed is always the level's first state.
    if (Prov)
      CF.Origins[Seed].push_back({}); // Seed: no predecessor, no premises.
    Heap.undoTo(M);
  }

  // States present before this run are "old": they only need the answers
  // that arrived since the previous run. States appended during this run
  // are "new": they see everything.
  uint64_t PrevWatermark = CF.Watermark;
  CF.Watermark = AnswerSeqCounter;

  // The roots of the state being run and, per level, the ones its
  // successors keep. Local: solveSemiGoal may re-enter.
  std::vector<TermRef> Roots;
  std::vector<uint32_t> Keep;
  for (size_t J = 0; J < NumGoals; ++J) {
    // A copy: nested runs may grow PlanStack.
    const LevelPlan P = PlanStack[Base + J];
    if (P.Goal.Kind == GoalKind::Unify)
      continue; // Folded into the step before it: no level.
    // The J-th goal's predicate is determined by the clause alone, so old
    // states can be skipped wholesale when it cannot yield anything new:
    // builtins and static goals never do, a tabled predicate does only
    // when it gained an answer since the previous run.
    bool SkipOld = P.Goal.Kind != GoalKind::Dynamic;
    if (P.Goal.Kind == GoalKind::Tabled) {
      auto It = PredMaxAnswerSeq.find((uint64_t(P.Goal.Key.Sym) << 32) |
                                      P.Goal.Key.Arity);
      SkipOld = It == PredMaxAnswerSeq.end() || It->second <= PrevWatermark;
    }
    // Levels[J] does not grow while processing level J (solutions land
    // further on), so the plain loop bound is safe.
    if (SkipOld && P.OldCount == CF.Levels.size(J))
      continue; // No state of this level runs.
    // A solution of goal J also runs the =/2 goals J+1..Next-1 and lands
    // in level Next, the next one kept.
    size_t Next = J + 1;
    while (Next < NumGoals && Kind(Next) == GoalKind::Unify)
      ++Next;
    C.keptAfter(J, Keep);
    for (size_t Idx = 0; Idx < CF.Levels.size(J); ++Idx) {
      bool IsOld = Idx < P.OldCount;
      if (IsOld && SkipOld)
        continue;
      uint64_t MinSeq = IsOld ? PrevWatermark : 0;
      auto M = Heap.mark();
      CF.Levels.decode(J, Idx, Heap, Roots);
      TermRef Goal = DB.instantiateGoal(
          C, J, std::span<const TermRef>(Roots).subspan(1), Heap);
      // Premises this step consumes sit above StepBase while the frontier
      // callback runs (solveSemiGoal pushes around each answer return).
      size_t StepBase = PremiseStack.size();
      solveSemiGoal(Goal, P.Goal, MinSeq, [&]() {
        // Project onto the variables still live after this goal, run the
        // folded goals, and probe. Fused check/insert: one encoding of the
        // state is both the probe and, when new, the stored state.
        RootScratch.assign(1, Roots[0]);
        for (uint32_t K : Keep)
          RootScratch.push_back(Roots[K]);
        auto FM = Heap.mark();
        if (!runFoldedUnifies(C, J + 1, Next, Base)) {
          Heap.undoTo(FM);
          return;
        }
        if (CF.Levels.insert(Next, Heap, RootScratch).Inserted) {
          ++Stats.TrieMisses;
          if (Prov)
            CF.Origins[Next].push_back(
                {static_cast<uint32_t>(Idx),
                 std::vector<ProvPremise>(PremiseStack.begin() + StepBase,
                                          PremiseStack.end())});
        } else {
          ++Stats.TrieHits;
        }
        Heap.undoTo(FM);
      });
      Heap.undoTo(M);
    }
  }

  // New final states become answers (old ones were recorded previously).
  for (size_t Idx = PlanStack[Base + NumGoals].OldCount;
       Idx < CF.Levels.size(NumGoals); ++Idx) {
    auto M = Heap.mark();
    CF.Levels.decode(NumGoals, Idx, Heap, Roots);
    if (Prov) {
      // The final state's premise list is distributed along its Origin
      // chain; materialize it (in body-goal order) and hand it to
      // recordAnswer via PendingPremises. This loop performs no nested
      // evaluation, so the scratch/pointer pair cannot be clobbered
      // reentrantly (same discipline as BindScratch).
      SuppPremiseScratch.clear();
      collectFrontierPremises(
          CF, std::span<const LevelPlan>(PlanStack).subspan(Base), NumGoals,
          Idx, SuppPremiseScratch);
      CurClauseIdx = static_cast<uint32_t>(ClauseIdx);
      PendingPremises = &SuppPremiseScratch;
    }
    recordAnswer(SG, Heap.deref(Roots[0]));
    PendingPremises = nullptr;
    Heap.undoTo(M);
  }
  PopPlan();
}

void Solver::collectFrontierPremises(const ClauseFrontier &CF,
                                     std::span<const LevelPlan> Plan,
                                     size_t Level, size_t StateIdx,
                                     std::vector<ProvPremise> &Out) const {
  // Walk predecessors back to the seed, then emit each step's premises
  // front to back so the list reads in body-goal order. A state's
  // predecessor sits on the previous kept level; the seed's level has none.
  auto PrevKept = [&](size_t J) {
    while (J-- > 0)
      if (Plan[J].Goal.Kind != GoalKind::Unify)
        return J;
    return SIZE_MAX;
  };
  std::vector<std::pair<size_t, size_t>> Chain; // (level, state index)
  size_t Idx = StateIdx;
  for (size_t J = Level, Prev; (Prev = PrevKept(J)) != SIZE_MAX; J = Prev) {
    Chain.push_back({J, Idx});
    Idx = CF.Origins[J][Idx].Prev;
  }
  for (size_t I = Chain.size(); I-- > 0;) {
    const ClauseFrontier::StateOrigin &O =
        CF.Origins[Chain[I].first][Chain[I].second];
    Out.insert(Out.end(), O.Premises.begin(), O.Premises.end());
  }
}

bool Solver::runProducer(Subgoal &SG, bool Resumed) {
  const Predicate *P = DB.lookup(SG.Pred);
  if (!P)
    return false;

  size_t Before = SG.AnswerSeq.size();
  // Provenance clause context. A nested producer run (a new subgoal created
  // mid-derivation) lands inside an outer clause body; save/restore keeps
  // the outer clause's answers attributing to the right clause with the
  // right premise-stack floor after the nested run returns.
  size_t SavedPremiseBase = PremiseBase;
  uint32_t SavedClauseIdx = CurClauseIdx;
  auto M = Heap.mark();
  TermRef Call = copyTerm(Tables, SG.CallTerm, Heap);
  uint64_t MyLevel = ++CutCounter;
  uint64_t CallKey =
      P->Key.Arity == 0 ? 0 : Database::firstArgKey(Heap, Heap.arg(Call, 0));
  // Nested runs never edit the program, so the reference stays valid.
  const std::vector<ClauseStrategy> &Strategies = strategiesOf(*P);

  for (size_t ClauseIdx = 0; ClauseIdx < P->Clauses.size(); ++ClauseIdx) {
    const Clause &C = P->Clauses[ClauseIdx];
    if (CallKey != 0 && C.FirstArgKey != 0 && C.FirstArgKey != CallKey) {
      ++Stats.ClauseIndexFiltered;
      continue;
    }

    if (Prov)
      CurClauseIdx = static_cast<uint32_t>(ClauseIdx);

    if (Strategies[ClauseIdx] == ClauseStrategy::Frontier) {
      runClauseSupplementary(SG, C, ClauseIdx, P->Clauses.size());
      continue;
    }
    if (Resumed && Strategies[ClauseIdx] == ClauseStrategy::Once)
      continue; // The first run derived every answer it can give.

    // Tuple-at-a-time SLD, with one cut barrier shared across the
    // producer's clause alternatives.
    noteClauseResolve(SG.Pred, /*ProducerStep=*/true);
    auto M2 = Heap.mark();
    TermRef Delta = DB.instantiate(C, Heap);
    Signal S = Signal::exhausted();
    if (unify(Heap, Call, C.Head + Delta, Opts.OccursCheck)) {
      const GoalNode *BodyGoals = nullptr;
      for (size_t I = C.Body.size(); I-- > 0;)
        BodyGoals = makeGoal(C.Body[I] + Delta, BodyGoals);
      // Everything pushed above this floor while the body runs is a
      // premise of any answer the body derives.
      if (Prov)
        PremiseBase = PremiseStack.size();
      S = solveGoals(BodyGoals, /*Depth=*/1, MyLevel, [&]() {
        recordAnswer(SG, Call);
        return false;
      });
    }
    Heap.undoTo(M2);
    if (S.K == Signal::CutTo && S.Level == MyLevel)
      break; // A cut pruned the remaining clause alternatives.
  }
  Heap.undoTo(M);
  PremiseBase = SavedPremiseBase;
  CurClauseIdx = SavedClauseIdx;
  return SG.AnswerSeq.size() > Before;
}

void Solver::extractCallBindings(const Subgoal &SG, TermRef Instance,
                                 std::vector<TermRef> &Out) {
  size_t NumVars = SG.CallVars.size();
  Out.assign(NumVars, InvalidTerm);
  if (NumVars == 0)
    return;
  // Lockstep DFS: where CallTerm has an unbound variable, Instance carries
  // that variable's binding in this answer. Early exit once every call
  // variable has been seen (repeated occurrences bind identically).
  size_t Found = 0;
  std::vector<std::pair<TermRef, TermRef>> &Work = BindWork;
  Work.assign(1, {SG.CallTerm, Instance});
  while (!Work.empty() && Found < NumVars) {
    auto [C, I] = Work.back();
    Work.pop_back();
    C = Tables.deref(C);
    switch (Tables.tag(C)) {
    case TermTag::Ref: {
      size_t Idx = std::find(SG.CallVars.begin(), SG.CallVars.end(), C) -
                   SG.CallVars.begin();
      assert(Idx < NumVars && "call variable missing from CallVars");
      if (Out[Idx] == InvalidTerm) {
        Out[Idx] = I;
        ++Found;
      }
      break;
    }
    case TermTag::Struct: {
      TermRef ID = Heap.deref(I);
      assert(Heap.tag(ID) == TermTag::Struct &&
             Heap.arity(ID) == Tables.arity(C) &&
             "answer instance does not match the call skeleton");
      for (uint32_t A = Tables.arity(C); A-- > 0;)
        Work.push_back({Tables.arg(C, A), Heap.arg(ID, A)});
      break;
    }
    case TermTag::Atom:
    case TermTag::Int:
      break;
    }
  }
}

void Solver::bindFactoredAnswer(const Subgoal &SG, size_t I,
                                const std::vector<TermRef> &GoalVars) {
  size_t NumVars = SG.CallVars.size();
  assert(GoalVars.size() == NumVars &&
         "consumer goal is a variant of the tabled call");
  const TermRef *B = SG.AnswerBindings.data() + I * NumVars;
  // One shared renaming keeps variables shared across binding slots
  // shared in the consumer too. The goal's variables are unbound here
  // (the caller holds a mark), so plain trailed binds suffice.
  RenameScratch.clear();
  for (size_t J = 0; J < NumVars; ++J)
    Heap.bind(GoalVars[J], copyTerm(Tables, B[J], Heap, RenameScratch));
}

size_t Solver::releaseCompletedState(Subgoal &SG) {
  // Frontiers, consumer links and answer dedup structures only serve
  // evaluation; a completed table never gains an answer, so release them
  // and account the shrink (tableSpaceBytes drops by the same amount).
  size_t FrontierBytes = frontierBytes(SG);
  size_t Freed = FrontierBytes + dedupBytes(SG) +
                 SG.Consumers.size() * sizeof(void *) * 2;
  // An answer table only grows until completion, so its footprint here is
  // its lifetime peak: the dedup structure plus the answer vectors that
  // survive completion.
  size_t AnswerBytes = answerTableBytes(SG);
  if (AnswerBytes > Water.PeakSubgoalAnswerBytes)
    Water.PeakSubgoalAnswerBytes = AnswerBytes;
  SG.Frontiers.clear();
  SG.Frontiers.shrink_to_fit();
  SG.AnswerIndex.reset();
  SG.Consumers.clear();
  Stats.FrontierBytesFreed += Freed;
  return FrontierBytes;
}

Subgoal &Solver::ensureSubgoal(TermRef Goal, PredKey Key,
                               std::vector<TermRef> &GoalVars) {
  // One encode of the call term performs lookup AND insert; it also
  // yields the call's free variables (for factored answer return) as a
  // byproduct, so a table hit costs no allocation at all.
  VariantCodeStore::InsertResult R =
      SubgoalIndex.insert(0, Heap, {&Goal, 1}, &GoalVars);
  if (!R.Inserted) {
    ++Stats.TrieHits;
    Subgoal &Hit = *SubgoalOwned[R.Index];
    if (Hit.Invalidated) {
      // The index has no delete, so a tombstoned variant is revived in
      // place: same Subgoal record, same ordinal, fresh producer run
      // against the mutated program.
      reviveSubgoal(Hit);
      driveSubgoal(Hit);
    }
    return Hit;
  }
  ++Stats.TrieMisses;

  ++Stats.SubgoalsCreated;
  if (Obs)
    Obs->subgoalNew(Symbols, Key.Sym, Key.Arity, SubgoalOrder.size() + 1);
  auto Owned = std::make_unique<Subgoal>();
  Subgoal &SG = *Owned;
  SG.Pred = Key;
  // Creation-order index: the call's position in the subgoal index, and
  // provenance premises/forest nodes are keyed by it.
  SG.Ordinal = static_cast<uint32_t>(SubgoalOwned.size());
  SG.CallTerm = copyTerm(Heap, Goal, Tables);
  if (size_t StoreBytes = Tables.memoryBytes();
      StoreBytes > Water.PeakTermStoreBytes)
    Water.PeakTermStoreBytes = StoreBytes;
  // copyTerm renames variables in first-occurrence order, so CallVars
  // corresponds index-wise to the encoder's variable numbering (and to
  // any variant consumer's own free-variable order).
  collectFreeVars(Tables, SG.CallTerm, SG.CallVars);
  SG.Factored = !AnswerJoins.count((uint64_t(Key.Sym) << 32) | Key.Arity);
  // A worker's subgoals are private until published as a copy, so their
  // answer dedup needs no synchronization either.
  if (SG.Factored)
    SG.AnswerIndex = std::make_unique<VariantCodeStore>(1);

  // Shared-table coordination (parallel eval workers only): consult the
  // space before committing to a producer run. A published table
  // short-circuits the whole cone; a fresh claim obliges this worker to
  // publish at completion; an in-flight claim is evaluated privately —
  // waiting on another worker's completion could deadlock on SCCs that
  // span workers, so nobody ever waits.
  if (Shared) {
    SharedTableSpace::Outcome O =
        Shared->claim(Heap, Goal, Key.Sym, Key.Arity);
    if (O.H == SharedTableSpace::Hit::Published) {
      ++Stats.SharedWarmImports;
      SG.Dfn = SG.MinLink = ++DfnCounter;
      SG.Dirty = false;
      SG.AnswerIndex.reset();
      fillSubgoalFromPublished(SG, *Shared->published(*O.E));
      SubgoalOwned.push_back(std::move(Owned));
      SubgoalOrder.push_back(&SG);
      return SG;
    }
    if (O.H == SharedTableSpace::Hit::Claimed) {
      SG.SharedClaim = O.E;
      ++Stats.SharedClaims;
    } else {
      ++Stats.SharedDupEvals;
    }
  }
  SubgoalOwned.push_back(std::move(Owned));
  SubgoalOrder.push_back(&SG);
  driveSubgoal(SG);
  return SG;
}

void Solver::reviveSubgoal(Subgoal &SG) {
  SG.Invalidated = false;
  // The tombstone released the answer dedup set; re-derivation needs a
  // fresh one.
  if (SG.Factored)
    SG.AnswerIndex = std::make_unique<VariantCodeStore>(1);
  // A revival is a cold re-derivation. The ordinal check in callTabled
  // cannot see it (the ordinal is old), so the cold miss is counted here;
  // the two paths are disjoint by construction.
  ++Stats.TablesRevived;
  ++Stats.ColdTableMisses;
  if (Obs)
    Obs->subgoalRevived(Symbols, SG.Pred.Sym, SG.Pred.Arity, SG.Ordinal);
}

void Solver::driveSubgoal(Subgoal &SG) {
  SG.Dfn = SG.MinLink = ++DfnCounter;
  SG.OnStack = true;
  SG.StackPos = CompletionStack.size();
  CompletionStack.push_back(&SG);

  // Initial producer run. Dependencies on incomplete subgoals found during
  // the run lower SG.MinLink (see callTabled).
  SG.Dirty = false;
  runProducerFrame(SG, /*Resumed=*/false);

  if (SG.MinLink == SG.Dfn) {
    // SG leads its SCC. Re-run members (the stack from SG upward, which
    // may grow as evaluation exposes new call patterns), but only those
    // marked dirty by a dependency gaining answers, until the component
    // is quiescent; then complete it wholesale.
    bool Any = true;
    while (Any) {
      Any = false;
      ++Stats.FixpointRounds;
      for (size_t I = SG.StackPos; I < CompletionStack.size(); ++I) {
        Subgoal *Member = CompletionStack[I];
        if (!Member->Dirty)
          continue;
        Member->Dirty = false;
        Any = true;
        runProducerFrame(*Member, /*Resumed=*/true);
      }
    }
    // Incompleteness is an SCC-wide property: members feed each other
    // answers, so one truncated member can starve them all. Propagate the
    // poison across the component before certifying it complete.
    bool SCCIncomplete = false;
    for (size_t I = SG.StackPos; I < CompletionStack.size(); ++I)
      SCCIncomplete |= CompletionStack[I]->Incomplete;
    // Forest bookkeeping: members completing together form one SCC; the
    // global completion sequence orders tables by when they closed.
    ++SccCounter;
    if (Obs)
      Obs->phase(EvalPhase::Complete);
    // The outermost completion is where live table space is maximal (every
    // frontier of the batch is still allocated); walk the tables once
    // before releasing so PeakTableSpaceBytes sees the pre-free footprint.
    if (SG.StackPos == 0)
      (void)tableSpaceBytes();
    size_t SccFrontierBytes = 0;
    for (size_t I = SG.StackPos; I < CompletionStack.size(); ++I) {
      Subgoal *Member = CompletionStack[I];
      Member->SccId = SccCounter;
      Member->CompletionSeq = ++CompletionCounter;
      Member->CompletedInQuery = CurQueryId;
      Member->DerivedAtRevision = DB.globalRevision();
      if (SCCIncomplete) {
        Member->Incomplete = true;
        ++Stats.IncompleteTables;
        if (Obs)
          Obs->incompleteTable(Symbols, Member->Pred.Sym, CurQueryId,
                               Member->Ordinal);
      }
      Member->Complete = true;
      Member->OnStack = false;
      // Publish freshly claimed tables to the shared space now that the
      // taint is settled SCC-wide (and before the dedup structures are
      // released below).
      if (Shared && Member->SharedClaim) {
        Shared->publish(*Member->SharedClaim, buildPublishedTable(*Member));
        Member->SharedClaim = nullptr;
        ++Stats.SharedPublishes;
      }
      // Report before the release below: the cost profile wants the
      // table's footprint with its dedup structures.
      if (Obs)
        Obs->subgoalComplete(Symbols, Member->Pred.Sym, Member->Pred.Arity,
                             Member->Ordinal, answerCount(*Member), [&] {
                               return subgoalMemoryBytes(*Member);
                             });
      // Producers never re-run once complete; release the supplementary
      // tables and answer dedup structures.
      SccFrontierBytes += releaseCompletedState(*Member);
    }
    if (SccFrontierBytes > Water.PeakSccFrontierBytes)
      Water.PeakSccFrontierBytes = SccFrontierBytes;
    CompletionStack.resize(SG.StackPos);
    if (Obs)
      Obs->phase(ProducerStack.empty() ? EvalPhase::Idle : EvalPhase::Resolve);
  }
}

void Solver::runProducerFrame(Subgoal &SG, bool Resumed) {
  ProducerStack.push_back(&SG);
  if (Obs)
    Obs->producerEnter(SG.Pred.Sym, SG.Pred.Arity, SG.Ordinal, Resumed);
  runProducer(SG, Resumed);
  if (Obs)
    Obs->producerExit();
  ProducerStack.pop_back();
}

void Solver::noteClauseResolve(PredKey Key, bool ProducerStep) {
  ++Stats.ClauseResolutions;
  if (Obs)
    Obs->clauseResolve(Symbols, Key.Sym, Key.Arity, ProducerStep);
}

Subgoal &Solver::callTabled(TermRef Goal, PredKey Key,
                            std::vector<TermRef> &GoalVars) {
  ++Stats.TabledCalls;
  if (Obs)
    Obs->tabledCall(Symbols, Key.Sym, Key.Arity);
  size_t NSubgoals = SubgoalOwned.size();
  Subgoal &SG = ensureSubgoal(Goal, Key, GoalVars);
  // Warm/cold accounting: a variant that had to be created is a cold
  // miss; one completed by an *earlier* query is a warm hit (the reuse a
  // long-lived service banks on). Re-hits within the producing query are
  // neither — that is ordinary fixpoint traffic.
  if (SG.Ordinal >= NSubgoals) {
    ++Stats.ColdTableMisses;
    if (Obs)
      Obs->tableCold(Symbols, Key.Sym, Key.Arity);
  } else if (SG.Complete && SG.CompletedInQuery != CurQueryId) {
    ++Stats.WarmTableHits;
    if (Obs)
      Obs->tableWarm(Symbols, Key.Sym, Key.Arity, SG.Ordinal);
  }

  // Record the SCC dependency of the producer that issued this call, and
  // subscribe it to future answers for semi-naive re-running.
  if (!SG.Complete && !ProducerStack.empty()) {
    Subgoal *Parent = ProducerStack.back();
    Parent->MinLink = std::min(Parent->MinLink, SG.MinLink);
    SG.Consumers.insert(Parent);
  }
  // Consuming a truncated table taints the consumer: its answers derive
  // from a possibly-partial premise set.
  if (SG.Incomplete && !ProducerStack.empty())
    ProducerStack.back()->Incomplete = true;
  if (!ProducerStack.empty())
    addDepEdge(ProducerStack.back()->Ordinal, SG.Ordinal);
  return SG;
}

Solver::Signal Solver::solveTabled(const Predicate &P, TermRef Goal,
                                   const GoalNode *Rest, size_t Depth,
                                   uint64_t CutLevel,
                                   const SolutionFn &OnSolution) {
  std::vector<TermRef> GoalVars;
  Subgoal &SG = callTabled(Goal, P.Key, GoalVars);

  // Answer-return phase: this consumer now replays the table into its
  // continuation. The next producer frame push flips back to Resolve.
  if (Obs)
    Obs->phase(EvalPhase::Answer);
  Signal S = Signal::exhausted();
  returnAnswers(SG, 0, Goal, GoalVars, [&] {
    S = solveGoals(Rest, Depth + 1, CutLevel, OnSolution);
    return S.K != Signal::Exhausted;
  });
  return S;
}

template <typename ContFn>
void Solver::returnAnswers(const Subgoal &SG, size_t Start, TermRef Goal,
                           const std::vector<TermRef> &GoalVars,
                           ContFn &&Cont) {
  // The index re-reads size() so answers added while this consumer is
  // active (fixpoint rounds of an enclosing SCC) are picked up; answers
  // added after it returns are replayed by producer re-runs.
  for (size_t I = Start; I < SG.AnswerSeq.size(); ++I) {
    auto M = Heap.mark();
    // Substitution factoring: the goal is a variant of the tabled call, so
    // its free variables (in first-occurrence order) correspond 1:1 to
    // CallVars; binding them to the stored tuple needs no instance copy
    // and no unification.
    bool Bound = true;
    if (SG.Factored)
      bindFactoredAnswer(SG, I, GoalVars);
    else
      Bound = unify(Heap, Goal, copyTerm(Tables, SG.Answers[I], Heap),
                    /*OccursCheck=*/false);
    bool Stop = false;
    if (Bound) {
      if (Obs)
        Obs->answerConsumed(SG.Ordinal);
      // The consumed answer rides the premise stack while the continuation
      // runs: any answer recorded downstream lists it as a premise.
      if (Prov)
        PremiseStack.push_back({SG.Ordinal, static_cast<uint32_t>(I)});
      Stop = Cont();
      if (Prov)
        PremiseStack.pop_back();
    }
    Heap.undoTo(M);
    if (Stop)
      return;
  }
}

//===----------------------------------------------------------------------===//
// Answer provenance & forest export
//===----------------------------------------------------------------------===//

std::optional<ProofNode>
Solver::justifyAnswer(const Subgoal &SG, size_t AnswerIdx,
                      const ProofBuildOptions &O) const {
  if (!Prov)
    return std::nullopt;
  return buildProofTree(*Prov, SG.Ordinal, static_cast<uint32_t>(AnswerIdx),
                        O);
}

std::string Solver::formatAnswer(const Subgoal &SG, size_t I) const {
  TermStore Scratch;
  TermRef Inst = answerInstance(SG, I, Scratch);
  return TermWriter::toString(Symbols, Scratch, Inst);
}

std::string Solver::formatCall(const Subgoal &SG) const {
  return TermWriter::toString(Symbols, Tables, SG.CallTerm);
}

std::string Solver::renderProof(const ProofNode &Root) const {
  return renderProofTree(Root, [this](const ProofNode &N) {
    if (N.SubgoalIdx >= SubgoalOrder.size())
      return std::string("<unknown subgoal ") + std::to_string(N.SubgoalIdx) +
             ">";
    const Subgoal &SG = *SubgoalOrder[N.SubgoalIdx];
    if (N.AnswerIdx >= SG.AnswerSeq.size())
      return formatCall(SG) + " <missing answer " +
             std::to_string(N.AnswerIdx) + ">";
    return formatAnswer(SG, N.AnswerIdx);
  });
}

ForestGraph Solver::exportForest() const {
  ForestGraph G;
  G.Nodes.reserve(SubgoalOrder.size());
  for (const Subgoal *SG : SubgoalOrder) {
    ForestNode N;
    N.Pred = Symbols.name(SG->Pred.Sym) + "/" + std::to_string(SG->Pred.Arity);
    N.Label = formatCall(*SG);
    N.Answers = SG->AnswerSeq.size();
    N.Complete = SG->Complete;
    N.Incomplete = SG->Incomplete;
    N.SccId = SG->SccId;
    N.CompletionOrder = SG->CompletionSeq;
    G.Nodes.push_back(std::move(N));
  }
  G.Edges = DepEdges;
  // Flame-view annotation: when a cost profile is attached, nodes the
  // current/last query touched carry their self-vs-cumulative split.
  for (const CostNode &C : exportCostSummary().Nodes)
    if (C.Ordinal < G.Nodes.size())
      G.Nodes[C.Ordinal].Cost = C;
  return G;
}

CostSummary Solver::exportCostSummary() const {
  CostSummary S;
  const CostProfile *CP = Obs ? Obs->Costs : nullptr;
  if (!CP)
    return S;
  S.QueryId = CP->queryId();
  S.QueryWallNs = CP->queryWallNs();
  S.AttributedNs = CP->attributedNs();
  S.RootNs = CP->rootNs();
  S.RootSteps = CP->rootSteps();
  // Touched is first-touch ordered, so a parent's node index is always
  // assigned before any child needs to look it up.
  std::unordered_map<uint32_t, uint32_t> NodeOf;
  NodeOf.reserve(CP->touched().size());
  for (uint32_t Ord : CP->touched()) {
    const CostProfile::Record *R = CP->record(Ord);
    if (!R || Ord >= SubgoalOrder.size())
      continue;
    const Subgoal &SG = *SubgoalOrder[Ord];
    CostNode N;
    N.Ordinal = Ord;
    N.Pred = Symbols.name(SG.Pred.Sym) + "/" + std::to_string(SG.Pred.Arity);
    N.Label = formatCall(SG);
    N.SccId = SG.SccId;
    N.Warm = R->Warm;
    N.SelfNs = R->SelfNs;
    N.Steps = R->Steps;
    N.AnswersInserted = R->AnswersInserted;
    N.AnswersConsumed = R->AnswersConsumed;
    N.Resumptions = R->Resumptions;
    N.TableBytes = R->TableBytes;
    if (R->Parent != CostProfile::NoParent) {
      auto It = NodeOf.find(R->Parent);
      if (It != NodeOf.end())
        N.Parent = It->second;
    }
    NodeOf.emplace(Ord, static_cast<uint32_t>(S.Nodes.size()));
    S.Nodes.push_back(std::move(N));
  }
  computeCumulativeNs(S.Nodes);

  auto Roll = [](std::vector<CostRollup> &Out,
                 std::unordered_map<std::string, size_t> &Slot,
                 const std::string &Key, const CostNode &N) {
    auto [It, Fresh] = Slot.try_emplace(Key, Out.size());
    if (Fresh) {
      Out.emplace_back();
      Out.back().Key = Key;
    }
    CostRollup &R = Out[It->second];
    R.Subgoals += 1;
    R.WarmHits += N.Warm ? 1 : 0;
    R.SelfNs += N.SelfNs;
    R.Steps += N.Steps;
    R.AnswersInserted += N.AnswersInserted;
    R.AnswersConsumed += N.AnswersConsumed;
    R.Resumptions += N.Resumptions;
    R.TableBytes += N.TableBytes;
  };
  std::unordered_map<std::string, size_t> PredSlot, SccSlot;
  for (const CostNode &N : S.Nodes) {
    Roll(S.PerPred, PredSlot, N.Pred, N);
    Roll(S.PerScc, SccSlot,
         N.SccId ? "scc " + std::to_string(N.SccId) : std::string("open"), N);
  }
  auto BySelf = [](const CostRollup &A, const CostRollup &B) {
    return A.SelfNs != B.SelfNs ? A.SelfNs > B.SelfNs : A.Key < B.Key;
  };
  std::sort(S.PerPred.begin(), S.PerPred.end(), BySelf);
  std::sort(S.PerScc.begin(), S.PerScc.end(), BySelf);
  return S;
}

ProvenanceArena::CheckStats Solver::checkProvenance() const {
  if (!Prov)
    return {};
  return Prov->check([this](ProvPremise P) {
    return P.SubgoalIdx < SubgoalOrder.size() &&
           P.AnswerIdx < SubgoalOrder[P.SubgoalIdx]->AnswerSeq.size();
  });
}

//===----------------------------------------------------------------------===//
// Builtins
//===----------------------------------------------------------------------===//

Solver::Signal Solver::solveBuiltin(BuiltinKind Kind, TermRef Goal,
                                    const GoalNode *Rest, size_t Depth,
                                    uint64_t CutLevel,
                                    const SolutionFn &OnSolution) {
  auto Proceed = [&]() {
    return solveGoals(Rest, Depth + 1, CutLevel, OnSolution);
  };
  // Runs Cont with Mark-scoped bindings; undoes them; propagates signals.
  auto Scoped = [&](auto &&Try) -> Signal {
    auto M = Heap.mark();
    Signal S = Try() ? Proceed() : Signal::exhausted();
    Heap.undoTo(M);
    return S;
  };
  auto Arg = [&](uint32_t I) { return Heap.arg(Goal, I); };

  switch (Kind) {
  case BuiltinKind::None:
    assert(false && "solveBuiltin called with None");
    return Signal::exhausted();

  case BuiltinKind::True:
    return Proceed();
  case BuiltinKind::Fail:
    return Signal::exhausted();

  case BuiltinKind::Cut: {
    Signal S = Proceed();
    if (S.K == Signal::Stop)
      return S;
    if (S.K == Signal::CutTo && S.Level < CutLevel)
      return S; // An outer cut dominates.
    return Signal::cutTo(CutLevel);
  }

  case BuiltinKind::Unify:
    return Scoped(
        [&] { return unify(Heap, Arg(0), Arg(1), Opts.OccursCheck); });

  case BuiltinKind::NotUnify: {
    auto M = Heap.mark();
    bool Ok = unify(Heap, Arg(0), Arg(1), Opts.OccursCheck);
    Heap.undoTo(M);
    return Ok ? Signal::exhausted() : Proceed();
  }

  case BuiltinKind::Equal:
    return termsEqual(Heap, Arg(0), Arg(1)) ? Proceed() : Signal::exhausted();
  case BuiltinKind::NotEqual:
    return termsEqual(Heap, Arg(0), Arg(1)) ? Signal::exhausted() : Proceed();

  case BuiltinKind::Var:
    return Heap.isUnboundVar(Arg(0)) ? Proceed() : Signal::exhausted();
  case BuiltinKind::NonVar:
    return Heap.isUnboundVar(Arg(0)) ? Signal::exhausted() : Proceed();
  case BuiltinKind::Atom:
    return Heap.tag(Heap.deref(Arg(0))) == TermTag::Atom
               ? Proceed()
               : Signal::exhausted();
  case BuiltinKind::Integer:
    return Heap.tag(Heap.deref(Arg(0))) == TermTag::Int
               ? Proceed()
               : Signal::exhausted();
  case BuiltinKind::Atomic: {
    TermTag T = Heap.tag(Heap.deref(Arg(0)));
    return (T == TermTag::Atom || T == TermTag::Int) ? Proceed()
                                                     : Signal::exhausted();
  }
  case BuiltinKind::Compound:
    return Heap.tag(Heap.deref(Arg(0))) == TermTag::Struct
               ? Proceed()
               : Signal::exhausted();

  case BuiltinKind::Is: {
    auto V = evalArith(Heap, Symbols, Arg(1));
    if (!V)
      return Signal::exhausted();
    return Scoped([&] { return unify(Heap, Arg(0), Heap.mkInt(*V)); });
  }

  case BuiltinKind::Lt:
  case BuiltinKind::Le:
  case BuiltinKind::Gt:
  case BuiltinKind::Ge:
  case BuiltinKind::ArithEq:
  case BuiltinKind::ArithNe: {
    auto A = evalArith(Heap, Symbols, Arg(0));
    auto B = evalArith(Heap, Symbols, Arg(1));
    if (!A || !B)
      return Signal::exhausted();
    bool Holds = false;
    switch (Kind) {
    case BuiltinKind::Lt: Holds = *A < *B; break;
    case BuiltinKind::Le: Holds = *A <= *B; break;
    case BuiltinKind::Gt: Holds = *A > *B; break;
    case BuiltinKind::Ge: Holds = *A >= *B; break;
    case BuiltinKind::ArithEq: Holds = *A == *B; break;
    case BuiltinKind::ArithNe: Holds = *A != *B; break;
    default: break;
    }
    return Holds ? Proceed() : Signal::exhausted();
  }

  case BuiltinKind::Not: {
    // Negation as failure; the subgoal runs in its own cut scope and its
    // bindings never escape.
    auto M = Heap.mark();
    bool Found = false;
    solveGoals(makeGoal(Arg(0), nullptr), Depth + 1, ++CutCounter,
               [&]() {
                 Found = true;
                 return true;
               });
    Heap.undoTo(M);
    return Found ? Signal::exhausted() : Proceed();
  }

  case BuiltinKind::IfThen:
  case BuiltinKind::Disj: {
    TermRef L = Heap.deref(Arg(0));
    TermRef R = InvalidTerm;
    if (Kind == BuiltinKind::Disj)
      R = Arg(1);

    // If-then-else: (Cond -> Then ; Else), or bare (Cond -> Then).
    bool IsIte = Kind == BuiltinKind::IfThen ||
                 (Heap.tag(L) == TermTag::Struct &&
                  Heap.symbol(L) == ArrowSym && Heap.arity(L) == 2);
    if (IsIte) {
      TermRef Cond, Then;
      if (Kind == BuiltinKind::IfThen) {
        Cond = Arg(0);
        Then = Arg(1);
      } else {
        Cond = Heap.arg(L, 0);
        Then = Heap.arg(L, 1);
      }
      auto M = Heap.mark();
      bool CondHeld = false;
      Signal Inner = Signal::exhausted();
      // Then runs inside the callback so it sees the condition's bindings;
      // returning true commits to the first solution of the condition.
      solveGoals(makeGoal(Cond, nullptr), Depth + 1, ++CutCounter, [&]() {
        CondHeld = true;
        Inner = solveGoals(makeGoal(Then, Rest), Depth + 1, CutLevel,
                           OnSolution);
        return true;
      });
      Heap.undoTo(M);
      if (CondHeld)
        return Inner;
      if (R == InvalidTerm)
        return Signal::exhausted();
      return solveGoals(makeGoal(R, Rest), Depth + 1, CutLevel, OnSolution);
    }

    // Plain disjunction.
    Signal S =
        solveGoals(makeGoal(Arg(0), Rest), Depth + 1, CutLevel, OnSolution);
    if (S.K != Signal::Exhausted)
      return S;
    return solveGoals(makeGoal(Arg(1), Rest), Depth + 1, CutLevel,
                      OnSolution);
  }

  case BuiltinKind::Call: {
    // Cut inside call/1 is local to it.
    uint64_t Level = ++CutCounter;
    Signal S = solveGoals(makeGoal(Arg(0), Rest), Depth + 1, Level,
                          OnSolution);
    if (S.K == Signal::CutTo && S.Level == Level)
      return Signal::exhausted();
    return S;
  }

  case BuiltinKind::Iff:
    return solveIff(Goal, Rest, Depth, CutLevel, OnSolution);

  case BuiltinKind::Between: {
    auto Lo = evalArith(Heap, Symbols, Arg(0));
    auto Hi = evalArith(Heap, Symbols, Arg(1));
    if (!Lo || !Hi)
      return Signal::exhausted();
    for (int64_t V = *Lo; V <= *Hi; ++V) {
      Signal S = Scoped([&] { return unify(Heap, Arg(2), Heap.mkInt(V)); });
      if (S.K != Signal::Exhausted)
        return S;
    }
    return Signal::exhausted();
  }

  case BuiltinKind::Functor: {
    TermRef T = Heap.deref(Arg(0));
    switch (Heap.tag(T)) {
    case TermTag::Atom:
      return Scoped([&] {
        return unify(Heap, Arg(1), Heap.mkAtom(Heap.symbol(T))) &&
               unify(Heap, Arg(2), Heap.mkInt(0));
      });
    case TermTag::Int:
      return Scoped([&] {
        return unify(Heap, Arg(1), Heap.mkInt(Heap.intValue(T))) &&
               unify(Heap, Arg(2), Heap.mkInt(0));
      });
    case TermTag::Struct:
      return Scoped([&] {
        return unify(Heap, Arg(1), Heap.mkAtom(Heap.symbol(T))) &&
               unify(Heap, Arg(2), Heap.mkInt(Heap.arity(T)));
      });
    case TermTag::Ref: {
      // Construction mode: functor(T, Name, Arity) with Name/Arity bound.
      TermRef NameT = Heap.deref(Arg(1));
      TermRef ArityT = Heap.deref(Arg(2));
      if (Heap.tag(ArityT) != TermTag::Int)
        return Signal::exhausted();
      int64_t N = Heap.intValue(ArityT);
      if (N == 0)
        return Scoped([&] { return unify(Heap, Arg(0), NameT); });
      if (Heap.tag(NameT) != TermTag::Atom || N < 0)
        return Signal::exhausted();
      return Scoped([&] {
        std::vector<TermRef> Args;
        for (int64_t I = 0; I < N; ++I)
          Args.push_back(Heap.mkVar());
        return unify(Heap, Arg(0), Heap.mkStruct(Heap.symbol(NameT), Args));
      });
    }
    }
    return Signal::exhausted();
  }

  case BuiltinKind::Arg: {
    TermRef NT = Heap.deref(Arg(0));
    TermRef T = Heap.deref(Arg(1));
    if (Heap.tag(NT) != TermTag::Int || Heap.tag(T) != TermTag::Struct)
      return Signal::exhausted();
    int64_t N = Heap.intValue(NT);
    if (N < 1 || N > static_cast<int64_t>(Heap.arity(T)))
      return Signal::exhausted();
    return Scoped([&] {
      return unify(Heap, Arg(2), Heap.arg(T, static_cast<uint32_t>(N - 1)));
    });
  }

  case BuiltinKind::Univ: {
    TermRef T = Heap.deref(Arg(0));
    if (Heap.tag(T) != TermTag::Ref) {
      // Decomposition: T =.. [Name|Args].
      std::vector<TermRef> Elems;
      if (Heap.tag(T) == TermTag::Struct) {
        Elems.push_back(Heap.mkAtom(Heap.symbol(T)));
        for (uint32_t I = 0, E = Heap.arity(T); I < E; ++I)
          Elems.push_back(Heap.arg(T, I));
      } else {
        Elems.push_back(T);
      }
      return Scoped([&] {
        return unify(Heap, Arg(1), Heap.mkList(Symbols, Elems));
      });
    }
    // Construction: walk the (proper) list.
    std::vector<TermRef> Elems;
    TermRef L = Heap.deref(Arg(1));
    while (Heap.tag(L) == TermTag::Struct &&
           Heap.symbol(L) == Symbols.Cons && Heap.arity(L) == 2) {
      Elems.push_back(Heap.arg(L, 0));
      L = Heap.deref(Heap.arg(L, 1));
    }
    if (!(Heap.tag(L) == TermTag::Atom && Heap.symbol(L) == Symbols.Nil) ||
        Elems.empty())
      return Signal::exhausted();
    TermRef Functor = Heap.deref(Elems[0]);
    if (Elems.size() == 1)
      return Scoped([&] { return unify(Heap, Arg(0), Functor); });
    if (Heap.tag(Functor) != TermTag::Atom)
      return Signal::exhausted();
    return Scoped([&] {
      std::span<const TermRef> Args(Elems.data() + 1, Elems.size() - 1);
      return unify(Heap, Arg(0), Heap.mkStruct(Heap.symbol(Functor), Args));
    });
  }
  }
  return Signal::exhausted();
}

Solver::Signal Solver::solveIff(TermRef Goal, const GoalNode *Rest,
                                size_t Depth, uint64_t CutLevel,
                                const SolutionFn &OnSolution) {
  // iff(X, Y1, ..., Yk) is the truth table of X <-> (Y1 /\ ... /\ Yk)
  // (Section 3.1). Rather than materializing 2^k facts we enumerate
  // satisfying rows natively with early pruning: the X=true row forces
  // every conjunct true; the X=false rows need at least one false
  // conjunct. This is still the enumerative Prop representation -- the
  // answer tables below stay truth tables -- only the literal is native.
  uint32_t Arity = Heap.arity(Goal);
  auto Proceed = [&]() {
    return solveGoals(Rest, Depth + 1, CutLevel, OnSolution);
  };

  TermRef TrueAtom = Heap.mkAtom(Symbols.BoolTrue);
  TermRef FalseAtom = Heap.mkAtom(Symbols.BoolFalse);

  // Row 1: everything true.
  {
    auto M = Heap.mark();
    bool Ok = true;
    for (uint32_t I = 0; I < Arity && Ok; ++I)
      Ok = unify(Heap, Heap.arg(Goal, I), TrueAtom);
    Signal S = Ok ? Proceed() : Signal::exhausted();
    Heap.undoTo(M);
    if (S.K != Signal::Exhausted)
      return S;
  }

  if (Arity == 1)
    return Signal::exhausted(); // iff(X): empty conjunction is true.

  // Rows with X=false: enumerate conjunct assignments with >= 1 false.
  auto M = Heap.mark();
  Signal Out = Signal::exhausted();
  if (unify(Heap, Heap.arg(Goal, 0), FalseAtom)) {
    // Recursive enumeration over conjuncts 1..Arity-1.
    std::function<Signal(uint32_t, bool)> Enum =
        [&](uint32_t I, bool AnyFalse) -> Signal {
      if (I == Arity)
        return AnyFalse ? Proceed() : Signal::exhausted();
      for (bool Val : {true, false}) {
        auto M2 = Heap.mark();
        Signal S = Signal::exhausted();
        if (unify(Heap, Heap.arg(Goal, I), Val ? TrueAtom : FalseAtom))
          S = Enum(I + 1, AnyFalse || !Val);
        Heap.undoTo(M2);
        if (S.K != Signal::Exhausted)
          return S;
      }
      return Signal::exhausted();
    };
    Out = Enum(1, false);
  }
  Heap.undoTo(M);
  return Out;
}
