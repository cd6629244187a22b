//===- CostProfile.h - Per-query subgoal cost attribution -------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-query cost attribution for tabled evaluation: the engine charges
/// wall time, derivation steps, answer traffic, consumer resumptions and
/// table bytes to the subgoal whose producer is running, so one query's
/// profile answers "which subgoals and SCCs cost what" — the question
/// slowlog/`inspect` (table sizes, query totals) cannot.
///
/// Attribution discipline (DESIGN.md §17): the engine mirrors its producer
/// stack into the profile via pushFrame/popFrame. Wall time accrues to the
/// frame on top via *batched* steady-clock reads — the clock is read at
/// every frame switch (so self-time boundaries are exact) and every
/// StepBatch-th derivation step in between (so a long producer run's
/// accrual is visible to mid-query snapshots without paying a clock read
/// per resolution). Time with an empty frame stack — goal-list machinery,
/// outermost answer enumeration — accrues to the query root (RootNs).
/// Conservation is exact by construction: at endQuery,
///   sum(SelfNs) + RootNs == QueryWallNs.
///
/// Like Provenance.h and Forest.h this layer is engine-agnostic: subgoals
/// are identified by their creation ordinal; the engine resolves names and
/// SCC membership only at export time (Solver::exportCostSummary).
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_COSTPROFILE_H
#define LPA_OBS_COSTPROFILE_H

#include <cstdint>
#include <string>
#include <vector>

namespace lpa {

class JsonWriter;

/// Exact per-subgoal costs for one query, accumulated by the Solver while
/// the profile is attached to its EvalObserver.
class CostProfile {
public:
  static constexpr uint32_t NoParent = ~0u;
  /// Interior clock reads are decimated to every StepBatch-th derivation
  /// step; frame switches always read the clock, so the final per-subgoal
  /// figures are exact and only *mid-run* snapshots can lag by up to one
  /// batch of steps (the §17 error bound).
  static constexpr uint32_t StepBatch = 64;

  /// Costs charged to one subgoal within the current query.
  struct Record {
    uint64_t SelfNs = 0;   ///< Wall ns inside this subgoal's producer runs,
                           ///< excluding nested producers (exclusive time).
    uint64_t Steps = 0;    ///< Clause resolutions charged to this producer.
    uint64_t AnswersInserted = 0; ///< Unique answers recorded into its table.
    uint64_t AnswersConsumed = 0; ///< Answers returned from its table.
    uint64_t Resumptions = 0;     ///< Fixpoint re-runs of its producer.
    uint64_t TableBytes = 0;      ///< Table footprint at completion.
    bool Warm = false; ///< First touch this query hit an already-complete
                       ///< table (no producer ran: cold cost is zero).
    /// First subgoal on the frame stack when this one was first touched
    /// this query (NoParent = touched at the root). First-touch parents
    /// form a tree, so cumulative time is well-defined even on cyclic
    /// SCC dependency graphs.
    uint32_t Parent = NoParent;
    /// 1-based first-touch sequence within the query; parents always have
    /// a smaller sequence than their children (tree invariant the
    /// cumulative rollup exploits). 0 = not touched this query.
    uint32_t FirstSeq = 0;

  private:
    friend class CostProfile;
    uint64_t Epoch = 0; ///< Query stamp; the record is live iff it matches.
  };

  /// \name Engine hooks. All cheap; none allocate past the high-water mark
  /// of previously seen ordinals.
  /// @{

  /// Opens a query scope: stamps the clock, bumps the epoch (lazily
  /// invalidating every prior record) and resets the frame stack.
  void beginQuery(uint64_t QueryId);

  /// Closes the scope: final clock read, fixes QueryWallNs.
  void endQuery();

  /// Producer run of subgoal \p Ordinal begins (clock sync point).
  void pushFrame(uint32_t Ordinal);

  /// Innermost producer run ends (clock sync point).
  void popFrame();

  /// One clause resolution under the current top frame; every StepBatch-th
  /// call also flushes the pending wall slice.
  void noteStep() {
    (Frames.empty() ? RootSteps : live(Frames.back()).Steps) += 1;
    if ((++StepTick & (StepBatch - 1)) == 0)
      stamp();
  }

  void noteAnswerInserted(uint32_t Ordinal) {
    live(Ordinal).AnswersInserted += 1;
  }
  void noteAnswerConsumed(uint32_t Ordinal) {
    live(Ordinal).AnswersConsumed += 1;
  }
  void noteResumption(uint32_t Ordinal) { live(Ordinal).Resumptions += 1; }
  void noteTableBytes(uint32_t Ordinal, uint64_t Bytes) {
    live(Ordinal).TableBytes = Bytes;
  }
  void noteWarmHit(uint32_t Ordinal) { live(Ordinal).Warm = true; }

  /// @}

  /// \name Inspection (stable between queries; mid-query reads see the
  /// accrual up to the last clock sync).
  /// @{

  uint64_t queryId() const { return QueryId; }
  bool inQuery() const { return InQuery; }
  /// Wall ns of the last completed query (0 while one is in flight).
  uint64_t queryWallNs() const { return QueryWallNs; }
  /// Wall ns charged to the query root (outside every producer frame).
  uint64_t rootNs() const { return RootNs; }
  /// Derivation steps outside every producer frame.
  uint64_t rootSteps() const { return RootSteps; }

  /// Ordinals touched by the current/last query, in first-touch order.
  const std::vector<uint32_t> &touched() const { return Touched; }

  /// The live record for \p Ordinal, or nullptr if the current/last query
  /// never touched it.
  const Record *record(uint32_t Ordinal) const {
    if (Ordinal >= Records.size() || Records[Ordinal].Epoch != Epoch)
      return nullptr;
    return &Records[Ordinal];
  }

  /// Sum of SelfNs over all touched records.
  uint64_t attributedNs() const;

  /// @}

private:
  static uint64_t nowNs();

  /// Flushes the wall slice since the last clock read onto the current top
  /// frame (or the root), and restarts the slice.
  void stamp();

  /// The record for \p Ordinal in the current epoch, resetting a stale one
  /// and assigning first-touch parent/sequence on first use.
  Record &live(uint32_t Ordinal);

  std::vector<Record> Records; ///< Indexed by subgoal ordinal.
  std::vector<uint32_t> Touched;
  std::vector<uint32_t> Frames; ///< Ordinals, mirroring the producer stack.
  uint64_t Epoch = 0;
  uint64_t QueryId = 0;
  uint64_t QueryStartNs = 0;
  uint64_t QueryWallNs = 0;
  uint64_t LastStampNs = 0;
  uint64_t RootNs = 0;
  uint64_t RootSteps = 0;
  uint32_t StepTick = 0;
  uint32_t SeqCounter = 0;
  bool InQuery = false;
};

/// One subgoal in an exported cost summary (engine-resolved names).
struct CostNode {
  uint32_t Ordinal = 0;
  std::string Pred;  ///< "name/arity".
  std::string Label; ///< Rendered call term.
  uint32_t SccId = 0;
  uint32_t Parent = CostProfile::NoParent; ///< Index into CostSummary::Nodes.
  bool Warm = false;
  uint64_t SelfNs = 0;
  uint64_t CumNs = 0; ///< Self + every first-touch descendant's self.
  uint64_t Steps = 0;
  uint64_t AnswersInserted = 0;
  uint64_t AnswersConsumed = 0;
  uint64_t Resumptions = 0;
  uint64_t TableBytes = 0;
};

/// Self-cost aggregation over a grouping key (predicate or SCC).
struct CostRollup {
  std::string Key;
  uint32_t Subgoals = 0;
  uint32_t WarmHits = 0;
  uint64_t SelfNs = 0;
  uint64_t Steps = 0;
  uint64_t AnswersInserted = 0;
  uint64_t AnswersConsumed = 0;
  uint64_t Resumptions = 0;
  uint64_t TableBytes = 0;
};

/// One query's full cost attribution, as exported by
/// Solver::exportCostSummary. Nodes are in first-touch order; rollups are
/// sorted by SelfNs descending.
struct CostSummary {
  uint64_t QueryId = 0;
  uint64_t QueryWallNs = 0;
  uint64_t AttributedNs = 0; ///< sum(Nodes[].SelfNs); plus RootNs == wall.
  uint64_t RootNs = 0;
  uint64_t RootSteps = 0;
  std::vector<CostNode> Nodes;
  std::vector<CostRollup> PerPred;
  std::vector<CostRollup> PerScc; ///< Keys "scc N"; open subgoals "open".
};

/// Fills CumNs for every node from the first-touch parent tree (children
/// always follow parents in first-touch order, so one reverse pass).
void computeCumulativeNs(std::vector<CostNode> &Nodes);

/// Streams \p S as one JSON object (schema-free: the caller wraps it under
/// its own schema tag). \p TopK bounds the nodes array (0 = all); nodes
/// are emitted by SelfNs descending.
void writeCostSummaryJson(const CostSummary &S, JsonWriter &W,
                          size_t TopK = 0);

} // namespace lpa

#endif // LPA_OBS_COSTPROFILE_H
