//===- DepthK.cpp - Depth-k groundness analyzer -------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "depthk/DepthK.h"

#include "obs/EvalObserver.h"
#include "obs/Provenance.h"
#include "reader/Parser.h"
#include "support/Stopwatch.h"
#include "table/VariantCode.h"
#include "term/TermCopy.h"
#include "term/TermWriter.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_set>

using namespace lpa;

const DepthKPred *DepthKResult::find(const std::string &Name,
                                     uint32_t Arity) const {
  for (const DepthKPred &P : Predicates)
    if (P.Name == Name && P.Arity == Arity)
      return &P;
  return nullptr;
}

namespace {

/// The tabled abstract interpreter. Call and answer patterns are variant
/// codes (DESIGN.md §9): one set of calls, whose positions number the
/// entries, and one answer set per entry. Clause execution decodes them
/// into a scratch heap and undoes to a mark.
///
/// Evaluation is worklist-driven and semi-naive at entry granularity: an
/// entry's producer re-runs only when an entry it consumed from gained
/// answers. Two widenings keep the tables small on large programs (the
/// paper's Section 6 widening discussion): an entry whose answer set
/// outgrows MaxAnswersPerCall collapses to the answers' least general
/// generalization, and a predicate with too many call patterns routes new
/// calls to its open (most general) pattern.
class AbsInterp {
public:
  AbsInterp(SymbolTable &Symbols, const Database &DB,
            const DepthKAnalyzer::Options &Opts, EvalObserver *Obs)
      : Symbols(Symbols), DB(DB), Domain(Symbols, Opts.Depth), Opts(Opts),
        Obs(Obs) {
    if (Opts.RecordProvenance)
      Prov = std::make_unique<ProvenanceArena>();
  }

  struct Entry {
    PredKey Pred;
    /// Position of the call pattern in Calls and of the entry in
    /// entries(); the provenance subgoal id.
    uint32_t Ordinal = 0;
    /// The answer patterns, one level in insertion order.
    VariantCodeStore Answers{1};
    /// Insertion-ordered: wake() walks this, and enqueue order decides the
    /// order answers land in dependents' tables. Iterating a pointer-hashed
    /// set here made that order (and hence the rendered result) vary run to
    /// run with heap layout.
    std::vector<Entry *> Dependents;
    std::unordered_set<Entry *> DependentSet;
    bool InWorklist = false;
    bool Widened = false;
  };

  /// Creates (or finds) the entry for the open call of \p Pred and drains
  /// the worklist.
  void analyzePredicate(PredKey Pred);

  const std::deque<Entry> &entries() const { return Entries; }
  const Entry *openEntry(PredKey Pred) const {
    auto It = OpenEntries.find(keyOf(Pred));
    return It == OpenEntries.end() ? nullptr : It->second;
  }

  /// Builds the call pattern of \p E in \p Dst.
  TermRef callPattern(const Entry &E, TermStore &Dst) {
    Calls.decode(0, E.Ordinal, Dst, Decoded);
    return Decoded[0];
  }
  /// Builds answer pattern \p I of \p E in \p Dst.
  TermRef answerPattern(const Entry &E, size_t I, TermStore &Dst) {
    E.Answers.decode(0, I, Dst, Decoded);
    return Decoded[0];
  }

  uint64_t numAnswers() const;

  /// Bytes of the call set and of every entry's entryBytes(), and their
  /// running maximum: a widening frees an answer set, so tables shrink.
  size_t TableBytes = 0;
  size_t PeakTableBytes = 0;

  /// Fills the registry's table-snapshot fields from the current entry
  /// tables (idempotent; mirrors Solver::snapshotTableMetrics).
  void snapshotMetrics(MetricsRegistry &M) const;
  uint64_t ProducerRuns = 0;
  uint64_t Widenings = 0;
  /// Monotone count of new-answer commits (widening folds shrink the live
  /// answer sets, so numAnswers() is not monotone; the cursor gauge is).
  uint64_t AnswersRecorded = 0;
  /// Set when MaxProducerRuns stopped the worklist with work remaining.
  bool Incomplete = false;

  const ProvenanceArena *provenance() const { return Prov.get(); }

  /// Validates every recorded premise against the entry tables. Widening
  /// tolerance: a premise into a folded answer set is valid — the fold
  /// deliberately replaced those answers, and the folded pattern carries
  /// the ProvFoldedClause marker instead of their derivations.
  ProvenanceArena::CheckStats checkProvenance() const {
    if (!Prov)
      return {};
    return Prov->check([&](ProvPremise P) {
      if (P.SubgoalIdx >= Entries.size())
        return false;
      const Entry &E = Entries[P.SubgoalIdx];
      return P.AnswerIdx < E.Answers.size(0) || E.Widened;
    });
  }

private:
  static uint64_t keyOf(PredKey P) {
    return (uint64_t(P.Sym) << 32) | P.Arity;
  }

  /// Table bytes of \p E besides its call's code: the entry itself, its
  /// answer set and its dependents.
  static size_t entryBytes(const Entry &E) {
    return sizeof(Entry) + E.Answers.memoryBytes() +
           E.Dependents.size() * sizeof(void *) * 2;
  }
  /// Moves TableBytes by a part that went from \p Before to \p After bytes.
  void resized(size_t Before, size_t After) {
    TableBytes += After - Before; // Wraps correctly when a part shrinks.
    PeakTableBytes = std::max(PeakTableBytes, TableBytes);
  }

  /// Finds or creates the entry for the abstract call \p Call (a term in
  /// Heap, already depth-cut). Applies the call-pattern widening.
  Entry &ensureEntry(PredKey Pred, TermRef Call);

  /// Creates the open (all-variables) entry of \p Pred.
  Entry &ensureOpenEntry(PredKey Pred);

  void enqueue(Entry &E) {
    if (E.InWorklist)
      return;
    E.InWorklist = true;
    Worklist.push_back(&E);
  }
  void drainWorklist();

  /// Re-runs clause resolution for one entry; records new answers.
  void runEntry(Entry &E);

  /// Records one instantiated answer pattern (term in Heap) for \p E,
  /// justified by clause \p ClauseIdx consuming \p Premises (null when
  /// provenance is off).
  void recordAnswer(Entry &E, TermRef AnsPattern, uint32_t ClauseIdx,
                    const std::vector<ProvPremise> *Premises);

  /// Notifies dependents that \p E gained answers.
  void wake(Entry &E) {
    for (Entry *D : E.Dependents)
      enqueue(*D);
  }

  /// Builds the depth-k cut of \p Pred's call \p G in Heap: the abstract
  /// call pattern of a goal, or the answer pattern of a final state.
  TermRef cutCall(PredKey Pred, TermRef G);

  /// Solves the single goal \p G in the current heap bindings; calls
  /// \p OnSolution for each (abstract) solution, bindings in place.
  template <typename Fn>
  void solveGoal(Entry &Producer, TermRef G, const Fn &OnSolution);

  /// Handles one builtin goal; \p Known is false for user predicates.
  bool applyBuiltin(TermRef Goal, bool &Known);

  SymbolTable &Symbols;
  const Database &DB;
  AbstractDomain Domain;
  DepthKAnalyzer::Options Opts;
  EvalObserver *Obs; ///< Null when no channel is attached.

  TermStore Heap;
  VariantCodeStore Calls{1};
  std::deque<Entry> Entries; ///< Grows at the back; references stay valid.
  std::unordered_map<uint64_t, Entry *> OpenEntries;
  std::unordered_map<uint64_t, uint32_t> CallsPerPred;
  std::deque<Entry *> Worklist;

  /// Provenance (allocated only under Options::RecordProvenance). solveGoal
  /// sets LastPremise to the (entry, answer) it just resolved against — or
  /// clears it for builtins — so runEntry's per-state premise threading can
  /// extend the consuming state's premise list.
  std::unique_ptr<ProvenanceArena> Prov;
  std::optional<ProvPremise> LastPremise;

  /// Scratch of cutCall() and of runEntry's state building; neither
  /// re-enters itself (runs are never nested: see runEntry).
  std::vector<TermRef> CutArgs, StateArgs;
  /// runEntry's decoded state roots and the ones its successors keep.
  std::vector<TermRef> Roots;
  /// Roots of callPattern() and answerPattern(), apart from runEntry's.
  std::vector<TermRef> Decoded;
  std::vector<uint32_t> Keep;
  VarRenaming CutRenaming;
};

AbsInterp::Entry &AbsInterp::ensureOpenEntry(PredKey Pred) {
  auto It = OpenEntries.find(keyOf(Pred));
  if (It != OpenEntries.end())
    return *It->second;
  auto M = Heap.mark();
  TermRef Call;
  if (Pred.Arity == 0) {
    Call = Heap.mkAtom(Pred.Sym);
  } else {
    std::vector<TermRef> Args;
    for (uint32_t I = 0; I < Pred.Arity; ++I)
      Args.push_back(Heap.mkVar());
    Call = Heap.mkStruct(Pred.Sym, Args);
  }
  Entry &E = ensureEntry(Pred, Call);
  OpenEntries.emplace(keyOf(Pred), &E);
  Heap.undoTo(M);
  return E;
}

AbsInterp::Entry &AbsInterp::ensureEntry(PredKey Pred, TermRef Call) {
  // Probe before inserting: a call the widening below sends to the open
  // entry takes no position.
  std::span<const TermRef> Root(&Call, 1);
  uint32_t Pos = Calls.find(0, Heap, Root);
  if (Pos != VariantCodeStore::NotFound)
    return Entries[Pos];

  // Call-pattern widening: too many patterns for one predicate fall back
  // to the open call (unless this *is* an open call being created, which
  // must go through so ensureOpenEntry cannot recurse forever).
  uint32_t &Count = CallsPerPred[keyOf(Pred)];
  // Open means distinct variables in every argument.
  Call = Heap.deref(Call);
  bool IsOpen = Pred.Arity > 0 || Heap.tag(Call) == TermTag::Atom;
  for (uint32_t I = 0; I < Pred.Arity && IsOpen; ++I) {
    TermRef A = Heap.deref(Heap.arg(Call, I));
    IsOpen = Heap.tag(A) == TermTag::Ref;
    for (uint32_t K = 0; K < I && IsOpen; ++K)
      IsOpen = Heap.deref(Heap.arg(Call, K)) != A;
  }
  if (!IsOpen && Count >= Opts.MaxCallsPerPred)
    return ensureOpenEntry(Pred);
  ++Count;

  size_t CallBytes = Calls.memoryBytes();
  Calls.insert(0, Heap, Root);
  Entry &E = Entries.emplace_back();
  E.Pred = Pred;
  E.Ordinal = static_cast<uint32_t>(Entries.size() - 1);
  resized(CallBytes, Calls.memoryBytes() + entryBytes(E));
  if (Obs)
    Obs->subgoalNew(Symbols, Pred.Sym, Pred.Arity, Entries.size());
  enqueue(E);
  return E;
}

bool AbsInterp::applyBuiltin(TermRef Goal, bool &Known) {
  Known = true;
  TermRef G = Heap.deref(Goal);
  TermTag Tag = Heap.tag(G);
  if (Tag != TermTag::Atom && Tag != TermTag::Struct) {
    Known = false;
    return false;
  }
  const std::string &Name = Symbols.name(Heap.symbol(G));
  uint32_t Arity = Heap.arity(G);

  if (Arity == 0) {
    if (Name == "true" || Name == "!" || Name == "nl")
      return true;
    if (Name == "fail" || Name == "false")
      return false;
    Known = false;
    return false;
  }
  if (Arity == 2 && Name == "=")
    return Domain.unifyAbstract(Heap, Heap.arg(G, 0), Heap.arg(G, 1));
  if ((Arity == 2 &&
       (Name == "is" || Name == "<" || Name == ">" || Name == "=<" ||
        Name == ">=" || Name == "=:=" || Name == "=\\=")) ||
      (Arity == 3 && Name == "between")) {
    // Arithmetic succeeds only over ground numbers.
    Domain.groundify(Heap, G);
    return true;
  }
  if (Arity == 1 && (Name == "atom" || Name == "integer" ||
                     Name == "atomic" || Name == "number" ||
                     Name == "ground")) {
    Domain.groundify(Heap, G);
    return true;
  }
  if ((Arity == 1 && (Name == "var" || Name == "nonvar" ||
                      Name == "compound" || Name == "\\+" || Name == "not" ||
                      Name == "write" || Name == "print")) ||
      (Arity == 2 && (Name == "==" || Name == "\\==" || Name == "\\=" ||
                      Name == "@<" || Name == "@>" || Name == "@=<" ||
                      Name == "@>=")) ||
      (Arity == 3 && Name == "arg") || (Arity == 2 && Name == "=.."))
    return true;
  if (Arity == 3 && Name == "functor") {
    Domain.groundify(Heap, Heap.arg(G, 1));
    Domain.groundify(Heap, Heap.arg(G, 2));
    return true;
  }
  Known = false;
  return false;
}

TermRef AbsInterp::cutCall(PredKey Pred, TermRef G) {
  if (Pred.Arity == 0)
    return Heap.mkAtom(Pred.Sym);
  CutRenaming.clear();
  CutArgs.clear();
  for (uint32_t I = 0; I < Pred.Arity; ++I)
    CutArgs.push_back(
        Domain.depthCut(Heap, Heap.arg(G, I), Heap, CutRenaming));
  return Heap.mkStruct(Pred.Sym, CutArgs);
}

template <typename Fn>
void AbsInterp::solveGoal(Entry &Producer, TermRef G, const Fn &OnSolution) {
  G = Heap.deref(G);

  bool Known = false;
  {
    auto M = Heap.mark();
    bool Ok = applyBuiltin(G, Known);
    if (Known) {
      if (Ok) {
        if (Prov)
          LastPremise.reset(); // Builtins contribute no table premise.
        OnSolution();
      }
      Heap.undoTo(M);
      return;
    }
    Heap.undoTo(M);
  }

  // User predicate: form the abstract call pattern (depth cut), register
  // the dependency, and resolve against the entry's current answers.
  TermTag Tag = Heap.tag(G);
  if (Tag != TermTag::Atom && Tag != TermTag::Struct)
    return; // Ill-formed goal: fail.
  PredKey Pred{Heap.symbol(G), Heap.arity(G)};
  if (!DB.lookup(Pred))
    return; // Undefined predicate: fail.

  Entry &E = ensureEntry(Pred, cutCall(Pred, G));
  if (E.DependentSet.insert(&Producer).second) {
    size_t Before = entryBytes(E);
    E.Dependents.push_back(&Producer);
    resized(Before, entryBytes(E));
  }

  for (size_t I = 0; I < E.Answers.size(0); ++I) {
    auto M = Heap.mark();
    if (Domain.unifyAbstract(Heap, G, answerPattern(E, I, Heap))) {
      if (Prov)
        LastPremise = ProvPremise{E.Ordinal, static_cast<uint32_t>(I)};
      OnSolution();
    }
    Heap.undoTo(M);
  }
}

void AbsInterp::recordAnswer(Entry &E, TermRef AnsPattern, uint32_t ClauseIdx,
                             const std::vector<ProvPremise> *Premises) {
  auto NoteDup = [&]() {
    if (Obs)
      Obs->answerDup(Symbols, E.Pred.Sym, E.Pred.Arity);
  };
  if (E.Widened) {
    // Check subsumption against the widened pattern(s); only genuinely
    // new behaviour re-widens.
    for (size_t I = 0; I < E.Answers.size(0); ++I) {
      auto M = Heap.mark();
      bool Covered =
          Domain.subsumes(Heap, answerPattern(E, I, Heap), AnsPattern);
      Heap.undoTo(M);
      if (Covered) {
        NoteDup();
        return;
      }
    }
  }
  size_t Before = entryBytes(E);
  if (!E.Answers.insert(0, Heap, std::span(&AnsPattern, 1)).Inserted) {
    NoteDup();
    return;
  }
  resized(Before, entryBytes(E));
  size_t NumAnswers = E.Answers.size(0);
  ++AnswersRecorded;
  if (Obs)
    Obs->answerNew(Symbols, E.Pred.Sym, E.Pred.Arity, E.Ordinal, NumAnswers,
                   TableBytes, AnswersRecorded, Entries.size());
  if (Prov)
    Prov->record(E.Ordinal, NumAnswers - 1, ClauseIdx,
                 Premises ? std::span<const ProvPremise>(*Premises)
                          : std::span<const ProvPremise>());

  // Answer widening: collapse an oversized answer set to its lgg. The
  // caller undoes the heap, folded terms included.
  if (NumAnswers > Opts.MaxAnswersPerCall) {
    ++Widenings;
    TermRef Folded = answerPattern(E, 0, Heap);
    for (size_t I = 1; I < NumAnswers; ++I)
      Folded = Domain.lgg(Heap, Folded, answerPattern(E, I, Heap), Heap);
    Before = entryBytes(E);
    E.Answers = VariantCodeStore(1);
    E.Answers.insert(0, Heap, std::span(&Folded, 1));
    resized(Before, entryBytes(E));
    E.Widened = true;
    if (Prov) {
      // The folded pattern subsumes the dropped answers but is derived by
      // no single clause; record the fold marker instead of misattributing
      // one of the dead derivations.
      Prov->dropSubgoal(E.Ordinal);
      Prov->record(E.Ordinal, 0, ProvFoldedClause, {});
    }
  }
  wake(E);
}

void AbsInterp::runEntry(Entry &E) {
  const Predicate *P = DB.lookup(E.Pred);
  if (!P)
    return;
  ++ProducerRuns;
  // The worklist makes entry runs non-nested, so the published stack is a
  // single frame; the sampler still sees which predicate is being re-run.
  if (Obs)
    Obs->producerEnter(E.Pred.Sym, E.Pred.Arity, E.Ordinal,
                       /*Resumed=*/false);

  for (size_t ClauseIdx = 0; ClauseIdx < P->Clauses.size(); ++ClauseIdx) {
    const Clause &C = P->Clauses[ClauseIdx];
    if (Obs)
      Obs->clauseResolve(Symbols, E.Pred.Sym, E.Pred.Arity,
                         /*ProducerStep=*/false);
    auto M = Heap.mark();
    TermRef Call = callPattern(E, Heap);
    TermRef Delta = DB.instantiate(C, Heap);
    if (!Domain.unifyAbstract(Heap, Call, C.Head + Delta)) {
      Heap.undoTo(M);
      continue;
    }

    // Set-at-a-time evaluation (the paper's footnote on join sizes): the
    // states before goal J are the root tuples (Call, body variables live
    // at J), as in the engine's supplementary frontier (DESIGN.md §19).
    // Each level is deduplicated by variant code, which caps the
    // cross-product of answer choices at the number of distinct abstract
    // states; states that differ only in dead variables have the same
    // future and merge.
    size_t NumGoals = C.Body.size();
    VariantCodeStore States(NumGoals + 1);
    StateArgs.assign(1, Call);
    for (const Clause::BodyVar &B : C.BodyVars)
      StateArgs.push_back(B.Cell + Delta); // All live at goal 0.
    States.insert(0, Heap, StateArgs);
    Heap.undoTo(M);
    // Premise lists travel with their state (index-parallel to a level):
    // each tabled resolution appends the consumed (entry, answer) pair, so
    // a surviving state knows exactly which table answers justified it.
    std::vector<std::vector<ProvPremise>> CurProv, NextProv;
    if (Prov)
      CurProv.emplace_back();

    for (size_t J = 0; J < NumGoals && States.size(J); ++J) {
      NextProv.clear();
      C.keptAfter(J, Keep);
      for (size_t SI = 0; SI < States.size(J); ++SI) {
        auto M2 = Heap.mark();
        // Build goal J around this state's roots.
        States.decode(J, SI, Heap, Roots);
        TermRef Goal = DB.instantiateGoal(
            C, J, std::span<const TermRef>(Roots).subspan(1), Heap);
        solveGoal(E, Goal, [&]() {
          // Project onto the variables still live after this goal.
          StateArgs.assign(1, Roots[0]);
          for (uint32_t K : Keep)
            StateArgs.push_back(Roots[K]);
          if (States.insert(J + 1, Heap, StateArgs).Inserted && Prov) {
            NextProv.push_back(CurProv[SI]);
            if (LastPremise)
              NextProv.back().push_back(*LastPremise);
          }
        });
        Heap.undoTo(M2);
      }
      std::swap(CurProv, NextProv);
    }

    // Surviving states yield answer patterns.
    for (size_t SI = 0; SI < States.size(NumGoals); ++SI) {
      auto M2 = Heap.mark();
      States.decode(NumGoals, SI, Heap, Roots);
      recordAnswer(E, cutCall(E.Pred, Heap.deref(Roots[0])),
                   static_cast<uint32_t>(ClauseIdx),
                   Prov ? &CurProv[SI] : nullptr);
      Heap.undoTo(M2);
    }
  }
  if (Obs)
    Obs->producerExit();
}

void AbsInterp::drainWorklist() {
  while (!Worklist.empty()) {
    // Truncation, not widening: entries still queued have pending
    // (re-)runs, so their answer sets are below the fixpoint.
    if (Opts.MaxProducerRuns && ProducerRuns >= Opts.MaxProducerRuns) {
      Incomplete = true;
      return;
    }
    Entry *E = Worklist.front();
    Worklist.pop_front();
    E->InWorklist = false;
    runEntry(*E);
  }
}

void AbsInterp::analyzePredicate(PredKey Pred) {
  ensureOpenEntry(Pred);
  drainWorklist();
}

uint64_t AbsInterp::numAnswers() const {
  uint64_t N = 0;
  for (const Entry &E : Entries)
    N += E.Answers.size(0);
  return N;
}

void AbsInterp::snapshotMetrics(MetricsRegistry &M) const {
  M.resetTableSnapshot();
  for (const Entry &E : Entries) {
    PredMetrics &PM = M.pred(Symbols, E.Pred.Sym, E.Pred.Arity);
    ++PM.TableSubgoals;
    PM.TableAnswers += E.Answers.size(0);
    PM.AnswersPerSubgoal.record(E.Answers.size(0));
    PM.TableBytes +=
        entryBytes(E) + Calls.code(0, E.Ordinal).size_bytes();
  }
}

} // namespace

ErrorOr<DepthKResult> DepthKAnalyzer::analyze(std::string_view Source) {
  DepthKResult Result;
  Stopwatch Phase;

  //--- Preprocessing: read + load the concrete program. -------------------
  EvalObserver Obs{
      .Trace = Opts.Trace, .Metrics = Opts.Metrics, .Cursor = Opts.Cursor};
  EvalObserver::Span PreprocSpan(Obs, "transform");
  Database DB(Symbols);
  auto Loaded = DB.consult(Source);
  if (!Loaded)
    return Loaded.getError();
  Result.PreprocSeconds = Phase.elapsedSeconds();
  PreprocSpan.finish();

  //--- Analysis: abstract interpretation to fixpoint. ---------------------
  Phase.restart();
  EvalObserver::Span EvalSpan(Obs, "evaluate");
  AbsInterp Interp(Symbols, DB, Opts, Obs.empty() ? nullptr : &Obs);
  for (PredKey Pred : DB.predicates())
    Interp.analyzePredicate(Pred);
  Result.AnalysisSeconds = Phase.elapsedSeconds();
  EvalSpan.finish();

  // Soundness gate: a truncated fixpoint under-reports answer patterns,
  // which over-claims groundness. Mirrors the Solver-based analyzers'
  // IncompleteTables handling.
  if (Interp.Incomplete) {
    if (!Opts.AllowIncomplete)
      return Diagnostic(
          "depth-k analysis incomplete: MaxProducerRuns stopped the "
          "fixpoint after " +
          std::to_string(Interp.ProducerRuns) +
          " producer runs; raise the budget or set AllowIncomplete");
    Result.Incomplete = true;
  }

  //--- Collection. ---------------------------------------------------------
  Phase.restart();
  EvalObserver::Span CollectSpan(Obs, "collect");
  Result.TableSpaceBytes = Interp.TableBytes;
  Result.NumCallPatterns = Interp.entries().size();
  Result.NumAnswers = Interp.numAnswers();
  Result.FixpointRounds = Interp.ProducerRuns;
  Result.Widenings = Interp.Widenings;
  if (Opts.RecordProvenance) {
    ProvenanceArena::CheckStats PS = Interp.checkProvenance();
    Result.JustifiedAnswers = PS.Justified;
    Result.JustificationPremises = PS.Premises;
    Result.DanglingPremises = PS.Dangling;
  }
  if (Opts.Metrics) {
    Interp.snapshotMetrics(*Opts.Metrics);
    Opts.Metrics->setCounter("call_patterns", Result.NumCallPatterns);
    Opts.Metrics->setCounter("answers_recorded", Result.NumAnswers);
    Opts.Metrics->setCounter("fixpoint_rounds", Result.FixpointRounds);
    Opts.Metrics->setCounter("widenings", Result.Widenings);
    Opts.Metrics->setCounter("table_space_bytes", Result.TableSpaceBytes);
    Opts.Metrics->noteWatermark("peak_table_space_bytes",
                                Interp.PeakTableBytes);
  }

  TermStore TS;
  for (PredKey Pred : DB.predicates()) {
    DepthKPred Out;
    Out.Name = Symbols.name(Pred.Sym);
    Out.Arity = Pred.Arity;
    Out.GroundOnSuccess.assign(Pred.Arity, 1);

    const AbsInterp::Entry *E = Interp.openEntry(Pred);
    if (E) {
      AbstractDomain Dom(Symbols, Opts.Depth);
      for (size_t J = 0; J < E->Answers.size(0); ++J) {
        TermRef A = TS.deref(Interp.answerPattern(*E, J, TS));
        Out.AnswerPatterns.push_back(TermWriter::toString(Symbols, TS, A));
        for (uint32_t I = 0; I < Pred.Arity; ++I)
          if (!Dom.isGroundAbstract(TS, TS.arg(A, I)))
            Out.GroundOnSuccess[I] = 0;
      }
      Out.CanSucceed = E->Answers.size(0) > 0;
    }
    if (!Out.CanSucceed)
      Out.GroundOnSuccess.assign(Pred.Arity, 0);

    // All call patterns of this predicate.
    for (const AbsInterp::Entry &CE : Interp.entries())
      if (CE.Pred == Pred)
        Out.CallPatterns.push_back(TermWriter::toString(
            Symbols, TS, Interp.callPattern(CE, TS)));

    Result.Predicates.push_back(std::move(Out));
  }
  Result.CollectSeconds = Phase.elapsedSeconds();
  return Result;
}

ErrorOr<std::string> DepthKAnalyzer::explain(std::string_view Source,
                                             std::string_view Pred,
                                             uint32_t Arity, uint32_t Arg) {
  if (Arity > 0 && Arg >= Arity)
    return Diagnostic("explain: argument " + std::to_string(Arg + 1) +
                      " out of range for " + std::string(Pred) + "/" +
                      std::to_string(Arity));

  // Re-run the fixpoint with provenance forced on; the worklist order is
  // deterministic, so entries and answers line up with a plain analyze().
  Database DB(Symbols);
  auto Loaded = DB.consult(Source);
  if (!Loaded)
    return Loaded.getError();

  Options EO = Opts;
  EO.RecordProvenance = true;
  EvalObserver Obs{
      .Trace = Opts.Trace, .Metrics = Opts.Metrics, .Cursor = Opts.Cursor};
  AbsInterp Interp(Symbols, DB, EO, Obs.empty() ? nullptr : &Obs);
  PredKey Target{};
  bool Found = false;
  for (PredKey P : DB.predicates()) {
    Interp.analyzePredicate(P);
    if (!Found && Symbols.name(P.Sym) == Pred && P.Arity == Arity) {
      Target = P;
      Found = true;
    }
  }
  if (!Found)
    return Diagnostic("explain: unknown predicate '" + std::string(Pred) +
                      "/" + std::to_string(Arity) + "'");
  if (Interp.Incomplete && !Opts.AllowIncomplete)
    return Diagnostic("explain: MaxProducerRuns truncated the fixpoint; "
                      "raise the budget or set AllowIncomplete");

  const AbsInterp::Entry *E = Interp.openEntry(Target);
  const std::string Name =
      std::string(Pred) + "/" + std::to_string(Arity);
  if (!E || E->Answers.size(0) == 0)
    return Diagnostic("explain: " + Name + " has no answer pattern — it "
                      "cannot succeed, so groundness holds vacuously");

  // Witness: the first open-call answer pattern whose Arg is abstractly
  // ground (arity 0 takes answer 0; "ground" is then trivial success).
  TermStore TS;
  AbstractDomain Dom(Symbols, Opts.Depth);
  size_t NumAnswers = E->Answers.size(0);
  size_t Witness = NumAnswers;
  for (size_t I = 0; I < NumAnswers; ++I) {
    TermRef A = TS.deref(Interp.answerPattern(*E, I, TS));
    if (Arity == 0 || Dom.isGroundAbstract(TS, TS.arg(A, Arg))) {
      Witness = I;
      break;
    }
  }
  if (Witness == NumAnswers)
    return Diagnostic("explain: no answer pattern of " + Name +
                      " grounds argument " + std::to_string(Arg + 1));

  ProofNode Tree = buildProofTree(*Interp.provenance(), E->Ordinal,
                                  static_cast<uint32_t>(Witness));

  const auto &Entries = Interp.entries();
  auto Label = [&](const ProofNode &N) {
    if (N.SubgoalIdx >= Entries.size())
      return std::string("<unknown entry>");
    const AbsInterp::Entry &G = Entries[N.SubgoalIdx];
    if (N.AnswerIdx >= G.Answers.size(0))
      return TermWriter::toString(Symbols, TS, Interp.callPattern(G, TS)) +
             " (folded answer)";
    return TermWriter::toString(Symbols, TS,
                                Interp.answerPattern(G, N.AnswerIdx, TS));
  };
  auto ClauseLabel = [&](const ProofNode &N) {
    if (N.SubgoalIdx >= Entries.size())
      return std::string();
    const AbsInterp::Entry &G = Entries[N.SubgoalIdx];
    return "clause " + std::to_string(N.ClauseIdx + 1) + " of " +
           Symbols.name(G.Pred.Sym) + "/" + std::to_string(G.Pred.Arity);
  };

  std::string Out = "why " + Name;
  if (Arity > 0)
    Out += " is ground in argument " + std::to_string(Arg + 1) +
           " (depth-" + std::to_string(Opts.Depth) + " abstraction)";
  Out += " on success (witness: answer pattern " +
         std::to_string(Witness + 1) + " of " +
         std::to_string(NumAnswers) + "):\n";
  Out += renderProofTree(Tree, Label, ClauseLabel);
  return Out;
}
