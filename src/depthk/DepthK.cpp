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
#include "term/Variant.h"

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

/// The tabled abstract interpreter. Call/answer patterns live in a table
/// store; clause execution happens in a scratch heap with mark/undo.
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
    TermRef CallTuple; ///< Abstract call term in the table store.
    std::string Key;
    uint32_t Ordinal = 0; ///< Index into entries(); provenance subgoal id.
    std::vector<TermRef> Answers;
    std::unordered_set<std::string> AnswerKeys;
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

  const std::vector<Entry *> &entries() const { return Order; }
  const TermStore &tableStore() const { return Tables; }
  const Entry *openEntry(PredKey Pred) const {
    auto It = OpenEntries.find(keyOf(Pred));
    return It == OpenEntries.end() ? nullptr : It->second;
  }

  size_t tableSpaceBytes() const;
  uint64_t numAnswers() const;

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
      if (P.SubgoalIdx >= Order.size())
        return false;
      const Entry *E = Order[P.SubgoalIdx];
      return P.AnswerIdx < E->Answers.size() || E->Widened;
    });
  }

private:
  static uint64_t keyOf(PredKey P) {
    return (uint64_t(P.Sym) << 32) | P.Arity;
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
  TermStore Tables;
  std::unordered_map<std::string, std::unique_ptr<Entry>> Table;
  std::vector<Entry *> Order;
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
  std::string Key = canonicalKey(Heap, Call);
  auto It = Table.find(Key);
  if (It != Table.end())
    return *It->second;

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

  auto Owned = std::make_unique<Entry>();
  Entry &E = *Owned;
  E.Pred = Pred;
  E.Key = Key;
  E.CallTuple = copyTerm(Heap, Call, Tables);
  E.Ordinal = static_cast<uint32_t>(Order.size());
  Table.emplace(E.Key, std::move(Owned));
  Order.push_back(&E);
  if (Obs)
    Obs->subgoalNew(Symbols, Pred.Sym, Pred.Arity, Order.size());
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
  if (E.DependentSet.insert(&Producer).second)
    E.Dependents.push_back(&Producer);

  for (size_t I = 0; I < E.Answers.size(); ++I) {
    auto M = Heap.mark();
    TermRef Ans = copyTerm(Tables, E.Answers[I], Heap);
    if (Domain.unifyAbstract(Heap, G, Ans)) {
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
    for (TermRef Existing : E.Answers) {
      auto M = Heap.mark();
      TermRef Pat = copyTerm(Tables, Existing, Heap);
      bool Covered = Domain.subsumes(Heap, Pat, AnsPattern);
      Heap.undoTo(M);
      if (Covered) {
        NoteDup();
        return;
      }
    }
  }
  std::string AKey = canonicalKey(Heap, AnsPattern);
  if (E.AnswerKeys.count(AKey)) {
    NoteDup();
    return;
  }
  TermRef Stored = copyTerm(Heap, AnsPattern, Tables);
  E.AnswerKeys.insert(std::move(AKey));
  E.Answers.push_back(Stored);
  ++AnswersRecorded;
  if (Obs)
    Obs->answerNew(Symbols, E.Pred.Sym, E.Pred.Arity, E.Ordinal,
                   E.Answers.size(), Tables.memoryBytes(), AnswersRecorded,
                   Order.size());
  if (Prov)
    Prov->record(E.Ordinal, E.Answers.size() - 1, ClauseIdx,
                 Premises ? std::span<const ProvPremise>(*Premises)
                          : std::span<const ProvPremise>());

  // Answer widening: collapse an oversized answer set to its lgg.
  if (E.Answers.size() > Opts.MaxAnswersPerCall) {
    ++Widenings;
    TermRef Folded = E.Answers[0];
    for (size_t I = 1; I < E.Answers.size(); ++I)
      Folded = Domain.lgg(Tables, Folded, E.Answers[I], Tables);
    E.Answers.clear();
    E.AnswerKeys.clear();
    E.Answers.push_back(Folded);
    E.AnswerKeys.insert(canonicalKey(Tables, Folded));
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
    TermRef Call = copyTerm(Tables, E.CallTuple, Heap);
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

size_t AbsInterp::tableSpaceBytes() const {
  size_t Bytes = Tables.memoryBytes();
  for (const Entry *E : Order) {
    Bytes += sizeof(Entry);
    Bytes += E->Key.capacity();
    Bytes += E->Answers.capacity() * sizeof(TermRef);
    for (const auto &K : E->AnswerKeys)
      Bytes += K.capacity() + sizeof(void *) * 2;
    Bytes += E->Dependents.size() * sizeof(void *) * 2;
  }
  Bytes += Table.size() * (sizeof(void *) * 4);
  return Bytes;
}

uint64_t AbsInterp::numAnswers() const {
  uint64_t N = 0;
  for (const Entry *E : Order)
    N += E->Answers.size();
  return N;
}

void AbsInterp::snapshotMetrics(MetricsRegistry &M) const {
  M.resetTableSnapshot();
  for (const Entry *E : Order) {
    PredMetrics &PM = M.pred(Symbols, E->Pred.Sym, E->Pred.Arity);
    ++PM.TableSubgoals;
    PM.TableAnswers += E->Answers.size();
    PM.AnswersPerSubgoal.record(E->Answers.size());
    size_t Bytes = sizeof(Entry) + E->Key.capacity();
    Bytes += E->Answers.capacity() * sizeof(TermRef);
    for (const auto &K : E->AnswerKeys)
      Bytes += K.capacity() + sizeof(void *) * 2;
    Bytes += E->Dependents.size() * sizeof(void *) * 2;
    Bytes += Tables.termBytes(E->CallTuple);
    for (TermRef Ans : E->Answers)
      Bytes += Tables.termBytes(Ans);
    PM.TableBytes += Bytes;
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
  Result.TableSpaceBytes = Interp.tableSpaceBytes();
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
    // Depth-k tables only grow (no completion-time release), so the final
    // footprint is the lifetime peak.
    Opts.Metrics->noteWatermark("peak_table_space_bytes",
                                Result.TableSpaceBytes);
  }

  const TermStore &TS = Interp.tableStore();
  for (PredKey Pred : DB.predicates()) {
    DepthKPred Out;
    Out.Name = Symbols.name(Pred.Sym);
    Out.Arity = Pred.Arity;
    Out.GroundOnSuccess.assign(Pred.Arity, 1);

    const AbsInterp::Entry *E = Interp.openEntry(Pred);
    if (E) {
      AbstractDomain Dom(Symbols, Opts.Depth);
      for (TermRef Ans : E->Answers) {
        Out.AnswerPatterns.push_back(
            TermWriter::toString(Symbols, TS, Ans));
        TermRef A = TS.deref(Ans);
        for (uint32_t I = 0; I < Pred.Arity; ++I)
          if (!Dom.isGroundAbstract(TS, TS.arg(A, I)))
            Out.GroundOnSuccess[I] = 0;
      }
      Out.CanSucceed = !E->Answers.empty();
    }
    if (!Out.CanSucceed)
      Out.GroundOnSuccess.assign(Pred.Arity, 0);

    // All call patterns of this predicate.
    for (const AbsInterp::Entry *CE : Interp.entries())
      if (CE->Pred == Pred)
        Out.CallPatterns.push_back(
            TermWriter::toString(Symbols, TS, CE->CallTuple));

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
  if (!E || E->Answers.empty())
    return Diagnostic("explain: " + Name + " has no answer pattern — it "
                      "cannot succeed, so groundness holds vacuously");

  // Witness: the first open-call answer pattern whose Arg is abstractly
  // ground (arity 0 takes answer 0; "ground" is then trivial success).
  const TermStore &TS = Interp.tableStore();
  AbstractDomain Dom(Symbols, Opts.Depth);
  size_t Witness = E->Answers.size();
  for (size_t I = 0; I < E->Answers.size(); ++I) {
    TermRef A = TS.deref(E->Answers[I]);
    if (Arity == 0 || Dom.isGroundAbstract(TS, TS.arg(A, Arg))) {
      Witness = I;
      break;
    }
  }
  if (Witness == E->Answers.size())
    return Diagnostic("explain: no answer pattern of " + Name +
                      " grounds argument " + std::to_string(Arg + 1));

  ProofNode Tree = buildProofTree(*Interp.provenance(), E->Ordinal,
                                  static_cast<uint32_t>(Witness));

  const auto &Entries = Interp.entries();
  auto Label = [&](const ProofNode &N) {
    if (N.SubgoalIdx >= Entries.size())
      return std::string("<unknown entry>");
    const AbsInterp::Entry &G = *Entries[N.SubgoalIdx];
    if (N.AnswerIdx >= G.Answers.size())
      return TermWriter::toString(Symbols, TS, G.CallTuple) +
             " (folded answer)";
    return TermWriter::toString(Symbols, TS, G.Answers[N.AnswerIdx]);
  };
  auto ClauseLabel = [&](const ProofNode &N) {
    if (N.SubgoalIdx >= Entries.size())
      return std::string();
    const AbsInterp::Entry &G = *Entries[N.SubgoalIdx];
    return "clause " + std::to_string(N.ClauseIdx + 1) + " of " +
           Symbols.name(G.Pred.Sym) + "/" + std::to_string(G.Pred.Arity);
  };

  std::string Out = "why " + Name;
  if (Arity > 0)
    Out += " is ground in argument " + std::to_string(Arg + 1) +
           " (depth-" + std::to_string(Opts.Depth) + " abstraction)";
  Out += " on success (witness: answer pattern " +
         std::to_string(Witness + 1) + " of " +
         std::to_string(E->Answers.size()) + "):\n";
  Out += renderProofTree(Tree, Label, ClauseLabel);
  return Out;
}
