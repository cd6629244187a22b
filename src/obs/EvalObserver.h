//===- EvalObserver.h - The engine's one observation hook -------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything an evaluation reports without being changed by it, behind
/// one nullable pointer: the five observation channels, and one inline,
/// non-virtual method per engine event that forwards the event to each
/// attached channel. The event list and the cost contract are in DESIGN.md
/// §8 ("Engine observer").
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_EVALOBSERVER_H
#define LPA_OBS_EVALOBSERVER_H

#include "obs/CostProfile.h"
#include "obs/FlightRecorder.h"
#include "obs/Metrics.h"
#include "obs/Sampler.h"
#include "obs/Trace.h"
#include "support/Stopwatch.h"

#include <vector>

namespace lpa {

/// The owner keeps every channel alive while the observer is attached and
/// swaps channels only between queries.
class EvalObserver {
public:
  Tracer *Trace = nullptr;
  MetricsRegistry *Metrics = nullptr;
  EvalCursor *Cursor = nullptr;
  FlightRecorder *Recorder = nullptr;
  CostProfile *Costs = nullptr;
  /// Cursor of intra-query eval worker I (the workers' only channel);
  /// empty = workers run unobserved.
  std::vector<EvalCursor *> WorkerCursors = {};

  /// No channel attached: evaluators then take a null observer instead.
  bool empty() const {
    return !Trace && !Metrics && !Cursor && !Recorder && !Costs &&
           WorkerCursors.empty();
  }

  /// An analysis phase (transform, evaluate, collect) for the object's
  /// scope: SpanBegin/SpanEnd trace events, and its wall time added to the
  /// registry's phase of that name. \p Label must be static.
  class Span {
  public:
    Span(const EvalObserver &O, const char *Label) : O(O), Label(Label) {
      if (O.Trace)
        O.Trace->beginSpan(Label);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    ~Span() { finish(); }

    /// Ends the span early (idempotent).
    void finish() {
      if (Done)
        return;
      Done = true;
      if (O.Metrics)
        O.Metrics->addPhase(Label, Watch.elapsedSeconds());
      if (O.Trace)
        O.Trace->endSpan(Label);
    }

  private:
    const EvalObserver &O;
    const char *Label;
    Stopwatch Watch;
    bool Done = false;
  };

  /// \name Engine events.
  /// @{

  /// An outermost query opened or closed.
  void queryBegin(uint64_t QueryId) {
    if (Trace)
      Trace->setQuery(QueryId);
    if (Cursor)
      Cursor->setQueryId(QueryId);
    if (Costs)
      Costs->beginQuery(QueryId);
  }
  void queryEnd() {
    if (Costs)
      Costs->endQuery();
  }

  /// A tabled call was issued; then its table turned out cold (created) or
  /// warm (completed by an earlier query). A re-hit within the query is
  /// ordinary fixpoint traffic and reports nothing.
  void tabledCall(const SymbolTable &S, SymbolId Sym, uint32_t Arity) {
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).Calls;
    if (Trace)
      Trace->emit(TraceEventKind::TabledCall, Sym, Arity);
  }
  void tableCold(const SymbolTable &S, SymbolId Sym, uint32_t Arity) {
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).ColdMisses;
  }
  void tableWarm(const SymbolTable &S, SymbolId Sym, uint32_t Arity,
                 uint32_t Ordinal) {
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).WarmHits;
    if (Costs)
      Costs->noteWarmHit(Ordinal);
  }

  /// A subgoal entered the call table (\p Count subgoals now), was revived
  /// in place after invalidation, or arrived complete from a worker.
  void subgoalNew(const SymbolTable &S, SymbolId Sym, uint32_t Arity,
                  uint64_t Count) {
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).NewSubgoals;
    if (Trace)
      Trace->emit(TraceEventKind::SubgoalNew, Sym, Arity, Count);
  }
  void subgoalRevived(const SymbolTable &S, SymbolId Sym, uint32_t Arity,
                      uint32_t Ordinal) {
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).ColdMisses;
    if (Trace)
      Trace->emit(TraceEventKind::SubgoalNew, Sym, Arity, Ordinal + 1);
  }
  void subgoalImported(const SymbolTable &S, SymbolId Sym, uint32_t Arity) {
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).NewSubgoals;
  }

  /// A unique answer entered subgoal \p Ordinal's table (\p TableAnswers
  /// now); the last three are the cursor's table gauges.
  void answerNew(const SymbolTable &S, SymbolId Sym, uint32_t Arity,
                 uint32_t Ordinal, uint64_t TableAnswers, uint64_t StoreBytes,
                 uint64_t AnswersRecorded, uint64_t Subgoals) {
    if (Costs)
      Costs->noteAnswerInserted(Ordinal);
    if (Cursor)
      Cursor->setGauges(StoreBytes, AnswersRecorded, Subgoals);
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).NewAnswers;
    if (Trace)
      Trace->emit(TraceEventKind::AnswerNew, Sym, Arity, TableAnswers);
  }
  void answerDup(const SymbolTable &S, SymbolId Sym, uint32_t Arity) {
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).DupAnswers;
    if (Trace)
      Trace->emit(TraceEventKind::AnswerDup, Sym, Arity);
  }
  void answerConsumed(uint32_t Ordinal) {
    if (Costs)
      Costs->noteAnswerConsumed(Ordinal);
  }

  /// \p ProducerStep charges the resolution to the running producer's cost
  /// frame (nontabled calls are not charged).
  void clauseResolve(const SymbolTable &S, SymbolId Sym, uint32_t Arity,
                     bool ProducerStep) {
    if (ProducerStep && Costs)
      Costs->noteStep();
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).Resolutions;
    if (Trace)
      Trace->emit(TraceEventKind::ClauseResolve, Sym, Arity);
  }
  void builtin(SymbolId Sym, uint32_t Arity) {
    if (Trace)
      Trace->emit(TraceEventKind::BuiltinEval, Sym, Arity);
  }

  /// \p Resumed marks a fixpoint re-run.
  void producerEnter(SymbolId Sym, uint32_t Arity, uint32_t Ordinal,
                     bool Resumed) {
    if (Cursor)
      Cursor->pushFrame(Sym, Arity);
    if (Costs) {
      Costs->pushFrame(Ordinal);
      if (Resumed)
        Costs->noteResumption(Ordinal);
    }
  }
  void producerExit() {
    if (Costs)
      Costs->popFrame();
    if (Cursor)
      Cursor->popFrame();
  }

  void phase(EvalPhase P) {
    if (Cursor)
      Cursor->setPhase(P);
  }

  /// \p TableBytes (an O(answers) walk) runs only for the cost profile.
  template <typename BytesFn>
  void subgoalComplete(const SymbolTable &S, SymbolId Sym, uint32_t Arity,
                       uint32_t Ordinal, uint64_t Answers,
                       BytesFn &&TableBytes) {
    if (Costs)
      Costs->noteTableBytes(Ordinal, TableBytes());
    if (Metrics)
      ++Metrics->pred(S, Sym, Arity).Completions;
    if (Trace)
      Trace->emit(TraceEventKind::SubgoalComplete, Sym, Arity, Answers);
  }

  void incompleteTable(const SymbolTable &S, SymbolId Sym, uint64_t QueryId,
                       uint32_t Ordinal) {
    if (Recorder)
      Recorder->record(FrEventKind::IncompleteTable, QueryId, Ordinal, 0, 0,
                       0, S.name(Sym));
  }

  void depthLimit(uint64_t Depth) {
    if (Trace)
      Trace->emit(TraceEventKind::DepthLimit, 0, 0, Depth);
  }
  void deadline(uint64_t QueryId, uint64_t Depth) {
    if (Trace)
      Trace->emit(TraceEventKind::DeadlineExpired, 0, 0, Depth);
    if (Recorder)
      Recorder->record(FrEventKind::DeadlineHit, QueryId, Depth);
  }

  /// @}
};

} // namespace lpa

#endif // LPA_OBS_EVALOBSERVER_H
