//===- Trace.h - SLG event tracing ------------------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured event tracing for the tabled engine, modeled on XSB's trace
/// facilities (Swift & Warren describe them as essential for understanding
/// tabling behavior). The engine emits one TraceEvent per interesting SLG
/// transition — tabled call, subgoal creation, answer insert/duplicate,
/// completion, clause resolution, builtin evaluation, depth-limit hit —
/// plus begin/end span pairs for analysis phases.
///
/// The engine reaches the tracer through its EvalObserver; a Tracer with
/// no sink costs one predictable branch per event.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_TRACE_H
#define LPA_OBS_TRACE_H

#include "support/KeepLastRing.h"
#include "term/Symbol.h"

#include <cassert>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

/// LPA_TRACE_ASSERTS (CMake option LPA_ENABLE_TRACE_ASSERTS) compiles in
/// instrumentation self-checks: span begin/end balance in the tracer and
/// per-event invariants in the recording sink. Off by default; the checks
/// cost a counter per span event when on.
#ifndef LPA_TRACE_ASSERTS
#define LPA_TRACE_ASSERTS 0
#endif

namespace lpa {

/// Whether this build carries the guarded instrumentation self-checks.
constexpr bool traceAssertsEnabled() { return LPA_TRACE_ASSERTS != 0; }

/// The SLG event taxonomy. Instant events describe one engine transition;
/// SpanBegin/SpanEnd bracket a named phase (transform/evaluate/collect).
enum class TraceEventKind : uint8_t {
  TabledCall,    ///< A call to a tabled predicate was issued.
  SubgoalNew,    ///< A new subgoal variant entered the call table.
  AnswerNew,     ///< A unique answer entered an answer table.
  AnswerDup,     ///< A derived answer was rejected by the variant check.
  SubgoalComplete, ///< A subgoal's SCC finished; its table is complete.
  ClauseResolve, ///< A program clause resolution was attempted.
  BuiltinEval,   ///< A builtin goal was evaluated.
  DepthLimit,    ///< A branch was pruned by the depth limit.
  DeadlineExpired, ///< A query's deadline passed; the search fails fast.
  SpanBegin,     ///< A named phase started (Label holds the name).
  SpanEnd,       ///< The innermost open phase ended.
};

/// Renders the kind as a short stable mnemonic ("tabled-call", ...).
const char *traceEventKindName(TraceEventKind K);

/// One traced engine transition. Events are POD and carry no owned memory:
/// Sym/Arity identify the predicate (Sym is meaningless for spans), Value
/// is a kind-specific payload (e.g. answer count at completion), and Label
/// is a static string naming spans and labeled events.
struct TraceEvent {
  TraceEventKind Kind;
  SymbolId Sym = 0;
  uint32_t Arity = 0;
  uint64_t TimeNs = 0; ///< Monotonic time since the tracer's epoch.
  uint64_t Value = 0;
  const char *Label = nullptr; ///< Static storage only; never freed.
  /// Query the event belongs to (Tracer::setQuery); 0 = no query scope.
  /// Long-lived services set this per protocol query so one shared trace
  /// buffer can be sliced per client request after the fact.
  uint64_t QueryId = 0;
};

/// Receives traced events. Implementations must tolerate being called at
/// engine hot-path frequency when attached.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent &E) = 0;
};

/// The emission front end the engine holds a pointer to. With no sink the
/// emit() calls reduce to a null test.
class Tracer {
public:
  Tracer() : Epoch(std::chrono::steady_clock::now()) {}

  /// Attaches (or, with nullptr, detaches) the sink. The caller keeps
  /// ownership; the sink must outlive its attachment.
  void setSink(TraceSink *S) { Sink = S; }
  TraceSink *sink() const { return Sink; }
  bool enabled() const { return Sink != nullptr; }

  /// Sets the query id stamped on every subsequent event (0 = unscoped).
  /// The engine calls this at each outermost solve() entry; it costs one
  /// store and nothing at all on the emit path beyond the existing copy.
  void setQuery(uint64_t Q) { CurQuery = Q; }
  uint64_t query() const { return CurQuery; }

  /// Nanoseconds since the tracer was constructed (monotonic clock).
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  /// Emits an instant event; a no-op without a sink.
  void emit(TraceEventKind K, SymbolId Sym, uint32_t Arity,
            uint64_t Value = 0, const char *Label = nullptr) {
    if (!Sink)
      return;
    TraceEvent E{K, Sym, Arity, nowNs(), Value, Label, CurQuery};
    Sink->event(E);
  }

  /// Emits a span boundary. \p Label must point to static storage.
  void beginSpan(const char *Label) {
#if LPA_TRACE_ASSERTS
    ++OpenSpans;
#endif
    emit(TraceEventKind::SpanBegin, 0, 0, 0, Label);
  }
  void endSpan(const char *Label) {
#if LPA_TRACE_ASSERTS
    assert(OpenSpans > 0 && "span end without a matching begin");
    --OpenSpans;
#endif
    emit(TraceEventKind::SpanEnd, 0, 0, 0, Label);
  }

#if LPA_TRACE_ASSERTS
  /// Open-span depth (only tracked in trace-assert builds).
  uint64_t openSpans() const { return OpenSpans; }
#endif

private:
  TraceSink *Sink = nullptr;
  uint64_t CurQuery = 0;
  std::chrono::steady_clock::time_point Epoch;
#if LPA_TRACE_ASSERTS
  uint64_t OpenSpans = 0;
#endif
};

/// Recording-sink tunables.
struct TraceOptions {
  /// 0 = buffer without bound (the default, unchanged behavior). N > 0 =
  /// bounded ring: keep only the *last* N events, counting every evicted
  /// event in RecordingSink::droppedCount(). Long fleet runs set this so a
  /// trace can stay attached without growing the buffer without bound.
  size_t MaxEvents = 0;
};

/// Buffers events in memory, for tests, post-hoc analysis, and the Chrome
/// trace exporter. Optionally bounded (TraceOptions::MaxEvents) with
/// keep-last semantics (KeepLastRing), so
///   droppedCount() + events().size() == total events ever received.
class RecordingSink : public TraceSink {
public:
  RecordingSink() = default;
  explicit RecordingSink(TraceOptions O) : Opts(O), Events(O.MaxEvents) {}

  void event(const TraceEvent &E) override;

  /// Buffered events in arrival order (in bounded mode: the kept window,
  /// oldest first). Linearizes the ring in place when it has wrapped.
  const std::vector<TraceEvent> &events() const { return Events.linear(); }
  void clear() { Events.clear(); }

  /// Events evicted by the bounded ring; 0 in unbounded mode.
  uint64_t droppedCount() const { return Events.evicted(); }
  const TraceOptions &options() const { return Opts; }

  /// Number of buffered events of \p K (kept window only).
  size_t count(TraceEventKind K) const {
    return Events.countIf([K](const TraceEvent &E) { return E.Kind == K; });
  }

private:
  TraceOptions Opts;
  KeepLastRing<TraceEvent> Events;
#if LPA_TRACE_ASSERTS
  uint64_t LastTimeNs = 0;
#endif
};

/// Prints one line per event to a stdio stream — the REPL's ":trace on"
/// sink. Resolves predicate names through the symbol table it was given.
class PrintSink : public TraceSink {
public:
  PrintSink(const SymbolTable &Symbols, std::FILE *Out)
      : Symbols(Symbols), Out(Out) {}

  void event(const TraceEvent &E) override;

private:
  const SymbolTable &Symbols;
  std::FILE *Out;
};

/// Serializes recorded events as a Chrome trace ("chrome://tracing" /
/// Perfetto "traceEvents" JSON): spans become B/E duration events and
/// instant events become "i" events, so a tabled evaluation can be read as
/// a timeline. Timestamps are microseconds from the tracer epoch.
/// \p Dropped is the recording ring's eviction count: when nonzero the
/// export leads with a "trace-truncated" instant event carrying it and
/// records the total in a top-level "droppedEvents" member, so a bounded
/// ring's window is never presented as the complete trace.
std::string formatChromeTrace(const std::vector<TraceEvent> &Events,
                              const SymbolTable &Symbols,
                              uint64_t Dropped = 0);

/// One worker's buffered events for the stitched multi-thread export.
struct ThreadTrace {
  uint64_t Tid = 1;
  std::vector<TraceEvent> Events;
  /// RecordingSink::droppedCount() of this worker's ring; surfaced as a
  /// per-lane "trace-truncated" event and summed into "droppedEvents".
  uint64_t Dropped = 0;
};

/// Stitches per-worker trace buffers into one Chrome trace, each buffer on
/// its own tid lane. \p Symbols may be null: parallel corpus runs give each
/// job a private SymbolTable that dies with the job, so predicate SymbolIds
/// are unresolvable after the fact and events fall back to "kind #sym/arity"
/// names (span labels, which are static strings, render normally).
std::string formatChromeTraceThreads(const std::vector<ThreadTrace> &Threads,
                                     const SymbolTable *Symbols);

} // namespace lpa

#endif // LPA_OBS_TRACE_H
