//===- Trace.cpp - SLG event tracing ------------------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include "obs/Json.h"

#include <cstdio>

using namespace lpa;

const char *lpa::traceEventKindName(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::TabledCall: return "tabled-call";
  case TraceEventKind::SubgoalNew: return "subgoal-new";
  case TraceEventKind::AnswerNew: return "answer-new";
  case TraceEventKind::AnswerDup: return "answer-dup";
  case TraceEventKind::SubgoalComplete: return "subgoal-complete";
  case TraceEventKind::ClauseResolve: return "clause-resolve";
  case TraceEventKind::BuiltinEval: return "builtin-eval";
  case TraceEventKind::DepthLimit: return "depth-limit";
  case TraceEventKind::DeadlineExpired: return "deadline-expired";
  case TraceEventKind::SpanBegin: return "span-begin";
  case TraceEventKind::SpanEnd: return "span-end";
  }
  return "unknown";
}

void RecordingSink::event(const TraceEvent &E) {
#if LPA_TRACE_ASSERTS
  // Self-check: time must be monotone within one recording. The ring can
  // evict the previous event, so track the last arrival separately.
  assert((Events.size() == 0 || LastTimeNs <= E.TimeNs) &&
         "trace events out of time order");
  LastTimeNs = E.TimeNs;
#endif
  Events.push(E);
}

void PrintSink::event(const TraceEvent &E) {
  switch (E.Kind) {
  case TraceEventKind::SpanBegin:
    std::fprintf(Out, "  [trace] >> %s\n", E.Label ? E.Label : "?");
    return;
  case TraceEventKind::SpanEnd:
    std::fprintf(Out, "  [trace] << %s\n", E.Label ? E.Label : "?");
    return;
  default:
    break;
  }
  std::fprintf(Out, "  [trace] %-16s %s/%u", traceEventKindName(E.Kind),
               Symbols.name(E.Sym).c_str(), E.Arity);
  if (E.Value)
    std::fprintf(Out, " (%llu)", static_cast<unsigned long long>(E.Value));
  std::fprintf(Out, "\n");
}

static void writeChromeEvents(JsonWriter &W,
                              const std::vector<TraceEvent> &Events,
                              const SymbolTable *Symbols, uint64_t Tid) {
  for (const TraceEvent &E : Events) {
    W.beginObject();
    std::string Name;
    if (E.Kind == TraceEventKind::SpanBegin ||
        E.Kind == TraceEventKind::SpanEnd) {
      Name = E.Label ? E.Label : "span";
    } else {
      Name = traceEventKindName(E.Kind);
      if (Symbols && E.Sym < Symbols->size()) {
        Name += ' ';
        Name += Symbols->name(E.Sym);
        Name += '/';
        Name += std::to_string(E.Arity);
      } else if (!Symbols) {
        // The producing run's SymbolTable is gone; keep the raw id so
        // lanes stay distinguishable in the viewer.
        Name += " #";
        Name += std::to_string(E.Sym);
        Name += '/';
        Name += std::to_string(E.Arity);
      }
    }
    W.member("name", std::string_view(Name));
    const char *Phase = "i";
    if (E.Kind == TraceEventKind::SpanBegin)
      Phase = "B";
    else if (E.Kind == TraceEventKind::SpanEnd)
      Phase = "E";
    W.member("ph", Phase);
    if (Phase[0] == 'i')
      W.member("s", "t"); // Instant scope: thread.
    W.member("ts", static_cast<double>(E.TimeNs) / 1e3);
    W.member("pid", uint64_t(1));
    W.member("tid", Tid);
    if (E.Value || E.QueryId) {
      W.key("args");
      W.beginObject();
      if (E.Value)
        W.member("value", E.Value);
      if (E.QueryId)
        W.member("query", E.QueryId);
      W.endObject();
    }
    W.endObject();
  }
}

/// Leads a lane with the ring's eviction count so a bounded recording is
/// visibly a window, not the whole run. Timestamped at the oldest kept
/// event: everything before that point is what was dropped.
static void writeDroppedEvent(JsonWriter &W,
                              const std::vector<TraceEvent> &Events,
                              uint64_t Dropped, uint64_t Tid) {
  if (!Dropped)
    return;
  W.beginObject();
  W.member("name", "trace-truncated");
  W.member("ph", "i");
  W.member("s", "t");
  uint64_t FirstNs = Events.empty() ? 0 : Events.front().TimeNs;
  W.member("ts", static_cast<double>(FirstNs) / 1e3);
  W.member("pid", uint64_t(1));
  W.member("tid", Tid);
  W.key("args");
  W.beginObject();
  W.member("dropped", Dropped);
  W.endObject();
  W.endObject();
}

std::string lpa::formatChromeTrace(const std::vector<TraceEvent> &Events,
                                   const SymbolTable &Symbols,
                                   uint64_t Dropped) {
  return formatChromeTraceThreads({{/*Tid=*/1, Events, Dropped}}, &Symbols);
}

std::string
lpa::formatChromeTraceThreads(const std::vector<ThreadTrace> &Threads,
                              const SymbolTable *Symbols) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  uint64_t TotalDropped = 0;
  for (const ThreadTrace &T : Threads) {
    writeDroppedEvent(W, T.Events, T.Dropped, T.Tid);
    writeChromeEvents(W, T.Events, Symbols, T.Tid);
    TotalDropped += T.Dropped;
  }
  W.endArray();
  W.member("displayTimeUnit", "ms");
  if (TotalDropped)
    W.member("droppedEvents", TotalDropped);
  W.endObject();
  return Out;
}
