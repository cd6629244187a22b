//===- FlightRecorder.h - Always-on query-lifecycle journal -----*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's black box: a bounded, always-on ring journal of coarse
/// query-lifecycle events — query start/end with outcome flags, consult/
/// retract sweep summaries, shared-space contention spikes, deadline and
/// incomplete-table anomalies — that costs nothing on the happy path and
/// is already full of context when something goes wrong.
///
/// Unlike the tracer (per-SLG-transition, opt-in, high volume), the
/// recorder sees a handful of events per *request*, so it can stay
/// attached for a month-long daemon uptime at a constant footprint. The
/// engine reaches it through its observer (EvalObserver).
///
/// The ring is a KeepLastRing, as in RecordingSink's bounded mode: every
/// eviction counted, so
///   droppedCount() + events().size() == totalRecorded().
///
/// Anomaly dumps: dump() writes the ring plus caller-supplied gauges and
/// folded sampler stacks to a timestamped post-mortem file (bounded by
/// Options::MaxDumps per process life). For fatal signals there is a
/// separate async-signal-safe path: installSignalDump() arms a handler
/// that formats the ring with nothing but static buffers and write(2),
/// then re-raises with the default disposition. Events are PODs with an
/// inline Detail array precisely so that path never chases a pointer into
/// possibly-corrupt heap memory.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_FLIGHTRECORDER_H
#define LPA_OBS_FLIGHTRECORDER_H

#include "support/KeepLastRing.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lpa {

class JsonWriter;

/// The recorder's event taxonomy — request-granular, deliberately coarse.
enum class FrEventKind : uint8_t {
  QueryStart,      ///< An outermost query began (Detail = goal text).
  QueryEnd,        ///< It finished; Flags carry the outcome bits.
  ConsultSweep,    ///< A consult ran (A = clauses, B = invalidated, C = survived).
  RetractSweep,    ///< A retract ran (same payload as ConsultSweep).
  ContentionSpike, ///< Shard-lock contention within one query (A = contended
                   ///< acquisitions, B = wait ns).
  DeadlineHit,     ///< A query deadline expired mid-search (A = depth).
  IncompleteTable, ///< A table completed tainted (A = subgoal ordinal,
                   ///< Detail = predicate).
  FingerprintDivergence, ///< Serial/parallel answer fingerprints disagreed.
};

/// Short stable mnemonic ("query-start", ...) — used by both the JSON
/// export and the signal-safe raw dump (static storage).
const char *frEventKindName(FrEventKind K);

/// Outcome bits stamped on QueryEnd events.
enum : uint32_t {
  FrOutcomeDeadline = 1u << 0,   ///< The deadline expired mid-search.
  FrOutcomeIncomplete = 1u << 1, ///< A table completed tainted.
};

/// One journal entry. POD with inline text: the signal-dump path walks
/// these with write(2) only, so nothing here may point at heap memory.
struct FrEvent {
  FrEventKind Kind = FrEventKind::QueryStart;
  uint32_t Flags = 0;  ///< Kind-specific bits (QueryEnd: FrOutcome*).
  uint64_t TimeNs = 0; ///< Monotonic time since the recorder's epoch.
  uint64_t QueryId = 0;
  uint64_t A = 0, B = 0, C = 0; ///< Kind-specific payloads (see FrEventKind).
  /// Truncated free text (goal, predicate, reason). Always NUL-terminated.
  char Detail[48] = {};
};

/// The bounded journal. Not thread-safe: it records from the session
/// thread only (the daemon is a single-threaded event loop), which is
/// also what makes the ring readable from a signal handler interrupting
/// that same thread.
class FlightRecorder {
public:
  struct Options {
    /// Ring capacity; 0 = unbounded (tests/tools only — the daemon always
    /// bounds it).
    size_t Capacity = 256;
    /// Directory post-mortem files go to; "" disables dump() entirely
    /// (the ring itself still records).
    std::string DumpDir;
    /// Dumps written per recorder life; further anomalies only count.
    size_t MaxDumps = 16;
  };

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(Options O);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder &) = delete;
  FlightRecorder &operator=(const FlightRecorder &) = delete;

  /// Appends one event (keep-last eviction when full). \p Detail is
  /// copied into the event's inline array, truncated to fit.
  void record(FrEventKind K, uint64_t QueryId, uint64_t A = 0, uint64_t B = 0,
              uint64_t C = 0, uint32_t Flags = 0,
              std::string_view Detail = {});

  void noteFingerprintDivergence(uint64_t QueryId, std::string_view What) {
    record(FrEventKind::FingerprintDivergence, QueryId, 0, 0, 0, 0, What);
  }

  /// Kept events in arrival order (oldest first). Linearizes the ring in
  /// place when it has wrapped, exactly like RecordingSink::events().
  const std::vector<FrEvent> &events() const { return Events.linear(); }

  /// \name Anomaly alarms — deadline-at-risk and incomplete-taint events.
  /// The counter is atomic so the Sampler thread can watch it lock-free
  /// and boost its sweep rate for the remainder of an at-risk query
  /// (adaptive sampling; see Sampler::setAlarmSource).
  /// @{
  uint64_t alarmCount() const {
    return Alarms.load(std::memory_order_relaxed);
  }
  const std::atomic<uint64_t> *alarmCounter() const { return &Alarms; }
  /// @}

  /// Events evicted by the ring; 0 while it has never filled.
  uint64_t droppedCount() const { return Events.evicted(); }
  /// Every event ever recorded: droppedCount() + events().size().
  uint64_t totalRecorded() const { return Events.evicted() + Events.size(); }
  /// Kept events of kind \p K.
  size_t count(FrEventKind K) const {
    return Events.countIf([K](const FrEvent &E) { return E.Kind == K; });
  }
  /// Kept events belonging to query \p QueryId, oldest first.
  std::vector<FrEvent> eventsForQuery(uint64_t QueryId) const;

  void clear();

  const Options &options() const { return Opts; }

  /// Nanoseconds since construction (monotonic clock).
  uint64_t nowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  /// \name Post-mortem dumps.
  /// @{

  /// Writes the whole journal to \p Fd as text, one event per line, using
  /// only write(2) and stack buffers — async-signal-safe, no allocation,
  /// no stdio, no linearization (the ring is walked in place).
  void writeRawTo(int Fd) const;

  /// Writes a full post-mortem — header with \p Reason, the journal, the
  /// caller's \p Gauges (table watermarks and friends), and \p
  /// FoldedStacks (the sampler's folded profile, may be empty) — to a
  /// timestamped file under Options::DumpDir. NOT signal-safe; this is
  /// the in-band anomaly path (deadline, taint, divergence).
  /// \returns the path written, or "" when disabled, rate-capped, or the
  /// write failed.
  std::string
  dump(std::string_view Reason,
       std::initializer_list<std::pair<const char *, uint64_t>> Gauges,
       std::string_view FoldedStacks);

  /// Dump files written so far (dump() successes plus a signal dump).
  uint64_t dumpsWritten() const { return Dumps; }

  /// Arms process-wide fatal-signal handlers (SIGSEGV/SIGBUS/SIGFPE/
  /// SIGABRT) that write \p R's ring to
  /// "<DumpDir>/lpa-postmortem-signal.txt" via the raw path above and
  /// re-raise with the default disposition. The handlers run on an
  /// alternate stack installed once for the calling thread, so a stack
  /// overflow on that thread still leaves its post-mortem. Pass nullptr to
  /// disarm (the
  /// handlers stay installed but become pass-through). Only one recorder
  /// can be armed at a time; the last call wins. No-op when \p R has no
  /// DumpDir.
  static void installSignalDump(FlightRecorder *R);

  /// @}

  /// Emits the journal as a JSON object ({capacity, total, dropped,
  /// dumps, events:[...]}) into \p W — the `inspect` op's recorder block.
  void writeJson(JsonWriter &W, size_t MaxEvents = 0) const;

private:
  Options Opts;
  KeepLastRing<FrEvent> Events;
  uint64_t Dumps = 0;
  std::atomic<uint64_t> Alarms{0};
  std::chrono::steady_clock::time_point Epoch;
};

} // namespace lpa

#endif // LPA_OBS_FLIGHTRECORDER_H
