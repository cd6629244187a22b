//===- Sampler.h - Wall-clock sampling profiler -----------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A low-overhead wall-clock sampling profiler for the SLG engine. The
/// event tracer (Trace.h) answers "what happened" but costs one sink call
/// per engine transition — too much to leave on. This profiler inverts the
/// cost: the engine *publishes* its position (the producer-call stack, the
/// evaluation phase, and cheap table gauges) into an EvalCursor — a
/// seqlock-style slot of a few atomic stores per update — and a
/// background Sampler thread *reads* the slot at a configurable rate
/// (default ~1 kHz), aggregating what it sees into collapsed call-path
/// stacks keyed by predicate. Evaluation never blocks and never allocates
/// on behalf of the profiler.
///
/// The engine reaches the cursor through its EvalObserver; a publish is a
/// handful of atomic stores — no locks, no CAS.
///
/// Concurrency (the TSan story, DESIGN.md §12): every payload field of the
/// cursor is a std::atomic, so the racing sampler read is *not* a data
/// race under the C++ memory model — there is nothing for TSan to flag.
/// The sequence counter only provides *cross-field consistency*: the
/// writer stores seq+1 (odd), then the payload, then seq+2 (even); the
/// reader rereads until it observes one even value on both sides of its
/// payload loads, and gives up as "torn" after a bounded number of retries
/// rather than spinning against a busy writer. The ordering uses no
/// standalone fence, which TSan does not model: payload stores are
/// releases and payload loads acquires, so a reader that sees any payload
/// of a write also sees that write's odd seq in its second seq load.
///
/// Exports: folded-stack text ("lane;pred/2;inner/3;[phase] COUNT" — feed
/// straight to flamegraph.pl or speedscope) and a JSON profile block for
/// the bench trajectory files. Predicate names resolve through an optional
/// SymbolTable and fall back to "#sym/arity" (same convention as the
/// Chrome-trace stitcher) when the producing run's table is gone.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_SAMPLER_H
#define LPA_OBS_SAMPLER_H

#include "term/Symbol.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace lpa {

class JsonWriter;

/// What the engine is doing at the sampled instant. Coarse by design: the
/// three SLG activities the paper's cost model distinguishes, plus idle.
enum class EvalPhase : uint8_t {
  Idle = 0, ///< No producer active (between queries, or off-engine work).
  Resolve,  ///< Program-clause resolution inside a producer.
  Answer,   ///< Returning recorded answers to a consumer.
  Complete, ///< SCC completion: marking tables complete, freeing frontiers.
};

/// Short stable mnemonic ("idle", "resolve", "answer", "complete").
const char *evalPhaseName(EvalPhase P);

/// The seqlock-style slot one Solver publishes its position through.
/// Single writer (the engine thread that owns the solver), any number of
/// readers (in practice one Sampler). See the file comment for the memory
/// model; the short version is that payload fields are atomics stored
/// with release and loaded with acquire (so the race is benign and
/// TSan-checkable) and the Seq counter detects torn cross-field snapshots.
class EvalCursor {
public:
  /// Producer frames kept verbatim; deeper stacks publish their depth but
  /// truncate the frame window (the folded export marks the elision).
  static constexpr size_t MaxFrames = 32;

  /// \name Writer side — engine thread only.
  /// @{

  /// Pushes one producer frame (a subgoal's predicate) and flips the phase
  /// to Resolve (frames only exist while producers run).
  void pushFrame(SymbolId Sym, uint32_t Arity) {
    beginWrite();
    if (WDepth < MaxFrames)
      Frames[WDepth].store((uint64_t(Sym) << 32) | Arity,
                           std::memory_order_release);
    DepthSlot.store(++WDepth, std::memory_order_release);
    PhaseSlot.store(uint8_t(EvalPhase::Resolve), std::memory_order_release);
    endWrite();
  }

  void popFrame() {
    beginWrite();
    if (WDepth)
      --WDepth;
    DepthSlot.store(WDepth, std::memory_order_release);
    endWrite();
  }

  void setPhase(EvalPhase P) {
    beginWrite();
    PhaseSlot.store(uint8_t(P), std::memory_order_release);
    endWrite();
  }

  /// Publishes the query id the engine is currently serving (0 = none).
  /// Sampled stacks then fold per query, which is what lets a long-lived
  /// service attribute profile cost to individual client requests.
  void setQueryId(uint64_t Q) {
    beginWrite();
    QuerySlot.store(Q, std::memory_order_release);
    endWrite();
  }

  /// Publishes the cheap table gauges (term-store bytes, answers recorded,
  /// subgoals created). The sampler keeps per-lane maxima of these, so the
  /// profile carries table-space watermarks as seen from outside.
  void setGauges(uint64_t TableBytes, uint64_t Answers, uint64_t Subgoals) {
    beginWrite();
    GTableBytes.store(TableBytes, std::memory_order_release);
    GAnswers.store(Answers, std::memory_order_release);
    GSubgoals.store(Subgoals, std::memory_order_release);
    endWrite();
  }

  /// @}

  /// One consistent cursor observation.
  struct Snapshot {
    EvalPhase Phase = EvalPhase::Idle;
    uint32_t Depth = 0; ///< Logical producer depth (may exceed MaxFrames).
    uint64_t Frames[MaxFrames] = {}; ///< Packed sym<<32|arity, outermost first.
    uint64_t TableBytes = 0;
    uint64_t Answers = 0;
    uint64_t Subgoals = 0;
    uint64_t QueryId = 0; ///< Query being served at the instant (0 = none).

    size_t frameCount() const {
      return Depth < MaxFrames ? Depth : MaxFrames;
    }
  };

  /// Reader side: fills \p Out with a cross-field-consistent snapshot.
  /// \returns false ("torn") when \p MaxRetries attempts all raced a
  /// writer — the sampler then counts the miss instead of spinning.
  bool read(Snapshot &Out, int MaxRetries = 8) const;

private:
  /// The payload stores that follow are releases: whoever sees one of
  /// them also sees this odd seq.
  void beginWrite() { Seq.store(WSeq + 1, std::memory_order_relaxed); }
  void endWrite() {
    WSeq += 2;
    Seq.store(WSeq, std::memory_order_release);
  }

  std::atomic<uint32_t> Seq{0};
  std::atomic<uint8_t> PhaseSlot{uint8_t(EvalPhase::Idle)};
  std::atomic<uint32_t> DepthSlot{0};
  std::atomic<uint64_t> Frames[MaxFrames] = {};
  std::atomic<uint64_t> GTableBytes{0};
  std::atomic<uint64_t> GAnswers{0};
  std::atomic<uint64_t> GSubgoals{0};
  std::atomic<uint64_t> QuerySlot{0};
  /// Writer-private mirrors (single writer; saves the read-back).
  uint32_t WSeq = 0;
  uint32_t WDepth = 0;
};

/// Renders one packed sym<<32|arity frame as "name/arity", falling back to
/// "#sym/arity" when \p Symbols is null or the id is out of range.
std::string sampleFrameName(uint64_t Packed, const SymbolTable *Symbols);

/// Aggregated samples: one counter per distinct (lane, frame path, phase).
class SampleProfile {
public:
  struct Stack {
    uint32_t Lane = 0;
    std::vector<uint64_t> Frames; ///< Packed frames, outermost first.
    EvalPhase Phase = EvalPhase::Idle;
    uint64_t Count = 0;
    /// Deepest logical depth folded into this stack; > Frames.size() means
    /// the cursor's frame window truncated an even deeper stack.
    uint32_t MaxDepth = 0;
    /// Query the samples belonged to (EvalCursor::setQueryId); 0 = none.
    /// Part of the fold key, so a service's per-query stacks stay apart;
    /// batch runs never set it and see the historical single-key folding.
    uint64_t QueryId = 0;
  };

  /// Per-lane totals plus gauge maxima observed across the run — the
  /// sampled view of the table-space watermarks.
  struct Lane {
    std::string Label;
    uint64_t Samples = 0;
    uint64_t Torn = 0;
    uint64_t MaxTableBytes = 0;
    uint64_t MaxAnswers = 0;
    uint64_t MaxSubgoals = 0;
  };

  /// Registers (or finds) the lane named \p Label. Lane indices are dense.
  uint32_t addLane(std::string_view Label);

  /// Folds one snapshot into the aggregate. Depth 0 normalizes to the
  /// [idle] pseudo-stack regardless of the stale phase slot.
  void recordSample(uint32_t LaneIdx, const EvalCursor::Snapshot &S);
  /// Counts a read() that gave up against a busy writer.
  void recordTorn(uint32_t LaneIdx);

  uint64_t totalSamples() const { return TotalSamples; }
  uint64_t idleSamples() const { return IdleSamples; }
  uint64_t tornSamples() const { return TornSamples; }
  bool empty() const { return TotalSamples == 0 && TornSamples == 0; }

  const std::vector<Lane> &lanes() const { return Lanes; }

  /// Stacks sorted by count (desc), then lane, then path — deterministic
  /// for a given multiset of samples.
  std::vector<const Stack *> sortedStacks() const;

  /// Folds \p Other into this profile: lanes matched by label, stacks by
  /// (lane, path, phase); counts sum, gauge maxima widen.
  void mergeFrom(const SampleProfile &Other);

  void clear();

  /// Collapsed-stack text, one line per distinct path:
  ///   lane;outer/2;inner/3;[resolve] 42
  /// The bracketed leaf is the phase; "..." appears before the phase when
  /// the cursor's frame window truncated a deeper stack. Feed to
  /// flamegraph.pl / speedscope as-is. Lines are emitted in sortedStacks()
  /// order. \p Symbols may be null (see sampleFrameName).
  std::string formatFolded(const SymbolTable *Symbols) const;

  /// Emits one JSON object: totals, per-lane gauge maxima, and the top
  /// \p TopN stacks (0 = all) with resolved frame names.
  void writeJson(JsonWriter &W, const SymbolTable *Symbols,
                 size_t TopN = 0) const;

private:
  std::string stackKey(uint32_t LaneIdx, const EvalCursor::Snapshot &S) const;

  std::vector<Lane> Lanes;
  std::vector<Stack> Stacks;
  std::unordered_map<std::string, size_t> StackIndex;
  uint64_t TotalSamples = 0;
  uint64_t IdleSamples = 0;
  uint64_t TornSamples = 0;
};

/// The background sampling thread. Register lanes (label + cursor) while
/// stopped, start(), run the workload, stop(), then read profile().
/// One Sampler can watch many cursors — the parallel fleet registers one
/// lane per worker and gets per-tid-style lanes in the folded output.
class Sampler {
public:
  struct Options {
    /// Sweep rate in samples per second per lane. Clamped to [1, 100000].
    uint32_t Hz = 1000;
    /// Boosted sweep rate used while the watched alarm counter (see
    /// setAlarmSource) has advanced past the armed baseline — i.e. the
    /// flight recorder saw a deadline-at-risk or incomplete-taint event in
    /// the query being served. 0 = auto (8x Hz, clamped to 100000).
    uint32_t BoostHz = 0;
  };

  Sampler() : Sampler(Options{1000, 0}) {}
  explicit Sampler(Options O);
  ~Sampler(); ///< Stops the thread if still running.

  Sampler(const Sampler &) = delete;
  Sampler &operator=(const Sampler &) = delete;

  /// Registers \p Cursor under \p Label. Must be called while stopped; the
  /// cursor must outlive the sampler's running interval.
  void addLane(std::string_view Label, const EvalCursor *Cursor);

  void start();
  /// Joins the thread; idempotent. profile() is stable once stopped.
  void stop();
  bool running() const { return Thread.joinable(); }

  uint32_t hz() const { return Opts.Hz; }
  uint32_t boostHz() const { return Opts.BoostHz; }
  const SampleProfile &profile() const { return Profile; }
  SampleProfile takeProfile() { return std::move(Profile); }

  /// \name Recorder-driven adaptive sampling.
  /// The daemon points the sampler at the flight recorder's alarm counter
  /// (FlightRecorder::alarmCounter) and arms a baseline at query start;
  /// once the recorder logs a deadline-at-risk or incomplete-taint event
  /// the counter passes the baseline and every subsequent sweep of this
  /// query runs at BoostHz — denser stacks exactly where the post-mortem
  /// will want them. All state is atomic: the session thread arms/disarms
  /// while the sampler thread polls.
  /// @{

  /// Watches \p Counter (may be null to detach). Call while stopped.
  void setAlarmSource(const std::atomic<uint64_t> *Counter) {
    AlarmSource = Counter;
  }

  /// Arms the boost trigger: sweeps run at BoostHz while the watched
  /// counter exceeds \p Baseline.
  void armBoostBaseline(uint64_t Baseline) {
    BoostBaseline.store(Baseline, std::memory_order_relaxed);
    BoostArmed.store(true, std::memory_order_relaxed);
  }
  void disarmBoost() { BoostArmed.store(false, std::memory_order_relaxed); }

  /// Sweep rate of the most recent sweep (Hz or BoostHz).
  uint32_t effectiveHz() const {
    return EffHz.load(std::memory_order_relaxed);
  }
  /// Sweeps that ran boosted since construction.
  uint64_t boostedSweeps() const {
    return BoostedSweeps.load(std::memory_order_relaxed);
  }

  /// @}

private:
  void run();

  Options Opts;
  struct LaneRef {
    const EvalCursor *Cursor;
    uint32_t LaneIdx;
  };
  std::vector<LaneRef> LaneRefs;
  SampleProfile Profile;
  const std::atomic<uint64_t> *AlarmSource = nullptr;
  std::atomic<uint64_t> BoostBaseline{0};
  std::atomic<bool> BoostArmed{false};
  std::atomic<uint32_t> EffHz{0};
  std::atomic<uint64_t> BoostedSweeps{0};
  std::thread Thread;
  std::mutex Mu;
  std::condition_variable Cv;
  bool StopRequested = false;
};

} // namespace lpa

#endif // LPA_OBS_SAMPLER_H
