//===- Sampler.cpp - Wall-clock sampling profiler -----------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "obs/Sampler.h"

#include "obs/Json.h"

#include <algorithm>
#include <chrono>

using namespace lpa;

const char *lpa::evalPhaseName(EvalPhase P) {
  switch (P) {
  case EvalPhase::Idle: return "idle";
  case EvalPhase::Resolve: return "resolve";
  case EvalPhase::Answer: return "answer";
  case EvalPhase::Complete: return "complete";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// EvalCursor
//===----------------------------------------------------------------------===//

bool EvalCursor::read(Snapshot &Out, int MaxRetries) const {
  // Acquire payload loads: seeing any store of a write that began after S1
  // makes its odd seq visible to the second seq load, and keeps that load
  // after them.
  constexpr auto Acq = std::memory_order_acquire;
  for (int R = 0; R < MaxRetries; ++R) {
    uint32_t S1 = Seq.load(Acq);
    if (S1 & 1)
      continue; // Mid-write; retry.
    Out.Phase = static_cast<EvalPhase>(PhaseSlot.load(Acq));
    uint32_t D = DepthSlot.load(Acq);
    Out.Depth = D;
    size_t N = D < MaxFrames ? D : MaxFrames;
    for (size_t I = 0; I < N; ++I)
      Out.Frames[I] = Frames[I].load(Acq);
    Out.TableBytes = GTableBytes.load(Acq);
    Out.Answers = GAnswers.load(Acq);
    Out.Subgoals = GSubgoals.load(Acq);
    Out.QueryId = QuerySlot.load(Acq);
    if (Seq.load(std::memory_order_relaxed) == S1)
      return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// SampleProfile
//===----------------------------------------------------------------------===//

std::string lpa::sampleFrameName(uint64_t Packed, const SymbolTable *Symbols) {
  SymbolId Sym = static_cast<SymbolId>(Packed >> 32);
  uint32_t Arity = static_cast<uint32_t>(Packed & 0xffffffffu);
  std::string Out;
  if (Symbols && Sym < Symbols->size())
    Out = Symbols->name(Sym);
  else
    Out = "#" + std::to_string(Sym);
  Out += '/';
  Out += std::to_string(Arity);
  return Out;
}

uint32_t SampleProfile::addLane(std::string_view Label) {
  for (size_t I = 0; I < Lanes.size(); ++I)
    if (Lanes[I].Label == Label)
      return static_cast<uint32_t>(I);
  Lanes.push_back({std::string(Label), 0, 0, 0, 0, 0});
  return static_cast<uint32_t>(Lanes.size() - 1);
}

std::string SampleProfile::stackKey(uint32_t LaneIdx,
                                    const EvalCursor::Snapshot &S) const {
  // Lane + query + phase + the raw frame words; frames of distinct
  // predicates never collide because the packed word is the identity.
  std::string Key;
  size_t N = S.frameCount();
  Key.reserve(24 + N * sizeof(uint64_t));
  Key.append(reinterpret_cast<const char *>(&LaneIdx), sizeof(LaneIdx));
  Key.append(reinterpret_cast<const char *>(&S.QueryId), sizeof(S.QueryId));
  Key.push_back(static_cast<char>(S.Depth > 0 ? S.Phase : EvalPhase::Idle));
  for (size_t I = 0; I < N; ++I)
    Key.append(reinterpret_cast<const char *>(&S.Frames[I]),
               sizeof(uint64_t));
  return Key;
}

void SampleProfile::recordSample(uint32_t LaneIdx,
                                 const EvalCursor::Snapshot &S) {
  ++TotalSamples;
  Lane &L = Lanes.at(LaneIdx);
  ++L.Samples;
  L.MaxTableBytes = std::max(L.MaxTableBytes, S.TableBytes);
  L.MaxAnswers = std::max(L.MaxAnswers, S.Answers);
  L.MaxSubgoals = std::max(L.MaxSubgoals, S.Subgoals);
  if (S.Depth == 0)
    ++IdleSamples;

  std::string Key = stackKey(LaneIdx, S);
  auto [It, Inserted] = StackIndex.try_emplace(Key, Stacks.size());
  if (Inserted) {
    Stack St;
    St.Lane = LaneIdx;
    St.Frames.assign(S.Frames, S.Frames + S.frameCount());
    St.Phase = S.Depth > 0 ? S.Phase : EvalPhase::Idle;
    St.QueryId = S.QueryId;
    Stacks.push_back(std::move(St));
  }
  Stack &St = Stacks[It->second];
  ++St.Count;
  St.MaxDepth = std::max(St.MaxDepth, S.Depth);
}

void SampleProfile::recordTorn(uint32_t LaneIdx) {
  ++TornSamples;
  ++Lanes.at(LaneIdx).Torn;
}

std::vector<const SampleProfile::Stack *> SampleProfile::sortedStacks() const {
  std::vector<const Stack *> Out;
  Out.reserve(Stacks.size());
  for (const Stack &S : Stacks)
    Out.push_back(&S);
  std::sort(Out.begin(), Out.end(), [](const Stack *A, const Stack *B) {
    if (A->Count != B->Count)
      return A->Count > B->Count;
    if (A->Lane != B->Lane)
      return A->Lane < B->Lane;
    if (A->Frames != B->Frames)
      return A->Frames < B->Frames;
    return A->Phase < B->Phase;
  });
  return Out;
}

void SampleProfile::mergeFrom(const SampleProfile &Other) {
  // Lane indices are profile-private; labels are the stable identity
  // (mirroring MetricsRegistry::mergeFrom's Name+Arity matching).
  std::vector<uint32_t> LaneMap(Other.Lanes.size());
  for (size_t I = 0; I < Other.Lanes.size(); ++I) {
    const Lane &From = Other.Lanes[I];
    uint32_t To = addLane(From.Label);
    LaneMap[I] = To;
    Lane &L = Lanes[To];
    L.Samples += From.Samples;
    L.Torn += From.Torn;
    L.MaxTableBytes = std::max(L.MaxTableBytes, From.MaxTableBytes);
    L.MaxAnswers = std::max(L.MaxAnswers, From.MaxAnswers);
    L.MaxSubgoals = std::max(L.MaxSubgoals, From.MaxSubgoals);
  }
  for (const Stack &From : Other.Stacks) {
    EvalCursor::Snapshot S;
    S.Phase = From.Phase;
    S.Depth = From.MaxDepth;
    S.QueryId = From.QueryId;
    size_t N = std::min(From.Frames.size(), EvalCursor::MaxFrames);
    std::copy_n(From.Frames.begin(), N, S.Frames);
    std::string Key = stackKey(LaneMap[From.Lane], S);
    auto [It, Inserted] = StackIndex.try_emplace(Key, Stacks.size());
    if (Inserted) {
      Stack St = From;
      St.Lane = LaneMap[From.Lane];
      Stacks.push_back(std::move(St));
    } else {
      Stack &St = Stacks[It->second];
      St.Count += From.Count;
      St.MaxDepth = std::max(St.MaxDepth, From.MaxDepth);
    }
  }
  TotalSamples += Other.TotalSamples;
  IdleSamples += Other.IdleSamples;
  TornSamples += Other.TornSamples;
}

void SampleProfile::clear() { *this = SampleProfile(); }

std::string SampleProfile::formatFolded(const SymbolTable *Symbols) const {
  std::string Out;
  for (const Stack *S : sortedStacks()) {
    Out += Lanes[S->Lane].Label;
    if (S->QueryId) { // Query-scoped samples carry their own fold segment.
      Out += ";q";
      Out += std::to_string(S->QueryId);
    }
    for (uint64_t F : S->Frames) {
      Out += ';';
      Out += sampleFrameName(F, Symbols);
    }
    if (S->MaxDepth > S->Frames.size())
      Out += ";..."; // Frame window truncated a deeper stack.
    Out += ";[";
    Out += evalPhaseName(S->Phase);
    Out += "] ";
    Out += std::to_string(S->Count);
    Out += '\n';
  }
  return Out;
}

void SampleProfile::writeJson(JsonWriter &W, const SymbolTable *Symbols,
                              size_t TopN) const {
  W.beginObject();
  W.member("total_samples", TotalSamples);
  W.member("idle_samples", IdleSamples);
  W.member("torn_samples", TornSamples);

  W.key("lanes");
  W.beginArray();
  for (const Lane &L : Lanes) {
    W.beginObject();
    W.member("label", std::string_view(L.Label));
    W.member("samples", L.Samples);
    W.member("torn", L.Torn);
    W.member("max_table_bytes", L.MaxTableBytes);
    W.member("max_answers", L.MaxAnswers);
    W.member("max_subgoals", L.MaxSubgoals);
    W.endObject();
  }
  W.endArray();

  W.key("stacks");
  W.beginArray();
  std::vector<const Stack *> Sorted = sortedStacks();
  size_t N = TopN && TopN < Sorted.size() ? TopN : Sorted.size();
  for (size_t I = 0; I < N; ++I) {
    const Stack *S = Sorted[I];
    W.beginObject();
    W.member("lane", std::string_view(Lanes[S->Lane].Label));
    W.key("frames");
    W.beginArray();
    for (uint64_t F : S->Frames)
      W.value(std::string_view(sampleFrameName(F, Symbols)));
    W.endArray();
    W.member("phase", evalPhaseName(S->Phase));
    W.member("count", S->Count);
    W.member("max_depth", static_cast<uint64_t>(S->MaxDepth));
    if (S->QueryId)
      W.member("query", S->QueryId);
    W.endObject();
  }
  W.endArray();

  W.endObject();
}

//===----------------------------------------------------------------------===//
// Sampler
//===----------------------------------------------------------------------===//

Sampler::Sampler(Options O) : Opts(O) {
  if (Opts.Hz < 1)
    Opts.Hz = 1;
  if (Opts.Hz > 100000)
    Opts.Hz = 100000;
  if (!Opts.BoostHz)
    Opts.BoostHz = Opts.Hz * 8;
  if (Opts.BoostHz < Opts.Hz)
    Opts.BoostHz = Opts.Hz;
  if (Opts.BoostHz > 100000)
    Opts.BoostHz = 100000;
  EffHz.store(Opts.Hz, std::memory_order_relaxed);
}

Sampler::~Sampler() { stop(); }

void Sampler::addLane(std::string_view Label, const EvalCursor *Cursor) {
  LaneRefs.push_back({Cursor, Profile.addLane(Label)});
}

void Sampler::start() {
  if (Thread.joinable())
    return;
  StopRequested = false;
  Thread = std::thread([this] { run(); });
}

void Sampler::stop() {
  if (!Thread.joinable())
    return;
  {
    std::lock_guard<std::mutex> L(Mu);
    StopRequested = true;
  }
  Cv.notify_all();
  Thread.join();
}

void Sampler::run() {
  using Clock = std::chrono::steady_clock;
  auto Period = std::chrono::nanoseconds(1000000000ull / Opts.Hz);
  auto Next = Clock::now() + Period;
  std::unique_lock<std::mutex> L(Mu);
  while (!Cv.wait_until(L, Next, [this] { return StopRequested; })) {
    // The engine never touches Profile and lanes are frozen while running,
    // so sampling needs no synchronization beyond the cursor protocol.
    L.unlock();
    for (const LaneRef &LR : LaneRefs) {
      EvalCursor::Snapshot S;
      if (LR.Cursor->read(S))
        Profile.recordSample(LR.LaneIdx, S);
      else
        Profile.recordTorn(LR.LaneIdx);
    }
    // Adaptive rate: once the armed alarm counter advances past its
    // baseline (the flight recorder logged a deadline/taint event for the
    // in-flight query), the remaining sweeps of that query run boosted.
    uint32_t Hz = Opts.Hz;
    if (AlarmSource && BoostArmed.load(std::memory_order_relaxed) &&
        AlarmSource->load(std::memory_order_relaxed) >
            BoostBaseline.load(std::memory_order_relaxed)) {
      Hz = Opts.BoostHz;
      BoostedSweeps.fetch_add(1, std::memory_order_relaxed);
    }
    EffHz.store(Hz, std::memory_order_relaxed);
    Period = std::chrono::nanoseconds(1000000000ull / Hz);
    auto Now = Clock::now();
    Next += Period;
    if (Next < Now) // Fell behind (suspended/overloaded): resynchronize.
      Next = Now + Period;
    L.lock();
  }
}
