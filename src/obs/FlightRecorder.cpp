//===- FlightRecorder.cpp - Always-on query-lifecycle journal -----------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"

#include "obs/Json.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

using namespace lpa;

const char *lpa::frEventKindName(FrEventKind K) {
  switch (K) {
  case FrEventKind::QueryStart:
    return "query-start";
  case FrEventKind::QueryEnd:
    return "query-end";
  case FrEventKind::ConsultSweep:
    return "consult-sweep";
  case FrEventKind::RetractSweep:
    return "retract-sweep";
  case FrEventKind::ContentionSpike:
    return "contention-spike";
  case FrEventKind::DeadlineHit:
    return "deadline-hit";
  case FrEventKind::IncompleteTable:
    return "incomplete-table";
  case FrEventKind::FingerprintDivergence:
    return "fingerprint-divergence";
  }
  return "?";
}

FlightRecorder::FlightRecorder(Options O)
    : Opts(std::move(O)), Events(Opts.Capacity),
      Epoch(std::chrono::steady_clock::now()) {
  Events.reserve();
}

void FlightRecorder::record(FrEventKind K, uint64_t QueryId, uint64_t A,
                            uint64_t B, uint64_t C, uint32_t Flags,
                            std::string_view Detail) {
  FrEvent E;
  E.Kind = K;
  E.Flags = Flags;
  E.TimeNs = nowNs();
  E.QueryId = QueryId;
  E.A = A;
  E.B = B;
  E.C = C;
  size_t N = std::min(Detail.size(), sizeof(E.Detail) - 1);
  if (N > 0) // An empty view's data() may be null, which memcpy forbids.
    std::memcpy(E.Detail, Detail.data(), N);
  E.Detail[N] = '\0';
  if (K == FrEventKind::DeadlineHit || K == FrEventKind::IncompleteTable)
    Alarms.fetch_add(1, std::memory_order_relaxed);
  Events.push(E);
}

std::vector<FrEvent> FlightRecorder::eventsForQuery(uint64_t QueryId) const {
  std::vector<FrEvent> Out;
  for (const FrEvent &E : events())
    if (E.QueryId == QueryId)
      Out.push_back(E);
  return Out;
}

void FlightRecorder::clear() { Events.clear(); }

//===----------------------------------------------------------------------===//
// Async-signal-safe raw dump
//===----------------------------------------------------------------------===//

namespace {

/// Fixed-size line assembler over write(2): everything the signal path
/// needs and nothing more (no allocation, no stdio, no locale).
struct RawWriter {
  int Fd;
  char Buf[256];
  size_t Len = 0;

  explicit RawWriter(int Fd) : Fd(Fd) {}

  void flush() {
    size_t Off = 0;
    while (Off < Len) {
      ssize_t W = ::write(Fd, Buf + Off, Len - Off);
      if (W <= 0)
        break;
      Off += static_cast<size_t>(W);
    }
    Len = 0;
  }

  void ch(char C) {
    if (Len == sizeof(Buf))
      flush();
    Buf[Len++] = C;
  }

  void str(const char *S) {
    for (; S && *S; ++S)
      ch(*S);
  }

  void u64(uint64_t V) {
    char Tmp[20];
    size_t N = 0;
    do {
      Tmp[N++] = static_cast<char>('0' + V % 10);
      V /= 10;
    } while (V);
    while (N)
      ch(Tmp[--N]);
  }
};

} // namespace

void FlightRecorder::writeRawTo(int Fd) const {
  RawWriter W(Fd);
  W.str("# lpa flight recorder: total=");
  W.u64(totalRecorded());
  W.str(" dropped=");
  W.u64(droppedCount());
  W.str(" kept=");
  W.u64(Events.size());
  W.ch('\n');
  // Walk the ring in place — no rotation, no mutation: this may run from
  // a signal handler.
  for (size_t I = 0; I < Events.size(); ++I) {
    const FrEvent &E = Events[I];
    W.u64(E.TimeNs);
    W.str(" q");
    W.u64(E.QueryId);
    W.ch(' ');
    W.str(frEventKindName(E.Kind));
    W.str(" flags=");
    W.u64(E.Flags);
    W.str(" a=");
    W.u64(E.A);
    W.str(" b=");
    W.u64(E.B);
    W.str(" c=");
    W.u64(E.C);
    if (E.Detail[0]) {
      W.ch(' ');
      W.str(E.Detail);
    }
    W.ch('\n');
  }
  W.flush();
}

//===----------------------------------------------------------------------===//
// In-band post-mortem dump
//===----------------------------------------------------------------------===//

std::string FlightRecorder::dump(
    std::string_view Reason,
    std::initializer_list<std::pair<const char *, uint64_t>> Gauges,
    std::string_view FoldedStacks) {
  if (Opts.DumpDir.empty() || Dumps >= Opts.MaxDumps)
    return {};

  // Millisecond wall timestamp + per-recorder sequence keeps names unique
  // even when anomalies land within the same millisecond.
  uint64_t WallMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  std::string Slug;
  for (char C : Reason)
    Slug += (std::isalnum(static_cast<unsigned char>(C)) ? C : '-');
  std::string Path = Opts.DumpDir + "/lpa-postmortem-" +
                     std::to_string(WallMs) + "-" + std::to_string(Dumps) +
                     "-" + Slug + ".txt";

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return {};
  std::fprintf(F, "lpa post-mortem dump\nreason: %.*s\nwall_ms: %llu\n",
               static_cast<int>(Reason.size()), Reason.data(),
               static_cast<unsigned long long>(WallMs));
  for (const auto &[Name, Value] : Gauges)
    std::fprintf(F, "%s: %llu\n", Name,
                 static_cast<unsigned long long>(Value));
  std::fprintf(F, "\n== flight recorder ==\n");
  std::fflush(F);
  writeRawTo(fileno(F));
  if (!FoldedStacks.empty())
    std::fprintf(F, "\n== sampler folded stacks ==\n%.*s",
                 static_cast<int>(FoldedStacks.size()), FoldedStacks.data());
  std::fclose(F);
  ++Dumps;
  return Path;
}

//===----------------------------------------------------------------------===//
// Fatal-signal dump
//===----------------------------------------------------------------------===//

namespace {

/// The armed recorder and its pre-formatted dump path. The path is built
/// at install time (installSignalDump is not a signal context) so the
/// handler itself only opens, writes and re-raises.
std::atomic<const FlightRecorder *> SigRecorder{nullptr};
char SigDumpPath[512];
/// The handler's own stack: a stack overflow leaves no room on the
/// faulting one.
alignas(16) char SigAltStack[1 << 16];

void fatalSignalHandler(int Sig) {
  const FlightRecorder *R = SigRecorder.load(std::memory_order_acquire);
  if (R) {
    int Fd = ::open(SigDumpPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd >= 0) {
      RawWriter W(Fd);
      W.str("# lpa fatal signal ");
      W.u64(static_cast<uint64_t>(Sig));
      W.str(Sig == SIGSEGV  ? " (SIGSEGV)\n"
            : Sig == SIGBUS ? " (SIGBUS)\n"
            : Sig == SIGFPE ? " (SIGFPE)\n"
                            : " (SIGABRT)\n");
      W.flush();
      R->writeRawTo(Fd);
      ::close(Fd);
    }
  }
  // Restore the default disposition and re-raise so the process still
  // dies with the original signal (core dumps, wait status intact).
  ::signal(Sig, SIG_DFL);
  ::raise(Sig);
}

} // namespace

void FlightRecorder::installSignalDump(FlightRecorder *R) {
  if (!R || R->Opts.DumpDir.empty()) {
    SigRecorder.store(nullptr, std::memory_order_release);
    return;
  }
  std::string Path = R->Opts.DumpDir + "/lpa-postmortem-signal.txt";
  if (Path.size() >= sizeof(SigDumpPath))
    return;
  std::memcpy(SigDumpPath, Path.c_str(), Path.size() + 1);
  SigRecorder.store(R, std::memory_order_release);
  // Alternate stacks are per thread: this one serves the calling
  // (serving) thread.
  stack_t SS;
  std::memset(&SS, 0, sizeof(SS));
  SS.ss_sp = SigAltStack;
  SS.ss_size = sizeof(SigAltStack);
  ::sigaltstack(&SS, nullptr);
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = fatalSignalHandler;
  SA.sa_flags = SA_ONSTACK;
  sigemptyset(&SA.sa_mask);
  for (int Sig : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT})
    ::sigaction(Sig, &SA, nullptr);
}

//===----------------------------------------------------------------------===//
// JSON export
//===----------------------------------------------------------------------===//

void FlightRecorder::writeJson(JsonWriter &W, size_t MaxEvents) const {
  const std::vector<FrEvent> &Evs = events();
  size_t From = MaxEvents && Evs.size() > MaxEvents ? Evs.size() - MaxEvents
                                                    : 0;
  W.beginObject();
  W.member("capacity", static_cast<uint64_t>(Opts.Capacity));
  W.member("total", totalRecorded());
  W.member("dropped", droppedCount());
  W.member("dumps", Dumps);
  W.key("events");
  W.beginArray();
  for (size_t I = From; I < Evs.size(); ++I) {
    const FrEvent &E = Evs[I];
    W.beginObject();
    W.member("kind", frEventKindName(E.Kind));
    W.member("time_ns", E.TimeNs);
    W.member("query", E.QueryId);
    if (E.Flags)
      W.member("flags", static_cast<uint64_t>(E.Flags));
    if (E.A)
      W.member("a", E.A);
    if (E.B)
      W.member("b", E.B);
    if (E.C)
      W.member("c", E.C);
    if (E.Detail[0])
      W.member("detail", std::string_view(E.Detail));
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

FlightRecorder::~FlightRecorder() {
  // Disarm the signal path if this recorder is the armed one — the
  // handler must never chase a dangling pointer.
  const FlightRecorder *Armed = SigRecorder.load(std::memory_order_acquire);
  if (Armed == this)
    SigRecorder.store(nullptr, std::memory_order_release);
}
