//===- Harness.cpp - Benchmark machinery shared by every workload ---------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "obs/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sys/resource.h>

using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t perfbench::streamSeed(uint64_t Seed, uint64_t Stream) {
  Rng R(Seed ^ (Stream * 0xd1b54a32d192ed03ull));
  return R.next();
}

std::vector<size_t> perfbench::shuffledOrder(uint64_t Seed, size_t N) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  return Order;
}

double perfbench::nowUs() {
  static const auto Origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Origin)
      .count();
}

Quantile perfbench::nearestRank(std::vector<double> Samples, double Pct) {
  if (Samples.empty())
    return {};
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  size_t Rank = static_cast<size_t>(std::ceil(Pct / 100.0 * double(N)));
  Rank = std::clamp<size_t>(Rank, 1, N);
  return {Samples[Rank - 1], N};
}

std::vector<double> RepeatedOps::quietEach() const {
  return quietWhere([](size_t) { return true; });
}

double RepeatedOps::quietSum() const {
  double Sum = 0;
  for (double V : quietEach())
    Sum += V;
  return Sum;
}

int64_t SpanRecorder::add(std::string Name, std::string Label, double StartUs,
                          double EndUs, int64_t Parent, uint64_t Group) {
  if (!Enabled)
    return -1;
  Spans.push_back(
      {std::move(Name), std::move(Label), StartUs, EndUs, Parent, Group});
  return static_cast<int64_t>(Spans.size()) - 1;
}

int64_t SpanRecorder::open(std::string Name, std::string Label,
                           int64_t Parent, uint64_t Group) {
  if (!Enabled)
    return -1;
  double Now = nowUs();
  return add(std::move(Name), std::move(Label), Now, Now, Parent, Group);
}

void SpanRecorder::close(int64_t Index) {
  if (Index >= 0)
    Spans[static_cast<size_t>(Index)].EndUs = nowUs();
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  std::error_code EC;
  std::filesystem::path P(Path);
  if (P.has_parent_path())
    std::filesystem::create_directories(P.parent_path(), EC);
  std::string Out;
  lpa::JsonWriter W(Out);
  W.beginObject();
  W.member("displayTimeUnit", "ms");
  W.key("traceEvents");
  W.beginArray();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    W.beginObject();
    W.member("name", S.Label.empty() ? S.Name : S.Name + " " + S.Label);
    W.member("cat", "perfbench");
    W.member("ph", "X");
    W.member("ts", S.StartUs);
    W.member("dur", S.durationUs());
    W.member("pid", uint64_t(1));
    W.member("tid", uint64_t(1));
    W.key("args");
    W.beginObject();
    W.member("span", uint64_t(I));
    W.member("parent", int64_t(S.Parent));
    W.member("group", S.Group);
    W.endObject();
    W.endObject();
  }
  W.endArray();
  W.endObject();
  std::ofstream F(Path, std::ios::binary);
  F << Out << '\n';
  return bool(F);
}

std::vector<double> perfbench::selfTimesUs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0 && size_t(S.Parent) < Spans.size())
      Kids[size_t(S.Parent)].push_back({S.StartUs, S.EndUs});
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    double Covered = 0, RunStart = 0, RunEnd = 0;
    bool InRun = false;
    for (auto [B, E] : K) {
      B = std::max(B, P.StartUs);
      E = std::min(E, P.EndUs);
      if (E <= B)
        continue;
      if (InRun && B <= RunEnd) {
        RunEnd = std::max(RunEnd, E);
        continue;
      }
      if (InRun)
        Covered += RunEnd - RunStart;
      RunStart = B;
      RunEnd = E;
      InRun = true;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    Self[I] = std::max(0.0, P.durationUs() - Covered);
  }
  return Self;
}

std::vector<std::string>
perfbench::selfTimeReport(const std::vector<Span> &Spans, size_t Passes) {
  std::vector<double> Self = selfTimesUs(Spans);
  std::map<std::string, std::pair<double, double>> ByName; // total, self
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto &E = ByName[Spans[I].Name];
    E.first += Spans[I].durationUs();
    E.second += Self[I];
  }
  std::vector<std::string> Lines = {"self time by span, ms per pass:"};
  double Div = double(std::max<size_t>(Passes, 1)) * 1e3;
  for (const auto &[Name, E] : ByName) {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "  %-12s total %10.3f  self %10.3f",
                  Name.c_str(), E.first / Div, E.second / Div);
    Lines.push_back(Buf);
  }
  return Lines;
}

bool ErrorLedger::check(bool Ok, std::string_view What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (First.size() < 5)
      First.emplace_back(What);
  }
  return Ok;
}

static std::string formatNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string perfbench::resultLine(const ErrorLedger &Errors,
                                  const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Errors.failed() == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Errors.attempted());
  Out += ", \"failed\": " + std::to_string(Errors.failed());
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    if (I)
      Out += ", ";
    Out += "\"" + M.Name + "\": {\"value\": " + formatNumber(M.Value) +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

uint64_t perfbench::fnv1a(std::string_view Text) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}
