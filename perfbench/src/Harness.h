//===- Harness.h - Benchmark machinery shared by every workload -*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workload-independent half of the repository benchmark: a seeded
/// generator, nearest-rank percentiles, an in-memory span recorder with
/// self-time accounting and Chrome-trace export, the operation/error
/// ledger that feeds `error_rate`, and the result line the benchmark
/// prints. Everything here times calls into lpa from outside; nothing in
/// src/ is instrumented.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// What one benchmark invocation asks for.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory holding the golden fingerprint files.
  std::string GoldenDir = "perfbench/golden";
  /// Directory the traced run writes its Chrome trace into.
  std::string OutDir = ".bench_build/perfbench/out";
};

/// splitmix64: tiny, portable and fully determined by its seed (the
/// standard library's distributions are not portable across libraries).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N); N must be nonzero.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

/// Derives the seed of an independent stream (one per pass, per graph...).
uint64_t streamSeed(uint64_t Seed, uint64_t Stream);

/// Seeded Fisher-Yates permutation of 0..N-1.
std::vector<size_t> shuffledOrder(uint64_t Seed, size_t N);

/// Microseconds on the steady clock since the first call in the process.
double nowUs();

/// A percentile reported with the number of samples it was taken over.
struct Quantile {
  double Value = 0;
  size_t Samples = 0;
};

/// Nearest-rank percentile: the smallest sample such that at least
/// \p Pct percent of the samples are <= it (rank ceil(Pct/100 * N)).
/// An empty sample set yields {0, 0}.
Quantile nearestRank(std::vector<double> Samples, double Pct);

/// Median of \p Samples (nearest-rank p50).
inline double median(std::vector<double> Samples) {
  return nearestRank(std::move(Samples), 50).Value;
}

/// Time of one operation on a quiet machine: the minimum of its \p Samples,
/// one per pass (0 for none). Other tenants of a shared machine slow single
/// operations by up to 1.8x, in bursts of milliseconds to seconds, but
/// never speed them up: the noise only adds. The minimum of many repeats of
/// the same work is therefore the estimate closest to the work's own cost,
/// and it moves between runs far less than a median or a lower decile.
inline double quiet(const std::vector<double> &Samples) {
  return Samples.empty() ? 0.0
                         : *std::min_element(Samples.begin(), Samples.end());
}

/// Times of a fixed sequence of operations that every pass repeats: the
/// programs of a corpus, or the requests of a session's stream.
class RepeatedOps {
public:
  void add(size_t Op, double Value) {
    if (Op >= PerOp.size())
      PerOp.resize(Op + 1);
    PerOp[Op].push_back(Value);
  }
  /// Number of operations.
  size_t size() const { return PerOp.size(); }
  /// Each operation's quiet() time.
  std::vector<double> quietEach() const;
  /// Quiet time of the operations \p Keep selects.
  template <typename Pred> std::vector<double> quietWhere(Pred Keep) const {
    std::vector<double> Out;
    for (size_t I = 0; I < PerOp.size(); ++I)
      if (Keep(I))
        Out.push_back(quiet(PerOp[I]));
    return Out;
  }
  /// Sum of every operation's quiet time: one pass on a quiet machine.
  double quietSum() const;

private:
  std::vector<std::vector<double>> PerOp;
};

/// One timed interval. Spans of one pass or one request share a Group id;
/// Parent indexes the enclosing span in the recorder (-1 for a root).
struct Span {
  std::string Name;
  std::string Label; ///< Free-form detail, e.g. the program name.
  double StartUs = 0;
  double EndUs = 0;
  int64_t Parent = -1;
  uint64_t Group = 0;
  double durationUs() const { return EndUs - StartUs; }
};

/// In-memory span store; written out once, when the run ends. A disabled
/// recorder ignores every call, so untraced runs pay one branch per site.
class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}
  bool enabled() const { return Enabled; }

  /// Records a finished span; \returns its index (-1 when disabled).
  int64_t add(std::string Name, std::string Label, double StartUs,
              double EndUs, int64_t Parent, uint64_t Group);
  /// Opens a span ending "now" on close(); \returns its index.
  int64_t open(std::string Name, std::string Label, int64_t Parent,
               uint64_t Group);
  void close(int64_t Index);

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes the spans as Chrome-trace JSON ("X" complete events on one
  /// thread, nesting by time) that Perfetto and chrome://tracing open.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  std::vector<Span> Spans;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap each other
/// or stick out of the parent; only the covered part inside counts).
std::vector<double> selfTimesUs(const std::vector<Span> &Spans);

/// Report lines: total and self time per span name, in ms per pass.
std::vector<std::string> selfTimeReport(const std::vector<Span> &Spans,
                                        size_t Passes);

/// Operations attempted and failed; the first few failures are kept for
/// the report. Every workload's correctness oracle feeds one of these.
class ErrorLedger {
public:
  /// Counts one operation; \returns \p Ok.
  bool check(bool Ok, std::string_view What);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  double rate() const {
    return Attempted ? double(Failed) / double(Attempted) : 0.0;
  }
  const std::vector<std::string> &firstFailures() const { return First; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> First;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back to main(): the oracle ledger and metric
/// values by name. main() orders them and attaches units from its catalog;
/// a metric a workload does not exercise reads 0.
struct RunResult {
  ErrorLedger Errors;
  std::map<std::string, double> Values;
  /// Report lines printed ahead of the result line (traced runs).
  std::vector<std::string> Report;
  void set(const std::string &Name, double Value) { Values[Name] = Value; }
};

/// The benchmark's last stdout line:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string resultLine(const ErrorLedger &Errors,
                       const std::vector<Metric> &Metrics);

/// 64-bit FNV-1a, the golden-fingerprint hash.
uint64_t fnv1a(std::string_view Text);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// \p Num / \p Den, or 0 when \p Den is not positive.
inline double ratio(double Num, double Den) {
  return Den > 0 ? Num / Den : 0.0;
}

/// Percentage change from \p Base to \p Traced (0 when Base is 0).
inline double overheadPct(double Base, double Traced) {
  return Base > 0 ? (Traced - Base) / Base * 100.0 : 0.0;
}

/// Seconds since \p Start on the steady clock.
inline double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
