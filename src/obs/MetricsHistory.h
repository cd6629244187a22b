//===- MetricsHistory.h - Time-series telemetry ring ------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two pieces of the daemon's continuous-telemetry story:
///
/// - MetricsHistory: a bounded keep-last ring of periodic counter/gauge
///   snapshots. The daemon samples it opportunistically (time-checked per
///   protocol request — no extra thread), so trends survive between
///   scrapes and `lpa_top --watch` can render sparkline columns from the
///   ring instead of remembering state client-side. Eviction is the
///   FlightRecorder's (KeepLastRing): overwrite the oldest slot, count it.
///
/// - PrometheusWriter: renders current values in the Prometheus text
///   exposition format (# HELP / # TYPE, counter/gauge/histogram with
///   log2 `le` buckets, label-value escaping). The `metrics` protocol op
///   ships the rendered text as an escaped string field of its JSON
///   response so the one-JSON-object-per-line protocol invariant holds;
///   scrapers unwrap one field.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_METRICSHISTORY_H
#define LPA_OBS_METRICSHISTORY_H

#include "support/KeepLastRing.h"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lpa {

class JsonWriter;
class Histogram;

/// Bounded ring of periodic metric snapshots. Series are registered once
/// (name + counter/gauge kind); every sample then carries one value per
/// series, aligned by index.
class MetricsHistory {
public:
  struct Options {
    size_t Capacity = 120;     ///< Snapshots kept (keep-last).
    uint64_t IntervalMs = 1000; ///< Minimum spacing between samples.
  };

  struct Series {
    std::string Name;
    bool Counter = true; ///< false = gauge (sparklines show raw values,
                         ///< not per-interval deltas).
  };

  struct Snapshot {
    uint64_t TimeNs = 0; ///< Steady-clock stamp (same epoch as the caller).
    std::vector<uint64_t> Values;
  };

  MetricsHistory(); ///< Default Options (out-of-line: GCC rejects a `{}`
                    ///< default argument naming the still-open class).
  explicit MetricsHistory(Options O);

  /// Registers a series; returns its value index. Must happen before the
  /// first sample (the ring is cleared otherwise to keep rows aligned).
  uint32_t addSeries(std::string_view Name, bool Counter = true);
  const std::vector<Series> &series() const { return Defs; }

  /// True when IntervalMs has elapsed since the last sample (or none was
  /// ever taken). \p NowNs is the caller's steady clock.
  bool due(uint64_t NowNs) const;

  /// Appends one snapshot (values aligned with series()); evicts the
  /// oldest when full. Also resets the due() timer.
  void sample(uint64_t NowNs, std::span<const uint64_t> Values);

  size_t size() const { return Ring.size(); }
  size_t capacity() const { return Ring.capacity(); }
  uint64_t intervalMs() const { return Opts.IntervalMs; }
  uint64_t evicted() const { return Ring.evicted(); }
  uint64_t totalSamples() const { return Ring.evicted() + Ring.size(); }

  /// Snapshot \p I in time order (0 = oldest surviving).
  const Snapshot &at(size_t I) const { return Ring[I]; }

  /// Values of series \p Idx, oldest to newest. For counter series the
  /// second form returns per-interval deltas (size() - 1 entries; clamped
  /// at 0 across resets); for gauges it returns the raw values unchanged.
  std::vector<uint64_t> seriesValues(uint32_t Idx) const;
  std::vector<uint64_t> seriesTrend(uint32_t Idx) const;

  void clear();

  /// {"interval_ms":..,"capacity":..,"evicted":..,"series":[names...],
  ///  "kinds":["counter"|"gauge"...],"samples":[{"t_ns":..,"v":[..]}..]}
  /// \p MaxSamples bounds the emitted tail (0 = all).
  void writeJson(JsonWriter &W, size_t MaxSamples = 0) const;

private:
  Options Opts;
  std::vector<Series> Defs;
  KeepLastRing<Snapshot> Ring;
  uint64_t LastSampleNs = 0;
};

/// Streaming Prometheus text-exposition writer. Each metric family gets
/// its # HELP / # TYPE header exactly once (tracked by name), so labeled
/// series can be appended one sample at a time.
class PrometheusWriter {
public:
  explicit PrometheusWriter(std::string &Out) : Out(Out) {}

  void counter(std::string_view Name, std::string_view Help, uint64_t V);
  void gauge(std::string_view Name, std::string_view Help, double V);

  /// One sample of a labeled family, e.g.
  ///   lpa_pred_calls_total{pred="path/2"} 42
  /// Help/type are emitted on the family's first sample only.
  void counterLabeled(std::string_view Name, std::string_view Help,
                      std::string_view Label, std::string_view LabelValue,
                      uint64_t V);
  void gaugeLabeled(std::string_view Name, std::string_view Help,
                    std::string_view Label, std::string_view LabelValue,
                    double V);

  /// Renders an lpa log2 Histogram (obs/Metrics.h) as a Prometheus
  /// histogram: bucket I of the source holds integer values in
  /// [2^(I-1), 2^I), so the cumulative `le` bound for bucket I is
  /// 2^I - 1 (exact for integer observations). Trailing empty buckets
  /// are elided; `+Inf`, `_sum` and `_count` always emitted.
  void histogramLog2(std::string_view Name, std::string_view Help,
                     const Histogram &H);

  /// Escapes \ and newline (HELP text).
  static void escapeHelp(std::string &Out, std::string_view S);
  /// Escapes \, " and newline (label values).
  static void escapeLabelValue(std::string &Out, std::string_view S);

private:
  /// Emits # HELP/# TYPE for \p Name once per writer.
  void header(std::string_view Name, std::string_view Help,
              std::string_view Type);

  std::string &Out;
  std::vector<std::string> Seen; ///< Families with emitted headers.
};

/// Unicode block sparkline ("▁▂▃▅▇█") of \p Values scaled to their max;
/// empty input renders empty. The lpa_top trend column.
std::string renderSparkline(std::span<const uint64_t> Values);

} // namespace lpa

#endif // LPA_OBS_METRICSHISTORY_H
