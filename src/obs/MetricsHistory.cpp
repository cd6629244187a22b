//===- MetricsHistory.cpp - Time-series telemetry ring --------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsHistory.h"

#include "obs/Json.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <cstdio>

using namespace lpa;

//===----------------------------------------------------------------------===//
// MetricsHistory
//===----------------------------------------------------------------------===//

MetricsHistory::MetricsHistory() : MetricsHistory(Options{}) {}

MetricsHistory::MetricsHistory(Options O)
    : Opts(O), Ring(std::max<size_t>(O.Capacity, 1)) {}

uint32_t MetricsHistory::addSeries(std::string_view Name, bool Counter) {
  if (Ring.size())
    clear(); // Keep rows aligned with the series list.
  Defs.push_back({std::string(Name), Counter});
  return static_cast<uint32_t>(Defs.size() - 1);
}

bool MetricsHistory::due(uint64_t NowNs) const {
  if (!totalSamples())
    return true;
  return NowNs - LastSampleNs >= Opts.IntervalMs * 1000000ull;
}

void MetricsHistory::sample(uint64_t NowNs, std::span<const uint64_t> Values) {
  Snapshot S;
  S.TimeNs = NowNs;
  S.Values.assign(Values.begin(), Values.end());
  S.Values.resize(Defs.size()); // Short rows pad with zeros.
  LastSampleNs = NowNs;
  Ring.push(std::move(S));
}

std::vector<uint64_t> MetricsHistory::seriesValues(uint32_t Idx) const {
  std::vector<uint64_t> Out;
  Out.reserve(Ring.size());
  for (size_t I = 0; I < Ring.size(); ++I) {
    const Snapshot &S = at(I);
    Out.push_back(Idx < S.Values.size() ? S.Values[Idx] : 0);
  }
  return Out;
}

std::vector<uint64_t> MetricsHistory::seriesTrend(uint32_t Idx) const {
  std::vector<uint64_t> Vals = seriesValues(Idx);
  if (Idx >= Defs.size() || !Defs[Idx].Counter)
    return Vals;
  std::vector<uint64_t> Deltas;
  if (Vals.size() < 2)
    return Deltas;
  Deltas.reserve(Vals.size() - 1);
  for (size_t I = 1; I < Vals.size(); ++I)
    // Clamp at zero across counter resets (reset_stats mid-history).
    Deltas.push_back(Vals[I] >= Vals[I - 1] ? Vals[I] - Vals[I - 1] : 0);
  return Deltas;
}

void MetricsHistory::clear() {
  Ring.clear();
  LastSampleNs = 0;
}

void MetricsHistory::writeJson(JsonWriter &W, size_t MaxSamples) const {
  W.beginObject();
  W.member("interval_ms", Opts.IntervalMs);
  W.member("capacity", static_cast<uint64_t>(capacity()));
  W.member("evicted", evicted());
  W.member("total", totalSamples());
  W.key("series");
  W.beginArray();
  for (const Series &S : Defs)
    W.value(std::string_view(S.Name));
  W.endArray();
  W.key("kinds");
  W.beginArray();
  for (const Series &S : Defs)
    W.value(S.Counter ? "counter" : "gauge");
  W.endArray();
  W.key("samples");
  W.beginArray();
  size_t From = MaxSamples && Ring.size() > MaxSamples
                    ? Ring.size() - MaxSamples
                    : 0;
  for (size_t I = From; I < Ring.size(); ++I) {
    const Snapshot &S = at(I);
    W.beginObject();
    W.member("t_ns", S.TimeNs);
    W.key("v");
    W.beginArray();
    for (uint64_t V : S.Values)
      W.value(V);
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

//===----------------------------------------------------------------------===//
// PrometheusWriter
//===----------------------------------------------------------------------===//

void PrometheusWriter::escapeHelp(std::string &Out, std::string_view S) {
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
}

void PrometheusWriter::escapeLabelValue(std::string &Out,
                                        std::string_view S) {
  for (char C : S) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
}

void PrometheusWriter::header(std::string_view Name, std::string_view Help,
                              std::string_view Type) {
  for (const std::string &S : Seen)
    if (S == Name)
      return;
  Seen.emplace_back(Name);
  Out += "# HELP ";
  Out += Name;
  Out += ' ';
  escapeHelp(Out, Help);
  Out += "\n# TYPE ";
  Out += Name;
  Out += ' ';
  Out += Type;
  Out += '\n';
}

namespace {

void appendDouble(std::string &Out, double V) {
  char Buf[64];
  // %.17g round-trips; %g keeps integers clean. Values here are counts,
  // bytes and ratios — %.6g is plenty and keeps the text readable.
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Out += Buf;
}

} // namespace

void PrometheusWriter::counter(std::string_view Name, std::string_view Help,
                               uint64_t V) {
  header(Name, Help, "counter");
  Out += Name;
  Out += ' ';
  Out += std::to_string(V);
  Out += '\n';
}

void PrometheusWriter::gauge(std::string_view Name, std::string_view Help,
                             double V) {
  header(Name, Help, "gauge");
  Out += Name;
  Out += ' ';
  appendDouble(Out, V);
  Out += '\n';
}

void PrometheusWriter::counterLabeled(std::string_view Name,
                                      std::string_view Help,
                                      std::string_view Label,
                                      std::string_view LabelValue,
                                      uint64_t V) {
  header(Name, Help, "counter");
  Out += Name;
  Out += '{';
  Out += Label;
  Out += "=\"";
  escapeLabelValue(Out, LabelValue);
  Out += "\"} ";
  Out += std::to_string(V);
  Out += '\n';
}

void PrometheusWriter::gaugeLabeled(std::string_view Name,
                                    std::string_view Help,
                                    std::string_view Label,
                                    std::string_view LabelValue, double V) {
  header(Name, Help, "gauge");
  Out += Name;
  Out += '{';
  Out += Label;
  Out += "=\"";
  escapeLabelValue(Out, LabelValue);
  Out += "\"} ";
  appendDouble(Out, V);
  Out += '\n';
}

void PrometheusWriter::histogramLog2(std::string_view Name,
                                     std::string_view Help,
                                     const Histogram &H) {
  header(Name, Help, "histogram");
  const uint64_t *B = H.buckets();
  size_t Last = 0;
  for (size_t I = 0; I < Histogram::NumBuckets; ++I)
    if (B[I])
      Last = I;
  uint64_t Cum = 0;
  for (size_t I = 0; I <= Last; ++I) {
    Cum += B[I];
    // Bucket I holds integer values in [2^(I-1), 2^I) (bucket 0: zero),
    // so everything up to bucket I is <= 2^I - 1.
    uint64_t Le = I ? (uint64_t(1) << I) - 1 : 0;
    Out += Name;
    Out += "_bucket{le=\"";
    Out += std::to_string(Le);
    Out += "\"} ";
    Out += std::to_string(Cum);
    Out += '\n';
  }
  Out += Name;
  Out += "_bucket{le=\"+Inf\"} ";
  Out += std::to_string(H.count());
  Out += '\n';
  Out += Name;
  Out += "_sum ";
  Out += std::to_string(H.sum());
  Out += '\n';
  Out += Name;
  Out += "_count ";
  Out += std::to_string(H.count());
  Out += '\n';
}

//===----------------------------------------------------------------------===//
// Sparklines
//===----------------------------------------------------------------------===//

std::string lpa::renderSparkline(std::span<const uint64_t> Values) {
  static const char *Blocks[] = {"▁", "▂", "▃", "▄",
                                 "▅", "▆", "▇", "█"};
  std::string Out;
  if (Values.empty())
    return Out;
  uint64_t Max = *std::max_element(Values.begin(), Values.end());
  for (uint64_t V : Values) {
    size_t Level = Max ? static_cast<size_t>((V * 7 + Max / 2) / Max) : 0;
    Out += Blocks[Level > 7 ? 7 : Level];
  }
  return Out;
}
