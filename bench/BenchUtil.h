//===- BenchUtil.h - Shared bench-harness helpers ---------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Repeat-and-take-best measurement for the table harnesses. Analyses are
/// fast on modern hardware, so each one runs several times and the run
/// with the smallest total is reported (phases from that same run, so the
/// columns stay mutually consistent).
///
//===----------------------------------------------------------------------===//

#ifndef LPA_BENCH_BENCHUTIL_H
#define LPA_BENCH_BENCHUTIL_H

#include "obs/Json.h"
#include "support/ParseNumber.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>

// Configure-time provenance (top-level CMakeLists.txt). Fallbacks keep the
// header usable outside the CMake build.
#ifndef LPA_GIT_SHA
#define LPA_GIT_SHA "unknown"
#endif
#ifndef LPA_BUILD_TYPE
#define LPA_BUILD_TYPE "unknown"
#endif

namespace lpa {

/// Phase timings of one measured analysis run (milliseconds).
struct MeasuredRow {
  double PreprocMs = 0;
  double AnalysisMs = 0;
  double CollectMs = 0;
  double totalMs() const { return PreprocMs + AnalysisMs + CollectMs; }
  size_t TableBytes = 0;
  bool Ok = false;
  std::string Error;
};

/// Runs \p Fn (returning MeasuredRow) \p Reps times; keeps the best total.
template <typename Func>
MeasuredRow bestOf(int Reps, Func &&Fn) {
  MeasuredRow Best;
  for (int I = 0; I < Reps; ++I) {
    MeasuredRow R = Fn();
    if (!R.Ok)
      return R;
    if (!Best.Ok || R.totalMs() < Best.totalMs())
      Best = R;
  }
  return Best;
}

/// Formats "a.bc" with 2 decimals (ms values).
inline std::string ms(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

/// Formats a paper value in seconds, or "-" when unavailable.
inline std::string paperSec(double V) {
  if (V < 0)
    return "-";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f", V);
  return Buf;
}

/// Resolves the output path for a bench driver's JSON trajectory file:
/// "--json PATH" or "--json=PATH" overrides \p Default (which lives under
/// the gitignored bench/out/ so trajectory artifacts never land in the
/// source tree by accident).
inline std::string jsonOutPath(int Argc, char **Argv, const char *Default) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view A = Argv[I];
    if (A == "--json" && I + 1 < Argc)
      return Argv[I + 1];
    if (A.substr(0, 7) == "--json=")
      return std::string(A.substr(7));
  }
  return Default;
}

/// The value of "\p Flag N" in \p Argv, or \p Default when the flag is
/// absent. A value that is not a whole unsigned decimal ends the program
/// with status 2, as a usage error.
inline size_t sizeArg(int Argc, char **Argv, const char *Flag,
                      size_t Default) {
  for (int I = 1; I + 1 < Argc; ++I) {
    if (std::string_view(Argv[I]) != Flag)
      continue;
    size_t V = 0;
    if (!parseUnsigned(Argv[I + 1], std::numeric_limits<size_t>::max(), V)) {
      std::fprintf(stderr,
                   "usage: %s: %s takes an unsigned integer, not '%s'\n",
                   Argv[0], Flag, Argv[I + 1]);
      std::exit(2);
    }
    return V;
  }
  return Default;
}

/// Writes \p Json to \p Path and reports where it went (benches always
/// leave a machine-readable record next to the human table). Creates the
/// parent directory if needed (the default out dir starts gitignored and
/// absent).
inline bool writeJsonFile(const std::string &Path, const std::string &Json) {
  std::filesystem::path Parent = std::filesystem::path(Path).parent_path();
  if (!Parent.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(Parent, EC);
  }
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
    return false;
  }
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fputc('\n', F);
  std::fclose(F);
  std::printf("\n[json] wrote %s\n", Path.c_str());
  return true;
}

/// Stamps provenance members into the current JSON object: git revision
/// and build type. Every bench trajectory file carries these so A/B
/// numbers stay attributable.
inline void writeBenchMeta(JsonWriter &W) {
  W.member("git_sha", LPA_GIT_SHA);
  W.member("build_type", LPA_BUILD_TYPE);
}

/// Emits the phase timings of \p Row as members of the current object.
inline void writeMeasuredRow(JsonWriter &W, const MeasuredRow &Row) {
  W.member("preproc_ms", Row.PreprocMs);
  W.member("analysis_ms", Row.AnalysisMs);
  W.member("collect_ms", Row.CollectMs);
  W.member("total_ms", Row.totalMs());
}

} // namespace lpa

#endif // LPA_BENCH_BENCHUTIL_H
