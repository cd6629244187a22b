//===- Strictness.h - Demand-propagation strictness analyzer ----*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strictness analysis pipeline of Section 4.2: parse the FL program,
/// apply the Figure-3 transformation, load the demand-propagation clauses
/// as dynamic code, evaluate sp_f(e, ...) and sp_f(d, ...) for every
/// function with the tabled engine, and fold the answer tables into
/// per-argument strictness (the guaranteed demand is the meet over all
/// solutions; Figure 4: sp_ap(e,X,Y) = {e,e} means ap is ee-strict).
///
//===----------------------------------------------------------------------===//

#ifndef LPA_STRICTNESS_STRICTNESS_H
#define LPA_STRICTNESS_STRICTNESS_H

#include "engine/Solver.h"
#include "obs/Sampler.h"
#include "obs/Trace.h"
#include "strictness/StrictTransform.h"

#include <string>
#include <vector>

namespace lpa {

/// Demand extents, ordered n < d < e.
enum class Demand : uint8_t {
  None = 0, ///< n: no demand.
  Head = 1, ///< d: head-normal-form demand.
  Full = 2, ///< e: normal-form demand.
};

/// Renders a demand as its domain letter.
char demandLetter(Demand D);

/// Per-function strictness.
struct FuncStrictness {
  std::string Name;
  uint32_t Arity = 0;

  /// Guaranteed argument demand when the result is demanded to normal form
  /// (e) and head normal form (d): the meet over all sp_f solutions.
  std::vector<Demand> UnderE;
  std::vector<Demand> UnderD;

  /// True when sp_f(e/d, ...) has no solution: every evaluation of f under
  /// that demand diverges.
  bool DivergesUnderE = false;
  bool DivergesUnderD = false;

  /// \returns true if the function is strict (>= d) in argument \p I under
  /// e-demand — the classical "safe to evaluate eagerly" bit.
  bool strictIn(uint32_t I) const {
    return DivergesUnderE || (I < UnderE.size() && UnderE[I] >= Demand::Head);
  }

  /// Renders e.g. "ap: e->(e,e) d->(d,n)".
  std::string summary() const;
};

/// Full analysis result with the paper's phase timings.
struct StrictnessResult {
  std::vector<FuncStrictness> Functions;

  double PreprocSeconds = 0;
  double AnalysisSeconds = 0;
  double CollectSeconds = 0;
  double totalSeconds() const {
    return PreprocSeconds + AnalysisSeconds + CollectSeconds;
  }

  size_t TableSpaceBytes = 0;
  EvalStats Stats;

  /// True when the depth limit truncated tabled evaluation and the caller
  /// opted into Options::AllowIncomplete: the reported demands are then a
  /// lower bound, not the exact meet over all solutions.
  bool Incomplete = false;

  /// \name Justification statistics (Options::Engine.RecordProvenance);
  /// all zero when recording was off. DanglingPremises must be 0.
  /// @{
  uint64_t JustifiedAnswers = 0;
  uint64_t JustificationPremises = 0;
  uint64_t DanglingPremises = 0;
  /// @}

  const FuncStrictness *find(const std::string &Name) const;
};

/// Runs the demand-propagation strictness analysis end to end.
class StrictnessAnalyzer {
public:
  struct Options {
    /// Engine tunables forwarded to the tabled evaluation (depth limit,
    /// supplementary tabling, eval workers).
    Solver::Options Engine;

    /// Accept depth-limit-truncated tables: analyze() succeeds with
    /// Result.Incomplete set instead of failing. Off by default — a
    /// truncated answer table can under-report strictness.
    bool AllowIncomplete = false;
  };

  StrictnessAnalyzer() = default;
  explicit StrictnessAnalyzer(Options Opts) : Opts(Opts) {}

  /// Sets the optional, caller-owned observation channels: the internal
  /// Solver's EvalObserver. Tracer and registry also see the transform/
  /// evaluate/collect phases, the registry a table snapshot. Predicate
  /// names are captured into the registry eagerly, so it stays valid after
  /// analyze() returns even though the analyzer's symbol table does not.
  void setObservability(Tracer *T, MetricsRegistry *M,
                        EvalCursor *C = nullptr) {
    Trace = T;
    Metrics = M;
    Cursor = C;
  }

  /// Analyzes FL source text.
  ErrorOr<StrictnessResult> analyze(std::string_view Source);

  /// Explains the demand on argument \p Arg (0-based) of function \p Func
  /// under full (e) demand: re-runs the Figure-3 evaluation with provenance
  /// recording and renders the justification of one sp_Func(e, ...) answer
  /// as a proof tree, clause annotations mapped to the demand-propagation
  /// rules of the function ("rule i of Func"). The reported strictness is
  /// the *meet over all* answers; the header states which witness is shown.
  /// Fails when the function is unknown (a function with no answer diverges
  /// — strict vacuously — and that is explained without a tree).
  ErrorOr<std::string> explain(std::string_view Source, std::string_view Func,
                               uint32_t Arg);

  /// Time to parse the FL program with no analysis (the "compilation"
  /// baseline discussed with Table 3).
  ErrorOr<double> measureCompileSeconds(std::string_view Source);

private:
  Options Opts;
  Tracer *Trace = nullptr;
  MetricsRegistry *Metrics = nullptr;
  EvalCursor *Cursor = nullptr;
};

} // namespace lpa

#endif // LPA_STRICTNESS_STRICTNESS_H
