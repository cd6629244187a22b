//===- Groundness.h - Prop groundness analyzer ------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The complete groundness analysis pipeline of Section 4.1, with the three
/// phases of Section 4 timed separately:
///
///   preprocessing — read the program, apply the Figure-1 transformation,
///                   and load ("assert") the abstract clauses;
///   analysis      — tabled evaluation of the open call gp_p(X1..Xn) for
///                   every predicate p of the program;
///   collection    — fold the call/answer tables into input/output
///                   groundness (truth tables and per-argument modes).
///
//===----------------------------------------------------------------------===//

#ifndef LPA_PROP_GROUNDNESS_H
#define LPA_PROP_GROUNDNESS_H

#include "engine/Solver.h"
#include "obs/Sampler.h"
#include "obs/Trace.h"
#include "prop/PropResult.h"
#include "prop/PropTransform.h"

#include <memory>
#include <string>
#include <vector>

namespace lpa {

/// Full result of analyzing one program.
struct GroundnessResult {
  /// Per-predicate groundness, in definition order.
  std::vector<PredGroundness> Predicates;

  /// \name Phase timings (seconds), the paper's Table 1 columns.
  /// @{
  double PreprocSeconds = 0;
  double AnalysisSeconds = 0;
  double CollectSeconds = 0;
  double totalSeconds() const {
    return PreprocSeconds + AnalysisSeconds + CollectSeconds;
  }
  /// @}

  /// Table space used by the tabled evaluation (bytes).
  size_t TableSpaceBytes = 0;

  /// Engine counters for the analysis run.
  EvalStats Stats;

  /// True when the depth limit truncated tabled evaluation and the caller
  /// opted into Options::AllowIncomplete: SuccessSet/CallPatterns are then
  /// possibly-strict subsets of the minimal model, not exact results.
  bool Incomplete = false;

  /// \name Justification statistics (Options::Engine.RecordProvenance).
  /// Filled by validating every recorded justification against the answer
  /// tables after evaluation; all zero when recording was off.
  /// @{
  uint64_t JustifiedAnswers = 0;
  uint64_t JustificationPremises = 0;
  /// Premises that did not resolve to a live tabled answer (0 = valid).
  uint64_t DanglingPremises = 0;
  /// @}

  /// Convenience lookup by predicate name/arity; nullptr when absent.
  const PredGroundness *find(const std::string &Name, uint32_t Arity) const;
};

/// Runs Prop-domain groundness analysis using the tabled engine.
class GroundnessAnalyzer {
public:
  struct Options {
    /// Section 6.2 aggregation: keep one lattice-joined answer per
    /// subgoal (pointwise join of boolean tuples, unknowns widening to
    /// free variables) instead of the full truth table. Coarser — the
    /// result is the classical mode domain rather than Prop — but the
    /// tables shrink to constant size per call pattern. SuccessSet then
    /// holds the expansion of the single summary tuple.
    bool AggregateModes = false;

    /// Engine tunables forwarded to the tabled evaluation (depth limit,
    /// supplementary tabling, eval workers).
    Solver::Options Engine;

    /// Accept depth-limit-truncated tables: instead of failing, analyze()
    /// succeeds with Result.Incomplete set (explicit warning mode). Off by
    /// default — silently reporting a truncated answer set as the minimal
    /// model is the soundness bug this flag guards.
    bool AllowIncomplete = false;

    /// Observation channels (optional, caller-owned), the internal
    /// Solver's EvalObserver. Tracer and registry also see the transform/
    /// evaluate/collect phases, the registry a table snapshot at the end.
    Tracer *Trace = nullptr;
    MetricsRegistry *Metrics = nullptr;
    EvalCursor *Cursor = nullptr;
  };

  explicit GroundnessAnalyzer(SymbolTable &Symbols)
      : GroundnessAnalyzer(Symbols, Options()) {}
  GroundnessAnalyzer(SymbolTable &Symbols, Options Opts)
      : Symbols(Symbols), Opts(Opts) {}

  /// Analyzes Prolog source text end to end.
  ErrorOr<GroundnessResult> analyze(std::string_view Source);

  /// Explains WHY argument \p Arg (0-based) of \p Pred/\p Arity can be
  /// ground on success: re-runs the abstract evaluation with provenance
  /// recording, picks a witnessing answer of the open call whose Arg is
  /// `true`, and renders its justification as an indented proof tree over
  /// the *source* program — the Figure-1 transform is clause-by-clause, so
  /// abstract clause i of gp_p is source clause i of p, and node labels
  /// strip the gp_ prefix. Enumerative Prop domain only (AggregateModes is
  /// ignored; joined answers have no per-derivation justification worth
  /// printing). Fails when the predicate is unknown or no answer grounds
  /// the argument.
  ErrorOr<std::string> explain(std::string_view Source, std::string_view Pred,
                               uint32_t Arity, uint32_t Arg);

  /// Measures the "compilation" baseline for the program: time to read and
  /// load the *concrete* program with no analysis (the denominator of
  /// Table 1's "Compile time increase" column).
  ErrorOr<double> measureCompileSeconds(std::string_view Source);

private:
  SymbolTable &Symbols;
  Options Opts;
};

/// Expands one answer tuple (which may contain unbound variables, each
/// standing for both truth values) into explicit truth-table rows added to
/// \p Table. Shared variables expand consistently.
void expandAnswerTuple(const TermStore &Store, const SymbolTable &Symbols,
                       const std::vector<TermRef> &Args, TruthTable &Table);

} // namespace lpa

#endif // LPA_PROP_GROUNDNESS_H
