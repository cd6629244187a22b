//===- DepthK.h - Depth-k groundness analyzer -------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5's non-enumerative groundness analysis: a tabled abstract
/// interpretation over the depth-k term domain. Call patterns and answer
/// patterns are abstract argument tuples (cut at depth k); clause bodies
/// are executed left-to-right with abstract unification, and the whole
/// table is driven to a global fixpoint. Table 4 reports this analysis on
/// the Table 1 benchmarks.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_DEPTHK_DEPTHK_H
#define LPA_DEPTHK_DEPTHK_H

#include "depthk/AbstractDomain.h"
#include "engine/Database.h"
#include "obs/Metrics.h"
#include "obs/Sampler.h"
#include "obs/Trace.h"
#include "support/Error.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace lpa {

/// Per-predicate result of the depth-k analysis.
struct DepthKPred {
  std::string Name;
  uint32_t Arity = 0;
  /// Rendered abstract answer patterns of the open call, e.g.
  /// "qsort($gamma,$gamma)".
  std::vector<std::string> AnswerPatterns;
  /// Rendered distinct call patterns.
  std::vector<std::string> CallPatterns;
  /// Argument is ground (only gamma/constants) in every answer pattern.
  std::vector<uint8_t> GroundOnSuccess;
  bool CanSucceed = false;
};

/// Full result with the usual phase metrics.
struct DepthKResult {
  std::vector<DepthKPred> Predicates;

  double PreprocSeconds = 0;
  double AnalysisSeconds = 0;
  double CollectSeconds = 0;
  double totalSeconds() const {
    return PreprocSeconds + AnalysisSeconds + CollectSeconds;
  }

  size_t TableSpaceBytes = 0;
  uint64_t NumCallPatterns = 0;
  uint64_t NumAnswers = 0;
  uint64_t FixpointRounds = 0; ///< Producer (re-)runs of the worklist.
  uint64_t Widenings = 0;      ///< Answer-set widenings applied.

  /// True when Options::MaxProducerRuns stopped the fixpoint short and the
  /// caller opted into AllowIncomplete: the tables are a possibly-strict
  /// subset of the abstract fixpoint, not the fixpoint itself.
  bool Incomplete = false;

  /// \name Justification statistics (Options::RecordProvenance); all zero
  /// when recording was off. Premise validation is widening-tolerant — a
  /// premise pointing into a folded answer set counts as valid when the
  /// entry carries the ProvFoldedClause marker — so DanglingPremises must
  /// still be 0.
  /// @{
  uint64_t JustifiedAnswers = 0;
  uint64_t JustificationPremises = 0;
  uint64_t DanglingPremises = 0;
  /// @}

  const DepthKPred *find(const std::string &Name, uint32_t Arity) const;
};

/// Runs the depth-k groundness analysis.
class DepthKAnalyzer {
public:
  struct Options {
    unsigned Depth = 2; ///< k: maximum abstract term depth.
    /// Widening thresholds (Section 6: on-the-fly approximation). An
    /// entry whose answers outgrow the first bound collapses to their
    /// least general generalization; a predicate with more call patterns
    /// than the second routes further calls to its open pattern.
    size_t MaxAnswersPerCall = 16;
    size_t MaxCallsPerPred = 32;

    /// Resource budget on producer (re-)runs; 0 = unlimited. Unlike the
    /// widenings above (which over-approximate and stay sound), hitting
    /// this bound truncates the fixpoint: analyze() then fails unless
    /// AllowIncomplete accepts the partial tables (Result.Incomplete set).
    /// The depth-k analogue of Solver::Options::MaxDepth.
    uint64_t MaxProducerRuns = 0;
    bool AllowIncomplete = false;

    /// Record a justification (clause index + consumed table answers) for
    /// every abstract answer pattern. Widening folds answer sets, so the
    /// folded pattern's justification is the ProvFoldedClause sentinel:
    /// derivations below a widening point are deliberately dropped rather
    /// than misattributed. Null-cost when off.
    bool RecordProvenance = false;

    /// Observation channels (optional, caller-owned): the abstract
    /// interpreter reports its entry, answer and clause events and its
    /// entry runs (as cursor frames) through the same EvalObserver events
    /// as the engine. Tracer and registry also see the transform/evaluate/
    /// collect phases, the registry the table bytes and the producer-run
    /// and widening counters.
    Tracer *Trace = nullptr;
    MetricsRegistry *Metrics = nullptr;
    EvalCursor *Cursor = nullptr;
  };

  explicit DepthKAnalyzer(SymbolTable &Symbols)
      : DepthKAnalyzer(Symbols, Options()) {}
  DepthKAnalyzer(SymbolTable &Symbols, Options Opts)
      : Symbols(Symbols), Opts(Opts) {}

  /// Analyzes Prolog source text.
  ErrorOr<DepthKResult> analyze(std::string_view Source);

  /// Explains why argument \p Arg (0-based) of \p Pred/\p Arity is ground
  /// on success in the depth-k abstraction: re-runs the fixpoint with
  /// provenance recording, picks an answer pattern of the open call whose
  /// Arg is abstractly ground, and renders its justification as a proof
  /// tree over the concrete program's clauses. Widened entries render a
  /// "[folded: ...]" marker where derivations were dropped. Fails when the
  /// predicate is unknown or no answer pattern grounds the argument.
  ErrorOr<std::string> explain(std::string_view Source, std::string_view Pred,
                               uint32_t Arity, uint32_t Arg);

private:
  SymbolTable &Symbols;
  Options Opts;
};

} // namespace lpa

#endif // LPA_DEPTHK_DEPTHK_H
