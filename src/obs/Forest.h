//===- Forest.h - SLG forest structure export -------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A renderable snapshot of the SLG forest: one node per tabled subgoal
/// (creation order), plus the consumer -> producer dependency edges the
/// engine observed while evaluating. The snapshot carries the structural
/// facts the paper's tabling story turns on — SCC membership from the
/// approximate-Tarjan completion, completion order, and the `Incomplete`
/// taint from depth truncation — and serializes as GraphViz DOT or as JSON
/// through JsonWriter.
///
/// Like Provenance.h this layer is engine-agnostic: the engine fills plain
/// structs; nothing here touches terms or tables.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_OBS_FOREST_H
#define LPA_OBS_FOREST_H

#include "obs/CostProfile.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace lpa {

class JsonWriter;

/// One tabled subgoal. The node's index in ForestGraph::Nodes is the
/// engine's creation-order subgoal index (the same index space premise
/// records use).
struct ForestNode {
  std::string Pred;  ///< "name/arity" of the tabled predicate.
  std::string Label; ///< Rendered call term, e.g. "path(a, _A)".
  uint64_t Answers = 0;
  bool Complete = false;
  bool Incomplete = false;     ///< Depth-truncation taint (unsound table).
  uint32_t SccId = 0;          ///< 1-based completion SCC; 0 = never completed.
  uint32_t CompletionOrder = 0; ///< 1-based completion sequence; 0 = never.

  /// Cost annotation: set only when the exporting solver had a cost
  /// profile attached AND its current/last query touched this subgoal —
  /// the self-vs-cumulative split renders the forest like a profiler
  /// flame view.
  std::optional<CostNode> Cost;
};

/// Consumer -> Producer: evaluating subgoal \p Consumer consumed answers of
/// (or at least called into) subgoal \p Producer.
struct ForestEdge {
  uint32_t Consumer = 0;
  uint32_t Producer = 0;
};

struct ForestGraph {
  std::vector<ForestNode> Nodes;
  std::vector<ForestEdge> Edges;
};

/// One completed SCC of the forest, summarized: when it completed relative
/// to the others and whether any member carries the incomplete taint (one
/// poisoned member poisons the whole SCC — the engine's completion
/// discipline, restated over the export). This is the single SCC
/// computation both consumers share: the DOT/JSON exporters annotate from
/// it, and the parallel scheduler reads it off the live forest to decide
/// which seeds still need evaluation.
struct SccSummary {
  uint32_t SccId = 0;
  uint32_t CompletionOrder = 0; ///< Min member completion seq (1-based).
  uint64_t Answers = 0;         ///< Total answers across members.
  bool Incomplete = false;      ///< Any member tainted.
  std::vector<uint32_t> Members; ///< Node indices, creation order.
};

/// Groups completed nodes (SccId != 0) by SCC, ordered by completion.
/// Never-completed nodes belong to no summary.
std::vector<SccSummary> computeSccSummaries(const ForestGraph &G);

/// Renders \p G as a GraphViz digraph. Output is deterministic (edges are
/// sorted and deduplicated), labels are DOT-escaped, incomplete tables are
/// highlighted, and nodes carry their SCC/completion annotations.
std::string forestToDot(const ForestGraph &G);

/// Streams \p G as one JSON object ({"nodes": [...], "edges": [...]}) into
/// an already-positioned writer (inside an object after key(), or as an
/// array element).
void writeForestJson(const ForestGraph &G, JsonWriter &W);

/// Convenience: \p G as a standalone JSON document.
std::string forestToJson(const ForestGraph &G);

} // namespace lpa

#endif // LPA_OBS_FOREST_H
