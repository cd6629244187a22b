//===- Forest.cpp - SLG forest structure export ---------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "obs/Forest.h"

#include "obs/Json.h"

#include <algorithm>
#include <cstdio>

namespace lpa {

namespace {

/// DOT double-quoted string escaping: backslash and quote; newlines become
/// literal \n escapes so labels stay single-line.
std::string dotEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

/// Nanoseconds rendered as a compact human quantity for DOT labels.
std::string fmtNs(uint64_t Ns) {
  char Buf[32];
  if (Ns >= 1000000000ull)
    std::snprintf(Buf, sizeof(Buf), "%.2fs", double(Ns) / 1e9);
  else if (Ns >= 1000000ull)
    std::snprintf(Buf, sizeof(Buf), "%.2fms", double(Ns) / 1e6);
  else if (Ns >= 1000ull)
    std::snprintf(Buf, sizeof(Buf), "%.1fus", double(Ns) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%lluns",
                  static_cast<unsigned long long>(Ns));
  return Buf;
}

std::vector<ForestEdge> sortedUniqueEdges(const ForestGraph &G) {
  std::vector<ForestEdge> Edges = G.Edges;
  std::sort(Edges.begin(), Edges.end(),
            [](const ForestEdge &A, const ForestEdge &B) {
              return A.Consumer != B.Consumer ? A.Consumer < B.Consumer
                                              : A.Producer < B.Producer;
            });
  Edges.erase(std::unique(Edges.begin(), Edges.end(),
                          [](const ForestEdge &A, const ForestEdge &B) {
                            return A.Consumer == B.Consumer &&
                                   A.Producer == B.Producer;
                          }),
              Edges.end());
  return Edges;
}

} // namespace

std::vector<SccSummary> computeSccSummaries(const ForestGraph &G) {
  std::vector<SccSummary> Out;
  // SccIds are small dense-ish integers handed out by the completion
  // counter; map id -> summary index without assuming density.
  std::vector<std::pair<uint32_t, size_t>> ById;
  for (uint32_t I = 0; I < G.Nodes.size(); ++I) {
    const ForestNode &N = G.Nodes[I];
    if (!N.SccId)
      continue;
    size_t Slot = SIZE_MAX;
    for (const auto &[Id, S] : ById)
      if (Id == N.SccId) {
        Slot = S;
        break;
      }
    if (Slot == SIZE_MAX) {
      Slot = Out.size();
      ById.emplace_back(N.SccId, Slot);
      Out.push_back(SccSummary{N.SccId, N.CompletionOrder, 0, false, {}});
    }
    SccSummary &S = Out[Slot];
    S.Answers += N.Answers;
    S.Incomplete |= N.Incomplete;
    if (N.CompletionOrder &&
        (!S.CompletionOrder || N.CompletionOrder < S.CompletionOrder))
      S.CompletionOrder = N.CompletionOrder;
    S.Members.push_back(I);
  }
  std::sort(Out.begin(), Out.end(),
            [](const SccSummary &A, const SccSummary &B) {
              return A.CompletionOrder != B.CompletionOrder
                         ? A.CompletionOrder < B.CompletionOrder
                         : A.SccId < B.SccId;
            });
  return Out;
}

std::string forestToDot(const ForestGraph &G) {
  std::string Out = "digraph slg_forest {\n";
  Out += "  rankdir=LR;\n";
  Out += "  node [shape=box, fontname=\"monospace\"];\n";
  for (size_t I = 0; I < G.Nodes.size(); ++I) {
    const ForestNode &N = G.Nodes[I];
    Out += "  n" + std::to_string(I) + " [label=\"" + dotEscape(N.Label) +
           "\\n" + std::to_string(N.Answers) +
           (N.Answers == 1 ? " answer" : " answers");
    if (N.SccId)
      Out += ", scc " + std::to_string(N.SccId) + ", done #" +
             std::to_string(N.CompletionOrder);
    if (N.Cost) {
      // Profiler flame view: exclusive vs inclusive time for the query
      // that exported this forest.
      Out += "\\nself " + fmtNs(N.Cost->SelfNs) + " / cum " +
             fmtNs(N.Cost->CumNs);
      if (N.Cost->Warm)
        Out += " (warm)";
    }
    if (N.Incomplete)
      Out += "\\nINCOMPLETE";
    else if (!N.Complete)
      Out += "\\nopen";
    Out += "\"";
    if (N.Incomplete)
      Out += ", color=red";
    else if (!N.Complete)
      Out += ", style=dashed";
    Out += "];\n";
  }
  for (const ForestEdge &E : sortedUniqueEdges(G))
    Out += "  n" + std::to_string(E.Consumer) + " -> n" +
           std::to_string(E.Producer) + ";\n";
  // SCC roll-up in completion order, from the same computation the
  // scheduler uses (comment lines: annotations, not layout).
  for (const SccSummary &S : computeSccSummaries(G)) {
    Out += "  // scc " + std::to_string(S.SccId) + ": done #" +
           std::to_string(S.CompletionOrder) + ", " +
           std::to_string(S.Members.size()) +
           (S.Members.size() == 1 ? " member, " : " members, ") +
           std::to_string(S.Answers) + " answers";
    if (S.Incomplete)
      Out += ", INCOMPLETE";
    Out += "\n";
  }
  Out += "}\n";
  return Out;
}

void writeForestJson(const ForestGraph &G, JsonWriter &W) {
  W.beginObject();
  W.key("nodes");
  W.beginArray();
  for (const ForestNode &N : G.Nodes) {
    W.beginObject();
    W.member("pred", N.Pred);
    W.member("call", N.Label);
    W.member("answers", N.Answers);
    W.member("complete", N.Complete);
    W.member("incomplete", N.Incomplete);
    W.member("scc", static_cast<uint64_t>(N.SccId));
    W.member("completion_order", static_cast<uint64_t>(N.CompletionOrder));
    if (N.Cost) {
      W.key("cost");
      W.beginObject();
      W.member("self_ns", N.Cost->SelfNs);
      W.member("cum_ns", N.Cost->CumNs);
      W.member("steps", N.Cost->Steps);
      W.member("answers_consumed", N.Cost->AnswersConsumed);
      W.member("resumptions", N.Cost->Resumptions);
      W.member("warm", N.Cost->Warm);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.key("edges");
  W.beginArray();
  for (const ForestEdge &E : sortedUniqueEdges(G)) {
    W.beginObject();
    W.member("consumer", static_cast<uint64_t>(E.Consumer));
    W.member("producer", static_cast<uint64_t>(E.Producer));
    W.endObject();
  }
  W.endArray();
  W.key("sccs");
  W.beginArray();
  for (const SccSummary &S : computeSccSummaries(G)) {
    W.beginObject();
    W.member("scc", static_cast<uint64_t>(S.SccId));
    W.member("completion_order", static_cast<uint64_t>(S.CompletionOrder));
    W.member("answers", S.Answers);
    W.member("incomplete", S.Incomplete);
    W.key("members");
    W.beginArray();
    for (uint32_t M : S.Members)
      W.value(static_cast<uint64_t>(M));
    W.endArray();
    W.endObject();
  }
  W.endArray();
  W.endObject();
}

std::string forestToJson(const ForestGraph &G) {
  std::string Out;
  JsonWriter W(Out);
  writeForestJson(G, W);
  return Out;
}

} // namespace lpa
