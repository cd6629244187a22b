//===- SessionWorkload.cpp - A seeded editing session on the daemon -------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// session_edit: one in-process AnalysisSession with the daemon's default
// telemetry, driven through lpa::handleRequestLine by one closed-loop
// client. The seed generates K random graphs, each with its own tabled
// left-recursive path_k/2 over edge_k/2, a nontabled count/2 recursion, and
// the op stream: skewed bound-first-argument path queries (mostly warm
// repeats), a few open and count queries, ~10% single-edge consults and
// retracts, and stats/inspect/metrics polls. Every pass replays the stream
// on a fresh session, so a pass's counts and table peak repeat exactly.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "obs/Json.h"
#include "srv/Protocol.h"
#include "srv/Session.h"
#include "support/JsonValue.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>

using namespace lpa;
using namespace perfbench;

namespace {

constexpr int NumGraphs = 8;
constexpr int NumNodes = 32;
constexpr int OutDegree = 3;
constexpr size_t OpsPerPass = 1500;
/// Each block of BlockSize requests holds one open query, two count
/// queries, one poll of each telemetry op, EditsPerBlock edits (10%), and
/// path queries for the rest.
constexpr size_t BlockSize = 50, EditsPerBlock = 5;
/// count/2 depth range: well under the nontabled recursion depth that
/// exhausts the native stack.
constexpr int MinCount = 100, MaxCount = 1000;
/// Skew of the path-query keys: most queries repeat a hot key.
constexpr double ZipfExponent = 1.5;

std::string node(int I) { return "n" + std::to_string(I); }

std::string edgeFact(int G, int A, int B) {
  return "edge_" + std::to_string(G) + "(" + node(A) + "," + node(B) + ").";
}

std::string pathAnswer(int G, int A, int B) {
  return "path_" + std::to_string(G) + "(" + node(A) + "," + node(B) + ")";
}

std::string requestLine(std::initializer_list<std::pair<const char *, std::string>>
                            Members) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  for (const auto &[K, V] : Members)
    W.member(K, std::string_view(V));
  W.endObject();
  return Out;
}

std::string queryLine(const std::string &Goal) {
  std::string Out;
  JsonWriter W(Out);
  W.beginObject();
  W.member("op", "query");
  W.member("goal", std::string_view(Goal));
  // Every answer is rendered, so the oracle sees the whole set.
  W.member("max_solutions", uint64_t(NumNodes * NumNodes + 1));
  W.endObject();
  return Out;
}

/// Zipf sampler over ranks 0..N-1: P(rank r) is proportional to
/// 1 / (r + 1)^Exponent.
class Zipf {
public:
  Zipf(size_t N, double Exponent) : Cdf(N) {
    double Sum = 0;
    for (size_t I = 0; I < N; ++I)
      Cdf[I] = (Sum += std::pow(double(I + 1), -Exponent));
    for (double &C : Cdf)
      C /= Sum;
  }
  size_t draw(Rng &R) const {
    auto It = std::lower_bound(Cdf.begin(), Cdf.end(), R.unit());
    return std::min<size_t>(It - Cdf.begin(), Cdf.size() - 1);
  }

private:
  std::vector<double> Cdf;
};

/// One request's time and raw response; checked after the pass.
struct OpRecord {
  double LatencyUs = 0;
  std::string Response;
};

struct SessionPass {
  double SetupS = 0;
  double WallMs = 0;
  std::vector<OpRecord> Ops;
  EvalStats Stats;
  TableWatermarks Water;
};

AnalysisSession::Options sessionOptions() {
  AnalysisSession::Options O;
  O.EvalWorkers = 0; // Serial; no sampler thread (SampleHz stays 0).
  O.SampleHz = 0;
  return O;
}

const char *opName(SessionOp::Kind K) {
  switch (K) {
  case SessionOp::PathQuery:
    return "query.path";
  case SessionOp::OpenQuery:
    return "query.open";
  case SessionOp::CountQuery:
    return "query.count";
  case SessionOp::Consult:
    return "consult";
  case SessionOp::Retract:
    return "retract";
  case SessionOp::Stats:
    return "stats";
  case SessionOp::Inspect:
    return "inspect";
  case SessionOp::Metrics:
    return "metrics";
  }
  return "";
}

bool isQuery(SessionOp::Kind K) {
  return K == SessionOp::PathQuery || K == SessionOp::OpenQuery ||
         K == SessionOp::CountQuery;
}

bool isOkResponse(const ErrorOr<JsonValue> &Doc) {
  if (!Doc || !Doc->isObject())
    return false;
  const JsonValue *Ok = Doc->find("ok");
  return Ok && Ok->kind() == JsonValue::Kind::Bool && Ok->asBool();
}

/// Runs one pass: set-up (generate, construct, initial consult), then the
/// op stream, each request timed line in to line out.
SessionPass runPass(uint64_t Seed, SpanRecorder &Spans, uint64_t &Group,
                    ErrorLedger &Errors, SessionScript &Script) {
  SessionPass P;
  auto SetupStart = std::chrono::steady_clock::now();
  Script = generateSession(Seed);
  auto Session = std::make_unique<AnalysisSession>(sessionOptions());
  bool Shutdown = false;
  std::string Consulted = handleRequestLine(
      *Session, requestLine({{"op", "consult"}, {"program", Script.Program}}),
      Shutdown);
  P.SetupS = secondsSince(SetupStart);
  {
    Errors.check(isOkResponse(JsonValue::parse(Consulted)),
                 "initial consult: " + Consulted);
  }

  P.Ops.resize(Script.Ops.size());
  double Start = nowUs();
  int64_t PassSpan = Spans.open("pass", "", -1, ++Group);
  for (size_t I = 0; I < Script.Ops.size(); ++I) {
    const SessionOp &Op = Script.Ops[I];
    double T0 = nowUs();
    P.Ops[I].Response = handleRequestLine(*Session, Op.Line, Shutdown);
    double T1 = nowUs();
    P.Ops[I].LatencyUs = T1 - T0;
    if (Spans.enabled()) {
      ++Group;
      int64_t Req = Spans.add("request", "", T0, T1, PassSpan, Group);
      double Inner = T1 - T0;
      if (isQuery(Op.K)) {
        // The engine's share comes from the response's own wall_ms; the
        // rest of the request is protocol (parse, render, telemetry).
        auto Doc = JsonValue::parse(P.Ops[I].Response);
        if (Doc)
          Inner = std::min(Inner, Doc->numberOr("wall_ms", 0) * 1e3);
      }
      Spans.add(opName(Op.K), "", T0, T0 + Inner, Req, Group);
    }
  }
  P.WallMs = (nowUs() - Start) / 1e3;
  Spans.close(PassSpan);
  P.Stats = Session->solver().stats();
  P.Water = Session->solver().watermarks();
  return P;
}

/// The timings of one phase's passes, per request of the stream. Every pass
/// replays the same stream on a fresh session, so request I does the same
/// work in every pass and its quiet() time is its time on a quiet machine.
struct Samples {
  std::vector<double> SetupS, WallMs;
  RepeatedOps LatencyUs;
  /// Queries only: the response's wall_ms, and the request time minus it.
  RepeatedOps EngineMs, ProtocolUs;
  /// Path and open queries that missed a table (from the first pass).
  std::vector<uint8_t> Cold;
  double WarmHits = 0, ColdMisses = 0;
};

/// Checks every response of \p P against the oracle and folds the timings
/// into \p S.
void checkAndCollect(const SessionScript &Script, const SessionPass &P,
                     ErrorLedger &Errors, Samples &S) {
  bool First = S.WallMs.empty();
  S.WallMs.push_back(P.WallMs);
  S.SetupS.push_back(P.SetupS);
  if (First)
    S.Cold.assign(P.Ops.size(), 0);
  for (size_t I = 0; I < P.Ops.size(); ++I) {
    const SessionOp &Op = Script.Ops[I];
    const OpRecord &R = P.Ops[I];
    std::string Why;
    Errors.check(checkResponse(Op, R.Response, Why),
                 std::string(opName(Op.K)) + " #" + std::to_string(I) + ": " +
                     Why);
    S.LatencyUs.add(I, R.LatencyUs);
    if (!isQuery(Op.K))
      continue;
    auto Doc = JsonValue::parse(R.Response);
    double WallMs = Doc ? Doc->numberOr("wall_ms", 0) : 0;
    S.EngineMs.add(I, WallMs);
    S.ProtocolUs.add(I, R.LatencyUs - WallMs * 1e3);
    if (!First || Op.K == SessionOp::CountQuery)
      continue;
    double Cold = Doc ? Doc->numberOr("cold_misses", 0) : 0;
    S.WarmHits += Doc ? Doc->numberOr("warm_hits", 0) : 0;
    S.ColdMisses += Cold;
    S.Cold[I] = Cold > 0;
  }
}

/// Median over the requests \p Keep selects of their quiet() times in
/// \p Ops.
template <typename Pred> double quietP50(const RepeatedOps &Ops, Pred Keep) {
  return nearestRank(Ops.quietWhere(Keep), 50).Value;
}

/// Selects the requests of \p Script whose kind is one of \p Kinds.
auto kindIs(const SessionScript &Script,
            std::initializer_list<SessionOp::Kind> Kinds) {
  return [&Script, Set = std::vector<SessionOp::Kind>(Kinds)](size_t I) {
    return std::find(Set.begin(), Set.end(), Script.Ops[I].K) != Set.end();
  };
}

double queryP50(const SessionScript &Script, const Samples &S) {
  return quietP50(S.LatencyUs,
                  [&](size_t I) { return isQuery(Script.Ops[I].K); });
}

void perLayer(const SessionScript &Script, const Samples &S,
              const SessionPass &First, RunResult &R) {
  auto Graph = kindIs(Script, {SessionOp::PathQuery, SessionOp::OpenQuery});
  R.set("srv.query_warm_us_p50", quietP50(S.LatencyUs, [&](size_t I) {
          return Graph(I) && !S.Cold[I];
        }));
  R.set("srv.query_cold_us_p50", quietP50(S.LatencyUs, [&](size_t I) {
          return Graph(I) && S.Cold[I];
        }));
  R.set("srv.protocol_us_p50",
        quietP50(S.ProtocolUs,
                 [&](size_t I) { return isQuery(Script.Ops[I].K); }));
  R.set("srv.count_query_us_p50",
        quietP50(S.LatencyUs, kindIs(Script, {SessionOp::CountQuery})));
  R.set("srv.consult_ms_p50",
        quietP50(S.LatencyUs, kindIs(Script, {SessionOp::Consult})) / 1e3);
  R.set("srv.retract_ms_p50",
        quietP50(S.LatencyUs, kindIs(Script, {SessionOp::Retract})) / 1e3);
  R.set("srv.telemetry_ms_p50",
        quietP50(S.LatencyUs,
                 kindIs(Script, {SessionOp::Stats, SessionOp::Inspect,
                                 SessionOp::Metrics})) /
            1e3);
  R.set("srv.warm_hit_rate",
        ratio(S.WarmHits, S.WarmHits + S.ColdMisses));

  const EvalStats &St = First.Stats;
  setEngineMetrics(St, First.Water, S.EngineMs.quietSum(), R);
  double Inv = double(St.TablesInvalidated), Surv = double(St.TablesSurvived);
  R.set("engine.tables_invalidated", Inv);
  R.set("engine.tables_survived", Surv);
  R.set("engine.sweep_survival_ratio", ratio(Surv, Surv + Inv));
  R.set("engine.tables_revived", double(St.TablesRevived));
}

} // namespace

std::vector<int> perfbench::reachableFrom(const EdgeSet &Edges, int From) {
  std::vector<int> Seen;
  std::deque<int> Work = {From};
  std::set<int> Visited;
  while (!Work.empty()) {
    int N = Work.front();
    Work.pop_front();
    for (auto It = Edges.lower_bound({N, INT32_MIN});
         It != Edges.end() && It->first == N; ++It)
      if (Visited.insert(It->second).second)
        Work.push_back(It->second);
  }
  return {Visited.begin(), Visited.end()};
}

SessionScript perfbench::generateSession(uint64_t Seed) {
  SessionScript S;
  Rng R(streamSeed(Seed, 0x5e55));
  std::vector<EdgeSet> Graphs(NumGraphs);
  for (int G = 0; G < NumGraphs; ++G) {
    S.Program += ":- table path_" + std::to_string(G) + "/2.\n";
    S.Program += "path_" + std::to_string(G) + "(X,Y) :- path_" +
                 std::to_string(G) + "(X,Z), edge_" + std::to_string(G) +
                 "(Z,Y).\n";
    S.Program += "path_" + std::to_string(G) + "(X,Y) :- edge_" +
                 std::to_string(G) + "(X,Y).\n";
    for (int A = 0; A < NumNodes; ++A)
      while (Graphs[G].size() < size_t((A + 1) * OutDegree)) {
        int B = int(R.below(NumNodes));
        if (B != A && Graphs[G].insert({A, B}).second)
          S.Program += edgeFact(G, A, B) + "\n";
      }
  }
  S.Program += "count(0, 0).\n"
               "count(N, S) :- N > 0, M is N - 1, count(M, S0), S is S0 + N.\n";
  const size_t InitialEdges = size_t(NumNodes * OutDegree);

  // Query keys (graph, start node) in a seeded popularity order.
  std::vector<size_t> Keys = shuffledOrder(R.next(), NumGraphs * NumNodes);
  Zipf Popularity(Keys.size(), ZipfExponent);

  // The stream is made of blocks with a fixed mix and a seeded order, so
  // every seed asks for the same amount of each kind of work. Open queries
  // and edits visit the graphs round-robin.
  std::vector<SessionOp::Kind> Mix = {SessionOp::OpenQuery,
                                      SessionOp::CountQuery,
                                      SessionOp::CountQuery,
                                      SessionOp::Stats,
                                      SessionOp::Inspect,
                                      SessionOp::Metrics};
  Mix.insert(Mix.end(), EditsPerBlock, SessionOp::Consult);
  Mix.resize(BlockSize, SessionOp::PathQuery);
  int NextOpen = 0, NextEdit = 0;
  for (size_t Block = 0; Block < OpsPerPass / BlockSize; ++Block)
    for (size_t Slot : shuffledOrder(R.next(), BlockSize)) {
      SessionOp Op;
      Op.K = Mix[Slot];
      switch (Op.K) {
      case SessionOp::CountQuery: {
        int N = MinCount + int(R.below(MaxCount - MinCount + 1));
        Op.Line = queryLine("count(" + std::to_string(N) + ",S)");
        Op.Expected = {"count(" + std::to_string(N) + "," +
                       std::to_string(int64_t(N) * (N + 1) / 2) + ")"};
        break;
      }
      case SessionOp::OpenQuery: {
        int G = NextOpen++ % NumGraphs;
        Op.Line = queryLine("path_" + std::to_string(G) + "(X,Y)");
        for (int A = 0; A < NumNodes; ++A)
          for (int B : reachableFrom(Graphs[G], A))
            Op.Expected.push_back(pathAnswer(G, A, B));
        break;
      }
      case SessionOp::Consult: {
        // An edit: add an edge when the graph is below its initial size,
        // remove one when above, either when level.
        int G = NextEdit++ % NumGraphs;
        EdgeSet &E = Graphs[G];
        bool Add = E.size() < InitialEdges ||
                   (E.size() == InitialEdges && R.below(2) == 0);
        if (Add) {
          int A, B;
          do {
            A = int(R.below(NumNodes));
            B = int(R.below(NumNodes));
          } while (A == B || E.count({A, B}));
          E.insert({A, B});
          Op.Line = requestLine(
              {{"op", "consult"}, {"program", edgeFact(G, A, B)}});
        } else {
          auto It = std::next(E.begin(), long(R.below(E.size())));
          Op.K = SessionOp::Retract;
          Op.Line = requestLine(
              {{"op", "retract"},
               {"clause", edgeFact(G, It->first, It->second)}});
          E.erase(It);
        }
        break;
      }
      case SessionOp::Stats:
        Op.Line = requestLine({{"op", "stats"}});
        break;
      case SessionOp::Inspect:
        Op.Line = requestLine({{"op", "inspect"}});
        break;
      case SessionOp::Metrics:
        Op.Line = requestLine({{"op", "metrics"}});
        break;
      default: {
        size_t Key = Keys[Popularity.draw(R)];
        int G = int(Key / NumNodes), From = int(Key % NumNodes);
        Op.Line = queryLine("path_" + std::to_string(G) + "(" + node(From) +
                            ",X)");
        for (int B : reachableFrom(Graphs[G], From))
          Op.Expected.push_back(pathAnswer(G, From, B));
        break;
      }
      }
      std::sort(Op.Expected.begin(), Op.Expected.end());
      S.Ops.push_back(std::move(Op));
    }
  return S;
}

bool perfbench::checkResponse(const SessionOp &Op, const std::string &Response,
                              std::string &Why) {
  auto Doc = JsonValue::parse(Response);
  if (!isOkResponse(Doc)) {
    Why = "not an ok response: " + Response.substr(0, 200);
    return false;
  }
  switch (Op.K) {
  case SessionOp::Consult:
    Why = "consult did not load exactly one clause";
    return Doc->numberOr("clauses", -1) == 1;
  case SessionOp::Retract:
    Why = "retract did not remove exactly one clause";
    return Doc->numberOr("retracted", -1) == 1;
  case SessionOp::Stats:
  case SessionOp::Inspect:
  case SessionOp::Metrics:
    return true;
  default:
    break;
  }
  const JsonValue *Sols = Doc->find("solutions");
  if (!Sols || !Sols->isArray()) {
    Why = "query response has no solutions array";
    return false;
  }
  std::vector<std::string> Got;
  for (const JsonValue &V : Sols->items())
    Got.push_back(V.isString() ? V.asString() : "?");
  std::sort(Got.begin(), Got.end());
  if (Doc->numberOr("total", -1) != double(Op.Expected.size()) ||
      Got != Op.Expected) {
    Why = "answers differ from the oracle (got " + std::to_string(Got.size()) +
          ", expected " + std::to_string(Op.Expected.size()) + ")";
    return false;
  }
  const JsonValue *Inc = Doc->find("incomplete");
  if (Inc && Inc->asBool()) {
    Why = "answer set reported incomplete";
    return false;
  }
  return true;
}

RunResult perfbench::runSessionWorkload(const RunConfig &C) {
  RunResult R;
  SpanRecorder Untraced(false);
  uint64_t Group = 0;
  SessionScript Script;

  auto RunPhase = [&](SpanRecorder &Spans, double Seconds, Samples &S,
                      SessionPass &First) {
    auto Start = std::chrono::steady_clock::now();
    size_t Passes = 0;
    do {
      SessionPass P = runPass(C.Seed, Spans, Group, R.Errors, Script);
      checkAndCollect(Script, P, R.Errors, S);
      if (Passes++ == 0) {
        First.Stats = P.Stats;
        First.Water = P.Water;
      }
    } while (secondsSince(Start) < Seconds || Passes < 2);
  };

  Samples Base;
  SessionPass BaseFirst;
  RunPhase(Untraced, C.Trace ? C.Seconds / 2 : C.Seconds, Base, BaseFirst);
  if (!C.Trace) {
    std::vector<double> QueryUs = Base.LatencyUs.quietWhere(
        [&](size_t I) { return isQuery(Script.Ops[I].K); });
    std::vector<double> EditUs = Base.LatencyUs.quietWhere(
        kindIs(Script, {SessionOp::Consult, SessionOp::Retract}));
    double PassMs = Base.LatencyUs.quietSum() / 1e3;
    R.set("pass_ms", PassMs);
    R.set("table_bytes", double(BaseFirst.Water.PeakTableSpaceBytes));
    R.set("peak_rss_mb", peakRssMb());
    R.set("query_us_p50", nearestRank(QueryUs, 50).Value);
    R.set("query_us_p99", nearestRank(QueryUs, 99).Value);
    R.set("mutation_ms_p50", nearestRank(EditUs, 50).Value / 1e3);
    R.set("ops_per_s", ratio(double(Base.LatencyUs.size()), PassMs / 1e3));
    R.set("setup_s", median(Base.SetupS));
    char Buf[240];
    std::snprintf(Buf, sizeof(Buf),
                  "samples: %zu passes of %zu requests (%zu queries, %zu "
                  "edits), each request's time its minimum over the "
                  "passes; median pass wall %.3f ms (the machine's load)",
                  Base.WallMs.size(), Base.LatencyUs.size(), QueryUs.size(),
                  EditUs.size(), median(Base.WallMs));
    R.Report.push_back(Buf);
    return R;
  }

  SpanRecorder Spans(true);
  Samples Traced;
  SessionPass TracedFirst;
  RunPhase(Spans, C.Seconds / 2, Traced, TracedFirst);
  perLayer(Script, Traced, TracedFirst, R);
  R.set("trace.overhead_pct",
        overheadPct(queryP50(Script, Base), queryP50(Script, Traced)));

  size_t Cold = std::count(Traced.Cold.begin(), Traced.Cold.end(), 1);
  R.Report.push_back(
      "session_edit: " + std::to_string(Traced.WallMs.size()) +
      " traced passes of " + std::to_string(OpsPerPass) + " requests; " +
      std::to_string(Cold) + " cold path/open queries per pass");
  for (std::string &L : selfTimeReport(Spans.spans(), Traced.WallMs.size()))
    R.Report.push_back(std::move(L));
  // One file per workload: each traced run replaces the last one's.
  std::string Path = C.OutDir + "/" + C.Workload + ".trace.json";
  if (Spans.writeChromeTrace(Path))
    R.Report.push_back("chrome trace: " + Path);
  return R;
}
