//===- lpa_top.cpp - Live table-space viewer for lpa_serve ---------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// top(1) for a warm analysis session: connects to a running lpa_serve,
// issues the "inspect" verb (schema lpa.inspect.v1), and renders the
// answer as aligned text — top-N tables by bytes or answers, per-predicate
// warm-hit rates, shared-space shard contention, dependency-index size,
// and the flight-recorder tail counters. This is the operator's view of
// the same data the eviction/shard-tuning work consumes programmatically.
//
// Usage:
//   lpa_top --socket PATH [--top N] [--sort bytes|answers|contention]
//           [--watch SECS]
//
// With --watch the client keeps the connection open and refreshes every
// SECS seconds (clearing the screen when stdout is a terminal) until
// interrupted or the server goes away; each refresh also pulls the
// "metrics" verb's history ring and renders sparkline trend columns, so
// the motion between refreshes is visible without client-side state.
// --sort contention ranks the shared-space shards by their lock
// contention ratio (tables fall back to bytes order).
//
// Exit: 0 on success, 1 on protocol errors, 2 on usage/connection errors
// (usage: an unknown flag, or a --top/--watch value that is not a whole
// unsigned decimal in range).
//
//===----------------------------------------------------------------------===//

#include "obs/MetricsHistory.h"
#include "support/JsonValue.h"
#include "support/ParseNumber.h"
#include "support/TableFormat.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace lpa;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--top N] "
               "[--sort bytes|answers|contention]\n"
               "          [--watch SECS]\n",
               Argv0);
  return 2;
}

int connectSocket(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

unsigned long long u64Or(const JsonValue &Obj, std::string_view Key) {
  return static_cast<unsigned long long>(Obj.numberOr(Key, 0));
}

std::string flagsCell(const JsonValue &T) {
  const JsonValue *Complete = T.find("complete");
  const JsonValue *Incomplete = T.find("incomplete");
  const JsonValue *Invalidated = T.find("invalidated");
  if (Invalidated && Invalidated->asBool())
    return "invalidated";
  if (Incomplete && Incomplete->asBool())
    return "incomplete";
  if (Complete && Complete->asBool())
    return "complete";
  return "open";
}

/// Renders one lpa.inspect.v1 snapshot as the full report.
void render(const JsonValue &Inspect) {
  const JsonValue *Totals = Inspect.find("totals");
  if (Totals) {
    std::printf("tables: %llu subgoals, %llu answers, %llu bytes | "
                "warm %llu / cold %llu | incomplete %llu, invalidated %llu\n",
                (unsigned long long)u64Or(*Totals, "subgoals"),
                (unsigned long long)u64Or(*Totals, "answers"),
                (unsigned long long)u64Or(*Totals, "table_space_bytes"),
                (unsigned long long)u64Or(*Totals, "warm_hits"),
                (unsigned long long)u64Or(*Totals, "cold_misses"),
                (unsigned long long)u64Or(*Totals, "incomplete_tables"),
                (unsigned long long)u64Or(*Totals, "tables_invalidated"));
  }

  const JsonValue *Dep = Inspect.find("dep_index");
  const JsonValue *Shared = Inspect.find("shared_space");
  const JsonValue *Rec = Inspect.find("recorder");
  std::printf("dep-index: %llu edges / %llu producers / %llu bytes | "
              "shared retired %llu | recorder %llu events (%llu dropped, "
              "%llu dumps)\n\n",
              (unsigned long long)(Dep ? u64Or(*Dep, "edges") : 0),
              (unsigned long long)(Dep ? u64Or(*Dep, "producers") : 0),
              (unsigned long long)(Dep ? u64Or(*Dep, "bytes") : 0),
              (unsigned long long)(Shared ? u64Or(*Shared, "retired") : 0),
              (unsigned long long)(Rec ? u64Or(*Rec, "total") : 0),
              (unsigned long long)(Rec ? u64Or(*Rec, "dropped") : 0),
              (unsigned long long)(Rec ? u64Or(*Rec, "dumps") : 0));

  std::printf("Top tables (sort=%s):\n",
              Inspect.stringOr("sort", "bytes").c_str());
  TextTable Tables;
  Tables.addRow({"Call", "Pred", "Answers", "Bytes", "State"});
  if (const JsonValue *Top = Inspect.find("top_tables"))
    for (const JsonValue &T : Top->items())
      Tables.addRow({T.stringOr("call", "?"), T.stringOr("pred", "?"),
                     TextTable::fmt(u64Or(T, "answers")),
                     TextTable::fmt(u64Or(T, "bytes")), flagsCell(T)});
  std::fputs(Tables.render().c_str(), stdout);

  std::printf("\nPredicates:\n");
  TextTable Preds;
  Preds.addRow({"Pred", "Calls", "Warm", "Cold", "Hit%", "Tables", "Answers",
                "Bytes"});
  if (const JsonValue *Ps = Inspect.find("predicates"))
    for (const JsonValue &P : Ps->items())
      Preds.addRow({P.stringOr("pred", "?"), TextTable::fmt(u64Or(P, "calls")),
                    TextTable::fmt(u64Or(P, "warm_hits")),
                    TextTable::fmt(u64Or(P, "cold_misses")),
                    TextTable::fmt(P.numberOr("warm_hit_rate", 0) * 100.0, 1),
                    TextTable::fmt(u64Or(P, "table_subgoals")),
                    TextTable::fmt(u64Or(P, "table_answers")),
                    TextTable::fmt(u64Or(P, "table_bytes"))});
  std::fputs(Preds.render().c_str(), stdout);

  // Per-shard contention only matters when parallel eval has run; skip
  // the section entirely for a serial session.
  const JsonValue *Shards = Shared ? Shared->find("shards") : nullptr;
  if (Shards && !Shards->items().empty()) {
    std::printf("\nShared-space shards:\n");
    TextTable Sh;
    Sh.addRow({"Shard", "Lookups", "Warm", "Claims", "Retired", "Entries",
               "LockAcq", "Contended", "Cont%", "WaitUs"});
    size_t Idx = 0;
    for (const JsonValue &S : Shards->items()) {
      // The server stamps each shard with its stable index ("shard") so a
      // contention-sorted listing still names the hot shard correctly.
      unsigned long long ShardIdx =
          S.find("shard") ? u64Or(S, "shard") : (unsigned long long)Idx;
      ++Idx;
      Sh.addRow({TextTable::fmt(ShardIdx),
                 TextTable::fmt(u64Or(S, "lookups")),
                 TextTable::fmt(u64Or(S, "warm_hits")),
                 TextTable::fmt(u64Or(S, "claims")),
                 TextTable::fmt(u64Or(S, "retired")),
                 TextTable::fmt(u64Or(S, "entries")),
                 TextTable::fmt(u64Or(S, "lock_acquisitions")),
                 TextTable::fmt(u64Or(S, "lock_contended")),
                 TextTable::fmt(S.numberOr("contention_ratio", 0) * 100.0, 1),
                 TextTable::fmt(double(u64Or(S, "lock_wait_ns")) / 1000.0, 1)});
    }
    std::fputs(Sh.render().c_str(), stdout);
  }
}

/// Renders sparkline trend columns from one lpa.metrics.v1 history ring.
/// Counters show per-interval deltas (what moved since the last sample);
/// gauges show raw values. All-flat series are skipped.
void renderTrends(const JsonValue &Metrics) {
  const JsonValue *Hist = Metrics.find("history");
  if (!Hist || !Hist->isObject())
    return;
  const JsonValue *Names = Hist->find("series");
  const JsonValue *Kinds = Hist->find("kinds");
  const JsonValue *Samples = Hist->find("samples");
  if (!Names || !Kinds || !Samples || Samples->items().size() < 2)
    return;

  TextTable Tab;
  Tab.addRow({"Series", "Now", "Trend"});
  size_t Rows = 0;
  for (size_t I = 0; I < Names->items().size(); ++I) {
    std::vector<uint64_t> Raw;
    Raw.reserve(Samples->items().size());
    for (const JsonValue &S : Samples->items()) {
      const JsonValue *V = S.find("v");
      if (V && V->isArray() && I < V->items().size() &&
          V->items()[I].isNumber())
        Raw.push_back(static_cast<uint64_t>(V->items()[I].asNumber()));
    }
    if (Raw.size() < 2)
      continue;
    bool Counter = Kinds->items()[I].asString() == "counter";
    std::vector<uint64_t> Trend;
    if (Counter) {
      // Per-interval deltas, clamped at zero across resets.
      for (size_t J = 1; J < Raw.size(); ++J)
        Trend.push_back(Raw[J] >= Raw[J - 1] ? Raw[J] - Raw[J - 1] : 0);
    } else {
      Trend = Raw;
    }
    bool Flat = true;
    for (uint64_t V : Trend)
      if (V != (Counter ? 0 : Trend.front())) {
        Flat = false;
        break;
      }
    if (Flat)
      continue;
    Tab.addRow({Names->items()[I].asString(),
                TextTable::fmt((unsigned long long)Raw.back()),
                renderSparkline(Trend)});
    ++Rows;
  }
  if (Rows) {
    std::printf("\nTrends (per %llu ms sample):\n",
                (unsigned long long)Hist->numberOr("interval_ms", 0));
    std::fputs(Tab.render().c_str(), stdout);
  }
}

/// One request/response over the open connection. On success \p Doc holds
/// the parsed response and \p Obj points at its \p Key member. \returns
/// false when the server hung up or the response failed.
bool fetchObject(std::FILE *In, std::FILE *Out, const std::string &Req,
                 const char *Key, JsonValue &Doc, const JsonValue *&Obj) {
  std::fwrite(Req.data(), 1, Req.size(), Out);
  std::fputc('\n', Out);
  std::fflush(Out);

  std::string Resp;
  int C;
  while ((C = std::fgetc(In)) != EOF && C != '\n')
    Resp.push_back(static_cast<char>(C));
  if (Resp.empty()) {
    std::fprintf(stderr, "lpa_top: server closed connection\n");
    return false;
  }

  auto Parsed = JsonValue::parse(Resp);
  if (!Parsed) {
    std::fprintf(stderr, "lpa_top: response is not valid JSON: %s\n",
                 Parsed.getError().str().c_str());
    return false;
  }
  Doc = std::move(*Parsed);
  const JsonValue *Ok = Doc.find("ok");
  if (!Ok || !Ok->asBool()) {
    const JsonValue *Err = Doc.find("error");
    std::fprintf(stderr, "lpa_top: %s failed: %s\n", Key,
                 Err && Err->isString() ? Err->asString().c_str()
                                        : "(no error message)");
    return false;
  }
  Obj = Doc.find(Key);
  if (!Obj || !Obj->isObject()) {
    std::fprintf(stderr, "lpa_top: response has no \"%s\" object\n", Key);
    return false;
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath;
  uint32_t TopN = 10;
  std::string Sort = "bytes";
  unsigned WatchSecs = 0; // What sleep() takes.

  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (A == "--socket" && I + 1 < argc)
      SocketPath = argv[++I];
    else if (A == "--top" && I + 1 < argc) {
      if (!parseUnsigned(argv[++I], std::numeric_limits<uint32_t>::max(),
                         TopN))
        return usage(argv[0]);
    } else if (A == "--sort" && I + 1 < argc) {
      Sort = argv[++I];
    } else if (A == "--watch" && I + 1 < argc) {
      if (!parseUnsigned(argv[++I], std::numeric_limits<unsigned>::max(),
                         WatchSecs))
        return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (SocketPath.empty() ||
      (Sort != "bytes" && Sort != "answers" && Sort != "contention"))
    return usage(argv[0]);

  int Fd = connectSocket(SocketPath);
  if (Fd < 0) {
    std::fprintf(stderr, "lpa_top: cannot connect to %s\n",
                 SocketPath.c_str());
    return 2;
  }
  std::FILE *In = ::fdopen(::dup(Fd), "r");
  std::FILE *Out = ::fdopen(Fd, "w");
  if (!In || !Out) {
    std::fprintf(stderr, "lpa_top: fdopen failed\n");
    return 2;
  }

  std::string Req = "{\"op\":\"inspect\",\"top\":" + std::to_string(TopN) +
                    ",\"sort\":\"" + Sort + "\"}";
  // Watch mode adds the history-ring trends: a bounded tail is plenty for
  // a terminal-width sparkline.
  std::string MetricsReq = "{\"op\":\"metrics\",\"max_samples\":40}";
  int Rc = 0;
  for (;;) {
    if (WatchSecs && ::isatty(STDOUT_FILENO))
      std::fputs("\x1b[H\x1b[2J", stdout); // Home + clear, like top(1).
    JsonValue Doc;
    const JsonValue *Inspect = nullptr;
    if (!fetchObject(In, Out, Req, "inspect", Doc, Inspect)) {
      Rc = 1;
      break;
    }
    render(*Inspect);
    if (WatchSecs) {
      JsonValue MDoc;
      const JsonValue *Metrics = nullptr;
      if (!fetchObject(In, Out, MetricsReq, "metrics", MDoc, Metrics)) {
        Rc = 1;
        break;
      }
      renderTrends(*Metrics);
    }
    std::fflush(stdout);
    if (!WatchSecs)
      break;
    ::sleep(WatchSecs);
  }

  std::fclose(In);
  std::fclose(Out);
  return Rc;
}
