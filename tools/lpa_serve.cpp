//===- lpa_serve.cpp - Long-lived analysis daemon -----------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The analysis service the ROADMAP's north-star asks for, in daemon form:
// a persistent AnalysisSession (loaded program + warm tables + telemetry)
// behind the JSON-lines protocol (src/srv/Protocol.h), over stdin/stdout
// by default or a Unix socket with --socket. One client at a time — the
// engine is single-threaded; parallel service shards sessions (see
// src/par) rather than locking one.
//
// Usage:
//   lpa_serve [--socket PATH] [--log-level debug|info|warn|error]
//             [--provenance] [--record-costs] [--sample-hz N]
//             [--eval-workers N] [--slow-ms MS] [--slowlog-dir PATH]
//             [--dump-dir PATH] [--metrics-interval-ms N]
//
// Structured logs (JSON lines) go to stderr; protocol responses to the
// client. Exit: 0 on a clean "shutdown" verb or EOF, 2 on usage errors
// (an unknown flag, or a numeric flag that is negative, has trailing
// characters, or is out of range).
//
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "srv/Protocol.h"
#include "srv/Session.h"
#include "support/ParseNumber.h"

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

/// Upper bound on --eval-workers: far above any useful pool size, low
/// enough that per-worker allocations stay small.
constexpr size_t MaxEvalWorkers = 256;

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --socket PATH     serve on a Unix socket instead of stdio\n"
               "  --log-level LVL   debug|info|warn|error (info)\n"
               "  --provenance      record justifications (\":why\"-style)\n"
               "  --record-costs    per-subgoal cost profiles on every query\n"
               "                    (explain works without this; it attaches "
               "per query)\n"
               "  --sample-hz N     background sampling profiler rate (0)\n"
               "  --eval-workers N  intra-query parallel eval workers "
               "(0 = serial, at most 256)\n"
               "  --slow-ms MS      slow-query capture threshold in ms\n"
               "                    (0 = adaptive vs rolling p95, the "
               "default; -1 = off)\n"
               "  --slowlog-dir PATH  persist slow-query exemplars in PATH\n"
               "                    and reload them on start\n"
               "  --dump-dir PATH   write post-mortem dumps (anomalies and\n"
               "                    fatal signals) into PATH\n"
               "  --metrics-interval-ms N  telemetry-ring sampling interval "
               "(1000)\n",
               Argv0);
  return 2;
}

/// Runs the request loop over stdio-style streams. \returns true when the
/// client asked for shutdown (as opposed to just disconnecting).
bool serveStream(AnalysisSession &Session, std::FILE *In, std::FILE *Out) {
  std::string Line;
  int C;
  bool Shutdown = false;
  while (!Shutdown) {
    Line.clear();
    while ((C = std::fgetc(In)) != EOF && C != '\n')
      Line.push_back(static_cast<char>(C));
    if (Line.empty() && C == EOF)
      break;
    if (Line.find_first_not_of(" \t\r") == std::string::npos) {
      if (C == EOF)
        break;
      continue; // Blank keep-alive line.
    }
    std::string Resp = handleRequestLine(Session, Line, Shutdown);
    Resp += '\n';
    std::fwrite(Resp.data(), 1, Resp.size(), Out);
    std::fflush(Out);
    if (C == EOF)
      break;
  }
  return Shutdown;
}

int serveSocket(AnalysisSession &Session, Logger &Log,
                const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Log.error("socket() failed", {{"errno", int64_t(errno)}});
    return 1;
  }
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Log.error("socket path too long", {{"path", Path}});
    return 2;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  ::unlink(Path.c_str()); // Stale socket from a previous run.
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 4) < 0) {
    Log.error("bind/listen failed",
              {{"path", Path}, {"errno", int64_t(errno)}});
    ::close(Fd);
    return 1;
  }
  Log.info("listening", {{"socket", Path}});

  bool Shutdown = false;
  while (!Shutdown) {
    int Client = ::accept(Fd, nullptr, nullptr);
    if (Client < 0) {
      if (errno == EINTR)
        continue;
      Log.error("accept failed", {{"errno", int64_t(errno)}});
      break;
    }
    Log.debug("client connected");
    // Separate FILE streams for the two directions; fdopen owns and
    // closes its fd, so the read side gets a dup.
    std::FILE *In = ::fdopen(::dup(Client), "r");
    std::FILE *Out = ::fdopen(Client, "w");
    if (!In || !Out) {
      if (In)
        std::fclose(In);
      else
        ::close(Client);
      if (Out)
        std::fclose(Out);
      continue;
    }
    Shutdown = serveStream(Session, In, Out);
    std::fclose(In);
    std::fclose(Out);
    Log.debug("client disconnected",
              {{"queries_served", Session.queriesServed()}});
  }
  ::close(Fd);
  ::unlink(Path.c_str());
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath;
  LogLevel Level = LogLevel::Info;
  AnalysisSession::Options SO;
  SO.SampleLane = "serve";

  for (int I = 1; I < argc; ++I) {
    std::string_view A = argv[I];
    if (A == "--socket" && I + 1 < argc) {
      SocketPath = argv[++I];
    } else if (A == "--log-level" && I + 1 < argc) {
      if (!parseLogLevel(argv[++I], Level))
        return usage(argv[0]);
    } else if (A == "--provenance") {
      SO.RecordProvenance = true;
    } else if (A == "--record-costs") {
      SO.RecordCosts = true;
    } else if (A == "--sample-hz" && I + 1 < argc) {
      if (!parseUnsigned(argv[++I], std::numeric_limits<uint32_t>::max(),
                         SO.SampleHz))
        return usage(argv[0]);
    } else if (A == "--eval-workers" && I + 1 < argc) {
      if (!parseUnsigned(argv[++I], MaxEvalWorkers, SO.EvalWorkers))
        return usage(argv[0]);
    } else if (A == "--slow-ms" && I + 1 < argc) {
      SO.SlowLog.ThresholdMs = std::strtod(argv[++I], nullptr);
    } else if (A == "--slowlog-dir" && I + 1 < argc) {
      SO.SlowLog.Dir = argv[++I];
    } else if (A == "--dump-dir" && I + 1 < argc) {
      SO.Recorder.DumpDir = argv[++I];
    } else if (A == "--metrics-interval-ms" && I + 1 < argc) {
      if (!parseUnsigned(argv[++I], std::numeric_limits<uint64_t>::max(),
                         SO.History.IntervalMs))
        return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }

  Logger Log(stderr, Level);
  SO.Log = &Log;
  AnalysisSession Session(SO);
  // Fatal-signal black box: with a dump directory configured, a crash
  // still leaves the flight-recorder tail on disk (async-signal-safe
  // path; the handler re-raises after writing).
  if (!SO.Recorder.DumpDir.empty())
    FlightRecorder::installSignalDump(&Session.flightRecorder());
  Log.info("lpa_serve up",
           {{"transport", SocketPath.empty() ? "stdio" : "socket"},
            {"sample_hz", uint64_t(SO.SampleHz)},
            {"provenance", SO.RecordProvenance},
            {"eval_workers", uint64_t(SO.EvalWorkers)}});

  int Rc = 0;
  if (SocketPath.empty())
    serveStream(Session, stdin, stdout);
  else
    Rc = serveSocket(Session, Log, SocketPath);
  Log.info("lpa_serve down",
           {{"queries_served", Session.queriesServed()}});
  return Rc;
}
