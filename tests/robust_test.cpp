//===- robust_test.cpp - Hostile input must not kill the process ----------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// Input that arrives over the protocol may be arbitrarily deep. The reader
// rejects nesting beyond Parser::MaxNesting, and integer literals past
// int64, with an error response, and the daemon stays alive to answer the
// next request. When something does overflow the stack, the flight
// recorder's fatal-signal handler still runs (on its alternate stack) and
// leaves a post-mortem.
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/Json.h"
#include "reader/Parser.h"
#include "srv/Protocol.h"
#include "srv/Session.h"
#include "support/JsonValue.h"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace lpa;

namespace {

/// p(f(f(...f(a)...))) with \p Depth f/1 levels.
std::string nestedFact(size_t Depth) {
  std::string S = "p(";
  for (size_t I = 0; I < Depth; ++I)
    S += "f(";
  S += "a";
  S.append(Depth + 1, ')');
  return S;
}

/// q :- true, true, ..., true. with \p Goals goals (right-nested ','/2).
std::string longBody(size_t Goals) {
  std::string S = "q :- true";
  for (size_t I = 1; I < Goals; ++I)
    S += ", true";
  return S + ".";
}

/// One request line with a string member \p Key = \p Value.
std::string request(std::string_view Op, std::string_view Key,
                    std::string_view Value) {
  std::string Line;
  JsonWriter W(Line);
  W.beginObject();
  W.member("op", Op);
  W.member(Key, Value);
  W.endObject();
  return Line;
}

JsonValue respond(AnalysisSession &S, const std::string &Line) {
  bool Quit = false;
  std::string Resp = handleRequestLine(S, Line, Quit);
  auto V = JsonValue::parse(Resp);
  EXPECT_TRUE(V.hasValue()) << "unparsable response: " << Resp;
  return V.hasValue() ? *V : JsonValue();
}

bool ok(const JsonValue &V) {
  const JsonValue *Ok = V.find("ok");
  return Ok && Ok->asBool();
}

TEST(ReaderNesting, DeepInputGetsAnErrorResponse) {
  AnalysisSession S;
  // Each of these overflows the C++ stack in a reader without a nesting
  // limit.
  JsonValue Deep = respond(S, request("consult", "program",
                                      nestedFact(10000) + "."));
  EXPECT_FALSE(ok(Deep));
  EXPECT_NE(Deep.stringOr("error", "").find("nested deeper"),
            std::string::npos);
  EXPECT_FALSE(ok(respond(S, request("consult", "program", longBody(20000)))));
  EXPECT_FALSE(ok(respond(S, request("query", "goal", nestedFact(10000)))));

  // The session is alive and loaded nothing.
  JsonValue Health = respond(S, R"j({"op":"health"})j");
  EXPECT_TRUE(ok(Health));
  ASSERT_NE(Health.find("health"), nullptr);
  EXPECT_DOUBLE_EQ(Health.find("health")->numberOr("clauses", -1), 0.0);

  // A flat list is not nesting: 200,000 elements read fine.
  std::string List = "l([0";
  for (int I = 1; I < 200000; ++I) {
    List += ',';
    List += std::to_string(I);
  }
  EXPECT_TRUE(ok(respond(S, request("consult", "program", List + "])."))));
}

TEST(ReaderNesting, InputJustInsideTheLimitIsServed) {
  // f/1 levels add one parser level each on top of p/1's argument and the
  // term itself, so this is the deepest fact the reader accepts.
  size_t Deepest = Parser::MaxNesting - 2;
  AnalysisSession S;
  EXPECT_TRUE(ok(respond(S, request("consult", "program",
                                    nestedFact(Deepest) + "."))));
  JsonValue Q = respond(S, request("query", "goal", "p(X)"));
  EXPECT_TRUE(ok(Q));
  EXPECT_DOUBLE_EQ(Q.numberOr("total", 0), 1.0);
  EXPECT_FALSE(ok(respond(S, request("consult", "program",
                                     nestedFact(Deepest + 1) + "."))));
  EXPECT_TRUE(ok(respond(S, request("consult", "program",
                                    longBody(Parser::MaxNesting - 1)))));
  EXPECT_TRUE(ok(respond(S, R"j({"op":"health"})j")));
}

TEST(ReaderIntegers, LiteralPastInt64GetsAnErrorResponse) {
  AnalysisSession S;
  for (const JsonValue &R :
       {respond(S, request("consult", "program", "p(99999999999999999999).")),
        respond(S, request("query", "goal", "X = 99999999999999999999"))}) {
    EXPECT_FALSE(ok(R));
    EXPECT_NE(R.stringOr("error", "").find("integer literal out of range"),
              std::string::npos);
  }
  // The largest int64 still reads. Its negation's literal would not: the
  // minus sign is an operator, so -9223372036854775808 is -(2^63), and
  // 2^63 is out of range.
  EXPECT_TRUE(
      ok(respond(S, request("consult", "program", "p(9223372036854775807)."))));
  EXPECT_FALSE(ok(respond(S, request("query", "goal",
                                     "X = -9223372036854775808"))));
  EXPECT_TRUE(ok(respond(S, R"j({"op":"health"})j")));
}

/// Recursion with a frame the optimizer cannot fold into a loop; the stop
/// value is never reached.
volatile uint64_t StopAt = ~uint64_t(0);

[[gnu::noinline]] uint64_t recurse(uint64_t N) {
  volatile char Pad[256];
  Pad[0] = static_cast<char>(N);
  if (N == StopAt)
    return N;
  return recurse(N + 1) + Pad[0];
}

TEST(SignalDumpDeathTest, StackOverflowLeavesAPostMortem) {
  std::filesystem::path Dir = std::filesystem::path(::testing::TempDir()) /
                              ("lpa-robust-" + std::to_string(::getpid()));
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  EXPECT_EXIT(
      {
        FlightRecorder::Options O;
        O.DumpDir = Dir.string();
        FlightRecorder R(O);
        R.record(FrEventKind::QueryStart, 7, 0, 0, 0, 0, "count(10000)");
        FlightRecorder::installSignalDump(&R);
        recurse(0);
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  std::ifstream In(Dir / "lpa-postmortem-signal.txt");
  ASSERT_TRUE(In.good()) << "no post-mortem in " << Dir;
  std::stringstream Text;
  Text << In.rdbuf();
  EXPECT_NE(Text.str().find("SIGSEGV"), std::string::npos) << Text.str();
  EXPECT_NE(Text.str().find("count(10000)"), std::string::npos)
      << Text.str();
  std::filesystem::remove_all(Dir);
}

} // namespace
