//===- selftest.cpp - Tests of the benchmark's own machinery --------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
//
// Self time with nested and overlapping children, nearest-rank percentiles,
// generator determinism, the BFS oracle, and a corrupted answer reaching
// error_rate. Exits 1 on the first failed check.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "srv/Protocol.h"
#include "srv/Session.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

int Checks = 0;

void check(bool Ok, const char *What, int Line) {
  ++Checks;
  if (Ok)
    return;
  std::fprintf(stderr, "selftest.cpp:%d: check failed: %s\n", Line, What);
  std::exit(1);
}
#define CHECK(Cond) check((Cond), #Cond, __LINE__)

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

void testSelfTime() {
  // Nested: pass [0,100] > program [10,30] > analyze [15,20].
  std::vector<Span> Nested = {{"pass", "", 0, 100, -1, 1},
                              {"program", "", 10, 30, 0, 1},
                              {"analyze", "", 15, 20, 1, 1}};
  std::vector<double> S = selfTimesUs(Nested);
  CHECK(near(S[0], 80));
  CHECK(near(S[1], 15));
  CHECK(near(S[2], 5));

  // Overlapping children, one sticking out of the parent: the covered part
  // is [10,60] + [90,100] = 60.
  std::vector<Span> Overlap = {{"request", "", 0, 100, -1, 1},
                               {"a", "", 10, 40, 0, 1},
                               {"b", "", 30, 60, 0, 1},
                               {"c", "", 90, 120, 0, 1}};
  S = selfTimesUs(Overlap);
  CHECK(near(S[0], 40));
  CHECK(near(S[1], 30));

  // A child fully covering its parent leaves no self time.
  std::vector<Span> Covered = {{"p", "", 5, 10, -1, 1},
                               {"c", "", 0, 20, 0, 1}};
  CHECK(near(selfTimesUs(Covered)[0], 0));
}

void testPercentiles() {
  std::vector<double> V = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  Quantile Q = nearestRank(V, 50);
  CHECK(near(Q.Value, 5) && Q.Samples == 10);
  CHECK(near(nearestRank(V, 90).Value, 9));
  CHECK(near(nearestRank(V, 99).Value, 10));
  CHECK(near(nearestRank(V, 1).Value, 1));
  Q = nearestRank({}, 50);
  CHECK(Q.Samples == 0 && Q.Value == 0);
  Q = nearestRank({42}, 99);
  CHECK(near(Q.Value, 42) && Q.Samples == 1);
  CHECK(near(median({3, 1, 2}), 2));

  // Slow stretches never decide the quiet time.
  CHECK(near(quiet({300, 120, 300, 101, 250}), 101));
  CHECK(near(quiet({7}), 7));
  CHECK(quiet({}) == 0);
}

void testRepeatedOps() {
  // Two operations over three passes, the second pass slowed by load.
  RepeatedOps Ops;
  for (double Load : {1.0, 2.0, 1.1}) {
    Ops.add(0, 10 * Load);
    Ops.add(1, 30 * Load);
  }
  CHECK(Ops.size() == 2);
  std::vector<double> Each = Ops.quietEach();
  CHECK(Each.size() == 2 && near(Each[0], 10) && near(Each[1], 30));
  CHECK(near(Ops.quietSum(), 40));
  std::vector<double> Second = Ops.quietWhere([](size_t I) { return I == 1; });
  CHECK(Second.size() == 1 && near(Second[0], 30));
}

void testDeterminism() {
  SessionScript A = generateSession(7), B = generateSession(7);
  SessionScript C = generateSession(8);
  auto Stream = [](const SessionScript &S) {
    std::string Out = S.Program;
    for (const SessionOp &Op : S.Ops)
      Out += Op.Line + "\n";
    return Out;
  };
  CHECK(Stream(A) == Stream(B));
  CHECK(Stream(A) != Stream(C));
  CHECK(!A.Ops.empty());

  bool Differs = false;
  for (uint64_t Pass = 0; Pass < 4; ++Pass) {
    CHECK(passOrder(7, Pass, 12) == passOrder(7, Pass, 12));
    Differs = Differs || passOrder(7, Pass, 12) != passOrder(8, Pass, 12);
  }
  CHECK(Differs);
  std::vector<size_t> Order = passOrder(7, 0, 12);
  std::sort(Order.begin(), Order.end());
  for (size_t I = 0; I < Order.size(); ++I)
    CHECK(Order[I] == I);
}

void testBfsOracle() {
  EdgeSet E = {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {1, 5}};
  CHECK((reachableFrom(E, 0) == std::vector<int>{0, 1, 2, 5}));
  CHECK((reachableFrom(E, 3) == std::vector<int>{4}));
  CHECK(reachableFrom(E, 4).empty());
  CHECK((reachableFrom(E, 5).empty()));
}

void testCorruptedAnswer() {
  SessionScript S = generateSession(11);
  lpa::AnalysisSession::Options O;
  O.EvalWorkers = 0;
  lpa::AnalysisSession Session(O);
  bool Shutdown = false;
  std::string Consult = "{\"op\":\"consult\",\"program\":\"";
  for (char Ch : S.Program)
    Consult += Ch == '\n' ? std::string("\\n") : std::string(1, Ch);
  Consult += "\"}";
  lpa::handleRequestLine(Session, Consult, Shutdown);

  const SessionOp *Path = nullptr;
  for (const SessionOp &Op : S.Ops)
    if (Op.K == SessionOp::PathQuery && !Op.Expected.empty()) {
      Path = &Op;
      break;
    }
  CHECK(Path != nullptr);
  std::string Good = lpa::handleRequestLine(Session, Path->Line, Shutdown);
  std::string Why;
  ErrorLedger Ledger;
  CHECK(Ledger.check(checkResponse(*Path, Good, Why), Why));

  // Rename one answer's node: same count, wrong set.
  std::string Bad = Good;
  size_t At = Bad.find(Path->Expected.front());
  CHECK(At != std::string::npos);
  Bad.replace(At, Path->Expected.front().size(),
              Path->Expected.front().substr(0, Path->Expected.front().size() - 1) +
                  "x)");
  CHECK(!Ledger.check(checkResponse(*Path, Bad, Why), Why));

  SessionOp Count;
  Count.K = SessionOp::CountQuery;
  Count.Line = "{\"op\":\"query\",\"goal\":\"count(10,S)\"}";
  Count.Expected = {"count(10,55)"};
  std::string CountGood = lpa::handleRequestLine(Session, Count.Line, Shutdown);
  CHECK(Ledger.check(checkResponse(Count, CountGood, Why), Why));
  Count.Expected = {"count(10,56)"};
  CHECK(!Ledger.check(checkResponse(Count, CountGood, Why), Why));

  CHECK(Ledger.attempted() == 4 && Ledger.failed() == 2);
  CHECK(near(Ledger.rate(), 0.5));
}

} // namespace

int main() {
  testSelfTime();
  testPercentiles();
  testRepeatedOps();
  testDeterminism();
  testBfsOracle();
  testCorruptedAnswer();
  std::printf("perfbench selftest: %d checks passed\n", Checks);
  return 0;
}
