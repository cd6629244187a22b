//===- table_trie_test.cpp - Variant-set table tests ----------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
// The variant-set contract: every table of the engine is a VariantCodeStore
// level, keyed by the variant code of a term (tuple) -- its canonical
// preorder tokens with variables numbered in first-occurrence order -- so
// two keys share a position exactly when canonicalKey() produces the same
// string, i.e. when the terms are variants. The property tests below check
// that equivalence on randomized terms. The end-to-end tests pin analysis
// results, answer order and table counts as literal values; they were
// captured while term tries and, before them, canonical strings held the
// tables, and every representation since has agreed on every one of them.
//
//===----------------------------------------------------------------------===//

#include "engine/Solver.h"
#include "prop/Groundness.h"
#include "reader/Parser.h"
#include "term/TermWriter.h"
#include "strictness/Strictness.h"
#include "table/VariantCode.h"
#include "term/Variant.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>

using namespace lpa;

namespace {

class VariantSetTest : public ::testing::Test {
protected:
  TermRef parse(const char *Text) {
    auto T = Parser::parseTerm(Syms, S, Text);
    EXPECT_TRUE(T.hasValue()) << Text;
    return *T;
  }

  /// Codes.insert of \p T as a one-root tuple.
  VariantCodeStore::InsertResult insert(TermRef T,
                                        std::vector<TermRef> *Vars = nullptr) {
    return Codes.insert(0, S, {&T, 1}, Vars);
  }
  /// Codes.find of \p T as a one-root tuple.
  uint32_t find(TermRef T) { return Codes.find(0, S, {&T, 1}); }

  static constexpr uint32_t NotFound = VariantCodeStore::NotFound;

  SymbolTable Syms;
  TermStore S;
  VariantCodeStore Codes{1};
};

TEST_F(VariantSetTest, InsertThenFindGroundTerms) {
  EXPECT_TRUE(insert(parse("f(a, 1)")).Inserted);
  EXPECT_TRUE(insert(parse("f(a, 2)")).Inserted);
  EXPECT_TRUE(insert(parse("g(a, 1)")).Inserted);
  EXPECT_EQ(find(parse("f(a, 1)")), 0u);
  EXPECT_EQ(find(parse("f(a, 2)")), 1u);
  EXPECT_EQ(find(parse("g(a, 1)")), 2u);
  EXPECT_EQ(find(parse("f(a, 3)")), NotFound);
  EXPECT_EQ(find(parse("f(b, 1)")), NotFound);
  EXPECT_EQ(Codes.size(0), 3u);
}

TEST_F(VariantSetTest, DuplicateInsertIsAHit) {
  auto First = insert(parse("p(a, f(b))"));
  EXPECT_TRUE(First.Inserted);
  auto Second = insert(parse("p(a, f(b))"));
  EXPECT_FALSE(Second.Inserted);
  EXPECT_EQ(Second.Index, First.Index);
  EXPECT_EQ(Codes.size(0), 1u);
  // The hit's code was dropped again: later hits reuse the arena's tail.
  size_t Bytes = Codes.memoryBytes();
  EXPECT_FALSE(insert(parse("p(a, f(b))")).Inserted);
  EXPECT_EQ(Codes.memoryBytes(), Bytes);
}

TEST_F(VariantSetTest, VariantsShareOneKey) {
  // Renamed variables are the same key; sharing patterns are not.
  EXPECT_TRUE(insert(parse("p(X, Y)")).Inserted);
  EXPECT_FALSE(insert(parse("p(A, B)")).Inserted);
  EXPECT_TRUE(insert(parse("p(X, X)")).Inserted);
  EXPECT_FALSE(insert(parse("p(C, C)")).Inserted);
  // Instances are distinct keys from their generalizations.
  EXPECT_TRUE(insert(parse("p(a, X)")).Inserted);
  EXPECT_EQ(Codes.size(0), 3u);
}

TEST_F(VariantSetTest, VarsOutInFirstOccurrenceOrder) {
  TermRef T = parse("p(X, f(Y, X), Z)");
  std::vector<TermRef> Vars;
  insert(T, &Vars);
  // X, Y, Z in left-to-right first-occurrence order; X listed once.
  ASSERT_EQ(Vars.size(), 3u);
  EXPECT_EQ(Vars[0], S.deref(S.arg(T, 0)));
  EXPECT_EQ(Vars[1], S.deref(S.arg(S.deref(S.arg(T, 1)), 0)));
  EXPECT_EQ(Vars[2], S.deref(S.arg(T, 2)));
  // A hit reports the probing term's variables, replacing what was there.
  TermRef U = parse("p(A, f(B, A), C)");
  EXPECT_FALSE(insert(U, &Vars).Inserted);
  ASSERT_EQ(Vars.size(), 3u);
  EXPECT_EQ(Vars[0], S.deref(S.arg(U, 0)));
}

TEST_F(VariantSetTest, TupleKeysShareOneNumbering) {
  // The variable numbering spans the whole tuple: (X, X) != (X, Y).
  TermRef A = S.mkVar(), B = S.mkVar();
  TermRef SameTwice[2] = {A, A};
  TermRef Distinct[2] = {A, B};
  EXPECT_TRUE(Codes.insert(0, S, SameTwice).Inserted);
  EXPECT_TRUE(Codes.insert(0, S, Distinct).Inserted);
  TermRef C = S.mkVar(), D = S.mkVar();
  TermRef SameAgain[2] = {C, C};
  TermRef DistinctAgain[2] = {C, D};
  EXPECT_EQ(Codes.find(0, S, SameAgain), 0u);
  EXPECT_EQ(Codes.find(0, S, DistinctAgain), 1u);
}

TEST_F(VariantSetTest, EmptyTupleIsOneKey) {
  // A ground call has no free variables: its answer binding tuple is
  // empty, and the empty key must behave like any other (one slot).
  std::span<const TermRef> Empty;
  EXPECT_EQ(Codes.find(0, S, Empty), NotFound);
  EXPECT_TRUE(Codes.insert(0, S, Empty).Inserted);
  auto Again = Codes.insert(0, S, Empty);
  EXPECT_FALSE(Again.Inserted);
  EXPECT_EQ(Again.Index, 0u);
  EXPECT_EQ(Codes.find(0, S, Empty), 0u);
  EXPECT_EQ(Codes.code(0, 0).size(), 0u);
}

TEST_F(VariantSetTest, IntAndAtomPayloadsDoNotAlias) {
  // Int(5) and the atom whose SymbolId is 5 must not collide: the token
  // tag disambiguates.
  TermRef Atom = S.mkAtom(5);
  TermRef Int = S.mkInt(5);
  EXPECT_TRUE(insert(Atom).Inserted);
  EXPECT_TRUE(insert(Int).Inserted);
  EXPECT_EQ(find(Atom), 0u);
  EXPECT_EQ(find(Int), 1u);
}

TEST_F(VariantSetTest, LongRefChainsDerefToTheirTarget) {
  // v -> v -> ... -> X (unbound): keys through the chain are the same key
  // as X itself.
  TermRef X = S.mkVar();
  TermRef Chain = X;
  for (int I = 0; I < 32; ++I) {
    TermRef V = S.mkVar();
    S.bind(V, Chain);
    Chain = V;
  }
  TermRef Args1[1] = {Chain};
  std::vector<TermRef> Vars;
  TermRef F1 = S.mkStruct(Syms.intern("f"), std::span<const TermRef>(Args1));
  EXPECT_TRUE(insert(F1, &Vars).Inserted);
  ASSERT_EQ(Vars.size(), 1u);
  EXPECT_EQ(Vars[0], X); // The dereffed variable, not a chain link.
  TermRef Args2[1] = {X};
  TermRef F2 = S.mkStruct(Syms.intern("f"), std::span<const TermRef>(Args2));
  EXPECT_FALSE(insert(F2).Inserted);
  // A chain ending in a ground term keys as that term.
  TermRef G = S.mkVar();
  S.bind(G, parse("g(a)"));
  EXPECT_TRUE(insert(G).Inserted);
  EXPECT_EQ(find(parse("g(a)")), 1u);
}

TEST_F(VariantSetTest, FindOfAnAbsentKeyChangesNothing) {
  // find() encodes into per-thread scratch: a miss neither inserts nor
  // grows the store, in the linear-scan range or past it.
  for (int I = 0; I < 20; ++I) {
    EXPECT_EQ(find(S.mkInt(I)), NotFound);
    size_t Bytes = Codes.memoryBytes();
    EXPECT_EQ(find(parse("h(X, Y, X)")), NotFound);
    EXPECT_EQ(Codes.size(0), static_cast<size_t>(I));
    EXPECT_EQ(Codes.memoryBytes(), Bytes);
    EXPECT_TRUE(insert(S.mkInt(I)).Inserted);
    EXPECT_EQ(find(S.mkInt(I)), static_cast<uint32_t>(I));
  }
}

/// Builds a random term over a small vocabulary. Shared subterms come from
/// reusing entries of \p Built; variables from a small pool (repeats make
/// nontrivial sharing patterns) plus occasional Ref chains onto them.
class RandomTermGen {
public:
  RandomTermGen(SymbolTable &Syms, TermStore &S, uint32_t Seed)
      : Syms(Syms), S(S), Rng(Seed) {
    for (const char *N : {"a", "b", "c"})
      Atoms.push_back(Syms.intern(N));
    Funcs = {Syms.intern("f"), Syms.intern("g"), Syms.intern("h")};
    for (int I = 0; I < 4; ++I)
      VarPool.push_back(S.mkVar());
  }

  TermRef gen(int Depth) {
    switch (pick(Depth <= 0 ? 4 : 7)) {
    case 0:
      return S.mkAtom(Atoms[pick(Atoms.size())]);
    case 1:
      return S.mkInt(static_cast<int64_t>(pick(5)));
    case 2:
      return VarPool[pick(VarPool.size())];
    case 3: { // Ref chain of length 1..8 onto a pool variable.
      TermRef T = VarPool[pick(VarPool.size())];
      for (size_t I = 0, E = 1 + pick(8); I < E; ++I) {
        TermRef V = S.mkVar();
        S.bind(V, T);
        T = V;
      }
      return T;
    }
    case 4: // Shared subterm: reuse something generated earlier.
      if (!Built.empty())
        return Built[pick(Built.size())];
      [[fallthrough]];
    default: {
      std::vector<TermRef> Args;
      for (size_t I = 0, E = 1 + pick(3); I < E; ++I)
        Args.push_back(gen(Depth - 1));
      TermRef T = S.mkStruct(Funcs[pick(Funcs.size())],
                             std::span<const TermRef>(Args));
      Built.push_back(T);
      return T;
    }
    }
  }

private:
  size_t pick(size_t N) { return std::uniform_int_distribution<size_t>(0, N - 1)(Rng); }

  SymbolTable &Syms;
  TermStore &S;
  std::mt19937 Rng;
  std::vector<SymbolId> Atoms;
  std::vector<SymbolId> Funcs;
  std::vector<TermRef> VarPool;
  std::vector<TermRef> Built;
};

/// The variant code of the tuple \p Roots as a fresh vector.
std::vector<uint64_t> codeOf(const TermStore &S,
                             std::span<const TermRef> Roots) {
  std::vector<uint64_t> Code;
  appendVariantCode(S, Roots, Code);
  return Code;
}

/// The variant code of \p T as a one-root tuple.
std::vector<uint64_t> codeOf(const TermStore &S, TermRef T) {
  return codeOf(S, {&T, 1});
}

/// Decodes a one-root code and \returns its root.
TermRef decodeOne(std::span<const uint64_t> Code, TermStore &Dst) {
  std::vector<TermRef> Roots;
  decodeVariantCode(Code, Dst, Roots);
  EXPECT_EQ(Roots.size(), 1u);
  return Roots.empty() ? InvalidTerm : Roots[0];
}

/// VariantCodeStore::insert of \p T as a one-root tuple.
VariantCodeStore::InsertResult insertOne(VariantCodeStore &Codes,
                                         size_t Level, const TermStore &S,
                                         TermRef T) {
  return Codes.insert(Level, S, {&T, 1});
}

TEST_F(VariantSetTest, PropertyCodeSetEqualsCanonicalKeyEquality) {
  // The central invariant: two terms share a position exactly when their
  // canonical keys are equal (code equality == variance), through insert
  // and find alike, and a code decodes to a variant of its term.
  RandomTermGen Gen(Syms, S, /*Seed=*/0xC0FFEE);
  std::map<std::string, uint32_t> FirstByKey;
  std::map<std::vector<uint64_t>, uint32_t> FirstByCode;
  for (int I = 0; I < 500; ++I) {
    TermRef T = Gen.gen(/*Depth=*/3);
    std::string Key = canonicalKey(S, T);
    auto [It, New] = FirstByKey.emplace(
        Key, static_cast<uint32_t>(FirstByKey.size()));
    EXPECT_EQ(find(T), New ? NotFound : It->second) << "term " << I;

    std::vector<uint64_t> Code = codeOf(S, T);
    auto [CIt, CNew] = FirstByCode.emplace(Code, It->second);
    EXPECT_EQ(CNew, New) << "term " << I;
    EXPECT_EQ(CIt->second, It->second) << "term " << I;
    auto R = insert(T);
    EXPECT_EQ(R.Inserted, New) << "term " << I << " key " << Key;
    EXPECT_EQ(R.Index, It->second) << "term " << I << " key " << Key;
    EXPECT_EQ(find(T), It->second) << "term " << I;
    auto Stored = Codes.code(0, R.Index);
    EXPECT_TRUE(std::equal(Stored.begin(), Stored.end(), Code.begin(),
                           Code.end()));
    TermRef Back = decodeOne(Code, S);
    EXPECT_TRUE(isVariant(S, T, Back)) << "term " << I;
    EXPECT_EQ(codeOf(S, Back), Code) << "term " << I;
  }
  EXPECT_EQ(Codes.size(0), FirstByKey.size());
  // Sanity: the workload actually produced both hits and misses.
  EXPECT_GT(FirstByKey.size(), 50u);
  EXPECT_LT(FirstByKey.size(), 500u);
}

TEST_F(VariantSetTest, PropertyVarsOutEqualsCollectFreeVars) {
  // The subgoal index hands ensureSubgoal the call's variables in the
  // order substitution-factored answers bind them: collectFreeVars order,
  // on a hit as on a miss, whatever Ref chains the term carries.
  RandomTermGen Gen(Syms, S, /*Seed=*/0xFACE);
  size_t WithVars = 0;
  for (int I = 0; I < 300; ++I) {
    TermRef T = Gen.gen(/*Depth=*/3);
    std::vector<TermRef> Want, Got = {T};
    collectFreeVars(S, T, Want);
    insert(T, &Got);
    EXPECT_EQ(Got, Want) << "term " << I;
    WithVars += !Want.empty();
  }
  EXPECT_GT(WithVars, 100u);
}

TEST_F(VariantSetTest, PropertyTupleCodesEqualWrappedVariance) {
  // A root tuple is coded as the struct wrapping it, less the wrapper:
  // two tuples of one length have equal codes iff their wrappings are
  // variants, and a level of tuples makes the same hit/miss decisions, at
  // the same indexes, as a level of their wrappings. Roots come from a pool
  // of random terms over one set of variables, so cross-root sharing varies
  // from tuple to tuple; the pool shrinks as tuples grow, to keep hits.
  RandomTermGen Gen(Syms, S, /*Seed=*/0x7E57);
  std::mt19937 Rng(7);
  SymbolId Wrap = Syms.intern("$w");
  for (auto [Len, PoolSize] : {std::pair<size_t, size_t>{1, 120},
                               {2, 16},
                               {4, 5}}) {
    SCOPED_TRACE("tuple length " + std::to_string(Len));
    std::vector<TermRef> Pool;
    for (size_t I = 0; I < PoolSize; ++I)
      Pool.push_back(Gen.gen(/*Depth=*/2));
    std::map<std::string, uint32_t> FirstByKey;
    VariantCodeStore Tuples(/*NumLevels=*/1), Wrapped(/*NumLevels=*/1);
    for (int I = 0; I < 400; ++I) {
      std::vector<TermRef> Roots;
      for (size_t R = 0; R < Len; ++R)
        Roots.push_back(Pool[Rng() % PoolSize]);
      TermRef W = S.mkStruct(Wrap, Roots);
      auto [It, New] = FirstByKey.emplace(
          canonicalKey(S, W), static_cast<uint32_t>(FirstByKey.size()));
      auto TR = Tuples.insert(0, S, Roots);
      auto WR = insertOne(Wrapped, 0, S, W);
      EXPECT_EQ(TR.Inserted, New) << "tuple " << I;
      EXPECT_EQ(TR.Index, It->second) << "tuple " << I;
      EXPECT_EQ(WR.Inserted, TR.Inserted) << "tuple " << I;
      EXPECT_EQ(WR.Index, TR.Index) << "tuple " << I;
      // The tuple's code is the wrapping's code after its struct token.
      std::vector<uint64_t> Code = codeOf(S, Roots);
      std::vector<uint64_t> WCode = codeOf(S, W);
      EXPECT_TRUE(std::equal(Code.begin(), Code.end(), WCode.begin() + 1,
                             WCode.end()))
          << "tuple " << I;
      // Decoding gives a variant tuple, sharing included.
      std::vector<TermRef> Back;
      decodeVariantCode(Code, S, Back);
      ASSERT_EQ(Back.size(), Len);
      EXPECT_TRUE(isVariant(S, W, S.mkStruct(Wrap, Back))) << "tuple " << I;
      EXPECT_EQ(codeOf(S, Back), Code) << "tuple " << I;
    }
    // Both hits and misses, in numbers.
    EXPECT_EQ(Tuples.size(0), FirstByKey.size());
    EXPECT_GT(FirstByKey.size(), 25u);
    EXPECT_LT(FirstByKey.size(), 375u);
  }
}

TEST_F(VariantSetTest, TupleCodeKeepsCrossRootSharing) {
  // (X, f(X)) and (X, f(Y)) are not variants: the numbering runs across
  // the roots, and decoding keeps the one variable shared.
  TermRef X = S.mkVar(), Y = S.mkVar();
  SymbolId F = Syms.intern("f");
  TermRef Shared[2] = {X, S.mkStruct(F, std::span<const TermRef>(&X, 1))};
  TermRef Apart[2] = {X, S.mkStruct(F, std::span<const TermRef>(&Y, 1))};
  EXPECT_NE(codeOf(S, Shared), codeOf(S, Apart));
  VariantCodeStore Codes(/*NumLevels=*/1);
  EXPECT_TRUE(Codes.insert(0, S, Shared).Inserted);
  EXPECT_TRUE(Codes.insert(0, S, Apart).Inserted);
  EXPECT_FALSE(Codes.insert(0, S, Shared).Inserted);

  TermStore Dst;
  std::vector<TermRef> Back;
  Codes.decode(0, 0, Dst, Back);
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_TRUE(Dst.isUnboundVar(Back[0]));
  EXPECT_EQ(Dst.deref(Dst.arg(Back[1], 0)), Dst.deref(Back[0]));
  Codes.decode(0, 1, Dst, Back);
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_NE(Dst.deref(Dst.arg(Back[1], 0)), Dst.deref(Back[0]));
  // A repeated root is one variable too.
  TermRef Twice[2] = {Y, Y};
  Codes.decode(0, Codes.insert(0, S, Twice).Index, Dst, Back);
  ASSERT_EQ(Back.size(), 2u);
  EXPECT_EQ(Dst.deref(Back[0]), Dst.deref(Back[1]));
}

TEST_F(VariantSetTest, VariantCodeEdgeValuesRoundTrip) {
  // Extreme integers, symbol ids past the token's low bits, and a wide
  // struct all survive encode -> decode -> encode unchanged.
  SymbolId Big = (SymbolId(1) << 30) + 7, Max = ~SymbolId(0);
  std::vector<TermRef> Args = {S.mkInt(INT64_MIN), S.mkInt(INT64_MAX),
                               S.mkInt(-1),        S.mkAtom(Big),
                               S.mkAtom(Max),      S.mkVar()};
  for (uint32_t I = 0; I < 70000; ++I)
    Args.push_back(I % 3 ? S.mkInt(I) : Args[5]);
  TermRef Wide = S.mkStruct(Max, Args);
  std::vector<uint64_t> Code = codeOf(S, Wide);
  TermStore Dst;
  TermRef Back = decodeOne(Code, Dst);
  ASSERT_EQ(Dst.tag(Back), TermTag::Struct);
  EXPECT_EQ(Dst.symbol(Back), Max);
  ASSERT_EQ(Dst.arity(Back), Args.size());
  EXPECT_EQ(Dst.intValue(Dst.deref(Dst.arg(Back, 0))), INT64_MIN);
  EXPECT_EQ(Dst.intValue(Dst.deref(Dst.arg(Back, 1))), INT64_MAX);
  EXPECT_EQ(Dst.intValue(Dst.deref(Dst.arg(Back, 2))), -1);
  EXPECT_EQ(Dst.symbol(Dst.deref(Dst.arg(Back, 3))), Big);
  EXPECT_EQ(Dst.symbol(Dst.deref(Dst.arg(Back, 4))), Max);
  EXPECT_TRUE(Dst.isUnboundVar(Dst.arg(Back, 5)));
  EXPECT_EQ(Dst.deref(Dst.arg(Back, 6)), Dst.deref(Dst.arg(Back, 5)));
  EXPECT_EQ(codeOf(Dst, Back), Code);
  // An atom and an integer with the same payload stay distinct.
  EXPECT_NE(codeOf(S, S.mkAtom(5)), codeOf(S, S.mkInt(5)));
}

TEST_F(VariantSetTest, VariantCodeOfSharedDagEqualsItsTreeCopy) {
  // f(T, T) with T = g(X, h(X)) shared, against two separate copies of T
  // over one variable: the same term, so the same code.
  TermRef Shared = parse("g(X, h(X))");
  TermRef Pair[2] = {Shared, Shared};
  TermRef Dag = S.mkStruct(Syms.intern("f"), std::span<const TermRef>(Pair));
  TermRef Tree = parse("f(g(Y, h(Y)), g(Y, h(Y)))");
  EXPECT_EQ(codeOf(S, Dag), codeOf(S, Tree));
  EXPECT_NE(codeOf(S, Dag), codeOf(S, parse("f(g(Y, h(Y)), g(Z, h(Z)))")));
  VariantCodeStore Codes(/*NumLevels=*/2);
  EXPECT_TRUE(insertOne(Codes, 1, S, Dag).Inserted);
  EXPECT_FALSE(insertOne(Codes, 1, S, Tree).Inserted);
  EXPECT_TRUE(insertOne(Codes, 0, S, Tree).Inserted); // Levels are separate.
  std::vector<TermRef> Back;
  Codes.decode(1, 0, S, Back);
  ASSERT_EQ(Back.size(), 1u);
  EXPECT_TRUE(isVariant(S, Dag, Back[0]));
}

TEST_F(VariantSetTest, VariantCodeOfLongListIsIterative) {
  // A 100k-element list of fresh variables: recursion would overflow the
  // native stack, and a linear variable scan would take minutes.
  std::vector<TermRef> Elems;
  for (int I = 0; I < 100000; ++I)
    Elems.push_back(S.mkVar());
  TermRef List = S.mkList(Syms, Elems);
  std::vector<uint64_t> Code = codeOf(S, List);
  EXPECT_EQ(Code.size(), 2 * Elems.size() + 1);
  TermStore Dst;
  TermRef Back = decodeOne(Code, Dst);
  EXPECT_EQ(codeOf(Dst, Back), Code);
  EXPECT_TRUE(Dst.isUnboundVar(Dst.arg(Back, 0)));
  // The same variables as 100k roots of one tuple.
  Code = codeOf(S, Elems);
  ASSERT_EQ(Code.size(), Elems.size());
  EXPECT_EQ(Code.back(), uint64_t(Elems.size() - 1) << 2);
  std::vector<TermRef> Roots;
  decodeVariantCode(Code, Dst, Roots);
  ASSERT_EQ(Roots.size(), Elems.size());
  EXPECT_EQ(codeOf(Dst, Roots), Code);
}

TEST_F(VariantSetTest, VariantCodeStoreIndexesLargeLevels) {
  // Past the linear-scan limit the level switches to its hash index; every
  // code stays findable, and a hit leaves the arena as it was.
  for (int I = 0; I < 1000; ++I)
    EXPECT_TRUE(
        insert(parse(("p(X, " + std::to_string(I) + ")").c_str())).Inserted);
  size_t Bytes = Codes.memoryBytes();
  for (int I = 0; I < 1000; ++I) {
    TermRef T = parse(("p(Y, " + std::to_string(I) + ")").c_str());
    EXPECT_EQ(find(T), static_cast<uint32_t>(I));
    auto R = insert(T);
    EXPECT_FALSE(R.Inserted);
    EXPECT_EQ(R.Index, static_cast<uint32_t>(I));
  }
  EXPECT_EQ(find(parse("p(Y, 1000)")), NotFound);
  EXPECT_EQ(Codes.size(0), 1000u);
  EXPECT_EQ(Codes.memoryBytes(), Bytes);
}

/// Renders one line per predicate: name/arity, success set, call patterns.
std::vector<std::string> renderGroundness(const GroundnessResult &R) {
  std::vector<std::string> Out;
  for (const PredGroundness &P : R.Predicates)
    Out.push_back(P.Name + "/" + std::to_string(P.Arity) +
                  " success=" + formatTruthTable(P.SuccessSet) +
                  " calls=" + formatTruthTable(P.CallPatterns));
  return Out;
}

/// The four table counts every pinned test checks.
void expectTableCounts(const EvalStats &S, uint64_t Subgoals,
                       uint64_t Answers, uint64_t Hits, uint64_t Misses) {
  EXPECT_EQ(S.SubgoalsCreated, Subgoals);
  EXPECT_EQ(S.AnswersRecorded, Answers);
  EXPECT_EQ(S.TrieHits, Hits);
  EXPECT_EQ(S.TrieMisses, Misses);
}

TEST(TableResultsPinned, GroundnessResults) {
  const char *Prog = R"(
    app([], Ys, Ys).
    app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    rev([], []).
    rev([X|Xs], R) :- rev(Xs, T), app(T, [X], R).
    perm([], []).
    perm(L, [H|T]) :- sel(H, L, R), perm(R, T).
    sel(X, [X|T], T).
    sel(X, [H|T], [H|R]) :- sel(X, T, R).
    main(X) :- rev([a,b,c], Y), perm(Y, X).
  )";
  SymbolTable Syms;
  GroundnessAnalyzer Analyzer(Syms);
  auto R = Analyzer.analyze(Prog);
  ASSERT_TRUE(R.hasValue()) << R.getError().str();
  const char *All3 =
      "{(f,f,f),(f,f,t),(f,t,f),(f,t,t),(t,f,f),(t,f,t),(t,t,f),(t,t,t)}";
  std::vector<std::string> Expected{
      std::string("app/3 success={(f,f,f),(f,t,f),(t,f,f),(t,t,t)} calls=") +
          All3,
      "rev/2 success={(f,f),(t,t)} calls={(f,f),(t,f)}",
      "perm/2 success={(f,f),(t,t)} calls={(f,f),(f,t),(t,f),(t,t)}",
      std::string("sel/3 success={(f,f,f),(f,f,t),(t,f,f),(t,t,t)} calls=") +
          All3,
      "main/1 success={(t)} calls={(f)}"};
  EXPECT_EQ(renderGroundness(*R), Expected);
  expectTableCounts(R->Stats, 46, 47, 206, 500);
}

/// Solves \p GoalText and returns every answer of the goal's subgoal,
/// materialized in recording order through findSubgoal + answerInstance.
std::vector<std::string> enumerateAnswers(const char *Prog,
                                          const char *GoalText) {
  SymbolTable Syms;
  Database DB(Syms);
  auto C = DB.consult(Prog);
  EXPECT_TRUE(C.hasValue()) << (C ? "" : C.getError().str());
  Solver Engine(DB);
  auto Goal = Parser::parseTerm(Syms, Engine.store(), GoalText);
  EXPECT_TRUE(Goal.hasValue()) << GoalText;
  Engine.solve(*Goal, nullptr);
  const Subgoal *SG = Engine.findSubgoal(*Goal);
  EXPECT_NE(SG, nullptr) << GoalText;
  std::vector<std::string> Out;
  if (!SG)
    return Out;
  for (size_t I = 0, N = Engine.answerCount(*SG); I < N; ++I) {
    TermStore Scratch;
    TermRef Inst = Engine.answerInstance(*SG, I, Scratch);
    Out.push_back(TermWriter::toString(Syms, Scratch, Inst));
  }
  return Out;
}

TEST(TableResultsPinned, AnswerEnumerationOrder) {
  // Answers come back in recording order through the
  // findSubgoal/answerInstance API: downstream consumers (provenance
  // premise indices, fleet fingerprints) identify an answer by its
  // position, so order is part of the contract, not an implementation
  // detail.
  const char *Prog = R"(
    :- table path/2.
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    edge(a, b). edge(b, c). edge(c, a). edge(b, d).
    :- table app/3.
    app([], Ys, Ys).
    app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
    :- table splits/2.
    splits(L, s(A, B)) :- app(A, B, L).
  )";
  using Answers = std::vector<std::string>;
  EXPECT_EQ(enumerateAnswers(Prog, "path(a, X)"),
            (Answers{"path(a,b)", "path(a,c)", "path(a,d)", "path(a,a)"}));
  EXPECT_EQ(enumerateAnswers(Prog, "path(X, Y)"),
            (Answers{"path(a,b)", "path(b,c)", "path(c,a)", "path(b,d)",
                     "path(a,c)", "path(a,d)", "path(b,a)", "path(c,b)",
                     "path(a,a)", "path(b,b)", "path(c,c)", "path(c,d)"}));
  EXPECT_EQ(enumerateAnswers(Prog, "splits([a,b,c], S)"),
            (Answers{"splits([a,b,c],s([],[a,b,c]))",
                     "splits([a,b,c],s([a],[b,c]))",
                     "splits([a,b,c],s([a,b],[c]))",
                     "splits([a,b,c],s([a,b,c],[]))"}));
}

TEST(TableResultsPinned, StrictnessResults) {
  const char *Prog = R"(
    ap(nil, ys) = ys.
    ap(cons(x, xs), ys) = cons(x, ap(xs, ys)).
    len(nil) = zero.
    len(cons(x, xs)) = succ(len(xs)).
    rev(nil) = nil.
    rev(cons(x, xs)) = ap(rev(xs), cons(x, nil)).
  )";
  StrictnessAnalyzer A;
  auto R = A.analyze(Prog);
  ASSERT_TRUE(R.hasValue()) << R.getError().str();
  std::vector<std::string> Rendered;
  for (const FuncStrictness &F : R->Functions) {
    std::string Line = F.Name + " e=";
    for (Demand D : F.UnderE)
      Line += demandLetter(D);
    Line += " d=";
    for (Demand D : F.UnderD)
      Line += demandLetter(D);
    if (F.DivergesUnderE)
      Line += " diverges-e";
    if (F.DivergesUnderD)
      Line += " diverges-d";
    Rendered.push_back(Line);
  }
  EXPECT_EQ(Rendered, (std::vector<std::string>{"ap e=ee d=dn", "len e=d d=d",
                                                "rev e=e d=d"}));
  expectTableCounts(R->Stats, 8, 32, 196, 150);
}

} // namespace
