//===- term_test.cpp - TermStore / symbol / writer unit tests --------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "term/Symbol.h"
#include "term/TermCopy.h"
#include "term/TermStore.h"
#include "term/TermWriter.h"
#include "term/Unify.h"
#include "term/Variant.h"

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

using namespace lpa;

namespace {

TEST(SymbolTable, InterningIsIdempotent) {
  SymbolTable Syms;
  SymbolId A = Syms.intern("foo");
  SymbolId B = Syms.intern("foo");
  EXPECT_EQ(A, B);
  EXPECT_EQ(Syms.name(A), "foo");
}

TEST(SymbolTable, DistinctNamesGetDistinctIds) {
  SymbolTable Syms;
  EXPECT_NE(Syms.intern("foo"), Syms.intern("bar"));
}

TEST(SymbolTable, LookupWithoutInterning) {
  SymbolTable Syms;
  EXPECT_EQ(Syms.lookup("nonexistent"), SymbolTable::NotFound);
  SymbolId Id = Syms.intern("present");
  EXPECT_EQ(Syms.lookup("present"), Id);
}

TEST(SymbolTable, WellKnownSymbolsExist) {
  SymbolTable Syms;
  EXPECT_EQ(Syms.name(Syms.Nil), "[]");
  EXPECT_EQ(Syms.name(Syms.Cons), ".");
  EXPECT_EQ(Syms.name(Syms.True), "true");
  EXPECT_EQ(Syms.name(Syms.BoolFalse), "false");
  EXPECT_EQ(Syms.name(Syms.Iff), "iff");
}

TEST(TermStore, FreshVariableIsUnbound) {
  TermStore S;
  TermRef V = S.mkVar();
  EXPECT_TRUE(S.isUnboundVar(V));
  EXPECT_EQ(S.deref(V), V);
}

TEST(TermStore, BindAndDeref) {
  SymbolTable Syms;
  TermStore S;
  TermRef V = S.mkVar();
  TermRef A = S.mkAtom(Syms.intern("a"));
  S.bind(V, A);
  EXPECT_FALSE(S.isUnboundVar(V));
  EXPECT_EQ(S.deref(V), A);
}

TEST(TermStore, BindChainsDereference) {
  SymbolTable Syms;
  TermStore S;
  TermRef V1 = S.mkVar(), V2 = S.mkVar();
  TermRef A = S.mkAtom(Syms.intern("a"));
  S.bind(V1, V2);
  S.bind(V2, A);
  EXPECT_EQ(S.deref(V1), A);
}

TEST(TermStore, UndoRestoresBindingsAndHeap) {
  SymbolTable Syms;
  TermStore S;
  TermRef V = S.mkVar();
  auto M = S.mark();
  TermRef A = S.mkAtom(Syms.intern("a"));
  S.bind(V, A);
  EXPECT_FALSE(S.isUnboundVar(V));
  size_t SizeWithAtom = S.size();
  EXPECT_GT(SizeWithAtom, M.HeapSize);
  S.undoTo(M);
  EXPECT_TRUE(S.isUnboundVar(V));
  EXPECT_EQ(S.size(), M.HeapSize);
}

TEST(TermStore, StructArguments) {
  SymbolTable Syms;
  TermStore S;
  TermRef X = S.mkInt(1), Y = S.mkInt(2);
  TermRef F = S.mkStruct2(Syms.intern("f"), X, Y);
  ASSERT_EQ(S.tag(F), TermTag::Struct);
  EXPECT_EQ(S.arity(F), 2u);
  EXPECT_EQ(S.intValue(S.deref(S.arg(F, 0))), 1);
  EXPECT_EQ(S.intValue(S.deref(S.arg(F, 1))), 2);
}

TEST(TermStore, ListConstruction) {
  SymbolTable Syms;
  TermStore S;
  std::vector<TermRef> Elems{S.mkInt(1), S.mkInt(2), S.mkInt(3)};
  TermRef L = S.mkList(Syms, Elems);
  TermWriter W(Syms, S);
  EXPECT_EQ(W.str(L), "[1,2,3]");
}

TEST(TermStore, PartialListWithTail) {
  SymbolTable Syms;
  TermStore S;
  TermRef Tail = S.mkVar();
  std::vector<TermRef> Elems{S.mkInt(1)};
  TermRef L = S.mkList(Syms, Elems, Tail);
  TermWriter W(Syms, S);
  EXPECT_EQ(W.str(L), "[1|_A]");
}

TEST(TermWriter, QuotesNonPlainAtoms) {
  SymbolTable Syms;
  TermStore S;
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkAtom(Syms.intern("hello"))),
            "hello");
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkAtom(Syms.intern("Hello"))),
            "'Hello'");
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkAtom(Syms.intern("two words"))),
            "'two words'");
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkAtom(Syms.intern(":-"))), ":-");
}

TEST(TermWriter, NegativeIntegers) {
  SymbolTable Syms;
  TermStore S;
  EXPECT_EQ(TermWriter::toString(Syms, S, S.mkInt(-42)), "-42");
}

// Standard Prolog unification omits the occur check, so X = f(X) builds a
// genuinely cyclic term. The writer must terminate on it with an explicit
// "..." marker and never emit unbalanced brackets.
bool bracketsBalanced(const std::string &S) {
  return std::count(S.begin(), S.end(), '(') ==
             std::count(S.begin(), S.end(), ')') &&
         std::count(S.begin(), S.end(), '[') ==
             std::count(S.begin(), S.end(), ']');
}

TEST(TermWriter, CyclicStructTerminatesWithEllipsis) {
  SymbolTable Syms;
  TermStore S;
  TermRef X = S.mkVar();
  TermRef Args[1] = {X};
  TermRef F = S.mkStruct(Syms.intern("f"), Args);
  ASSERT_TRUE(unify(S, X, F, /*OccursCheck=*/false));
  std::string Out = TermWriter::toString(Syms, S, X);
  EXPECT_NE(Out.find("..."), std::string::npos) << Out;
  EXPECT_TRUE(bracketsBalanced(Out)) << Out;
  EXPECT_EQ(Out.substr(0, 2), "f(");
}

TEST(TermWriter, CyclicListTailTerminatesBalanced) {
  SymbolTable Syms;
  TermStore S;
  // X = [a|X]: the list-tail fast path must hit the same guard as the
  // recursive writer, closing the bracket it opened.
  TermRef X = S.mkVar();
  TermRef L = S.mkStruct2(Syms.Cons, S.mkAtom(Syms.intern("a")), X);
  ASSERT_TRUE(unify(S, X, L, /*OccursCheck=*/false));
  std::string Out = TermWriter::toString(Syms, S, X);
  EXPECT_NE(Out.find("..."), std::string::npos) << Out;
  EXPECT_TRUE(bracketsBalanced(Out)) << Out;
  EXPECT_EQ(Out.front(), '[');
  EXPECT_EQ(Out.back(), ']');
}

TEST(TermWriter, CyclicTermInsideArgumentsStaysBalanced) {
  SymbolTable Syms;
  TermStore S;
  TermRef X = S.mkVar();
  TermRef Args[1] = {X};
  TermRef F = S.mkStruct(Syms.intern("loop"), Args);
  ASSERT_TRUE(unify(S, X, F, /*OccursCheck=*/false));
  // Wrap the cycle in a normal term: pair(loop(loop(...)), ok).
  TermRef P = S.mkStruct2(Syms.intern("pair"), F, S.mkAtom(Syms.intern("ok")));
  std::string Out = TermWriter::toString(Syms, S, P);
  EXPECT_NE(Out.find("..."), std::string::npos) << Out;
  EXPECT_TRUE(bracketsBalanced(Out)) << Out;
  // The sibling argument after the truncated cycle still renders.
  EXPECT_NE(Out.find("ok"), std::string::npos) << Out;
}

TEST(TermCopy, CopiesResolvedStructure) {
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef V = Src.mkVar();
  TermRef F = Src.mkStruct2(Syms.intern("f"), V, Src.mkInt(7));
  Src.bind(V, Src.mkAtom(Syms.intern("a")));

  TermRef C = copyTerm(Src, F, Dst);
  EXPECT_EQ(TermWriter::toString(Syms, Dst, C), "f(a,7)");
}

TEST(TermCopy, RenamesVariablesConsistently) {
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef V = Src.mkVar();
  // f(X, X) must copy to f(Y, Y) with one fresh Y.
  TermRef F = Src.mkStruct2(Syms.intern("f"), V, V);
  TermRef C = copyTerm(Src, F, Dst);
  TermRef A0 = Dst.deref(Dst.arg(C, 0));
  TermRef A1 = Dst.deref(Dst.arg(C, 1));
  EXPECT_EQ(A0, A1);
  EXPECT_TRUE(Dst.isUnboundVar(A0));
}

TEST(TermCopy, SharedRenamingLinksSeparateCopies) {
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef V = Src.mkVar();
  TermRef F = Src.mkStruct2(Syms.intern("f"), V, Src.mkInt(1));
  TermRef G = Src.mkStruct2(Syms.intern("g"), V, Src.mkInt(2));

  VarRenaming R;
  TermRef CF = copyTerm(Src, F, Dst, R);
  TermRef CG = copyTerm(Src, G, Dst, R);
  EXPECT_EQ(Dst.deref(Dst.arg(CF, 0)), Dst.deref(Dst.arg(CG, 0)));
}

TEST(TermCopy, DeepListDoesNotOverflow) {
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef L = Src.mkAtom(Syms.Nil);
  for (int I = 0; I < 200000; ++I)
    L = Src.mkStruct2(Syms.Cons, Src.mkInt(I), L);
  TermRef C = copyTerm(Src, L, Dst);
  EXPECT_EQ(Dst.tag(C), TermTag::Struct);
  EXPECT_GT(termSizeCells(Dst, C), 200000u);
}

TEST(TermCopy, TermSizeCountsCells) {
  SymbolTable Syms;
  TermStore S;
  TermRef A = S.mkAtom(Syms.intern("a"));
  EXPECT_EQ(termSizeCells(S, A), 1u);
  TermRef F = S.mkStruct2(Syms.intern("f"), A, S.mkInt(1));
  // Struct cell + 2 arg slots + atom + int.
  EXPECT_EQ(termSizeCells(S, F), 5u);
}

TEST(TermCopy, SharedSubtermsStayShared) {
  // X bound to g(a): both occurrences of X reach one struct cell, and the
  // copy keeps that sharing (table bytes depend on it).
  SymbolTable Syms;
  TermStore Src, Dst;
  TermRef V = Src.mkVar();
  TermRef F = Src.mkStruct2(Syms.intern("f"), V, V);
  TermRef A = Src.mkAtom(Syms.intern("a"));
  Src.bind(V, Src.mkStruct(Syms.intern("g"), std::span<const TermRef>(&A, 1)));
  TermRef C = copyTerm(Src, F, Dst);
  EXPECT_EQ(Dst.deref(Dst.arg(C, 0)), Dst.deref(Dst.arg(C, 1)));
  EXPECT_EQ(TermWriter::toString(Syms, Dst, C), "f(g(a),g(a))");
}

TEST(VarRenaming, SmallAndIndexedLookupsAgree) {
  VarRenaming R;
  for (TermRef V = 0; V < 1000; ++V) {
    R.insert(V * 7, V + 1);
    // Past the linear-scan size every entry must stay reachable.
    ASSERT_EQ(R.find(V * 7), V + 1);
    ASSERT_EQ(R.find(V * 7 + 1), InvalidTerm);
  }
  for (TermRef V = 0; V < 1000; ++V)
    EXPECT_EQ(R.find(V * 7), V + 1);
  EXPECT_EQ(R.size(), 1000u);
  R.clear();
  EXPECT_EQ(R.find(7), InvalidTerm);
  EXPECT_EQ(R.findOrInsert(7, [] { return TermRef(42); }), 42u);
  EXPECT_EQ(R.findOrInsert(7, [] { return TermRef(43); }), 42u);
  EXPECT_EQ(R.size(), 1u);
}

/// Random clause terms for the template property test. Variables come from
/// a small pool shared by head and body (repeats and head/body sharing)
/// plus a body-only pool; Ground mode uses no variables at all.
class ClauseGen {
public:
  ClauseGen(SymbolTable &Syms, TermStore &S, uint32_t Seed, bool Ground)
      : Syms(Syms), S(S), Rng(Seed), Ground(Ground) {
    for (int I = 0; I < 3; ++I) {
      Shared.push_back(S.mkVar());
      BodyOnly.push_back(S.mkVar());
    }
  }

  /// h(...) :- g1(...), g2(...), ... as a ':-'/2 term.
  TermRef clause() {
    TermRef Head = goal("h", /*InBody=*/false);
    TermRef Body = goal("g", true);
    for (unsigned I = 1 + Rng() % 3; I-- > 0;)
      Body = S.mkStruct2(Syms.Comma, goal("g", true), Body);
    return S.mkStruct2(Syms.Neck, Head, Body);
  }

private:
  TermRef goal(const char *Name, bool InBody) {
    std::vector<TermRef> Args;
    for (unsigned I = 1 + Rng() % 3; I-- > 0;)
      Args.push_back(term(InBody, 3));
    return S.mkStruct(Syms.intern(Name), Args);
  }

  TermRef term(bool InBody, unsigned Depth) {
    switch (Rng() % (Depth ? 5 : 3)) {
    case 0:
      if (!Ground) {
        const std::vector<TermRef> &Pool =
            InBody && Rng() % 2 ? BodyOnly : Shared;
        return Pool[Rng() % Pool.size()];
      }
      [[fallthrough]];
    case 1:
      return S.mkAtom(Syms.intern(std::string(1, char('a' + Rng() % 4))));
    case 2:
      return S.mkInt(int64_t(Rng() % 100) - 50);
    default: {
      std::vector<TermRef> Args;
      for (unsigned I = 1 + Rng() % 3; I-- > 0;)
        Args.push_back(term(InBody, Depth - 1));
      return S.mkStruct(Syms.intern("f"), Args);
    }
    }
  }

  SymbolTable &Syms;
  TermStore &S;
  std::mt19937 Rng;
  bool Ground;
  std::vector<TermRef> Shared, BodyOnly;
};

/// For each variable of \p Body (first-occurrence order), its index among
/// \p Head's variables, or -1 if it is body-only.
std::vector<int> headBodySharing(const TermStore &S, TermRef Head,
                                 TermRef Body) {
  std::vector<TermRef> HV, BV;
  collectFreeVars(S, Head, HV);
  collectFreeVars(S, Body, BV);
  std::vector<int> Out;
  for (TermRef V : BV) {
    auto It = std::find(HV.begin(), HV.end(), V);
    Out.push_back(It == HV.end() ? -1 : int(It - HV.begin()));
  }
  return Out;
}

/// Cell-by-cell equality of two stores (same cells in the same order).
void expectSameCells(const TermStore &X, const TermStore &Y) {
  ASSERT_EQ(X.size(), Y.size());
  for (TermRef I = 0; I < X.size(); ++I) {
    ASSERT_EQ(X.tag(I), Y.tag(I)) << "cell " << I;
    switch (X.tag(I)) {
    case TermTag::Ref:
      ASSERT_EQ(X.deref(I), Y.deref(I)) << "cell " << I;
      break;
    case TermTag::Atom:
      ASSERT_EQ(X.symbol(I), Y.symbol(I)) << "cell " << I;
      break;
    case TermTag::Int:
      ASSERT_EQ(X.intValue(I), Y.intValue(I)) << "cell " << I;
      break;
    case TermTag::Struct:
      ASSERT_EQ(X.symbol(I), Y.symbol(I)) << "cell " << I;
      ASSERT_EQ(X.arity(I), Y.arity(I)) << "cell " << I;
      ASSERT_EQ(X.arg(I, 0), Y.arg(I, 0)) << "cell " << I;
      break;
    }
  }
}

/// Stores \p Clause of \p Src as a template (one fresh-renaming copyTerm
/// into a database store behind some unrelated cells), then checks that
/// instantiating it with appendBlock gives the same clause as the renaming
/// path -- head and body copied separately through one shared renaming --
/// and the same cells as a fresh copyTerm of the stored clause.
void checkTemplate(SymbolTable &Syms, const TermStore &Src, TermRef Clause) {
  TermStore DB;
  DB.mkAtom(Syms.intern("junk"));
  DB.mkVar();
  TermRef Lo = static_cast<TermRef>(DB.size());
  TermRef Root = copyTerm(Src, Clause, DB);
  TermRef Hi = static_cast<TermRef>(DB.size());
  ASSERT_EQ(Hi, Root + DB.arity(Root) + 1);
  TermRef Head = DB.deref(DB.arg(Root, 0));
  TermRef Body = DB.deref(DB.arg(Root, 1));

  // Template path, into a heap that already holds other cells.
  TermStore Heap;
  Heap.mkVar();
  TermRef Delta = Heap.appendBlock(DB, Lo, Hi) - Lo;
  // Renaming path.
  TermStore Old;
  Old.mkVar();
  VarRenaming R;
  TermRef OldHead = copyTerm(DB, Head, Old, R);
  TermRef OldBody = copyTerm(DB, Body, Old, R);

  EXPECT_EQ(canonicalKey(Heap, Head + Delta), canonicalKey(Old, OldHead));
  EXPECT_EQ(canonicalKey(Heap, Body + Delta), canonicalKey(Old, OldBody));
  EXPECT_EQ(canonicalKey(Heap, Root + Delta), canonicalKey(Src, Clause));
  EXPECT_EQ(headBodySharing(Heap, Head + Delta, Body + Delta),
            headBodySharing(Old, OldHead, OldBody));
  // The instance's variables are cells of its own block.
  std::vector<TermRef> Vars;
  collectFreeVars(Heap, Root + Delta, Vars);
  for (TermRef V : Vars)
    EXPECT_GE(V, Lo + Delta);

  // Same cells in the same order as re-copying the stored clause.
  TermStore ByBlock, ByCopy;
  ByBlock.appendBlock(DB, Lo, Hi);
  copyTerm(DB, Root, ByCopy);
  expectSameCells(ByBlock, ByCopy);
}

TEST(ClauseTemplate, AppendBlockMatchesRenamingCopy) {
  for (uint32_t Seed = 1; Seed <= 300; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SymbolTable Syms;
    TermStore Src;
    ClauseGen Gen(Syms, Src, Seed, /*Ground=*/Seed % 5 == 0);
    checkTemplate(Syms, Src, Gen.clause());
    if (HasFatalFailure())
      return;
  }
}

TEST(ClauseTemplate, HundredThousandElementListIsIterative) {
  SymbolTable Syms;
  TermStore Src;
  TermRef X = Src.mkVar(), Y = Src.mkVar();
  std::vector<TermRef> Elems;
  for (int I = 0; I < 100000; ++I)
    Elems.push_back(I % 3 == 0 ? X : I % 3 == 1 ? Src.mkInt(I) : Y);
  TermRef List = Src.mkList(Syms, Elems);
  TermRef Head = Src.mkStruct(Syms.intern("big"),
                              std::span<const TermRef>(&List, 1));
  TermRef Body = Src.mkStruct(Syms.intern("p"), std::span<const TermRef>(&X, 1));
  checkTemplate(Syms, Src, Src.mkStruct2(Syms.Neck, Head, Body));
}

TEST(ClauseTemplateDeathTest, AppendBlockRejectsItsOwnStore) {
  SymbolTable Syms;
  TermStore S;
  TermRef A = S.mkAtom(Syms.intern("a"));
  S.mkStruct(Syms.intern("f"), std::span<const TermRef>(&A, 1));
  EXPECT_DEATH(S.appendBlock(S, 0, static_cast<TermRef>(S.size())),
               "into itself");
}

} // namespace
