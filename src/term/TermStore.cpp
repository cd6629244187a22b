//===- TermStore.cpp - Cell-based term representation ---------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "term/TermStore.h"

#include <cstdio>
#include <cstdlib>

using namespace lpa;

TermRef TermStore::mkVar() {
  TermRef T = static_cast<TermRef>(Cells.size());
  Cells.push_back({TermTag::Ref, 0, 0, static_cast<int64_t>(T)});
  return T;
}

TermRef TermStore::mkAtom(SymbolId S) {
  TermRef T = static_cast<TermRef>(Cells.size());
  Cells.push_back({TermTag::Atom, S, 0, 0});
  return T;
}

TermRef TermStore::mkInt(int64_t Value) {
  TermRef T = static_cast<TermRef>(Cells.size());
  Cells.push_back({TermTag::Int, 0, 0, Value});
  return T;
}

TermRef TermStore::mkStruct(SymbolId S, std::span<const TermRef> Args) {
  assert(!Args.empty() && "use mkAtom for arity 0");
  // Argument slots are Ref cells pre-bound to the given terms; they are
  // never unbound, so they need no trailing.
  TermRef ArgBase = static_cast<TermRef>(Cells.size() + 1);
  TermRef T = static_cast<TermRef>(Cells.size());
  Cells.push_back({TermTag::Struct, S, static_cast<uint32_t>(Args.size()),
                   static_cast<int64_t>(ArgBase)});
  for (TermRef A : Args)
    Cells.push_back({TermTag::Ref, 0, 0, static_cast<int64_t>(A)});
  return T;
}

TermRef TermStore::mkList(const SymbolTable &Symbols,
                          std::span<const TermRef> Elems, TermRef Tail) {
  // Lists are built back to front so each cons can reference the next.
  TermRef List = Tail;
  if (List == InvalidTerm)
    List = mkAtom(Symbols.Nil);
  for (size_t I = Elems.size(); I-- > 0;)
    List = mkStruct2(Symbols.Cons, Elems[I], List);
  return List;
}

size_t TermStore::termBytes(TermRef T) const {
  // Iterative walk; one visit per cell encountered. Argument slots are Ref
  // cells of their own, so count every slot plus what it points at.
  size_t Cnt = 0;
  std::vector<TermRef> Stack{T};
  while (!Stack.empty()) {
    TermRef Cur = Stack.back();
    Stack.pop_back();
    ++Cnt; // The cell itself (a slot or a value cell).
    TermRef D = deref(Cur);
    if (D != Cur)
      ++Cnt; // The representative at the end of the Ref chain.
    if (tag(D) == TermTag::Struct)
      for (uint32_t I = arity(D); I-- > 0;)
        Stack.push_back(arg(D, I));
  }
  return Cnt * sizeof(Cell);
}

TermRef TermStore::appendBlock(const TermStore &Src, TermRef Lo, TermRef Hi) {
  if (&Src == this) {
    std::fputs("lpa: TermStore::appendBlock from a store into itself\n",
               stderr);
    std::abort();
  }
  assert(Lo <= Hi && Hi <= Src.Cells.size() && "block out of range");
  TermRef Base = static_cast<TermRef>(Cells.size());
  int64_t Delta = int64_t(Base) - int64_t(Lo);
  Cells.insert(Cells.end(), Src.Cells.begin() + Lo, Src.Cells.begin() + Hi);
  for (size_t I = Base, E = Cells.size(); I < E; ++I) {
    Cell &C = Cells[I];
    if (C.Kind == TermTag::Ref || C.Kind == TermTag::Struct) {
      assert(C.Val >= int64_t(Lo) && C.Val < int64_t(Hi) &&
             "block is not self-contained");
      C.Val += Delta;
    }
  }
  return Base;
}

void TermStore::undoTo(Mark M) {
  assert(M.TrailSize <= Trail.size() && M.HeapSize <= Cells.size() &&
         "mark is newer than current state");
  while (Trail.size() > M.TrailSize) {
    TermRef Var = Trail.back();
    Trail.pop_back();
    Cells[Var].Val = static_cast<int64_t>(Var);
  }
  Cells.resize(M.HeapSize);
}
