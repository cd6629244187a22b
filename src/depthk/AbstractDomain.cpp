//===- AbstractDomain.cpp - Depth-k term abstraction --------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "depthk/AbstractDomain.h"

#include "term/Unify.h"

#include <functional>
#include <unordered_map>

#include <vector>

using namespace lpa;

void AbstractDomain::groundify(TermStore &Store, TermRef T) const {
  std::vector<TermRef> Work{T};
  while (!Work.empty()) {
    TermRef Cur = Store.deref(Work.back());
    Work.pop_back();
    switch (Store.tag(Cur)) {
    case TermTag::Ref:
      Store.bind(Cur, Store.mkAtom(Gamma));
      break;
    case TermTag::Struct:
      for (uint32_t I = 0, E = Store.arity(Cur); I < E; ++I)
        Work.push_back(Store.arg(Cur, I));
      break;
    case TermTag::Atom:
    case TermTag::Int:
      break;
    }
  }
}

bool AbstractDomain::isGroundAbstract(const TermStore &Store,
                                      TermRef T) const {
  // Gamma is an atom, so plain groundness already treats it as ground.
  return isGround(Store, T);
}

bool AbstractDomain::unifyAbstract(TermStore &Store, TermRef A,
                                   TermRef B) const {
  std::vector<std::pair<TermRef, TermRef>> Work{{A, B}};
  while (!Work.empty()) {
    auto [X, Y] = Work.back();
    Work.pop_back();
    X = Store.deref(X);
    Y = Store.deref(Y);
    if (X == Y)
      continue;

    TermTag TX = Store.tag(X), TY = Store.tag(Y);

    // Variables bind with occur check (Section 5: abstract unification
    // performs the occur check).
    if (TX == TermTag::Ref) {
      if (TY == TermTag::Struct && occursIn(Store, X, Y))
        return false;
      Store.bind(X, Y);
      continue;
    }
    if (TY == TermTag::Ref) {
      if (TX == TermTag::Struct && occursIn(Store, Y, X))
        return false;
      Store.bind(Y, X);
      continue;
    }

    // Gamma absorbs any term that can be made ground: the meet constrains
    // the other side's variables to ground terms.
    bool GX = TX == TermTag::Atom && Store.symbol(X) == Gamma;
    bool GY = TY == TermTag::Atom && Store.symbol(Y) == Gamma;
    if (GX || GY) {
      groundify(Store, GX ? Y : X);
      continue;
    }

    if (TX != TY)
      return false;
    switch (TX) {
    case TermTag::Atom:
      if (Store.symbol(X) != Store.symbol(Y))
        return false;
      break;
    case TermTag::Int:
      if (Store.intValue(X) != Store.intValue(Y))
        return false;
      break;
    case TermTag::Struct:
      if (Store.symbol(X) != Store.symbol(Y) ||
          Store.arity(X) != Store.arity(Y))
        return false;
      for (uint32_t I = 0, E = Store.arity(X); I < E; ++I)
        Work.push_back({Store.arg(X, I), Store.arg(Y, I)});
      break;
    case TermTag::Ref:
      break; // Handled above.
    }
  }
  return true;
}

TermRef AbstractDomain::depthCutRec(
    const TermStore &Src, TermRef T, TermStore &Dst,
    VarRenaming &Renaming, unsigned Level) const {
  T = Src.deref(T);
  switch (Src.tag(T)) {
  case TermTag::Ref:
    return Renaming.findOrInsert(T, [&] { return Dst.mkVar(); });
  case TermTag::Atom:
    return Dst.mkAtom(Src.symbol(T));
  case TermTag::Int:
    return Dst.mkInt(Src.intValue(T));
  case TermTag::Struct:
    break;
  }

  if (Level >= Depth) {
    // Cut point: ground subtrees collapse to gamma, others widen to a
    // fresh variable (each occurrence its own variable: "any term").
    if (isGround(Src, T))
      return Dst.mkAtom(Gamma);
    return Dst.mkVar();
  }
  std::vector<TermRef> Args;
  for (uint32_t I = 0, E = Src.arity(T); I < E; ++I)
    Args.push_back(depthCutRec(Src, Src.arg(T, I), Dst, Renaming, Level + 1));
  return Dst.mkStruct(Src.symbol(T), Args);
}

TermRef AbstractDomain::depthCut(
    const TermStore &Src, TermRef T, TermStore &Dst,
    VarRenaming &Renaming) const {
  return depthCutRec(Src, T, Dst, Renaming, 0);
}

namespace {

/// Key for the lgg pair memo.
struct PairKey {
  TermRef A, B;
  bool operator==(const PairKey &O) const { return A == O.A && B == O.B; }
};
struct PairKeyHash {
  size_t operator()(const PairKey &K) const {
    return std::hash<uint64_t>()((uint64_t(K.A) << 32) | K.B);
  }
};

} // namespace

TermRef AbstractDomain::lgg(const TermStore &Src, TermRef A, TermRef B,
                            TermStore &Dst) const {
  std::unordered_map<PairKey, TermRef, PairKeyHash> Memo;

  // Recursive lambda over dereferenced pairs.
  std::function<TermRef(TermRef, TermRef)> Rec = [&](TermRef X,
                                                     TermRef Y) -> TermRef {
    X = Src.deref(X);
    Y = Src.deref(Y);
    PairKey Key{X, Y};
    auto It = Memo.find(Key);
    if (It != Memo.end())
      return It->second;

    TermRef Out = InvalidTerm;
    TermTag TX = Src.tag(X), TY = Src.tag(Y);
    if (TX == TY) {
      switch (TX) {
      case TermTag::Atom:
        if (Src.symbol(X) == Src.symbol(Y))
          Out = Dst.mkAtom(Src.symbol(X));
        break;
      case TermTag::Int:
        if (Src.intValue(X) == Src.intValue(Y))
          Out = Dst.mkInt(Src.intValue(X));
        break;
      case TermTag::Struct:
        if (Src.symbol(X) == Src.symbol(Y) &&
            Src.arity(X) == Src.arity(Y)) {
          std::vector<TermRef> Args;
          for (uint32_t I = 0, E = Src.arity(X); I < E; ++I)
            Args.push_back(Rec(Src.arg(X, I), Src.arg(Y, I)));
          Out = Dst.mkStruct(Src.symbol(X), Args);
        }
        break;
      case TermTag::Ref:
        break;
      }
    }
    if (Out == InvalidTerm) {
      // Disagreement: gamma when both sides are ground, else a variable
      // (the same variable for the same pair of subterms).
      if (isGround(Src, X) && isGround(Src, Y))
        Out = Dst.mkAtom(Gamma);
      else
        Out = Dst.mkVar();
    }
    Memo.emplace(Key, Out);
    return Out;
  };
  return Rec(A, B);
}

bool AbstractDomain::subsumes(const TermStore &Store, TermRef Pat,
                              TermRef Inst) const {
  std::unordered_map<TermRef, TermRef> Binding;
  std::vector<std::pair<TermRef, TermRef>> Work{{Pat, Inst}};
  while (!Work.empty()) {
    auto [P, T] = Work.back();
    Work.pop_back();
    P = Store.deref(P);
    T = Store.deref(T);

    if (Store.tag(P) == TermTag::Ref) {
      // A pattern variable matches anything, consistently.
      auto [It, Inserted] = Binding.emplace(P, T);
      if (!Inserted && !termsEqual(Store, It->second, T))
        return false;
      continue;
    }
    if (Store.tag(P) == TermTag::Atom && Store.symbol(P) == Gamma) {
      // gamma covers any ground abstract term.
      if (!isGround(Store, T))
        return false;
      continue;
    }
    if (Store.tag(P) != Store.tag(T))
      return false;
    switch (Store.tag(P)) {
    case TermTag::Atom:
      if (Store.symbol(P) != Store.symbol(T))
        return false;
      break;
    case TermTag::Int:
      if (Store.intValue(P) != Store.intValue(T))
        return false;
      break;
    case TermTag::Struct:
      if (Store.symbol(P) != Store.symbol(T) ||
          Store.arity(P) != Store.arity(T))
        return false;
      for (uint32_t I = 0, E = Store.arity(P); I < E; ++I)
        Work.push_back({Store.arg(P, I), Store.arg(T, I)});
      break;
    case TermTag::Ref:
      break;
    }
  }
  return true;
}
