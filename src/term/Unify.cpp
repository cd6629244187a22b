//===- Unify.cpp - Unification over TermStore -----------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "term/Unify.h"

#include <tuple>
#include <utility>
#include <vector>

using namespace lpa;

bool lpa::occursIn(const TermStore &Store, TermRef Var, TermRef T) {
  Var = Store.deref(Var);
  std::vector<TermRef> Work{T};
  while (!Work.empty()) {
    TermRef Cur = Store.deref(Work.back());
    Work.pop_back();
    if (Cur == Var)
      return true;
    if (Store.tag(Cur) == TermTag::Struct)
      for (uint32_t I = 0, E = Store.arity(Cur); I < E; ++I)
        Work.push_back(Store.arg(Cur, I));
  }
  return false;
}

bool lpa::isGround(const TermStore &Store, TermRef T) {
  std::vector<TermRef> Work{T};
  while (!Work.empty()) {
    TermRef Cur = Store.deref(Work.back());
    Work.pop_back();
    switch (Store.tag(Cur)) {
    case TermTag::Ref:
      return false;
    case TermTag::Struct:
      for (uint32_t I = 0, E = Store.arity(Cur); I < E; ++I)
        Work.push_back(Store.arg(Cur, I));
      break;
    case TermTag::Atom:
    case TermTag::Int:
      break;
    }
  }
  return true;
}

bool lpa::unify(TermStore &Store, TermRef A, TermRef B, bool OccursCheck) {
  // Argument pairs of structures still to unify. Most calls bind a
  // variable or compare two constants and never touch it, so it allocates
  // only at the first pair of structures.
  std::vector<std::pair<TermRef, TermRef>> Work;
  for (TermRef X = A, Y = B;;) {
    X = Store.deref(X);
    Y = Store.deref(Y);
    TermTag TX = Store.tag(X), TY = Store.tag(Y);
    if (X == Y) {
      // Already identical.
    } else if (TX == TermTag::Ref) {
      if (OccursCheck && TY == TermTag::Struct && occursIn(Store, X, Y))
        return false;
      Store.bind(X, Y);
    } else if (TY == TermTag::Ref) {
      if (OccursCheck && TX == TermTag::Struct && occursIn(Store, Y, X))
        return false;
      Store.bind(Y, X);
    } else if (TX != TY) {
      return false;
    } else if (TX == TermTag::Int) {
      if (Store.intValue(X) != Store.intValue(Y))
        return false;
    } else {
      // Atoms, or structures whose arguments unify pairwise.
      if (Store.symbol(X) != Store.symbol(Y) ||
          Store.arity(X) != Store.arity(Y))
        return false;
      for (uint32_t I = 0, E = Store.arity(X); I < E; ++I)
        Work.push_back({Store.arg(X, I), Store.arg(Y, I)});
    }
    if (Work.empty())
      return true;
    std::tie(X, Y) = Work.back();
    Work.pop_back();
  }
}

bool lpa::termsEqual(const TermStore &Store, TermRef A, TermRef B) {
  std::vector<std::pair<TermRef, TermRef>> Work{{A, B}};
  while (!Work.empty()) {
    auto [X, Y] = Work.back();
    Work.pop_back();
    X = Store.deref(X);
    Y = Store.deref(Y);
    if (X == Y)
      continue;

    TermTag TX = Store.tag(X), TY = Store.tag(Y);
    if (TX != TY)
      return false;
    switch (TX) {
    case TermTag::Ref:
      // Distinct unbound variables.
      return false;
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
    }
  }
  return true;
}
