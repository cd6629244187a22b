//===- Variant.cpp - Variant checks and canonical keys --------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "term/Variant.h"

#include "term/TermCopy.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <vector>

using namespace lpa;

bool lpa::isVariant(const TermStore &Store, TermRef A, TermRef B) {
  // Two-way variable correspondence maps.
  std::unordered_map<TermRef, TermRef> AToB, BToA;
  std::vector<std::pair<TermRef, TermRef>> Work{{A, B}};
  while (!Work.empty()) {
    auto [X, Y] = Work.back();
    Work.pop_back();
    X = Store.deref(X);
    Y = Store.deref(Y);

    TermTag TX = Store.tag(X), TY = Store.tag(Y);
    if (TX != TY)
      return false;
    switch (TX) {
    case TermTag::Ref: {
      auto ItA = AToB.find(X);
      auto ItB = BToA.find(Y);
      if (ItA == AToB.end() && ItB == BToA.end()) {
        AToB.emplace(X, Y);
        BToA.emplace(Y, X);
        break;
      }
      if (ItA == AToB.end() || ItB == BToA.end() || ItA->second != Y ||
          ItB->second != X)
        return false;
      break;
    }
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
      // Push in reverse so arguments are visited left to right; the order
      // matters because variable numbering must be consistent.
      for (uint32_t I = Store.arity(X); I-- > 0;)
        Work.push_back({Store.arg(X, I), Store.arg(Y, I)});
      break;
    }
  }
  return true;
}

namespace {

/// Scratch of one thread's canonicalKey calls, which never re-enter:
/// once warm, encoding a key allocates nothing beyond the key itself.
struct KeyScratch {
  std::vector<TermRef> Work;
  VarRenaming VarNum; ///< Variable -> its first-occurrence number.
};

thread_local KeyScratch Scratch;

/// Appends raw bytes of \p V to \p Out.
template <typename T> void appendBytes(std::string &Out, T V) {
  char Buf[sizeof(T)];
  std::memcpy(Buf, &V, sizeof(T));
  Out.append(Buf, sizeof(T));
}

} // namespace

std::string lpa::canonicalKey(const TermStore &Store, TermRef T) {
  std::string Out;
  KeyScratch &S = Scratch;
  S.VarNum.clear();
  S.Work.assign(1, T);
  while (!S.Work.empty()) {
    TermRef Cur = Store.deref(S.Work.back());
    S.Work.pop_back();
    switch (Store.tag(Cur)) {
    case TermTag::Ref: {
      TermRef N = S.VarNum.findOrInsert(
          Cur, [&] { return static_cast<TermRef>(S.VarNum.size()); });
      Out.push_back('V');
      appendBytes(Out, N); // A TermRef is the uint32_t number itself.
      break;
    }
    case TermTag::Atom:
      Out.push_back('A');
      appendBytes(Out, Store.symbol(Cur));
      break;
    case TermTag::Int:
      Out.push_back('I');
      appendBytes(Out, Store.intValue(Cur));
      break;
    case TermTag::Struct:
      Out.push_back('S');
      appendBytes(Out, Store.symbol(Cur));
      appendBytes(Out, Store.arity(Cur));
      // Reverse push for left-to-right traversal (variable numbering).
      for (uint32_t I = Store.arity(Cur); I-- > 0;)
        S.Work.push_back(Store.arg(Cur, I));
      break;
    }
  }
  return Out;
}

void lpa::collectFreeVars(const TermStore &Store, TermRef T,
                          std::vector<TermRef> &Vars) {
  std::vector<TermRef> Work{T};
  while (!Work.empty()) {
    TermRef Cur = Store.deref(Work.back());
    Work.pop_back();
    switch (Store.tag(Cur)) {
    case TermTag::Ref:
      if (std::find(Vars.begin(), Vars.end(), Cur) == Vars.end())
        Vars.push_back(Cur);
      break;
    case TermTag::Struct:
      // Reverse push for left-to-right traversal (numbering order).
      for (uint32_t I = Store.arity(Cur); I-- > 0;)
        Work.push_back(Store.arg(Cur, I));
      break;
    case TermTag::Atom:
    case TermTag::Int:
      break;
    }
  }
}
