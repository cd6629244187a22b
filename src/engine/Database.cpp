//===- Database.cpp - Dynamic clause database -------------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "engine/Database.h"

#include "reader/Parser.h"
#include "table/VariantCode.h"
#include "term/StampedCellMap.h"
#include "term/TermCopy.h"
#include "term/TermWriter.h"
#include "term/Variant.h"

#include <algorithm>
#include <cassert>

using namespace lpa;

namespace {

/// Variant code of a whole clause: the tuple {Head, Body...}, numbered
/// across all of them in one pass, so head/body variable sharing counts
/// (equal codes <=> the clauses are variants).
std::vector<uint64_t> clauseVariantCode(const TermStore &Store, TermRef Head,
                                        std::span<const TermRef> Body) {
  std::vector<TermRef> Roots{Head};
  Roots.insert(Roots.end(), Body.begin(), Body.end());
  std::vector<uint64_t> Code;
  appendVariantCode(Store, Roots, Code);
  return Code;
}

/// Scratch of one thread's instantiateGoal calls, which never re-enter.
struct GoalScratch {
  /// Clause variable (as an offset into its template) -> its term.
  StampedCellMap VarMap;
  struct Frame {
    TermRef Node;     // Dereferenced Struct in the clause store.
    uint32_t ArgBase; // Where this frame's argument copies start in Args.
  };
  std::vector<Frame> Frames;
  std::vector<TermRef> Args;
};

thread_local GoalScratch GScratch;

} // namespace

TermRef Database::instantiateGoal(const Clause &C, size_t J,
                                  std::span<const TermRef> Live,
                                  TermStore &Dst) const {
  GoalScratch &S = GScratch;
  S.VarMap.reset(C.Hi - C.Lo);
  size_t K = 0;
  for (const Clause::BodyVar &B : C.BodyVars)
    if (B.LastGoal >= J)
      S.VarMap.set(B.Cell - C.Lo, Live[K++]);
  assert(K == Live.size() && "one term per variable live at the goal");
  // Iterative post-order build, as in copyTerm.
  S.Frames.clear();
  S.Args.clear();
  TermRef Pending = C.Body[J];
  while (true) {
    TermRef D = ClauseStore.deref(Pending);
    TermRef Done = InvalidTerm;
    switch (ClauseStore.tag(D)) {
    case TermTag::Ref:
      Done = S.VarMap.find(D - C.Lo);
      assert(Done != StampedCellMap::Missing && "goal variable not live");
      break;
    case TermTag::Atom:
      Done = Dst.mkAtom(ClauseStore.symbol(D));
      break;
    case TermTag::Int:
      Done = Dst.mkInt(ClauseStore.intValue(D));
      break;
    case TermTag::Struct:
      S.Frames.push_back({D, static_cast<uint32_t>(S.Args.size())});
      Pending = ClauseStore.arg(D, 0);
      continue;
    }
    while (true) {
      if (S.Frames.empty())
        return Done;
      GoalScratch::Frame F = S.Frames.back();
      S.Args.push_back(Done);
      uint32_t Have = static_cast<uint32_t>(S.Args.size()) - F.ArgBase;
      uint32_t Arity = ClauseStore.arity(F.Node);
      if (Have < Arity) {
        Pending = ClauseStore.arg(F.Node, Have);
        break;
      }
      Done = Dst.mkStruct(ClauseStore.symbol(F.Node),
                          std::span<const TermRef>(S.Args.data() + F.ArgBase,
                                                   Arity));
      S.Args.resize(F.ArgBase);
      S.Frames.pop_back();
    }
  }
}

void lpa::flattenConjunction(const TermStore &Store,
                             const SymbolTable &Symbols, TermRef Body,
                             std::vector<TermRef> &Goals) {
  TermRef Cur = Store.deref(Body);
  while (Store.tag(Cur) == TermTag::Struct &&
         Store.symbol(Cur) == Symbols.Comma && Store.arity(Cur) == 2) {
    flattenConjunction(Store, Symbols, Store.arg(Cur, 0), Goals);
    Cur = Store.deref(Store.arg(Cur, 1));
  }
  // 'true' goals contribute nothing.
  if (Store.tag(Cur) == TermTag::Atom && Store.symbol(Cur) == Symbols.True)
    return;
  Goals.push_back(Cur);
}

uint64_t Database::firstArgKey(const TermStore &Store, TermRef Arg) {
  TermRef D = Store.deref(Arg);
  switch (Store.tag(D)) {
  case TermTag::Ref:
    return 0;
  case TermTag::Atom:
    return (uint64_t(1) << 62) | Store.symbol(D);
  case TermTag::Int:
    return (uint64_t(2) << 62) |
           (static_cast<uint64_t>(Store.intValue(D)) & ((uint64_t(1) << 62) - 1));
  case TermTag::Struct:
    return (uint64_t(3) << 62) | (uint64_t(Store.arity(D)) << 32) |
           Store.symbol(D);
  }
  return 0;
}

ErrorOr<bool> Database::handleTableSpec(const TermStore &Src, TermRef Spec) {
  TermRef D = Src.deref(Spec);
  // A list of specs.
  while (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Symbols.Cons &&
         Src.arity(D) == 2) {
    auto Res = handleTableSpec(Src, Src.arg(D, 0));
    if (!Res)
      return Res;
    D = Src.deref(Src.arg(D, 1));
  }
  if (Src.tag(D) == TermTag::Atom && Src.symbol(D) == Symbols.Nil)
    return true;
  // p/N.
  SymbolId Slash = Symbols.intern("/");
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Slash &&
      Src.arity(D) == 2) {
    TermRef NameT = Src.deref(Src.arg(D, 0));
    TermRef ArityT = Src.deref(Src.arg(D, 1));
    if (Src.tag(NameT) == TermTag::Atom && Src.tag(ArityT) == TermTag::Int) {
      setTabled(Src.symbol(NameT),
                static_cast<uint32_t>(Src.intValue(ArityT)));
      return true;
    }
  }
  return Diagnostic("malformed table declaration");
}

ErrorOr<bool> Database::checkTableSpec(const TermStore &Src,
                                       TermRef Spec) const {
  TermRef D = Src.deref(Spec);
  while (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Symbols.Cons &&
         Src.arity(D) == 2) {
    auto Res = checkTableSpec(Src, Src.arg(D, 0));
    if (!Res)
      return Res;
    D = Src.deref(Src.arg(D, 1));
  }
  if (Src.tag(D) == TermTag::Atom && Src.symbol(D) == Symbols.Nil)
    return true;
  SymbolId Slash = Symbols.lookup("/");
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Slash &&
      Src.arity(D) == 2) {
    TermRef NameT = Src.deref(Src.arg(D, 0));
    TermRef ArityT = Src.deref(Src.arg(D, 1));
    if (Src.tag(NameT) == TermTag::Atom && Src.tag(ArityT) == TermTag::Int)
      return true;
  }
  return Diagnostic("malformed table declaration");
}

ErrorOr<bool> Database::validateClause(const TermStore &Src,
                                       TermRef ClauseTerm) const {
  TermRef D = Src.deref(ClauseTerm);
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Symbols.Neck &&
      Src.arity(D) == 1) {
    TermRef Dir = Src.deref(Src.arg(D, 0));
    SymbolId Table = Symbols.lookup("table");
    if (Src.tag(Dir) == TermTag::Struct && Src.symbol(Dir) == Table)
      return checkTableSpec(Src, Src.arg(Dir, 0));
    return true; // Unknown directives are ignored at load time too.
  }
  TermRef Head = D;
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Symbols.Neck &&
      Src.arity(D) == 2)
    Head = Src.deref(Src.arg(D, 0));
  TermTag HT = Src.tag(Head);
  if (HT != TermTag::Atom && HT != TermTag::Struct)
    return Diagnostic("clause head must be an atom or compound term");
  return true;
}

ErrorOr<bool> Database::handleDirective(const TermStore &Src, TermRef Body) {
  TermRef D = Src.deref(Body);
  SymbolId Table = Symbols.intern("table");
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Table)
    return handleTableSpec(Src, Src.arg(D, 0));
  // Other directives are ignored.
  return true;
}

ErrorOr<bool> Database::loadClause(const TermStore &Src, TermRef ClauseTerm) {
  TermRef D = Src.deref(ClauseTerm);

  // Directive ":- Body."
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Symbols.Neck &&
      Src.arity(D) == 1)
    return handleDirective(Src, Src.arg(D, 0));

  // Copy the whole clause into our store first so head and body share
  // variables. A fresh-renaming copy is one self-contained block, from
  // which the clause template is cut.
  TermRef Lo = static_cast<TermRef>(ClauseStore.size());
  TermRef Local = copyTerm(Src, D, ClauseStore);

  TermRef Head = Local;
  TermRef Body = InvalidTerm;
  if (ClauseStore.tag(Local) == TermTag::Struct &&
      ClauseStore.symbol(Local) == Symbols.Neck &&
      ClauseStore.arity(Local) == 2) {
    Head = ClauseStore.deref(ClauseStore.arg(Local, 0));
    Body = ClauseStore.deref(ClauseStore.arg(Local, 1));
  }

  TermTag HT = ClauseStore.tag(Head);
  if (HT != TermTag::Atom && HT != TermTag::Struct)
    return Diagnostic("clause head must be an atom or compound term");

  PredKey Key{ClauseStore.symbol(Head), ClauseStore.arity(Head)};
  auto [It, Inserted] = Preds.try_emplace(Key);
  Predicate &P = It->second;
  if (Inserted) {
    P.Key = Key;
    PredOrder.push_back(Key);
    auto TD = TabledDecls.find(Key);
    if (TD != TabledDecls.end())
      P.Tabled = true;
  }

  Clause C;
  C.Head = Head;
  if (Body != InvalidTerm)
    flattenConjunction(ClauseStore, Symbols, Body, C.Body);
  C.FirstArgKey =
      Key.Arity == 0 ? 0 : firstArgKey(ClauseStore, ClauseStore.arg(Head, 0));
  // Post-order puts the ':-' and ',' wrapper cells last, and nothing else
  // points at them, so the template ends with the last head/goal cell.
  C.Lo = Lo;
  C.Hi = Head + 1 + ClauseStore.arity(Head);
  for (TermRef G : C.Body)
    C.Hi = std::max(C.Hi, G + 1 + ClauseStore.arity(G));
  numberBodyVars(C);
  P.Clauses.push_back(std::move(C));
  noteMutation(Key);
  return true;
}

void Database::numberBodyVars(Clause &C) const {
  std::vector<TermRef> GoalVars;
  for (uint32_t J = 0; J < C.Body.size(); ++J) {
    GoalVars.clear();
    collectFreeVars(ClauseStore, C.Body[J], GoalVars);
    for (TermRef V : GoalVars) {
      auto It = std::find_if(C.BodyVars.begin(), C.BodyVars.end(),
                             [&](const Clause::BodyVar &B) {
                               return B.Cell == V;
                             });
      if (It == C.BodyVars.end())
        C.BodyVars.push_back({V, J});
      else
        It->LastGoal = J;
    }
  }
}

ErrorOr<bool> Database::loadProgram(const TermStore &Src,
                                    const std::vector<TermRef> &Clauses) {
  for (TermRef C : Clauses) {
    auto Res = loadClause(Src, C);
    if (!Res)
      return Res;
  }
  return true;
}

ErrorOr<bool> Database::consult(std::string_view Text) {
  // Phase 1: parse the whole text. A syntax error anywhere aborts before
  // anything is stored.
  TermStore Scratch;
  Parser P(Symbols, Scratch, Text);
  std::vector<TermRef> Clauses;
  while (true) {
    auto Clause = P.nextClause();
    if (!Clause)
      return Clause.getError();
    if (*Clause == InvalidTerm)
      break;
    Clauses.push_back(*Clause);
  }
  // Phase 2: validate every clause shape without mutating the database.
  for (TermRef C : Clauses) {
    auto Res = validateClause(Scratch, C);
    if (!Res)
      return Res;
  }
  // Phase 3: loading cannot fail now — every loadClause failure mode was
  // checked in phase 2.
  for (TermRef C : Clauses) {
    auto Res = loadClause(Scratch, C);
    assert(Res && "validated clause failed to load");
    (void)Res;
  }
  return true;
}

ErrorOr<size_t> Database::retract(std::string_view Text) {
  TermStore Scratch;
  Parser P(Symbols, Scratch, Text);
  auto First = P.nextClause();
  if (!First)
    return First.getError();
  if (*First == InvalidTerm)
    return Diagnostic("retract: expected a clause");
  auto Extra = P.nextClause();
  if (!Extra)
    return Extra.getError();
  if (*Extra != InvalidTerm)
    return Diagnostic("retract: expected exactly one clause");

  TermRef D = Scratch.deref(*First);
  if (Scratch.tag(D) == TermTag::Struct && Scratch.symbol(D) == Symbols.Neck &&
      Scratch.arity(D) == 1)
    return Diagnostic("retract: cannot retract a directive");

  TermRef Head = D;
  TermRef Body = InvalidTerm;
  if (Scratch.tag(D) == TermTag::Struct && Scratch.symbol(D) == Symbols.Neck &&
      Scratch.arity(D) == 2) {
    Head = Scratch.deref(Scratch.arg(D, 0));
    Body = Scratch.deref(Scratch.arg(D, 1));
  }
  TermTag HT = Scratch.tag(Head);
  if (HT != TermTag::Atom && HT != TermTag::Struct)
    return Diagnostic("clause head must be an atom or compound term");

  PredKey Key{Scratch.symbol(Head), Scratch.arity(Head)};
  auto It = Preds.find(Key);
  if (It == Preds.end())
    return size_t(0);

  // Match against stored clauses by whole-clause variant code. The
  // pattern's body is flattened exactly the way loadClause flattened stored
  // bodies, so e.g. "p :- q, true, r." retracts a clause loaded from the
  // same text.
  std::vector<TermRef> Goals;
  if (Body != InvalidTerm)
    flattenConjunction(Scratch, Symbols, Body, Goals);
  std::vector<uint64_t> Pattern = clauseVariantCode(Scratch, Head, Goals);

  Predicate &Pr = It->second;
  for (size_t I = 0; I < Pr.Clauses.size(); ++I) {
    const Clause &C = Pr.Clauses[I];
    if (clauseVariantCode(ClauseStore, C.Head, C.Body) == Pattern) {
      Pr.Clauses.erase(Pr.Clauses.begin() + I);
      noteMutation(Key);
      return size_t(1);
    }
  }
  return size_t(0);
}

size_t Database::retractAll(PredKey Key) {
  auto It = Preds.find(Key);
  if (It == Preds.end())
    return 0;
  size_t N = It->second.Clauses.size();
  It->second.Clauses.clear();
  if (N)
    noteMutation(Key);
  return N;
}

std::vector<PredKey> Database::predsChangedSince(uint64_t Rev) const {
  std::vector<PredKey> Changed;
  for (const auto &[Key, R] : PredRevisions)
    if (R > Rev)
      Changed.push_back(Key);
  return Changed;
}

void Database::setTabled(SymbolId Sym, uint32_t Arity) {
  PredKey Key{Sym, Arity};
  TabledDecls[Key] = true;
  auto It = Preds.find(Key);
  if (It != Preds.end())
    It->second.Tabled = true;
}

void Database::tableAllPredicates() {
  for (auto &KV : Preds) {
    KV.second.Tabled = true;
    TabledDecls[KV.first] = true;
  }
}

const Predicate *Database::lookup(PredKey Key) const {
  LkLookups.fetch_add(1, std::memory_order_relaxed);
  auto It = Preds.find(Key);
  if (It == Preds.end()) {
    LkMisses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return &It->second;
}

bool Database::isTabled(PredKey Key) const {
  auto It = TabledDecls.find(Key);
  return It != TabledDecls.end() && It->second;
}

size_t Database::numClauses() const {
  size_t N = 0;
  for (const auto &KV : Preds)
    N += KV.second.Clauses.size();
  return N;
}
