//===- PropTransform.cpp - Figure 1: Prop abstraction ------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "prop/PropTransform.h"

#include "reader/Parser.h"
#include "term/TermWriter.h"
#include "term/Variant.h"

#include <algorithm>

using namespace lpa;

SymbolId PropTransformer::abstractSymbol(SymbolId Sym) {
  return Symbols.intern(abstractName(Symbols.name(Sym)));
}

TermRef PropTransformer::translateArg(const TermStore &Src, TermRef T,
                                      TermStore &Dst, VarRenaming &VarMap,
                                      std::vector<TermRef> &Goals) {
  T = Src.deref(T);
  auto Tau = [&](TermRef V) {
    return VarMap.findOrInsert(V, [&] { return Dst.mkVar(); });
  };

  // A bare variable needs no iff: its abstract value *is* tau(x).
  if (Src.tag(T) == TermTag::Ref)
    return Tau(T);

  // S[t]a = iff(a, a1..ak) over Vars(t). Ground terms yield iff(a),
  // forcing a = true (Figure 2: iff(X1) for the [] argument).
  std::vector<TermRef> Vars;
  collectFreeVars(Src, T, Vars);
  TermRef A = Dst.mkVar();
  std::vector<TermRef> IffArgs{A};
  for (TermRef V : Vars)
    IffArgs.push_back(Tau(V));
  Goals.push_back(Dst.mkStruct(Symbols.Iff, IffArgs));
  return A;
}

void PropTransformer::emitGroundAll(const TermStore &Src, TermRef T,
                                    TermStore &Dst, VarRenaming &VarMap,
                                    std::vector<TermRef> &Goals) {
  std::vector<TermRef> Vars;
  collectFreeVars(Src, T, Vars);
  for (TermRef V : Vars) {
    TermRef Tv = VarMap.findOrInsert(V, [&] { return Dst.mkVar(); });
    // iff(Tv): Tv <-> empty conjunction = true.
    Goals.push_back(Dst.mkStruct(Symbols.Iff, std::span<const TermRef>(&Tv, 1)));
  }
}

ErrorOr<bool> PropTransformer::translateGoal(const TermStore &Src,
                                             TermRef Goal, TermStore &Dst,
                                             VarRenaming &VarMap,
                                             std::vector<TermRef> &Goals) {
  TermRef G = Src.deref(Goal);
  TermTag Tag = Src.tag(G);
  if (Tag == TermTag::Ref)
    return Diagnostic("cannot abstract a variable goal (call/N metacall)");
  if (Tag == TermTag::Int)
    return Diagnostic("integer used as a goal");

  SymbolId Sym = Src.symbol(G);
  uint32_t Arity = Src.arity(G);
  const std::string &Name = Symbols.name(Sym);

  // Control and builtins, abstracted per Section 3.1's treatment.
  if (Arity == 0) {
    if (Name == "true" || Name == "!" || Name == "nl")
      return true; // No groundness effect.
    if (Name == "fail" || Name == "false") {
      Goals.push_back(Dst.mkAtom(Symbols.Fail));
      return true;
    }
    // 0-ary user predicate.
    Goals.push_back(Dst.mkAtom(abstractSymbol(Sym)));
    return true;
  }

  if (Arity == 2 && (Name == "," )) {
    auto L = translateGoal(Src, Src.arg(G, 0), Dst, VarMap, Goals);
    if (!L)
      return L;
    return translateGoal(Src, Src.arg(G, 1), Dst, VarMap, Goals);
  }
  if (Arity == 2 && (Name == ";" || Name == "->"))
    return Diagnostic("disjunction/if-then-else not supported by the Prop "
                      "transformer; normalize the program into pure clauses");

  // L[x = t] = S[t]Tx. General t1 = t2 goals are decomposed structurally,
  // mirroring concrete unification: matching compound terms equate their
  // arguments pairwise, clashing functors abstract to fail.
  if (Arity == 2 && Name == "=") {
    std::vector<std::pair<TermRef, TermRef>> Work{
        {Src.arg(G, 0), Src.arg(G, 1)}};
    while (!Work.empty()) {
      auto [LT, RT] = Work.back();
      Work.pop_back();
      LT = Src.deref(LT);
      RT = Src.deref(RT);
      TermTag TL = Src.tag(LT), TR = Src.tag(RT);
      if (TL == TermTag::Ref || TR == TermTag::Ref) {
        if (TL != TermTag::Ref)
          std::swap(LT, RT);
        // S[t]Tx: Tx <-> /\ Vars(t).
        TermRef A = translateArg(Src, LT, Dst, VarMap, Goals);
        TermRef B = translateArg(Src, RT, Dst, VarMap, Goals);
        if (A != B)
          Goals.push_back(Dst.mkStruct2(Symbols.Iff, A, B));
        continue;
      }
      if (TL != TR ||
          (TL == TermTag::Atom && Src.symbol(LT) != Src.symbol(RT)) ||
          (TL == TermTag::Int && Src.intValue(LT) != Src.intValue(RT)) ||
          (TL == TermTag::Struct && (Src.symbol(LT) != Src.symbol(RT) ||
                                     Src.arity(LT) != Src.arity(RT)))) {
        Goals.push_back(Dst.mkAtom(Symbols.Fail));
        return true;
      }
      if (TL == TermTag::Struct)
        for (uint32_t I = 0, E = Src.arity(LT); I < E; ++I)
          Work.push_back({Src.arg(LT, I), Src.arg(RT, I)});
    }
    return true;
  }

  // is/2 and arithmetic comparisons ground every variable involved.
  if ((Arity == 2 &&
       (Name == "is" || Name == "<" || Name == ">" || Name == "=<" ||
        Name == ">=" || Name == "=:=" || Name == "=\\=")) ||
      (Arity == 3 && Name == "between")) {
    emitGroundAll(Src, G, Dst, VarMap, Goals);
    return true;
  }

  // Type tests that imply groundness of their argument.
  if (Arity == 1 && (Name == "atom" || Name == "integer" ||
                     Name == "atomic" || Name == "number" ||
                     Name == "ground")) {
    emitGroundAll(Src, G, Dst, VarMap, Goals);
    return true;
  }

  // Tests with no groundness consequence. (\+ G succeeds without binding
  // anything, so 'true' is its sound abstraction; likewise var/nonvar/
  // compound and term inspection.)
  if ((Arity == 1 && (Name == "var" || Name == "nonvar" ||
                      Name == "compound" || Name == "\\+" || Name == "not" ||
                      Name == "write" || Name == "print")) ||
      (Arity == 2 && (Name == "==" || Name == "\\==" || Name == "\\=" ||
                      Name == "@<" || Name == "@>" || Name == "@=<" ||
                      Name == "@>=")))
    return true;

  // functor(T, F, N): on success F and N are ground.
  if (Arity == 3 && Name == "functor") {
    emitGroundAll(Src, Src.arg(G, 1), Dst, VarMap, Goals);
    emitGroundAll(Src, Src.arg(G, 2), Dst, VarMap, Goals);
    return true;
  }
  // arg/3 and =../2: sound as 'true' (no variable is guaranteed ground).
  if ((Arity == 3 && Name == "arg") || (Arity == 2 && Name == "=.."))
    return true;

  // User-defined predicate: L[q(t1..tk)] = S[ti]ai..., gp_q(a1..ak).
  std::vector<TermRef> AbsArgs;
  for (uint32_t I = 0; I < Arity; ++I)
    AbsArgs.push_back(translateArg(Src, Src.arg(G, I), Dst, VarMap, Goals));
  Goals.push_back(Dst.mkStruct(abstractSymbol(Sym), AbsArgs));
  return true;
}

ErrorOr<bool> PropTransformer::transformClause(const TermStore &Src,
                                               TermRef Clause, TermStore &Dst,
                                               PropProgram &Out) {
  TermRef D = Src.deref(Clause);

  // Skip directives.
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Symbols.Neck &&
      Src.arity(D) == 1)
    return true;

  TermRef Head = D;
  TermRef Body = InvalidTerm;
  if (Src.tag(D) == TermTag::Struct && Src.symbol(D) == Symbols.Neck &&
      Src.arity(D) == 2) {
    Head = Src.deref(Src.arg(D, 0));
    Body = Src.arg(D, 1);
  }
  TermTag HT = Src.tag(Head);
  if (HT != TermTag::Atom && HT != TermTag::Struct)
    return Diagnostic("clause head must be an atom or compound term");

  PredKey Concrete{Src.symbol(Head), Src.arity(Head)};
  if (std::find_if(Out.Predicates.begin(), Out.Predicates.end(),
                   [&](PredKey K) { return K == Concrete; }) ==
      Out.Predicates.end())
    Out.Predicates.push_back(Concrete);

  VarRenaming VarMap;
  std::vector<TermRef> Goals;

  // Abstract head.
  TermRef AbsHead;
  SymbolId AbsSym = abstractSymbol(Concrete.Sym);
  if (Concrete.Arity == 0) {
    AbsHead = Dst.mkAtom(AbsSym);
  } else {
    std::vector<TermRef> AbsArgs;
    for (uint32_t I = 0; I < Concrete.Arity; ++I)
      AbsArgs.push_back(
          translateArg(Src, Src.arg(Head, I), Dst, VarMap, Goals));
    AbsHead = Dst.mkStruct(AbsSym, AbsArgs);
  }

  // Abstract body literals.
  if (Body != InvalidTerm) {
    auto R = translateGoal(Src, Body, Dst, VarMap, Goals);
    if (!R)
      return R;
  }

  if (Goals.empty()) {
    Out.Clauses.push_back(AbsHead);
    return true;
  }
  TermRef Conj = Goals.back();
  for (size_t I = Goals.size() - 1; I-- > 0;)
    Conj = Dst.mkStruct2(Symbols.Comma, Goals[I], Conj);
  Out.Clauses.push_back(Dst.mkStruct2(Symbols.Neck, AbsHead, Conj));
  return true;
}

ErrorOr<PropProgram> PropTransformer::transform(
    const TermStore &Src, const std::vector<TermRef> &Clauses,
    TermStore &Dst) {
  PropProgram Out;
  for (TermRef C : Clauses) {
    auto R = transformClause(Src, C, Dst, Out);
    if (!R)
      return R.getError();
  }
  return Out;
}

ErrorOr<PropProgram> PropTransformer::transformText(std::string_view Source,
                                                    TermStore &Dst) {
  TermStore Scratch;
  auto Clauses = Parser::parseProgram(Symbols, Scratch, Source);
  if (!Clauses)
    return Clauses.getError();
  return transform(Scratch, *Clauses, Dst);
}
