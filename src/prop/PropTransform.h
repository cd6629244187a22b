//===- PropTransform.h - Figure 1: Prop abstraction -------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The source-to-source transformation of Figure 1: a concrete logic
/// program P becomes an abstract program P# over the Prop domain whose
/// minimal model encodes the groundness of P's predicates.
///
///   P[p(t1..tn) :- c1..cm]  =  gp_p(X1..Xn) :- S[t1]X1,..,S[tn]Xn,
///                                              L[c1],..,L[cm].
///   S[t]a                   =  iff(a, a1..ak),  {a1..ak} = Vars(t)
///   L[q(t1..tk)]            =  S[t1]a1,..,S[tk]ak, gp_q(a1..ak)
///   L[x = t]                =  S[t]Tx
///
/// Builtins are abstracted soundly: is/2 and arithmetic comparisons ground
/// every variable they touch; type tests atom/integer/atomic ground their
/// argument; negation, cut and var/nonvar contribute nothing.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_PROP_PROPTRANSFORM_H
#define LPA_PROP_PROPTRANSFORM_H

#include "engine/Database.h"
#include "support/Error.h"
#include "term/Symbol.h"
#include "term/TermCopy.h"
#include "term/TermStore.h"

#include <string>
#include <vector>

namespace lpa {

/// Output of transforming one program.
struct PropProgram {
  /// Abstract clause terms (in the store passed to the transformer).
  std::vector<TermRef> Clauses;
  /// Predicates of the *concrete* program, in definition order.
  std::vector<PredKey> Predicates;
};

/// Performs the Figure-1 transformation.
class PropTransformer {
public:
  explicit PropTransformer(SymbolTable &Symbols) : Symbols(Symbols) {}

  /// Transforms all clauses (terms in \p Src) into abstract clauses built
  /// in \p Dst. Directives in the input are skipped.
  ErrorOr<PropProgram> transform(const TermStore &Src,
                                 const std::vector<TermRef> &Clauses,
                                 TermStore &Dst);

  /// Parses \p Source and transforms it.
  ErrorOr<PropProgram> transformText(std::string_view Source, TermStore &Dst);

  /// Name of the abstract counterpart of predicate \p Name ("gp_" prefix,
  /// following Figure 2's gp_ap).
  std::string abstractName(const std::string &Name) const {
    return "gp_" + Name;
  }

  /// Abstract predicate symbol for concrete symbol \p Sym.
  SymbolId abstractSymbol(SymbolId Sym);

private:
  ErrorOr<bool> transformClause(const TermStore &Src, TermRef Clause,
                                TermStore &Dst, PropProgram &Out);
  /// S[t]a: returns the abstract argument for source term \p T, emitting
  /// iff goals into \p Goals. \p VarMap is the per-clause renaming from
  /// source variables to abstract variables (tau).
  TermRef translateArg(const TermStore &Src, TermRef T, TermStore &Dst,
                       VarRenaming &VarMap, std::vector<TermRef> &Goals);
  /// L[c]: translates one body literal.
  ErrorOr<bool> translateGoal(const TermStore &Src, TermRef Goal,
                              TermStore &Dst, VarRenaming &VarMap,
                              std::vector<TermRef> &Goals);
  /// Emits iff(Tv) ("v is ground") for every variable of \p T.
  void emitGroundAll(const TermStore &Src, TermRef T, TermStore &Dst,
                     VarRenaming &VarMap, std::vector<TermRef> &Goals);

  SymbolTable &Symbols;
};

} // namespace lpa

#endif // LPA_PROP_PROPTRANSFORM_H
