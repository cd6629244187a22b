//===- AbstractDomain.h - Depth-k term abstraction --------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The non-enumerative abstract domain of Section 5: terms of depth k or
/// less over the program's function symbols, a special 0-ary symbol gamma
/// denoting the set of all ground terms, and variables. Abstract
/// unification (with occur check, implemented "at a higher level" than the
/// engine's unification) treats gamma as unifying with any ground term.
///
/// Abstract terms are ordinary TermStore terms using a reserved atom for
/// gamma, so the trail/mark/copy/variant machinery is reused wholesale.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_DEPTHK_ABSTRACTDOMAIN_H
#define LPA_DEPTHK_ABSTRACTDOMAIN_H

#include "term/Symbol.h"
#include "term/TermCopy.h"
#include "term/TermStore.h"

namespace lpa {

/// Name of the gamma atom (set of all ground terms). The '$' prefix keeps
/// it out of the way of source programs.
inline constexpr const char *GammaName = "$gamma";

/// Operations of the depth-k domain over one symbol table.
class AbstractDomain {
public:
  AbstractDomain(SymbolTable &Symbols, unsigned Depth)
      : Symbols(Symbols), Gamma(Symbols.intern(GammaName)), Depth(Depth) {}

  /// The gamma symbol.
  SymbolId gammaSymbol() const { return Gamma; }

  /// True if \p T dereferences to the gamma atom.
  bool isGamma(const TermStore &Store, TermRef T) const {
    T = Store.deref(T);
    return Store.tag(T) == TermTag::Atom && Store.symbol(T) == Gamma;
  }

  /// Abstract unification: standard descent with occur check, plus gamma
  /// absorbing any ground term (binding the other side's variables to
  /// gamma). On failure, bindings must be undone by the caller via a Mark.
  bool unifyAbstract(TermStore &Store, TermRef A, TermRef B) const;

  /// Binds every unbound variable inside \p T to gamma ("this term is
  /// ground now"); used for the abstraction of is/2 and comparisons.
  void groundify(TermStore &Store, TermRef T) const;

  /// True if the abstract term \p T denotes only ground terms (contains no
  /// unbound variables; gamma itself is ground).
  bool isGroundAbstract(const TermStore &Store, TermRef T) const;

  /// Copies \p T from \p Src into \p Dst applying the depth-k cut: at depth
  /// >= k, ground subterms become gamma and non-ground subterms become
  /// fresh variables. Unbound variables are renamed via \p Renaming.
  TermRef depthCut(const TermStore &Src, TermRef T, TermStore &Dst,
                   VarRenaming &Renaming) const;

  /// Least general generalization (anti-unification) of two abstract
  /// terms, built in \p Dst. Mismatched positions become gamma when both
  /// sides are ground there, otherwise fresh variables (consistently per
  /// pair of subterms). Used as the widening operator when an entry's
  /// answer set grows past the configured bound (the paper's Section 6
  /// discussion of widening under tabled evaluation).
  TermRef lgg(const TermStore &Src, TermRef A, TermRef B,
              TermStore &Dst) const;

  /// \returns true if pattern \p Pat subsumes \p Inst: every concrete term
  /// denoted by Inst is denoted by Pat. Pattern variables match anything
  /// (consistently); gamma matches any ground abstract term.
  bool subsumes(const TermStore &Store, TermRef Pat, TermRef Inst) const;

  unsigned depth() const { return Depth; }

private:
  TermRef depthCutRec(const TermStore &Src, TermRef T, TermStore &Dst,
                      VarRenaming &Renaming,
                      unsigned Level) const;

  SymbolTable &Symbols;
  SymbolId Gamma;
  unsigned Depth;
};

} // namespace lpa

#endif // LPA_DEPTHK_ABSTRACTDOMAIN_H
