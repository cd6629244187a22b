//===- Variant.h - Variant checks and canonical keys ------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Variant checking is the heart of XSB-style tabling: a tabled subgoal hits
/// the table when a *variant* of it (identical up to variable renaming) was
/// called before, and only non-variant answers are entered. The tables
/// themselves test variance by variant code (table/VariantCode.h); this
/// file holds a direct two-term check and a canonical byte-string encoding
/// whose equality coincides with variance. No table keys by that string:
/// it is the reference the variant and table tests compare codes against,
/// and the yardstick of the BM_CanonicalKey micro-benchmark.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TERM_VARIANT_H
#define LPA_TERM_VARIANT_H

#include "term/TermStore.h"

#include <string>

namespace lpa {

/// \returns true iff \p A and \p B are identical up to consistent renaming
/// of unbound variables.
bool isVariant(const TermStore &Store, TermRef A, TermRef B);

/// Encodes \p T as a byte string such that two terms have equal encodings
/// iff they are variants. Variables are numbered in order of first
/// occurrence (left-to-right, depth-first).
std::string canonicalKey(const TermStore &Store, TermRef T);

/// Collects the distinct unbound variables of \p T into \p Vars in
/// first-occurrence order (left-to-right, depth-first) -- the same order
/// canonicalKey numbers them and the same order copyTerm renames them.
/// Appends to \p Vars without clearing it.
void collectFreeVars(const TermStore &Store, TermRef T,
                     std::vector<TermRef> &Vars);

} // namespace lpa

#endif // LPA_TERM_VARIANT_H
