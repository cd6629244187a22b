//===- TermCopy.h - Copying terms across stores -----------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Copies terms between stores (or within one), resolving bindings as it
/// goes and renaming unbound variables apart. This is the engine's answer
/// freezing (solver heap -> table store) and answer return (table store ->
/// solver heap); clause instantiation is a TermStore::appendBlock of the
/// clause's cell block instead.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TERM_TERMCOPY_H
#define LPA_TERM_TERMCOPY_H

#include "term/TermStore.h"

#include <utility>
#include <vector>

namespace lpa {

/// Maps source-store variables to their fresh copies in the destination.
/// Reusing one map across several copyTerm calls preserves variable sharing
/// between the copied terms (e.g. the slots of one answer tuple).
///
/// A flat vector scanned linearly while small -- the common case, a clause
/// or an answer has a handful of variables -- with an open-addressing index
/// over it past SmallLimit entries (long lists, big answers). clear() keeps
/// both buffers, so a reused renaming allocates nothing in steady state.
class VarRenaming {
public:
  /// \returns the copy of \p Var, or InvalidTerm if it is not mapped.
  TermRef find(TermRef Var) const {
    if (Index.empty()) {
      for (const auto &[K, V] : Entries)
        if (K == Var)
          return V;
      return InvalidTerm;
    }
    for (size_t S = slot(Var);; S = (S + 1) & (Index.size() - 1)) {
      uint32_t E = Index[S];
      if (E == 0)
        return InvalidTerm;
      if (Entries[E - 1].first == Var)
        return Entries[E - 1].second;
    }
  }

  /// Maps \p Var, which must not be mapped yet, to \p Copy.
  void insert(TermRef Var, TermRef Copy);

  /// \returns the copy of \p Var, mapping it to MakeCopy() on first sight.
  template <typename Fn> TermRef findOrInsert(TermRef Var, Fn MakeCopy) {
    TermRef Hit = find(Var);
    if (Hit != InvalidTerm)
      return Hit;
    TermRef Copy = MakeCopy();
    insert(Var, Copy);
    return Copy;
  }

  size_t size() const { return Entries.size(); }

  void clear() {
    Entries.clear();
    Index.clear();
  }

private:
  static constexpr size_t SmallLimit = 16;

  size_t slot(TermRef Var) const {
    return (uint64_t(Var) * 0x9E3779B97F4A7C15ull) >> IndexShift;
  }
  /// Enters Entries[E] into Index.
  void place(size_t E);

  std::vector<std::pair<TermRef, TermRef>> Entries;
  /// Power-of-two open-addressing table of Entries positions plus one
  /// (0 = empty slot); empty while Entries.size() <= SmallLimit.
  std::vector<uint32_t> Index;
  unsigned IndexShift = 64;
};

/// Copies \p T from \p Src into \p Dst.
///
/// Bound variables are chased, so the copy is the *resolved* term. Unbound
/// variables become fresh Dst variables, consistently via \p Renaming.
/// Compound subterms shared in \p Src stay shared in the copy. \p Src and
/// \p Dst may alias (used by the solver to snapshot answers).
///
/// The copy is built post-order into one contiguous tail of \p Dst: every
/// compound cell follows its arguments' cells and precedes its own argument
/// slots. With a fresh renaming the block is self-contained, so
/// TermStore::appendBlock can relocate it (clause templates). The walk is
/// iterative and uses per-thread scratch, so it allocates nothing once the
/// scratch has grown.
TermRef copyTerm(const TermStore &Src, TermRef T, TermStore &Dst,
                 VarRenaming &Renaming);

/// Convenience overload with a fresh renaming.
TermRef copyTerm(const TermStore &Src, TermRef T, TermStore &Dst);

/// \returns the number of cells (nodes) of the resolved term \p T, counting
/// shared subterms once per occurrence. Used for table-space accounting.
size_t termSizeCells(const TermStore &Store, TermRef T);

} // namespace lpa

#endif // LPA_TERM_TERMCOPY_H
