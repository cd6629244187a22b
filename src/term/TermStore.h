//===- TermStore.h - Cell-based term representation -------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The term heap. Terms are built from tagged cells in a growable arena,
/// WAM-style: variables are Ref cells (self-reference when unbound),
/// compound terms carry a functor symbol plus a block of argument slots.
/// Destructive variable binding goes through bind() and is recorded on a
/// trail so the solver can backtrack with undoTo().
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TERM_TERMSTORE_H
#define LPA_TERM_TERMSTORE_H

#include "term/Symbol.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace lpa {

/// Index of a cell within a TermStore.
using TermRef = uint32_t;

/// Sentinel for "no term".
constexpr TermRef InvalidTerm = ~TermRef(0);

/// Discriminator for term cells.
enum class TermTag : uint8_t {
  Ref,    ///< Variable; unbound when it points to itself.
  Atom,   ///< 0-ary symbol.
  Int,    ///< 64-bit integer constant.
  Struct, ///< Compound term: symbol, arity, argument block.
};

/// A growable arena of term cells with a binding trail.
///
/// Each analysis component owns the stores it needs: the clause database
/// keeps program clauses in one store, the solver evaluates goals in a
/// scratch store, and every tabled subgoal keeps its answers in the table
/// store. Terms move between stores via copyTerm() or, for self-contained
/// cell blocks, appendBlock().
class TermStore {
public:
  /// An undo point capturing both trail and heap extent. After undoTo(M)
  /// every binding made since mark() is removed and every cell allocated
  /// since is freed (nothing below the mark can reference above it once
  /// the trail is unwound).
  struct Mark {
    size_t TrailSize;
    size_t HeapSize;
  };

  /// Allocates a fresh unbound variable.
  TermRef mkVar();

  /// Allocates an atom cell for symbol \p S.
  TermRef mkAtom(SymbolId S);

  /// Allocates an integer cell.
  TermRef mkInt(int64_t Value);

  /// Allocates a compound term f(Args...). \p Args must be non-empty;
  /// use mkAtom for arity 0.
  TermRef mkStruct(SymbolId S, std::span<const TermRef> Args);

  /// Convenience for binary structs (list cells, (A,B) conjunctions, ...).
  TermRef mkStruct2(SymbolId S, TermRef A, TermRef B) {
    TermRef Args[2] = {A, B};
    return mkStruct(S, Args);
  }

  /// Builds the list [Elems... | Tail] using the given nil/cons symbols
  /// (SymbolTable::Nil and SymbolTable::Cons). Pass InvalidTerm as \p Tail
  /// for a proper list ending in [].
  TermRef mkList(const SymbolTable &Symbols, std::span<const TermRef> Elems,
                 TermRef Tail = InvalidTerm);

  /// Follows Ref chains to the representative cell.
  TermRef deref(TermRef T) const {
    while (true) {
      const Cell &C = cell(T);
      if (C.Kind != TermTag::Ref || C.Val == static_cast<int64_t>(T))
        return T;
      T = static_cast<TermRef>(C.Val);
    }
  }

  /// Tag of the (already dereferenced) cell \p T.
  TermTag tag(TermRef T) const { return cell(T).Kind; }

  /// True if \p T dereferences to an unbound variable.
  bool isUnboundVar(TermRef T) const {
    T = deref(T);
    const Cell &C = cell(T);
    return C.Kind == TermTag::Ref && C.Val == static_cast<int64_t>(T);
  }

  /// Symbol of an Atom or Struct cell.
  SymbolId symbol(TermRef T) const {
    assert(tag(T) == TermTag::Atom || tag(T) == TermTag::Struct);
    return cell(T).Sym;
  }

  /// Arity of a Struct cell (0 for atoms).
  uint32_t arity(TermRef T) const {
    return tag(T) == TermTag::Struct ? cell(T).Arity : 0;
  }

  /// \returns the \p I-th argument slot of Struct \p T (not dereferenced).
  TermRef arg(TermRef T, uint32_t I) const {
    assert(tag(T) == TermTag::Struct && I < cell(T).Arity &&
           "argument index out of range");
    return static_cast<TermRef>(cell(T).Val) + I;
  }

  /// Value of an Int cell.
  int64_t intValue(TermRef T) const {
    assert(tag(T) == TermTag::Int && "not an integer cell");
    return cell(T).Val;
  }

  /// Binds unbound variable \p Var to \p Target, recording it on the trail.
  void bind(TermRef Var, TermRef Target) {
    assert(isUnboundVar(Var) && "binding a non-variable");
    Cells[Var].Val = static_cast<int64_t>(Target);
    Trail.push_back(Var);
  }

  /// Appends a copy of the cells [\p Lo, \p Hi) of \p Src and returns the
  /// index of the copy of \p Lo: a cell R of the range lands at
  /// R - Lo + the returned index. Ref and Struct targets are relocated the
  /// same way, so the range must be self-contained (no reference leaves
  /// it) -- a stored clause, or any term copyTerm() built with a fresh
  /// renaming. This is clause instantiation without a renaming map.
  /// \p Src must be another store (checked even in release builds):
  /// inserting a vector's own range into itself is undefined behaviour.
  TermRef appendBlock(const TermStore &Src, TermRef Lo, TermRef Hi);

  /// Captures the current trail/heap extent.
  Mark mark() const { return {Trail.size(), Cells.size()}; }

  /// Undoes all bindings and allocations made since \p M.
  void undoTo(Mark M);

  /// Number of live cells.
  size_t size() const { return Cells.size(); }

  /// Approximate bytes held by the heap and trail (for the paper's
  /// "table space" accounting when a store backs a table).
  size_t memoryBytes() const {
    return Cells.capacity() * sizeof(Cell) + Trail.capacity() * sizeof(TermRef);
  }

  /// Bytes occupied by the cells reachable from \p T (following Ref chains
  /// and argument slots). Used to apportion a shared table store's space to
  /// individual subgoals/answers; the per-term figures sum to at most
  /// memoryBytes() of the cells actually allocated (shared subterms are
  /// counted once per term that reaches them).
  size_t termBytes(TermRef T) const;

  /// Drops all cells and trail entries.
  void clear() {
    Cells.clear();
    Trail.clear();
  }

private:
  struct Cell {
    TermTag Kind;
    SymbolId Sym;   // Atom/Struct: symbol id.
    uint32_t Arity; // Struct: argument count.
    int64_t Val;    // Ref: target index; Int: value; Struct: first arg index.
  };

  const Cell &cell(TermRef T) const {
    assert(T < Cells.size() && "term ref out of range");
    return Cells[T];
  }

  std::vector<Cell> Cells;
  std::vector<TermRef> Trail;
};

} // namespace lpa

#endif // LPA_TERM_TERMSTORE_H
