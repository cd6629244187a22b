//===- VariantCode.h - Flat variant codes and leveled code sets -*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one table data format. A variant code is a tuple of terms (its
/// *roots*) flattened to one word string: each root's preorder token
/// sequence, the one canonicalKey encodes, one after the other, with
/// variables numbered by first occurrence across all the roots. Two tuples
/// have equal codes iff they are equally long and wrapping each in one
/// struct gives variants, so sharing between roots counts: (X, f(X)) and
/// (X, f(Y)) differ. One 64-bit word per token; an integer takes a second
/// word for its value:
///
///   Var(n)            n << 2 | 0
///   Atom(sym)       sym << 2 | 1
///   Int(v)                   2, then v
///   Struct(sym, n)    n << 34 | sym << 2 | 3     (arity below 2^30)
///
/// The code is complete: decodeVariantCode() rebuilds a variant of the
/// tuple in any store with fresh variables. Bindings are resolved while
/// encoding and subterm sharing is not recorded, so the decoded roots are
/// the resolved terms as trees.
///
/// VariantCodeStore keeps such codes deduplicated in numbered levels, and
/// every variant set of the engine and of the depth-k interpreter is one
/// (DESIGN.md §9): the subgoal index, each factored table's answer dedup,
/// the shared table space's shard indexes, the depth-k call patterns (a
/// call's position is its entry's ordinal) and each depth-k entry's answer
/// patterns, the states of a supplementary frontier or of a depth-k clause
/// body, and the calls and solutions of static goals (§19).
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TABLE_VARIANTCODE_H
#define LPA_TABLE_VARIANTCODE_H

#include "term/TermStore.h"

#include <cstdint>
#include <span>
#include <vector>

namespace lpa {

/// Appends the variant code of the tuple \p Roots to \p Out and \returns
/// a hash of the appended words, computed in the same pass. Iterative, so
/// deep terms (long lists) need no native stack; variables are numbered
/// through a per-thread StampedCellMap, O(1) per occurrence.
/// Allocation-free once the per-thread scratch is warm. \p VarsOut, when
/// non-null, receives (replacing what it held) the tuple's distinct unbound
/// variables in numbering order, the order collectFreeVars() lists them.
uint32_t appendVariantCode(const TermStore &Store,
                           std::span<const TermRef> Roots,
                           std::vector<uint64_t> &Out,
                           std::vector<TermRef> *VarsOut = nullptr);

/// Builds the tuple spelled by \p Code (one complete code) in \p Dst with
/// fresh variables and stores its roots, in order, in \p Roots (replacing
/// what it held). Iterative, like the encoder.
void decodeVariantCode(std::span<const uint64_t> Code, TermStore &Dst,
                       std::vector<TermRef> &Roots);

/// Sets of variant codes in numbered levels that share one word arena. A
/// level keeps one span per code, in insertion order, plus an
/// open-addressing hash index over them once it outgrows a linear scan.
/// Codes are never removed; the whole store is dropped at once. Not
/// synchronized: a store shared between threads is guarded by its owner.
class VariantCodeStore {
public:
  struct InsertResult {
    uint32_t Index; ///< Position of the code in its level.
    bool Inserted;  ///< False if a variant was already in the level.
  };

  /// find()'s answer when the level holds no variant of the tuple.
  static constexpr uint32_t NotFound = ~uint32_t(0);

  explicit VariantCodeStore(size_t NumLevels) : Levels(NumLevels) {}

  /// Fused check/insert of the tuple \p Roots into \p Level: encodes it
  /// into the arena's tail, probes the level, and truncates the tail again
  /// on a hit. \p VarsOut is appendVariantCode()'s, filled on a hit too.
  InsertResult insert(size_t Level, const TermStore &Store,
                      std::span<const TermRef> Roots,
                      std::vector<TermRef> *VarsOut = nullptr);

  /// The position of the variant of \p Roots in \p Level, or NotFound.
  /// Encodes into per-thread scratch and leaves the store as it was.
  uint32_t find(size_t Level, const TermStore &Store,
                std::span<const TermRef> Roots) const;

  /// Appends an empty level, numbered after the existing ones.
  void addLevel() { Levels.emplace_back(); }

  /// Number of codes in \p Level.
  size_t size(size_t Level) const { return Levels[Level].Spans.size(); }

  /// The code at \p Index of \p Level.
  std::span<const uint64_t> code(size_t Level, size_t Index) const {
    const Span &S = Levels[Level].Spans[Index];
    return {Arena.data() + S.Off, S.Len};
  }

  /// decodeVariantCode() of the code at \p Index of \p Level.
  void decode(size_t Level, size_t Index, TermStore &Dst,
              std::vector<TermRef> &Roots) const {
    decodeVariantCode(code(Level, Index), Dst, Roots);
  }

  /// Bytes held by the arena, spans and indexes.
  size_t memoryBytes() const;

private:
  /// Levels up to this many codes are probed by a linear scan of spans.
  static constexpr size_t SmallLimit = 8;

  struct Span {
    size_t Off;
    uint32_t Len;
    uint32_t Hash; ///< Hash of the code; compared first.
  };
  struct Level {
    std::vector<Span> Spans;
    /// Power-of-two table of Spans positions plus one (0 = empty); empty
    /// while Spans.size() <= SmallLimit.
    std::vector<uint32_t> Index;
    unsigned Shift = 64;
  };

  static size_t slot(const Level &L, uint32_t Hash) {
    return (uint64_t(Hash) * 0x9E3779B97F4A7C15ull) >> L.Shift;
  }
  /// The position in \p L of \p Code, whose hash is \p Hash, or NotFound.
  uint32_t probe(const Level &L, std::span<const uint64_t> Code,
                 uint32_t Hash) const;
  /// Enters Spans[I] of \p L into its index.
  static void place(Level &L, uint32_t I);

  std::vector<uint64_t> Arena;
  std::vector<Level> Levels;
};

} // namespace lpa

#endif // LPA_TABLE_VARIANTCODE_H
