//===- StampedCellMap.h - Per-cell values cleared in O(1) -------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A map from the cells of one TermStore to 32-bit values, for walks that
/// number or rename the variables of a term: a side array indexed by cell,
/// each slot stamped with the generation that wrote it. reset() starts a
/// new generation instead of clearing, so lookup and insert are one array
/// access each, with no hash probe, and a walk costs O(1) per variable
/// occurrence however many variables its term has.
///
/// The array grows to the largest store a walk was reset for and is kept
/// (8 bytes per cell), so one instance per thread serves every walk.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TERM_STAMPEDCELLMAP_H
#define LPA_TERM_STAMPEDCELLMAP_H

#include "term/TermStore.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace lpa {

class StampedCellMap {
public:
  /// Returned by find() for a cell not set since the last reset().
  static constexpr uint32_t Missing = ~uint32_t(0);

  /// Empties the map and makes room for the cells of a store of
  /// \p NumCells cells.
  void reset(size_t NumCells) {
    if (Slots.size() < NumCells)
      Slots.resize(NumCells);
    if (++Gen == 0) { // Wrapped: stamps of old generations could match.
      std::fill(Slots.begin(), Slots.end(), 0);
      Gen = 1;
    }
  }

  /// \returns the value of \p Cell, or Missing.
  uint32_t find(TermRef Cell) const {
    assert(Cell < Slots.size() && "cell outside the reset() range");
    uint64_t E = Slots[Cell];
    return (E >> 32) == Gen ? static_cast<uint32_t>(E) : Missing;
  }

  /// Maps \p Cell to \p Value until the next reset().
  void set(TermRef Cell, uint32_t Value) {
    assert(Cell < Slots.size() && "cell outside the reset() range");
    Slots[Cell] = uint64_t(Gen) << 32 | Value;
  }

private:
  /// Generation << 32 | value. Slot 0 is generation 0, never current.
  std::vector<uint64_t> Slots;
  uint32_t Gen = 0;
};

} // namespace lpa

#endif // LPA_TERM_STAMPEDCELLMAP_H
