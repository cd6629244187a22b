//===- KeepLastRing.h - Bounded buffer that keeps the newest ----*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#ifndef LPA_SUPPORT_KEEPLASTRING_H
#define LPA_SUPPORT_KEEPLASTRING_H

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace lpa {

/// The eviction policy of every telemetry buffer (trace recording, flight
/// recorder, metrics history): capacity 0 means unbounded; once full, each
/// push overwrites the oldest slot and counts the eviction, so
///   evicted() + size() == pushes since the last clear().
template <typename T> class KeepLastRing {
public:
  explicit KeepLastRing(size_t Capacity = 0) : Cap(Capacity) {}

  void push(T V) {
    if (!Cap || Slots.size() < Cap) {
      Slots.push_back(std::move(V));
      return;
    }
    Slots[Head] = std::move(V);
    Head = (Head + 1) % Cap;
    ++Evicted;
  }

  /// Allocates every slot up front, so no later push() reallocates.
  void reserve() { Slots.reserve(Cap); }
  void clear() {
    Slots.clear();
    Head = 0;
    Evicted = 0;
  }

  size_t size() const { return Slots.size(); }
  size_t capacity() const { return Cap; }
  uint64_t evicted() const { return Evicted; }

  /// Element \p I in arrival order (0 = oldest kept). Reads in place, with
  /// no allocation and no mutation, so a signal handler may walk the ring.
  const T &operator[](size_t I) const {
    return Slots[(Head + I) % Slots.size()];
  }

  /// The kept elements in arrival order; rotates the storage in place
  /// once the ring has wrapped.
  const std::vector<T> &linear() const {
    std::rotate(Slots.begin(), Slots.begin() + Head, Slots.end());
    Head = 0;
    return Slots;
  }

  /// Number of kept elements satisfying \p Pred.
  template <typename Fn> size_t countIf(Fn Pred) const {
    return std::count_if(Slots.begin(), Slots.end(), Pred);
  }

private:
  size_t Cap;
  mutable std::vector<T> Slots;
  mutable size_t Head = 0; ///< Oldest slot once the ring has wrapped.
  uint64_t Evicted = 0;
};

} // namespace lpa

#endif // LPA_SUPPORT_KEEPLASTRING_H
