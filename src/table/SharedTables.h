//===- SharedTables.h - Cross-worker shared subgoal tables ------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The table space intra-query evaluation workers share. The unit of
/// sharing is a whole subgoal table: a worker that first encounters a
/// tabled call variant *claims* it, evaluates the subgoal's cone with its
/// private engine, and *publishes* the completed table (call copy + answer
/// tuples in its own TermStore); every other worker — and finally the lead
/// solver, which imports the whole space — consumes the published copy
/// without ever re-deriving it.
///
/// Layout: a power-of-two array of shards, striped by a hash of the
/// predicate and first-argument shape so variants of hot predicates spread
/// out. Each shard holds a one-level VariantCodeStore (variant call ->
/// position), a deque of entries at the same positions (stable
/// addresses), and a mutex that guards both. Every claim() takes the shard
/// lock for one probe; entry states and published tables are then read
/// without it:
///
///  - Warm read: lock, probe the code set, then acquire load of the entry
///    state. A completed table is published with a release store, so a
///    reader that observes State == Published also observes every byte of
///    the table copy. The lock is held for one encode and one hash probe,
///    and striping keeps any one shard's waiters few.
///  - In-flight miss: the claiming worker is still evaluating. The caller
///    does NOT wait (blocking on another worker's completion could
///    deadlock on cross-worker SCCs); it duplicates the evaluation
///    privately and simply doesn't publish. Claim arbitration guarantees
///    exactly one publisher per variant, so duplicated work costs time,
///    never correctness.
///
/// Poisoning crosses worker boundaries as data: a table truncated by the
/// depth limit or a deadline publishes with Incomplete set, and importers
/// propagate the taint exactly as a local incomplete table would.
///
/// Incremental invalidation retires published tables in place: the sweep
/// takes each shard lock, flips matching entries Published -> Retired, and
/// bumps the space epoch with a release store. published() reads without
/// the lock, so a worker holding an entry from an earlier claim may still
/// observe the pre-retirement state and dereference the old table —
/// therefore table memory is never freed on retirement. Ownership of every
/// published table lives in a space-level list that is reclaimed only at
/// destruction; Entry holds a plain atomic pointer. A retired entry is
/// re-claimable: the next claim() that sees Retired, under the shard lock,
/// becomes the new owner, re-deriving under the new program. Retirement
/// only touches Published entries — the service layer guarantees
/// quiescence (no in-flight claims) when it invalidates, so an in-flight
/// entry at retirement time cannot exist in product use.
///
/// Per-shard counters (lock acquisitions, contended acquisitions, lock
/// wait nanoseconds, claims, published tables, warm hits, in-flight
/// misses) feed the MetricsRegistry gauges the bench scaling curves read.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_TABLE_SHAREDTABLES_H
#define LPA_TABLE_SHAREDTABLES_H

#include "table/VariantCode.h"
#include "term/TermStore.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace lpa {

class SharedTableSpace {
public:
  /// One completed subgoal table, self-contained: the call and every
  /// answer are copies into the table's own TermStore, so the publisher's
  /// private (growing, reallocating) heap is never shared.
  struct PublishedTable {
    TermStore Terms;
    TermRef Call = InvalidTerm;
    SymbolId Sym = 0;
    uint32_t Arity = 0;
    uint32_t NumCallVars = 0;
    /// Answer count, carried explicitly: a factored table of a ground call
    /// (NumCallVars == 0) stores one empty tuple per answer, so the count
    /// cannot be recovered from Answers.size().
    uint32_t NumAnswers = 0;
    bool Factored = false;
    bool Incomplete = false; ///< Depth/deadline taint; importers propagate.
    /// Factored: NumCallVars-wide tuples, answer-major. Otherwise whole
    /// answer instances.
    std::vector<TermRef> Answers;
  };

  class Entry {
    friend class SharedTableSpace;
    /// 0 = in flight, 1 = published, 2 = retired by invalidation.
    std::atomic<uint32_t> State{0};
    /// Owner and predicate identity, stamped under the shard lock at
    /// claim; invalidatePred() scans for the predicate under the same lock.
    uint32_t Owner = 0;
    SymbolId Sym = 0;
    uint32_t Arity = 0;
    /// Non-owning: the space's OwnedTables list keeps every table alive
    /// until destruction (workers may hold stale pointers).
    std::atomic<PublishedTable *> Table{nullptr};
  };

  enum class Hit : uint8_t {
    Claimed,  ///< Caller owns the variant: evaluate, then publish.
    InFlight, ///< Another worker owns it: duplicate-evaluate privately.
    Published ///< Completed table available via published().
  };

  struct Outcome {
    Entry *E = nullptr; ///< Stable for the space's lifetime.
    Hit H = Hit::Claimed;
  };

  /// \p ShardCount is rounded up to a power of two; 0 picks the default.
  explicit SharedTableSpace(size_t ShardCount = 0);

  SharedTableSpace(const SharedTableSpace &) = delete;
  SharedTableSpace &operator=(const SharedTableSpace &) = delete;

  /// Looks up the call variant \p Call (pred \p Sym / \p Arity) under
  /// its shard's lock and claims it for \p Worker if it is new or
  /// retired.
  Outcome claim(const TermStore &Store, TermRef Call, SymbolId Sym,
                uint32_t Arity, uint32_t Worker);

  /// Publishes \p T as the completed table of the entry claimed earlier.
  /// Release store: after this, any claim() returning Published for the
  /// variant observes the full table.
  void publish(Entry &E, std::unique_ptr<PublishedTable> T);

  /// The published table of \p E, or null while still in flight.
  const PublishedTable *published(const Entry &E) const;

  /// Every published table, shard by shard in claim order. Only complete
  /// once all workers have drained (the lead's import pass, after
  /// ThreadPool::wait()). Retired tables are skipped.
  std::vector<const PublishedTable *> publishedTables() const;

  /// Retires every published table of \p Sym / \p Arity: takes each shard
  /// lock in turn, flips matching Published entries to Retired, and (if
  /// anything changed) bumps the epoch with a release store, so a reader
  /// that observes the new epoch also observes every retirement. Table
  /// memory is NOT freed (see the file comment). \returns tables retired.
  size_t invalidatePred(SymbolId Sym, uint32_t Arity);

  /// Invalidation epoch; bumped once per invalidatePred() that retires
  /// anything. Acquire load — pairs with the sweep's release bump.
  uint64_t epoch() const {
    return InvalidationEpoch.load(std::memory_order_acquire);
  }

  struct Stats {
    uint64_t Lookups = 0;        ///< claim() calls.
    uint64_t WarmHits = 0;       ///< Published-table hits.
    uint64_t InFlightMisses = 0; ///< Variant owned elsewhere (no wait).
    uint64_t Claims = 0;         ///< New variants claimed (incl. re-claims).
    uint64_t Publishes = 0;      ///< Tables published.
    uint64_t Retired = 0;        ///< Tables retired by invalidation.
    uint64_t LockAcquisitions = 0;
    uint64_t LockContended = 0; ///< try_lock failed first.
    uint64_t LockWaitNs = 0;    ///< Time blocked on contended shard locks.
    size_t Shards = 0;
  };
  /// Aggregated across shards (relaxed reads; exact when quiescent).
  Stats stats() const;

  /// One shard's counters — the per-stripe view behind stats(). The skew
  /// across shards (one hot stripe vs. an even spread) is what the
  /// ROADMAP's contention-guided shard tuning reads; the aggregate alone
  /// cannot distinguish the two.
  struct ShardStats {
    uint64_t Lookups = 0;
    uint64_t WarmHits = 0;
    uint64_t InFlightMisses = 0;
    uint64_t Claims = 0;
    uint64_t Retired = 0;
    uint64_t LockAcquisitions = 0;
    uint64_t LockContended = 0;
    uint64_t LockWaitNs = 0;
    uint32_t Entries = 0; ///< Variants registered in the shard.
  };
  /// Per-shard counters in shard order (relaxed reads; exact when
  /// quiescent).
  std::vector<ShardStats> perShardStats() const;

  size_t shardCount() const { return Shards.size(); }

private:
  struct Shard {
    /// Call variants; the code at position I is Entries[I]'s. Both are
    /// guarded by Mu.
    VariantCodeStore Index{1};
    std::deque<Entry> Entries;
    mutable std::mutex Mu;
    std::atomic<uint64_t> Lookups{0};
    std::atomic<uint64_t> WarmHits{0};
    std::atomic<uint64_t> InFlightMisses{0};
    std::atomic<uint64_t> Claims{0};
    std::atomic<uint64_t> Retired{0};
    std::atomic<uint64_t> LockAcquisitions{0};
    std::atomic<uint64_t> LockContended{0};
    std::atomic<uint64_t> LockWaitNs{0};
  };

  Shard &shardFor(const TermStore &Store, TermRef Call, SymbolId Sym,
                  uint32_t Arity);

  /// Takes the shard lock, counting contention.
  static std::unique_lock<std::mutex> lockShard(Shard &S);

  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> TotalPublishes{0};
  std::atomic<uint64_t> InvalidationEpoch{0};
  /// Deferred reclamation: every table ever published, freed only at
  /// destruction. A worker may hold a retired table's pointer arbitrarily
  /// long, so retirement can never free.
  std::mutex TablesMu;
  std::vector<std::unique_ptr<PublishedTable>> OwnedTables;
};

} // namespace lpa

#endif // LPA_TABLE_SHAREDTABLES_H
