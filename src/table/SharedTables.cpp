//===- SharedTables.cpp - Cross-worker shared subgoal tables ---------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "table/SharedTables.h"

#include <chrono>

using namespace lpa;

namespace {

constexpr size_t DefaultShards = 16;

inline uint64_t mix(uint64_t X) {
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

inline size_t roundUpPow2(size_t N) {
  size_t P = 1;
  while (P < N)
    P <<= 1;
  return P;
}

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

SharedTableSpace::SharedTableSpace(size_t ShardCount) {
  size_t N = roundUpPow2(ShardCount ? ShardCount : DefaultShards);
  Shards.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

SharedTableSpace::Shard &SharedTableSpace::shardFor(const TermStore &Store,
                                                    TermRef Call,
                                                    SymbolId Sym,
                                                    uint32_t Arity) {
  // Stripe by predicate plus the first argument's top token so call
  // variants of one hot predicate spread across shards (first-argument
  // indexing's hash, reused as a stripe key).
  uint64_t H = (uint64_t(Sym) << 32) | Arity;
  TermRef T = Store.deref(Call);
  if (Store.tag(T) == TermTag::Struct && Store.arity(T) > 0) {
    TermRef A0 = Store.deref(Store.arg(T, 0));
    switch (Store.tag(A0)) {
    case TermTag::Atom:
      H ^= mix(0x1000000000000000ULL | Store.symbol(A0));
      break;
    case TermTag::Int:
      H ^= mix(0x2000000000000000ULL ^
               static_cast<uint64_t>(Store.intValue(A0)));
      break;
    case TermTag::Struct:
      H ^= mix(0x3000000000000000ULL | (uint64_t(Store.symbol(A0)) << 8) |
               Store.arity(A0));
      break;
    case TermTag::Ref:
      H ^= 0x4000000000000000ULL;
      break;
    }
  }
  return *Shards[mix(H) & (Shards.size() - 1)];
}

std::unique_lock<std::mutex> SharedTableSpace::lockShard(Shard &S) {
  // try_lock first so contention is counted and timed only when it
  // actually happens.
  std::unique_lock<std::mutex> L(S.Mu, std::try_to_lock);
  if (!L.owns_lock()) {
    uint64_t T0 = nowNs();
    L.lock();
    S.LockContended.fetch_add(1, std::memory_order_relaxed);
    S.LockWaitNs.fetch_add(nowNs() - T0, std::memory_order_relaxed);
  }
  S.LockAcquisitions.fetch_add(1, std::memory_order_relaxed);
  return L;
}

SharedTableSpace::Outcome SharedTableSpace::claim(const TermStore &Store,
                                                  TermRef Call, SymbolId Sym,
                                                  uint32_t Arity,
                                                  uint32_t Worker) {
  Shard &S = shardFor(Store, Call, Sym, Arity);
  S.Lookups.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> L = lockShard(S);
  VariantCodeStore::InsertResult R = S.Index.insert(0, Store, {&Call, 1});
  Entry &E = R.Inserted ? S.Entries.emplace_back() : S.Entries[R.Index];
  uint32_t St = E.State.load(std::memory_order_acquire);
  // New, or retired by invalidation: the caller owns it and derives it
  // under the current program. A retired table stays alive in OwnedTables
  // -- a worker may still be reading it.
  if (R.Inserted || St == 2) {
    E.Owner = Worker;
    E.Sym = Sym;
    E.Arity = Arity;
    E.State.store(0, std::memory_order_release);
    S.Claims.fetch_add(1, std::memory_order_relaxed);
    return {&E, Hit::Claimed};
  }
  if (St == 1) {
    S.WarmHits.fetch_add(1, std::memory_order_relaxed);
    return {&E, Hit::Published};
  }
  S.InFlightMisses.fetch_add(1, std::memory_order_relaxed);
  return {&E, Hit::InFlight};
}

void SharedTableSpace::publish(Entry &E, std::unique_ptr<PublishedTable> T) {
  PublishedTable *Raw = T.get();
  {
    // Ownership parks in the deferred-reclamation list; publishes are
    // once-per-table, so this lock is cold.
    std::lock_guard<std::mutex> L(TablesMu);
    OwnedTables.push_back(std::move(T));
  }
  E.Table.store(Raw, std::memory_order_relaxed);
  E.State.store(1, std::memory_order_release);
  TotalPublishes.fetch_add(1, std::memory_order_relaxed);
}

const SharedTableSpace::PublishedTable *
SharedTableSpace::published(const Entry &E) const {
  // The release store in publish() orders the Table store before State;
  // an acquire load observing Published therefore observes the pointer.
  // A stale Published observation (entry since retired) still yields a
  // valid pointer: retirement never frees.
  return E.State.load(std::memory_order_acquire) == 1
             ? E.Table.load(std::memory_order_relaxed)
             : nullptr;
}

size_t SharedTableSpace::invalidatePred(SymbolId Sym, uint32_t Arity) {
  size_t Retired = 0;
  for (auto &S : Shards) {
    std::unique_lock<std::mutex> L = lockShard(*S);
    size_t ShardRetired = 0;
    for (Entry &E : S->Entries) {
      // Sym/Arity are stamped under this same shard lock at claim time.
      if (E.Sym == Sym && E.Arity == Arity &&
          E.State.load(std::memory_order_relaxed) == 1) {
        E.State.store(2, std::memory_order_release);
        ++ShardRetired;
      }
    }
    if (ShardRetired) {
      S->Retired.fetch_add(ShardRetired, std::memory_order_relaxed);
      Retired += ShardRetired;
    }
  }
  if (Retired)
    InvalidationEpoch.fetch_add(1, std::memory_order_release);
  return Retired;
}

std::vector<const SharedTableSpace::PublishedTable *>
SharedTableSpace::publishedTables() const {
  std::vector<const PublishedTable *> Out;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> L(S->Mu);
    for (const Entry &E : S->Entries)
      if (const PublishedTable *T = published(E))
        Out.push_back(T);
  }
  return Out;
}

SharedTableSpace::Stats SharedTableSpace::stats() const {
  Stats Out;
  Out.Shards = Shards.size();
  Out.Publishes = TotalPublishes.load(std::memory_order_relaxed);
  for (const auto &S : Shards) {
    Out.Lookups += S->Lookups.load(std::memory_order_relaxed);
    Out.WarmHits += S->WarmHits.load(std::memory_order_relaxed);
    Out.InFlightMisses += S->InFlightMisses.load(std::memory_order_relaxed);
    Out.Claims += S->Claims.load(std::memory_order_relaxed);
    Out.Retired += S->Retired.load(std::memory_order_relaxed);
    Out.LockAcquisitions += S->LockAcquisitions.load(std::memory_order_relaxed);
    Out.LockContended += S->LockContended.load(std::memory_order_relaxed);
    Out.LockWaitNs += S->LockWaitNs.load(std::memory_order_relaxed);
  }
  return Out;
}

std::vector<SharedTableSpace::ShardStats>
SharedTableSpace::perShardStats() const {
  std::vector<ShardStats> Out;
  Out.reserve(Shards.size());
  for (const auto &S : Shards) {
    ShardStats SS;
    SS.Lookups = S->Lookups.load(std::memory_order_relaxed);
    SS.WarmHits = S->WarmHits.load(std::memory_order_relaxed);
    SS.InFlightMisses = S->InFlightMisses.load(std::memory_order_relaxed);
    SS.Claims = S->Claims.load(std::memory_order_relaxed);
    SS.Retired = S->Retired.load(std::memory_order_relaxed);
    SS.LockAcquisitions = S->LockAcquisitions.load(std::memory_order_relaxed);
    SS.LockContended = S->LockContended.load(std::memory_order_relaxed);
    SS.LockWaitNs = S->LockWaitNs.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> L(S->Mu);
      SS.Entries = static_cast<uint32_t>(S->Entries.size());
    }
    Out.push_back(SS);
  }
  return Out;
}
