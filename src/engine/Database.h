//===- Database.h - Dynamic clause database ---------------------*- C++ -*-===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic clause database. The paper's analyzers load transformed
/// programs as *dynamic code* (XSB's assert) rather than compiling them,
/// because preprocessing time dominates total analysis time; our database
/// is exactly that: clause terms held in a store, each one a relocatable
/// cell block that resolution instantiates by copying it whole.
/// Predicates may be marked tabled, either programmatically or with a
/// ":- table p/N." directive in the source.
///
//===----------------------------------------------------------------------===//

#ifndef LPA_ENGINE_DATABASE_H
#define LPA_ENGINE_DATABASE_H

#include "support/Error.h"
#include "term/Symbol.h"
#include "term/TermStore.h"

#include <atomic>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace lpa {

/// Identifies a predicate by functor symbol and arity.
struct PredKey {
  SymbolId Sym;
  uint32_t Arity;

  bool operator==(const PredKey &O) const {
    return Sym == O.Sym && Arity == O.Arity;
  }
};

struct PredKeyHash {
  size_t operator()(const PredKey &K) const {
    return std::hash<uint64_t>()((uint64_t(K.Sym) << 32) | K.Arity);
  }
};

/// One stored clause. Head and Body live in the database's own store.
/// FirstArgKey enables cheap clause filtering on the first argument's
/// principal functor (0 when the first argument is a variable or the
/// predicate is atomic).
///
/// Each clause is also a *template*: its head and goals are the cells
/// [Lo, Hi) of the store, with no reference leaving the range, so
/// instantiating it is one TermStore::appendBlock and a stored ref R maps
/// to R - Lo + the block's new base (head, goals and variables alike). Its
/// body variables are numbered densely at assert time, with their liveness.
struct Clause {
  /// A body variable: its cell and the last goal it occurs in. It is
  /// *live* at goal J (still needed by some goal >= J) iff LastGoal >= J.
  struct BodyVar {
    TermRef Cell;
    uint32_t LastGoal;
  };

  TermRef Head;
  std::vector<TermRef> Body; ///< Flattened conjunction of goals.
  uint64_t FirstArgKey;      ///< 0 = matches anything.
  TermRef Lo = 0, Hi = 0;    ///< The template's cell block.
  /// The distinct body variables in first-occurrence order over the body.
  /// A supplementary-frontier or depth-k clause-body state at level J
  /// stores the bindings of the ones live at J, in this order.
  std::vector<BodyVar> BodyVars;

  /// Sets \p Out to the positions, among the roots of a level-J state
  /// (Call first, then the variables live at J), of the variables still
  /// live after goal J: the roots its successor state keeps.
  void keptAfter(size_t J, std::vector<uint32_t> &Out) const {
    Out.clear();
    uint32_t Slot = 0;
    for (const BodyVar &B : BodyVars) {
      if (B.LastGoal < J)
        continue; // Not in a level-J state.
      ++Slot;
      if (B.LastGoal > J)
        Out.push_back(Slot);
    }
  }
};

/// All clauses of one predicate.
struct Predicate {
  PredKey Key;
  std::vector<Clause> Clauses;
  bool Tabled = false;
};

/// A set of predicates with their clauses, plus tabling declarations.
class Database {
public:
  explicit Database(SymbolTable &Symbols) : Symbols(Symbols) {}

  /// Loads one clause term (fact, Head :- Body rule, or directive) that
  /// lives in \p Src. Directives handled: ":- table p/N." (single spec or
  /// list). Unknown directives are ignored, matching a lenient toplevel.
  ErrorOr<bool> loadClause(const TermStore &Src, TermRef ClauseTerm);

  /// Loads every clause of \p Clauses (in order).
  ErrorOr<bool> loadProgram(const TermStore &Src,
                            const std::vector<TermRef> &Clauses);

  /// Parses and loads Prolog source text. All-or-nothing: the whole text is
  /// parsed and validated before the first clause is stored, so a syntax or
  /// shape error mid-program leaves the database exactly as it was (a warm
  /// session must never end up with a half-loaded clause prefix).
  ErrorOr<bool> consult(std::string_view Text);

  /// Parses \p Text as exactly one clause (fact or rule; directives are
  /// rejected) and removes the first stored clause that is a variant of it
  /// (identical up to variable renaming, with head/body variable sharing
  /// respected). \returns the number of clauses removed (0 or 1).
  ErrorOr<size_t> retract(std::string_view Text);

  /// Removes every clause of \p Key. \returns the number removed. The
  /// predicate stays defined (with zero clauses), so calls to it fail
  /// rather than count as undefined-predicate misses.
  size_t retractAll(PredKey Key);

  /// Monotone revision clock. Every clause assert/retract bumps the global
  /// counter and stamps the affected predicate with it; completed tables
  /// record the revision they were derived under, and the incremental
  /// invalidation sweep asks which predicates changed since.
  uint64_t globalRevision() const { return RevCounter; }

  /// \returns every predicate whose clauses changed strictly after
  /// revision \p Rev (in no particular order).
  std::vector<PredKey> predsChangedSince(uint64_t Rev) const;

  /// Marks \p Sym / \p Arity as tabled.
  void setTabled(SymbolId Sym, uint32_t Arity);

  /// Marks every currently-defined predicate as tabled. The abstract
  /// programs of the paper's analyses table all predicates.
  void tableAllPredicates();

  /// \returns the predicate entry, or nullptr if it has no clauses.
  const Predicate *lookup(PredKey Key) const;

  /// Clause-index traffic: every lookup() is a hit on the predicate index;
  /// a miss is a call to an undefined predicate (which fails without
  /// touching any clause). Cheap enough to count unconditionally; the
  /// observability layer exports them as db_lookups / db_lookup_misses.
  /// Relaxed atomics: one database serves every intra-query eval worker
  /// concurrently, and pure counters are the only mutation lookup() does.
  struct LookupStats {
    uint64_t Lookups = 0; ///< Total predicate-index probes.
    uint64_t Misses = 0;  ///< Probes that found no predicate.
  };
  LookupStats lookupStats() const {
    return {LkLookups.load(std::memory_order_relaxed),
            LkMisses.load(std::memory_order_relaxed)};
  }
  void resetLookupStats() {
    LkLookups.store(0, std::memory_order_relaxed);
    LkMisses.store(0, std::memory_order_relaxed);
  }

  /// \returns true if the predicate is declared tabled.
  bool isTabled(PredKey Key) const;

  /// Iterates over all predicates in definition order.
  const std::vector<PredKey> &predicates() const { return PredOrder; }

  /// The store holding clause terms.
  const TermStore &store() const { return ClauseStore; }

  /// Instantiates stored clause \p C in \p Dst (one appendBlock of its
  /// template). \returns the offset that maps a stored ref of \p C (head,
  /// goal or variable) to its copy in \p Dst.
  TermRef instantiate(const Clause &C, TermStore &Dst) const {
    return Dst.appendBlock(ClauseStore, C.Lo, C.Hi) - C.Lo;
  }

  /// Builds goal \p J of stored clause \p C alone in \p Dst, with each
  /// body variable live at J (Clause::BodyVars with LastGoal >= J, in that
  /// order) replaced by the next term of \p Live: a frontier state's roots
  /// after its call. \returns the goal. Copies only the goal's cells, as a
  /// tree, and binds nothing.
  TermRef instantiateGoal(const Clause &C, size_t J,
                          std::span<const TermRef> Live,
                          TermStore &Dst) const;

  SymbolTable &symbols() { return Symbols; }
  const SymbolTable &symbols() const { return Symbols; }

  /// Number of clauses across all predicates.
  size_t numClauses() const;

  /// Computes the first-argument filter key of a call with first argument
  /// \p Arg (0 if unbound).
  static uint64_t firstArgKey(const TermStore &Store, TermRef Arg);

private:
  ErrorOr<bool> handleDirective(const TermStore &Src, TermRef Body);
  ErrorOr<bool> handleTableSpec(const TermStore &Src, TermRef Spec);
  /// Non-mutating counterparts of loadClause's failure checks, used by the
  /// two-phase consult: everything that can make loadClause fail must be
  /// caught here, before any clause is stored.
  ErrorOr<bool> validateClause(const TermStore &Src, TermRef ClauseTerm) const;
  ErrorOr<bool> checkTableSpec(const TermStore &Src, TermRef Spec) const;
  /// Fills \p C.BodyVars.
  void numberBodyVars(Clause &C) const;
  /// Stamps \p Key with a fresh global revision.
  void noteMutation(PredKey Key) { PredRevisions[Key] = ++RevCounter; }

  SymbolTable &Symbols;
  TermStore ClauseStore;
  std::unordered_map<PredKey, Predicate, PredKeyHash> Preds;
  std::vector<PredKey> PredOrder;
  /// Tabling declarations may precede clauses, so they are kept separately.
  std::unordered_map<PredKey, bool, PredKeyHash> TabledDecls;
  /// Revision clock (see globalRevision()). Tabling declarations do not
  /// bump it: they change evaluation strategy, not the program's meaning.
  uint64_t RevCounter = 0;
  std::unordered_map<PredKey, uint64_t, PredKeyHash> PredRevisions;
  /// Mutable: lookup() is const but still counted (atomically — workers
  /// share the database).
  mutable std::atomic<uint64_t> LkLookups{0};
  mutable std::atomic<uint64_t> LkMisses{0};
};

/// Flattens a (possibly nested) ','/2 conjunction into a goal list.
void flattenConjunction(const TermStore &Store, const SymbolTable &Symbols,
                        TermRef Body, std::vector<TermRef> &Goals);

} // namespace lpa

#endif // LPA_ENGINE_DATABASE_H
