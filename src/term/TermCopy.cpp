//===- TermCopy.cpp - Copying terms across stores --------------------------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "term/TermCopy.h"

#include <span>

using namespace lpa;

void VarRenaming::insert(TermRef Var, TermRef Copy) {
  assert(find(Var) == InvalidTerm && "variable renamed twice");
  Entries.emplace_back(Var, Copy);
  if (Entries.size() <= SmallLimit)
    return;
  if (Index.size() >= 2 * Entries.size()) {
    place(Entries.size() - 1);
    return;
  }
  // Regrow to at most a quarter full (so at most half full until the next
  // regrowth) and place every entry again.
  size_t Size = 64;
  for (IndexShift = 58; Size < 4 * Entries.size(); --IndexShift)
    Size *= 2;
  Index.assign(Size, 0);
  for (size_t E = 0; E < Entries.size(); ++E)
    place(E);
}

void VarRenaming::place(size_t E) {
  size_t S = slot(Entries[E].first);
  while (Index[S] != 0)
    S = (S + 1) & (Index.size() - 1);
  Index[S] = static_cast<uint32_t>(E + 1);
}

namespace {

/// Scratch of one thread's copyTerm calls. copyTerm never re-enters itself,
/// so a single instance per thread serves every call; parallel eval
/// workers each get their own.
struct CopyScratch {
  struct Frame {
    TermRef Node;     // Dereferenced Struct in Src.
    uint32_t ArgBase; // Where this frame's argument copies start in Args.
  };
  std::vector<Frame> Frames;
  std::vector<TermRef> Args;
  /// Copies of the compound subterms seen in this call (sharing).
  VarRenaming Memo;
  /// The renaming of the fresh-renaming overload.
  VarRenaming Fresh;
};

thread_local CopyScratch Scratch;

} // namespace

TermRef lpa::copyTerm(const TermStore &Src, TermRef T, TermStore &Dst,
                      VarRenaming &Renaming) {
  // Iterative post-order construction; recursion would overflow on the long
  // right-nested lists and conjunctions the corpus programs build.
  CopyScratch &S = Scratch;
  S.Memo.clear();
  S.Frames.clear();
  S.Args.clear();
  TermRef Pending = T;
  while (true) {
    // Phase 1: resolve Pending into Done, or open a frame for a struct.
    TermRef D = Src.deref(Pending);
    TermRef Done = InvalidTerm;
    switch (Src.tag(D)) {
    case TermTag::Ref:
      Done = Renaming.findOrInsert(D, [&] { return Dst.mkVar(); });
      break;
    case TermTag::Atom:
      Done = Dst.mkAtom(Src.symbol(D));
      break;
    case TermTag::Int:
      Done = Dst.mkInt(Src.intValue(D));
      break;
    case TermTag::Struct:
      Done = S.Memo.find(D);
      if (Done == InvalidTerm) {
        S.Frames.push_back({D, static_cast<uint32_t>(S.Args.size())});
        Pending = Src.arg(D, 0);
        continue;
      }
      break;
    }

    // Phase 2: deliver Done upward, building every struct it completes.
    while (true) {
      if (S.Frames.empty())
        return Done;
      CopyScratch::Frame F = S.Frames.back();
      S.Args.push_back(Done);
      uint32_t Have = static_cast<uint32_t>(S.Args.size()) - F.ArgBase;
      uint32_t Arity = Src.arity(F.Node);
      if (Have < Arity) {
        Pending = Src.arg(F.Node, Have);
        break;
      }
      Done = Dst.mkStruct(Src.symbol(F.Node),
                          std::span<const TermRef>(S.Args.data() + F.ArgBase,
                                                   Arity));
      S.Memo.insert(F.Node, Done);
      S.Args.resize(F.ArgBase);
      S.Frames.pop_back();
    }
  }
}

TermRef lpa::copyTerm(const TermStore &Src, TermRef T, TermStore &Dst) {
  VarRenaming &Fresh = Scratch.Fresh;
  Fresh.clear();
  return copyTerm(Src, T, Dst, Fresh);
}

size_t lpa::termSizeCells(const TermStore &Store, TermRef T) {
  size_t Count = 0;
  std::vector<TermRef> Work{T};
  while (!Work.empty()) {
    TermRef Cur = Store.deref(Work.back());
    Work.pop_back();
    ++Count;
    if (Store.tag(Cur) == TermTag::Struct) {
      Count += Store.arity(Cur); // Argument slots.
      for (uint32_t I = 0, E = Store.arity(Cur); I < E; ++I)
        Work.push_back(Store.arg(Cur, I));
    }
  }
  return Count;
}
