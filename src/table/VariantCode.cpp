//===- VariantCode.cpp - Flat variant codes and leveled code sets ---------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "table/VariantCode.h"

#include "term/StampedCellMap.h"

#include <cstring>

using namespace lpa;

namespace {

enum : uint64_t { WVar = 0, WAtom = 1, WInt = 2, WStruct = 3 };

constexpr uint32_t MaxArity = uint32_t(1) << 30;

/// Scratch of one thread's encoder and decoder calls; neither re-enters
/// itself or the other, so one instance per thread serves every call.
struct CodeScratch {
  /// Encoder: the argument slots [first, second) of the structs entered
  /// that are still to be encoded, innermost last.
  std::vector<std::pair<TermRef, TermRef>> Slots;
  /// Encoder: heap variable -> its first-occurrence number.
  StampedCellMap VarNum;
  struct Frame {
    SymbolId Sym;
    uint32_t Arity;
    uint32_t ArgBase; // Where this frame's decoded arguments start in Args.
  };
  std::vector<Frame> Frames;
  std::vector<TermRef> Args;
  /// Decoder: variable number -> its fresh cell.
  std::vector<TermRef> Vars;
};

thread_local CodeScratch Scratch;

constexpr uint64_t HashMul = 0x9E3779B97F4A7C15ull;

/// One step of the code hash: folds word \p W into \p H.
uint64_t mixWord(uint64_t H, uint64_t W) {
  return ((H << 5 | H >> 59) ^ W) * HashMul;
}

} // namespace

uint32_t lpa::appendVariantCode(const TermStore &Store,
                                std::span<const TermRef> Roots,
                                std::vector<uint64_t> &Out) {
  CodeScratch &S = Scratch;
  S.VarNum.reset(Store.size());
  uint32_t NextVar = 0;
  size_t Begin = Out.size();
  uint64_t H = 0;
  // Preorder, left to right (the variable numbering): a struct goes on
  // to its first argument and leaves the rest of its slots pending.
  S.Slots.clear();
  for (TermRef Cur : Roots) {
    while (true) {
      Cur = Store.deref(Cur);
      // Every token emits its word at the one site below (an integer its
      // tag word first), so the hash stays in a register.
      uint64_t W = 0;
      TermTag Tag = Store.tag(Cur);
      switch (Tag) {
      case TermTag::Ref: {
        uint32_t N = S.VarNum.find(Cur);
        if (N == StampedCellMap::Missing)
          S.VarNum.set(Cur, N = NextVar++);
        W = uint64_t(N) << 2 | WVar;
        break;
      }
      case TermTag::Atom:
        W = uint64_t(Store.symbol(Cur)) << 2 | WAtom;
        break;
      case TermTag::Int:
        Out.push_back(WInt);
        H = mixWord(H, WInt);
        W = static_cast<uint64_t>(Store.intValue(Cur));
        break;
      case TermTag::Struct: {
        uint32_t Arity = Store.arity(Cur);
        assert(Arity < MaxArity && "arity does not fit a struct token");
        W = uint64_t(Arity) << 34 | uint64_t(Store.symbol(Cur)) << 2 |
            WStruct;
        break;
      }
      }
      Out.push_back(W);
      H = mixWord(H, W);
      if (Tag == TermTag::Struct) {
        uint32_t Arity = Store.arity(Cur);
        Cur = Store.arg(Cur, 0);
        if (Arity > 1)
          S.Slots.push_back({Cur + 1, Cur + Arity});
        continue;
      }
      if (S.Slots.empty())
        break;
      auto &[Next, End] = S.Slots.back();
      Cur = Next++;
      if (Next == End)
        S.Slots.pop_back();
    }
  }
  H = (H ^ (Out.size() - Begin)) * HashMul;
  return static_cast<uint32_t>(H ^ (H >> 32));
}

void lpa::decodeVariantCode(std::span<const uint64_t> Code, TermStore &Dst,
                            std::vector<TermRef> &Roots) {
  // Preorder in, post-order out: a struct token opens a frame, and each
  // finished value completes the frames it fills (as in copyTerm). A value
  // that completes every open frame is the next root.
  CodeScratch &S = Scratch;
  S.Frames.clear();
  S.Args.clear();
  S.Vars.clear();
  Roots.clear();
  for (size_t I = 0; I < Code.size(); ++I) {
    uint64_t W = Code[I];
    TermRef Done = InvalidTerm;
    switch (W & 3) {
    case WVar: {
      // Numbers are dense in first-occurrence order: a new one is next.
      size_t N = W >> 2;
      assert(N <= S.Vars.size() && "variable numbered out of order");
      if (N == S.Vars.size())
        S.Vars.push_back(Dst.mkVar());
      Done = S.Vars[N];
      break;
    }
    case WAtom:
      Done = Dst.mkAtom(static_cast<SymbolId>(W >> 2));
      break;
    case WInt:
      Done = Dst.mkInt(static_cast<int64_t>(Code[++I]));
      break;
    default:
      S.Frames.push_back({static_cast<SymbolId>(W >> 2),
                          static_cast<uint32_t>(W >> 34),
                          static_cast<uint32_t>(S.Args.size())});
      continue;
    }
    while (true) {
      if (S.Frames.empty()) {
        Roots.push_back(Done);
        break;
      }
      S.Args.push_back(Done);
      CodeScratch::Frame F = S.Frames.back();
      if (S.Args.size() - F.ArgBase < F.Arity)
        break;
      Done = Dst.mkStruct(
          F.Sym, std::span<const TermRef>(S.Args.data() + F.ArgBase, F.Arity));
      S.Args.resize(F.ArgBase);
      S.Frames.pop_back();
    }
  }
  assert(S.Frames.empty() && "truncated variant code");
}

VariantCodeStore::InsertResult
VariantCodeStore::insert(size_t LevelIdx, const TermStore &Store,
                         std::span<const TermRef> Roots) {
  Level &L = Levels[LevelIdx];
  size_t Off = Arena.size();
  uint32_t Hash = appendVariantCode(Store, Roots, Arena);
  uint32_t Len = static_cast<uint32_t>(Arena.size() - Off);
  auto Equal = [&](const Span &Sp) {
    return Sp.Hash == Hash && Sp.Len == Len &&
           std::memcmp(Arena.data() + Sp.Off, Arena.data() + Off,
                       Len * sizeof(uint64_t)) == 0;
  };

  if (L.Index.empty()) {
    for (uint32_t I = 0; I < L.Spans.size(); ++I)
      if (Equal(L.Spans[I])) {
        Arena.resize(Off);
        return {I, false};
      }
  } else {
    for (size_t S = slot(L, Hash);; S = (S + 1) & (L.Index.size() - 1)) {
      uint32_t E = L.Index[S];
      if (E == 0)
        break;
      if (Equal(L.Spans[E - 1])) {
        Arena.resize(Off);
        return {E - 1, false};
      }
    }
  }

  uint32_t NewIdx = static_cast<uint32_t>(L.Spans.size());
  L.Spans.push_back({Off, Len, Hash});
  if (L.Spans.size() <= SmallLimit)
    return {NewIdx, true};
  if (L.Index.size() >= 2 * L.Spans.size()) {
    place(L, NewIdx);
    return {NewIdx, true};
  }
  // Regrow to at most a quarter full (so at most half full until the next
  // regrowth) and place every span again.
  size_t Size = 64;
  for (L.Shift = 58; Size < 4 * L.Spans.size(); --L.Shift)
    Size *= 2;
  L.Index.assign(Size, 0);
  for (uint32_t I = 0; I < L.Spans.size(); ++I)
    place(L, I);
  return {NewIdx, true};
}

void VariantCodeStore::place(Level &L, uint32_t I) {
  size_t S = slot(L, L.Spans[I].Hash);
  while (L.Index[S] != 0)
    S = (S + 1) & (L.Index.size() - 1);
  L.Index[S] = I + 1;
}

size_t VariantCodeStore::memoryBytes() const {
  size_t Bytes = Arena.capacity() * sizeof(uint64_t) +
                 Levels.capacity() * sizeof(Level);
  for (const Level &L : Levels)
    Bytes += L.Spans.capacity() * sizeof(Span) +
             L.Index.capacity() * sizeof(uint32_t);
  return Bytes;
}
