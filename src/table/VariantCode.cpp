//===- VariantCode.cpp - Flat variant codes and leveled code sets ---------===//
//
// Part of the lpa project: a reproduction of "Practical Program Analysis
// Using General Purpose Logic Programming Systems" (PLDI 1996).
//
//===----------------------------------------------------------------------===//

#include "table/VariantCode.h"

#include "term/TermCopy.h"

#include <cstring>

using namespace lpa;

namespace {

enum : uint64_t { WVar = 0, WAtom = 1, WInt = 2, WStruct = 3 };

constexpr uint32_t MaxArity = uint32_t(1) << 30;

/// Scratch of one thread's encoder and decoder calls; neither re-enters
/// itself or the other, so one instance per thread serves every call.
struct CodeScratch {
  std::vector<TermRef> Work;
  /// Encoder: heap variable -> its first-occurrence number.
  VarRenaming VarNum;
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

uint32_t hashCode(const uint64_t *W, size_t Len) {
  uint64_t H = Len * 0x9E3779B97F4A7C15ull;
  for (size_t I = 0; I < Len; ++I)
    H = ((H << 5 | H >> 59) ^ W[I]) * 0x9E3779B97F4A7C15ull;
  return static_cast<uint32_t>(H ^ (H >> 32));
}

} // namespace

void lpa::appendVariantCode(const TermStore &Store, TermRef T,
                            std::vector<uint64_t> &Out) {
  CodeScratch &S = Scratch;
  S.VarNum.clear();
  S.Work.assign(1, T);
  while (!S.Work.empty()) {
    TermRef Cur = Store.deref(S.Work.back());
    S.Work.pop_back();
    switch (Store.tag(Cur)) {
    case TermTag::Ref: {
      TermRef N = S.VarNum.findOrInsert(
          Cur, [&] { return static_cast<TermRef>(S.VarNum.size()); });
      Out.push_back(uint64_t(N) << 2 | WVar);
      break;
    }
    case TermTag::Atom:
      Out.push_back(uint64_t(Store.symbol(Cur)) << 2 | WAtom);
      break;
    case TermTag::Int:
      Out.push_back(WInt);
      Out.push_back(static_cast<uint64_t>(Store.intValue(Cur)));
      break;
    case TermTag::Struct: {
      uint32_t Arity = Store.arity(Cur);
      assert(Arity < MaxArity && "arity does not fit a struct token");
      Out.push_back(uint64_t(Arity) << 34 | uint64_t(Store.symbol(Cur)) << 2 |
                    WStruct);
      // Reverse push for left-to-right traversal (variable numbering).
      for (uint32_t I = Arity; I-- > 0;)
        S.Work.push_back(Store.arg(Cur, I));
      break;
    }
    }
  }
}

TermRef lpa::decodeVariantCode(std::span<const uint64_t> Code,
                               TermStore &Dst) {
  // Preorder in, post-order out: a struct token opens a frame, and each
  // finished value completes the frames it fills (as in copyTerm).
  CodeScratch &S = Scratch;
  S.Frames.clear();
  S.Args.clear();
  S.Vars.clear();
  for (size_t I = 0; I < Code.size(); ++I) {
    uint64_t W = Code[I];
    TermRef Done;
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
        assert(I + 1 == Code.size() && "trailing words after the code");
        return Done;
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
  assert(false && "truncated variant code");
  return InvalidTerm;
}

VariantCodeStore::InsertResult
VariantCodeStore::insert(size_t LevelIdx, const TermStore &Store, TermRef T) {
  Level &L = Levels[LevelIdx];
  size_t Off = Arena.size();
  appendVariantCode(Store, T, Arena);
  uint32_t Len = static_cast<uint32_t>(Arena.size() - Off);
  uint32_t Hash = hashCode(Arena.data() + Off, Len);
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
