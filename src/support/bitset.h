// A resizable bitset with the set-algebra operations data-flow solvers need.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cssame {

/// Dense dynamic bitset. All binary operations require equal sizes.
///
/// Up to kInlineBits bits live inside the object itself; only wider sets
/// allocate. MHP keeps bitsets per PFG node over the program's set/wait
/// events, which fit in two words for most programs, so that per-node
/// state never touches the heap.
class DynBitset {
  using Word = std::uint64_t;
  static constexpr std::size_t kBits = 64;
  static constexpr std::size_t kInlineWords = 2;

 public:
  static constexpr std::size_t kInlineBits = kInlineWords * kBits;

  DynBitset() = default;
  explicit DynBitset(std::size_t nbits)
      : nbits_(nbits), words_(onHeap() ? new Word[wordCount()] : inline_) {
    resetAll();
  }
  DynBitset(const DynBitset& o)
      : nbits_(o.nbits_), words_(onHeap() ? new Word[wordCount()] : inline_) {
    std::memcpy(words_, o.words_, storedWords() * sizeof(Word));
  }
  DynBitset(DynBitset&& o) noexcept : nbits_(o.nbits_) { take(o); }
  DynBitset& operator=(const DynBitset& o) {
    if (this == &o) return *this;
    // Reuse the storage when it has the right shape; otherwise copy anew.
    if (onHeap() != o.onHeap() || (onHeap() && wordCount() != o.wordCount()))
      return *this = DynBitset(o);
    nbits_ = o.nbits_;
    std::memcpy(words_, o.words_, storedWords() * sizeof(Word));
    return *this;
  }
  DynBitset& operator=(DynBitset&& o) noexcept {
    if (this == &o) return *this;
    release();
    nbits_ = o.nbits_;
    take(o);
    return *this;
  }
  ~DynBitset() { release(); }

  [[nodiscard]] std::size_t size() const { return nbits_; }

  /// Keeps the bits below min(size(), nbits); new bits start clear.
  void resize(std::size_t nbits) {
    DynBitset grown(nbits);
    std::memcpy(grown.words_, words_,
                std::min(wordCount(), grown.wordCount()) * sizeof(Word));
    grown.clearSlack();
    *this = std::move(grown);
  }

  void set(std::size_t i) {
    assert(i < nbits_);
    words_[i / kBits] |= Word{1} << (i % kBits);
  }
  void reset(std::size_t i) {
    assert(i < nbits_);
    words_[i / kBits] &= ~(Word{1} << (i % kBits));
  }
  [[nodiscard]] bool test(std::size_t i) const {
    assert(i < nbits_);
    return (words_[i / kBits] >> (i % kBits)) & 1;
  }

  void setAll() {
    std::fill_n(words_, wordCount(), ~Word{0});
    clearSlack();
  }
  void resetAll() { std::fill_n(words_, storedWords(), Word{0}); }

  [[nodiscard]] bool any() const {
    for (std::size_t i = 0; i < wordCount(); ++i)
      if (words_[i] != 0) return true;
    return false;
  }
  [[nodiscard]] bool none() const { return !any(); }

  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < wordCount(); ++i)
      n += static_cast<std::size_t>(__builtin_popcountll(words_[i]));
    return n;
  }

  /// In-place union. Returns true if this set changed.
  bool unionWith(const DynBitset& o) {
    return combine(o, [](Word a, Word b) { return a | b; });
  }

  /// In-place intersection. Returns true if this set changed.
  bool intersectWith(const DynBitset& o) {
    return combine(o, [](Word a, Word b) { return a & b; });
  }

  /// In-place difference (this \ o). Returns true if this set changed.
  bool subtract(const DynBitset& o) {
    return combine(o, [](Word a, Word b) { return a & ~b; });
  }

  /// True if this set and o share at least one bit (no allocation).
  [[nodiscard]] bool intersects(const DynBitset& o) const {
    assert(nbits_ == o.nbits_);
    for (std::size_t i = 0; i < wordCount(); ++i)
      if ((words_[i] & o.words_[i]) != 0) return true;
    return false;
  }

  friend bool operator==(const DynBitset& a, const DynBitset& b) {
    return a.nbits_ == b.nbits_ &&
           std::equal(a.words_, a.words_ + a.wordCount(), b.words_);
  }

  /// Calls `fn(index)` for every set bit, in increasing order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::size_t wi = 0; wi < wordCount(); ++wi) {
      Word w = words_[wi];
      while (w != 0) {
        const int bit = __builtin_ctzll(w);
        fn(wi * kBits + static_cast<std::size_t>(bit));
        w &= w - 1;
      }
    }
  }

 private:
  [[nodiscard]] static std::size_t wordsFor(std::size_t nbits) {
    return (nbits + kBits - 1) / kBits;
  }
  [[nodiscard]] std::size_t wordCount() const { return wordsFor(nbits_); }
  [[nodiscard]] bool onHeap() const { return nbits_ > kInlineBits; }
  /// Words the storage holds: both inline words are kept (and zero past
  /// the set's end), so inline copies never read indeterminate values.
  [[nodiscard]] std::size_t storedWords() const {
    return onHeap() ? wordCount() : kInlineWords;
  }
  void release() {
    if (onHeap()) delete[] words_;
  }
  /// Takes o's bits (nbits_ already copied) and leaves o empty.
  void take(DynBitset& o) {
    if (onHeap()) {
      words_ = o.words_;
    } else {
      std::memcpy(inline_, o.inline_, sizeof inline_);
      words_ = inline_;
    }
    o.nbits_ = 0;
    o.words_ = o.inline_;
    o.inline_[0] = o.inline_[1] = 0;
  }

  template <typename Op>
  bool combine(const DynBitset& o, Op op) {
    assert(nbits_ == o.nbits_);
    bool changed = false;
    for (std::size_t i = 0; i < wordCount(); ++i) {
      const Word nw = op(words_[i], o.words_[i]);
      changed |= nw != words_[i];
      words_[i] = nw;
    }
    return changed;
  }

  // Bits past nbits_ in the last word must stay zero so count()/any() work.
  void clearSlack() {
    if (nbits_ % kBits != 0)
      words_[nbits_ / kBits] &= (Word{1} << (nbits_ % kBits)) - 1;
  }

  // The storage kind follows from nbits_: words_ points at inline_ up to
  // kInlineBits and at an owned heap array of wordCount() words beyond.
  std::size_t nbits_ = 0;
  Word inline_[kInlineWords] = {0, 0};
  Word* words_ = inline_;
};

}  // namespace cssame
