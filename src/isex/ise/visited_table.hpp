// Visited set of the connected-growth enumerator.
//
// enumerate_connected() visits each connected node set once per seed; the
// visited test runs once per frontier node of every grow step, so it must
// not allocate or hash whole bitsets. This is a flat open-addressing table
// (linear probing) keyed by a 64-bit Zobrist key of the node set — the XOR
// of fixed per-node keys, which the enumerator maintains incrementally.
// Each slot holds the key, the set's first word and, for longer sets, an
// offset into a word arena holding the rest; words are compared only when
// keys match, so a key collision between distinct sets never merges them.
//
// reset() forgets every set in O(1) by bumping a generation stamp instead of
// clearing the slots, and keeps the slot array and arena capacity, so one
// table serves every seed of every enumeration on a thread without
// allocating. Per-seed reset is exact for the enumerator: every set grown
// from seed k has minimum node id k, so sets of different seeds never
// compare equal. The caller stores only the words from the seed's word to
// the set's highest word (the same window for equal sets), which keeps the
// arena compact on blocks with thousands of nodes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace isex::ise {

class VisitedTable {
 public:
  /// Inserts the set with Zobrist key `key` and words `words` (non-empty);
  /// true iff no equal set (same words) was stored since the last reset().
  bool insert(std::uint64_t key, std::span<const std::uint64_t> words) {
    if ((size_ + 1) * 2 > slots_.size()) rehash();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.gen != gen_) {
        slot = Slot{key, words[0], gen_, kInline};
        if (words.size() > 1) {
          slot.at = static_cast<std::uint32_t>(arena_.size());
          arena_.push_back(words.size());
          arena_.insert(arena_.end(), words.begin() + 1, words.end());
        }
        ++size_;
        return true;
      }
      if (slot.key == key && equal(slot, words)) return false;
    }
  }

  /// Starts loading the slot `key` probes first, so a later insert() of a
  /// batch of keys overlaps their cache misses.
  void prefetch(std::uint64_t key) const {
    if (!slots_.empty())
      __builtin_prefetch(&slots_[mix(key) & (slots_.size() - 1)]);
  }

  /// Forgets every stored set; keeps the allocated capacity.
  void reset() {
    if (++gen_ == 0) {  // stamp wrapped: stale slots could read as live
      for (Slot& s : slots_) s.gen = 0;
      gen_ = 1;
    }
    arena_.clear();
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t first = 0;  // the set's first word, inline
    std::uint32_t gen = 0;    // live iff == gen_
    std::uint32_t at = 0;     // kInline, or arena offset: size, then words 1..
  };
  static constexpr std::uint32_t kInline = ~std::uint32_t{0};

  /// Zobrist keys are already uniform; the multiply spreads hand-made keys
  /// (tests, tiny graphs) over the low bits the mask keeps.
  static std::size_t mix(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 17);
  }

  bool equal(const Slot& slot, std::span<const std::uint64_t> words) const {
    if (slot.first != words[0]) return false;
    if (slot.at == kInline) return words.size() == 1;
    return arena_[slot.at] == words.size() &&
           std::equal(words.begin() + 1, words.end(),
                      arena_.begin() + slot.at + 1);
  }

  void rehash() {
    std::vector<Slot> old(std::max<std::size_t>(1024, slots_.size() * 2));
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      std::size_t i = mix(s.key) & mask;
      while (slots_[i].gen == gen_) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::uint64_t> arena_;
  std::uint32_t gen_ = 1;
  std::size_t size_ = 0;
};

}  // namespace isex::ise
