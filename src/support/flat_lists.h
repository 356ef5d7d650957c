// Per-key lists stored flat, in compressed sparse row form.
//
// A structure whose per-node lists never change after construction — the
// PFG's successors, predecessors and block statements, a dominator tree's
// children and frontiers — keeps all of them in two arrays: one offset
// per key and the values back to back. A key's list is handed out as a
// span, so building costs two allocations however many keys there are,
// and dropping the structure frees two blocks (docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cssame {

template <typename T>
class FlatLists {
 public:
  FlatLists() = default;

  /// Groups `items` by key with a stable counting sort: key k's list holds
  /// valueOf(item) for every item with keyOf(item) == k, in item order, so
  /// it reads exactly as the push_back sequence the items record. Every
  /// key must be below `keys`.
  template <typename Item, typename KeyOf, typename ValueOf>
  [[nodiscard]] static FlatLists group(std::size_t keys,
                                       std::span<const Item> items,
                                       KeyOf keyOf, ValueOf valueOf) {
    FlatLists out;
    // offsets_[k] counts key k, then (prefix sums) marks the end of its
    // list; filling back to front leaves it at the list's start.
    out.offsets_.assign(keys + 1, 0);
    for (const Item& item : items) ++out.offsets_[keyOf(item)];
    std::uint32_t end = 0;
    for (std::size_t k = 0; k < keys; ++k) {
      end += out.offsets_[k];
      out.offsets_[k] = end;
    }
    out.offsets_[keys] = end;
    out.values_.resize(items.size());
    for (std::size_t i = items.size(); i-- > 0;)
      out.values_[--out.offsets_[keyOf(items[i])]] = valueOf(items[i]);
    return out;
  }

  /// The list of `key`.
  [[nodiscard]] std::span<const T> operator[](std::size_t key) const {
    return {values_.data() + offsets_[key], values_.data() + offsets_[key + 1]};
  }

  /// Number of keys.
  [[nodiscard]] std::size_t keys() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<T> values_;
};

}  // namespace cssame
