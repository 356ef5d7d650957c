// Strongly typed dense identifiers.
//
// Analyses in this library index many different entity kinds (symbols,
// statements, PFG nodes, SSA names, mutex bodies...). Using a distinct
// wrapper type per entity kind prevents accidentally mixing index spaces
// while keeping the zero-cost density of a plain integer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace cssame {

/// A strongly typed index. `Tag` is an empty struct that names the index
/// space; two `Id`s with different tags do not compare or convert.
template <typename Tag>
class Id {
 public:
  using value_type = std::uint32_t;
  static constexpr value_type kInvalid = std::numeric_limits<value_type>::max();

  constexpr Id() = default;
  constexpr explicit Id(value_type v) : value_(v) {}

  [[nodiscard]] constexpr value_type value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }
  [[nodiscard]] constexpr std::size_t index() const { return value_; }

  friend constexpr bool operator==(Id a, Id b) { return a.value_ == b.value_; }
  friend constexpr bool operator!=(Id a, Id b) { return a.value_ != b.value_; }
  friend constexpr bool operator<(Id a, Id b) { return a.value_ < b.value_; }

 private:
  value_type value_ = kInvalid;
};

struct SymbolTag {};
struct StmtTag {};
struct NodeTag {};
struct SsaNameTag {};
struct MutexBodyTag {};
struct ThreadTag {};

using SymbolId = Id<SymbolTag>;
using StmtId = Id<StmtTag>;
using NodeId = Id<NodeTag>;
using SsaNameId = Id<SsaNameTag>;
using MutexBodyId = Id<MutexBodyTag>;
using ThreadId = Id<ThreadTag>;

}  // namespace cssame

namespace std {
template <typename Tag>
struct hash<cssame::Id<Tag>> {
  size_t operator()(cssame::Id<Tag> id) const noexcept {
    return std::hash<typename cssame::Id<Tag>::value_type>{}(id.value());
  }
};
}  // namespace std
