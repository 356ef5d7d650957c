// 128-bit state fingerprints and the explorer's visited map.
//
// The schedule explorer deduplicates dynamic states by hash only — it
// never keeps the states themselves, so a fingerprint collision silently
// prunes a genuinely distinct reachable state, which can mask a race or
// an assertion failure. A single 64-bit hash makes that realistic at
// scale: by the birthday bound, ~2^22 explored states (the default state
// budget) give a collision probability of about 2^44/2^65 ≈ 5e-7 per
// run, and a fleet of runs multiplies it. Two *independently* mixed
// 64-bit hashes push the bound to ~2^44/2^129, i.e. below 1e-24 —
// negligible even across millions of CI runs. See docs/ANALYSIS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace cssame::support {

/// Two independently-mixed 64-bit fingerprints of one dynamic state.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

struct Hash128Hasher {
  [[nodiscard]] std::size_t operator()(const Hash128& h) const {
    return static_cast<std::size_t>(h.lo ^ (h.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// The explorer's visited map: each fingerprint carries the sleep mask
/// the state was (last) expanded under. Sleep sets and state caching are
/// unsound when combined naively — a state first reached with sleep set
/// S1 only expanded its non-slept actions, so a later visit with sleep
/// set S2 must re-expand whatever S1 suppressed that S2 would allow
/// (Godefroid's state-caching rule). insertOrMerge implements exactly
/// that: `missing` is the persistent-set actions the stored visit slept
/// but the new one would run, and the stored mask shrinks to the
/// intersection (the state is now covered for both). Each action of a
/// state re-expands at most once: `missing` excludes everything outside
/// the stored mask, and the stored mask loses every bit that `missing`
/// returns — re-expansion terminates. With the reduction off, every call
/// passes sleep == pmask == 0 and the map is a plain visited set.
class VisitedMap {
 public:
  struct MergeResult {
    bool fresh = false;          ///< key was not present before
    std::uint64_t missing = 0;   ///< action keys to re-expand (dups only)
  };

  MergeResult insertOrMerge(const Hash128& h, std::uint64_t sleep,
                            std::uint64_t pmask) {
    auto [it, inserted] = map_.try_emplace(h, sleep);
    if (inserted) return {true, 0};
    const std::uint64_t stored = it->second;
    it->second = stored & sleep;
    return {false, pmask & stored & ~sleep};
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

  /// Approximate footprint, for the explorer's Memory budget: each entry
  /// costs its key plus bucket overhead.
  [[nodiscard]] std::uint64_t approxBytes() const {
    return static_cast<std::uint64_t>(size()) * 2 * sizeof(Hash128);
  }

 private:
  std::unordered_map<Hash128, std::uint64_t, Hash128Hasher> map_;
};

}  // namespace cssame::support
