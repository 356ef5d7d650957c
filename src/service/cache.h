// The service's two-tier content-addressed artifact cache.
//
// The whole pipeline is a pure function of (source text, options, build)
// — PAPER.md §3–§5 define the forms purely syntactically, and every
// analysis downstream is deterministic — so its artifacts are ideal for
// content addressing: the cache key *is* the input, hashed. Two tiers:
//
//   1. Memory — an LRU of live driver::Compilation artifacts keyed by the
//      128-bit fingerprint of (source, cssame flag). A hit skips
//      parse + PFG + dominators + MHP + conflicts + SSA + CSSA + CSSAME
//      and serves follow-up methods (csan after analyze, vrange after
//      csan) from the same in-memory structures. Entries are shared_ptr
//      so eviction never invalidates a request mid-flight, and a
//      Compilation's const accessors cache nothing, so concurrent
//      requests read one without a lock (pipeline.h).
//   2. Disk — serialized response payloads keyed by the full request
//      fingerprint (build ⊕ method ⊕ options ⊕ source), so warm results
//      survive daemon restarts. Every entry carries the build
//      fingerprint and a payload checksum; entries from another build,
//      truncated writes (the atomic tmp+rename protocol makes these
//      invisible anyway) or bit rot are rejected and recomputed, never
//      trusted.
//
// There is additionally a small in-memory LRU of rendered responses in
// front of the disk tier, so a repeated identical request doesn't even
// touch the filesystem. All tiers are thread-safe; hit/miss/eviction/
// rejection counts are exported through the `stats` method
// (docs/SERVICE.md).
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/driver/pipeline.h"
#include "src/ir/program.h"
#include "src/support/counters.h"
#include "src/support/fingerprint.h"

namespace cssame::service {

/// A parsed program together with its analysis — the unit the memory
/// tier holds. The Compilation points into the Program, so the two must
/// live and die together; const after construction.
struct AnalyzedProgram {
  AnalyzedProgram(ir::Program p, driver::PipelineOptions opts)
      : program(std::make_unique<ir::Program>(std::move(p))),
        compilation(*program, opts) {}

  std::unique_ptr<ir::Program> program;
  driver::Compilation compilation;
  /// Rendered diagnostics of the parse that produced `program` (normally
  /// empty — error parses are never cached). Prepended to the error
  /// stream on every cache hit so hit and miss outputs match bytewise.
  std::string preErr;
};

/// Thread-safe LRU keyed by Hash128 holding shared_ptr values.
template <typename V>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::shared_ptr<V> lookup(const support::Hash128& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts (replacing any previous value for the key) and evicts the
  /// least-recently-used entries beyond capacity. Returns the number of
  /// evictions. Capacity 0 disables the tier entirely.
  std::size_t insert(const support::Hash128& key, std::shared_ptr<V> value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ == 0) return 0;
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return 0;
    }
    order_.emplace_front(key, std::move(value));
    index_[key] = order_.begin();
    std::size_t evicted = 0;
    while (index_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
  }

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<std::pair<support::Hash128, std::shared_ptr<V>>> order_;
  std::unordered_map<support::Hash128,
                     typename std::list<std::pair<support::Hash128,
                                                  std::shared_ptr<V>>>::
                         iterator,
                     support::Hash128Hasher>
      index_;
};

/// The on-disk response store. One file per entry, named by the request
/// fingerprint; self-validating header (docs/SERVICE.md):
///
///   cssame-artifact v1 <buildFp> <keyHex> <payloadBytes> <payloadFp>\n
///   <payload bytes>
class DiskStore {
 public:
  /// `dir` empty disables the tier. The directory is created if missing;
  /// creation failure disables the tier (counted, not fatal — a cacheless
  /// daemon is degraded, not broken).
  explicit DiskStore(std::string dir);

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// Returns the payload for `key`, or nullopt on miss/rejection.
  /// Rejections (wrong build, malformed header, checksum mismatch, a
  /// payload that is not a JSON document) also delete the offending file
  /// so it is recomputed exactly once. An accepted payload is returned
  /// re-written in the JSON writer's compact form.
  [[nodiscard]] std::optional<std::string> lookup(
      const support::Hash128& key);

  /// Persists atomically: write to a tmp name, fsync-free rename into
  /// place. A crash mid-write leaves only a tmp file that lookups never
  /// read and sweepTmp() removes on the next daemon start.
  ///
  /// Write failures can never fail a request: a full (ENOSPC/EDQUOT) or
  /// unwritable (EACCES/EROFS) filesystem degrades the store to
  /// memory-only caching — writes stop, lookups of existing entries keep
  /// answering — with a one-time warning and the `degraded` counter set.
  /// Other errors degrade after kWriteFailureLimit consecutive failures.
  void insert(const support::Hash128& key, const std::string& payload);

  /// Removes leftover tmp files from crashed writers. Tmp names embed
  /// the writing pid; files whose writer is still alive (a fleet sibling
  /// mid-insert on the shared directory) are left alone, so a restarting
  /// worker can never tear a live writer's rename out from under it.
  /// Returns the count removed.
  std::size_t sweepTmp();

  /// Rejection counters (corrupt entries, build mismatches), write
  /// failures and the memory-only degrade flag, for the stats report.
  support::Counter corruptRejected;
  support::Counter buildRejected;
  support::Counter writeFailed;
  support::Counter degraded;  ///< 1 once writes are disabled (sticky)

  /// Consecutive non-fatal write failures tolerated before degrading.
  static constexpr unsigned kWriteFailureLimit = 8;

  [[nodiscard]] bool writesEnabled() const {
    return enabled() && !writesDisabled_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] std::string pathFor(const support::Hash128& key) const;
  /// Records one failed write; `fatalErrno` (ENOSPC and friends) or the
  /// consecutive-failure limit flips the store to memory-only, warning
  /// once on stderr.
  void noteWriteFailure(int err);

  std::string dir_;
  std::atomic<bool> writesDisabled_{false};
  std::atomic<unsigned> consecutiveWriteFailures_{0};
};

/// Where a response came from, reported in every response envelope and
/// counted per tier.
enum class CacheTier : std::uint8_t { Miss, Memory, Disk, Compilation };

[[nodiscard]] const char* cacheTierName(CacheTier t);

/// Aggregated cache counters surfaced by the `stats` method.
struct CacheCounters {
  support::Counter responseHits;     ///< memory response tier
  support::Counter diskHits;         ///< disk tier
  support::Counter compilationHits;  ///< live-Compilation tier
  support::Counter misses;           ///< full recompute
  support::Counter responseEvictions;
  support::Counter compilationEvictions;
};

/// The assembled two-tier cache the server routes through.
class ArtifactCache {
 public:
  ArtifactCache(std::size_t memEntries, const std::string& diskDir)
      : responses_(memEntries),
        compilations_(memEntries),
        disk_(diskDir) {}

  /// Response lookup: memory tier then disk (disk hits are promoted into
  /// the memory tier). Returns nullptr on miss; `tier` reports the source.
  [[nodiscard]] std::shared_ptr<const std::string> lookupResponse(
      const support::Hash128& requestKey, CacheTier& tier);

  /// Stores a freshly computed response in both tiers.
  void storeResponse(const support::Hash128& requestKey,
                     std::shared_ptr<const std::string> payload);

  /// Live-Compilation lookup/store by source fingerprint.
  [[nodiscard]] std::shared_ptr<AnalyzedProgram> lookupCompilation(
      const support::Hash128& sourceKey) {
    return compilations_.lookup(sourceKey);
  }
  void storeCompilation(const support::Hash128& sourceKey,
                        std::shared_ptr<AnalyzedProgram> value) {
    counters_.compilationEvictions.inc(
        compilations_.insert(sourceKey, std::move(value)));
  }

  [[nodiscard]] CacheCounters& counters() { return counters_; }
  [[nodiscard]] DiskStore& disk() { return disk_; }
  [[nodiscard]] std::size_t responseEntries() const {
    return responses_.size();
  }
  [[nodiscard]] std::size_t compilationEntries() const {
    return compilations_.size();
  }

 private:
  LruCache<const std::string> responses_;
  LruCache<AnalyzedProgram> compilations_;
  DiskStore disk_;
  CacheCounters counters_;
};

}  // namespace cssame::service
