// Unit tests for the support layer: typed ids, dynamic bitsets,
// diagnostics, the thread pool and the explorer's visited map.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/support/bitset.h"
#include "src/support/counters.h"
#include "src/support/diag.h"
#include "src/support/fingerprint.h"
#include "src/support/ids.h"
#include "src/support/threadpool.h"
#include "src/support/visited.h"

namespace cssame {
namespace {

TEST(Ids, DefaultIsInvalid) {
  SymbolId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, SymbolId{});
}

TEST(Ids, ValueRoundTrip) {
  NodeId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
  EXPECT_EQ(id.index(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(StmtId{1}, StmtId{2});
  EXPECT_NE(StmtId{1}, StmtId{2});
  EXPECT_EQ(StmtId{7}, StmtId{7});
}

TEST(Ids, Hashable) {
  std::unordered_set<SsaNameId> set;
  set.insert(SsaNameId{1});
  set.insert(SsaNameId{2});
  set.insert(SsaNameId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Bitset, SetResetTest) {
  DynBitset b(100);
  EXPECT_TRUE(b.none());
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, SetAllRespectsSize) {
  DynBitset b(70);
  b.setAll();
  EXPECT_EQ(b.count(), 70u);
  b.resetAll();
  EXPECT_TRUE(b.none());
}

TEST(Bitset, UnionIntersectSubtract) {
  DynBitset a(10), b(10);
  a.set(1);
  a.set(3);
  b.set(3);
  b.set(5);

  DynBitset u = a;
  EXPECT_TRUE(u.unionWith(b));
  EXPECT_EQ(u.count(), 3u);
  EXPECT_FALSE(u.unionWith(b));  // no change the second time

  DynBitset i = a;
  EXPECT_TRUE(i.intersectWith(b));
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(3));

  DynBitset d = a;
  EXPECT_TRUE(d.subtract(b));
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
}

TEST(Bitset, ForEachInOrder) {
  DynBitset b(130);
  b.set(2);
  b.set(64);
  b.set(129);
  std::vector<std::size_t> seen;
  b.forEach([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 64, 129}));
}

TEST(Bitset, Equality) {
  DynBitset a(20), b(20);
  a.set(7);
  b.set(7);
  EXPECT_EQ(a, b);
  b.set(8);
  EXPECT_FALSE(a == b);
}

TEST(Bitset, ResizeKeepsBits) {
  DynBitset b(10);
  b.set(9);
  b.resize(200);
  EXPECT_TRUE(b.test(9));
  EXPECT_EQ(b.count(), 1u);
}

// Sizes on both sides of every word boundary and of the inline/heap
// boundary (DynBitset::kInlineBits = 128).
constexpr std::size_t kBoundarySizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 200};

/// A bitset of `n` bits with every third bit and the last bit set.
DynBitset patterned(std::size_t n) {
  DynBitset b(n);
  for (std::size_t i = 0; i < n; i += 3) b.set(i);
  if (n > 0) b.set(n - 1);
  return b;
}

std::vector<std::size_t> bitsOf(const DynBitset& b) {
  std::vector<std::size_t> out;
  b.forEach([&](std::size_t i) { out.push_back(i); });
  return out;
}

TEST(Bitset, BoundarySetAllCountForEach) {
  static_assert(DynBitset::kInlineBits == 128);
  for (std::size_t n : kBoundarySizes) {
    SCOPED_TRACE(n);
    DynBitset b(n);
    EXPECT_EQ(b.size(), n);
    EXPECT_TRUE(b.none());
    b.setAll();
    EXPECT_EQ(b.count(), n);
    EXPECT_EQ(b.any(), n > 0);
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    EXPECT_EQ(bitsOf(b), all);
    b.resetAll();
    EXPECT_EQ(b.count(), 0u);
    EXPECT_TRUE(bitsOf(b).empty());

    const DynBitset p = patterned(n);
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < n; ++i)
      if (i % 3 == 0 || i + 1 == n) expect.push_back(i);
    EXPECT_EQ(bitsOf(p), expect);
    EXPECT_EQ(p.count(), expect.size());
  }
}

TEST(Bitset, BoundaryResizeBothWays) {
  for (std::size_t from : kBoundarySizes) {
    for (std::size_t to : kBoundarySizes) {
      SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
      DynBitset b = patterned(from);
      b.setAll();
      b.resize(to);
      EXPECT_EQ(b.size(), to);
      // Bits below min(from, to) are kept; new bits start clear, and no
      // slack bit past `to` survives a shrink.
      EXPECT_EQ(b.count(), std::min(from, to));
      for (std::size_t i = 0; i < to; ++i) EXPECT_EQ(b.test(i), i < from);
      // Growing back exposes no stale bit either.
      b.resize(200);
      EXPECT_EQ(b.count(), std::min(from, to));
      b.setAll();
      EXPECT_EQ(b.count(), 200u);
    }
  }
}

TEST(Bitset, BoundaryCopyMoveAssign) {
  for (std::size_t from : kBoundarySizes) {
    for (std::size_t to : kBoundarySizes) {
      SCOPED_TRACE(std::to_string(from) + " into " + std::to_string(to));
      const DynBitset src = patterned(from);

      DynBitset copied(src);
      EXPECT_EQ(copied, src);

      DynBitset assigned = patterned(to);
      assigned = src;
      EXPECT_EQ(assigned, src);
      EXPECT_EQ(bitsOf(assigned), bitsOf(src));

      DynBitset moveSource = src;
      DynBitset moved(std::move(moveSource));
      EXPECT_EQ(moved, src);

      DynBitset moveAssigned = patterned(to);
      DynBitset moveSource2 = src;
      moveAssigned = std::move(moveSource2);
      EXPECT_EQ(moveAssigned, src);

      // A moved-from bitset is empty and reusable.
      EXPECT_EQ(moveSource.size(), 0u);
      moveSource = patterned(to);
      EXPECT_EQ(moveSource, patterned(to));

      // Copies are independent of their source.
      if (from > 0) {
        copied.reset(0);
        EXPECT_TRUE(src.test(0));
      }
    }
  }
  DynBitset self = patterned(200);
  const DynBitset& alias = self;
  self = alias;
  EXPECT_EQ(self, patterned(200));
}

TEST(Bitset, BoundaryEqualityAcrossStorage) {
  for (std::size_t a : kBoundarySizes) {
    for (std::size_t b : kBoundarySizes) {
      SCOPED_TRACE(std::to_string(a) + " vs " + std::to_string(b));
      // Equal only when the sizes match, whichever storage each uses.
      EXPECT_EQ(DynBitset(a) == DynBitset(b), a == b);
      EXPECT_EQ(patterned(a) == patterned(b), a == b);
    }
  }
  // The same bits reached by shrinking a heap set into inline storage
  // and by building inline directly compare equal.
  for (std::size_t n : {std::size_t{1}, std::size_t{64}, std::size_t{127},
                        std::size_t{128}}) {
    DynBitset shrunk = patterned(200);
    shrunk.resize(n);
    DynBitset direct(n);
    for (std::size_t i = 0; i < n; i += 3) direct.set(i);
    EXPECT_EQ(shrunk, direct) << n;
    DynBitset grown = direct;
    grown.resize(129);
    DynBitset heap(129);
    for (std::size_t i = 0; i < n; i += 3) heap.set(i);
    EXPECT_EQ(grown, heap) << n;
  }
}

TEST(Bitset, BoundarySetAlgebra) {
  for (std::size_t n : kBoundarySizes) {
    SCOPED_TRACE(n);
    DynBitset all(n);
    all.setAll();
    DynBitset p = patterned(n);
    DynBitset u = p;
    EXPECT_EQ(u.unionWith(all), p.count() != n);
    EXPECT_EQ(u, all);
    DynBitset i = all;
    i.intersectWith(p);
    EXPECT_EQ(i, p);
    EXPECT_EQ(p.intersects(all), n > 0);
    DynBitset d = all;
    d.subtract(p);
    EXPECT_EQ(d.count(), n - p.count());
    EXPECT_FALSE(d.intersects(p));
  }
}

TEST(Diag, CollectsInOrder) {
  DiagEngine diag;
  diag.warn(DiagCode::UnmatchedLock, {1, 2}, "first");
  diag.error(DiagCode::SyntaxError, {3, 4}, "second");
  ASSERT_EQ(diag.diagnostics().size(), 2u);
  EXPECT_EQ(diag.diagnostics()[0].message, "first");
  EXPECT_TRUE(diag.hasErrors());
  EXPECT_EQ(diag.errorCount(), 1u);
}

TEST(Diag, CountOf) {
  DiagEngine diag;
  diag.warn(DiagCode::PotentialDataRace, {}, "a");
  diag.warn(DiagCode::PotentialDataRace, {}, "b");
  diag.warn(DiagCode::UnmatchedLock, {}, "c");
  EXPECT_EQ(diag.countOf(DiagCode::PotentialDataRace), 2u);
  EXPECT_EQ(diag.countOf(DiagCode::UnmatchedUnlock), 0u);
}

TEST(Diag, Formatting) {
  Diagnostic d{DiagSeverity::Warning, DiagCode::InconsistentLocking,
               {12, 3}, "msg", {}};
  EXPECT_EQ(d.str(), "warning [inconsistent-locking] 12:3: msg");
  Diagnostic noLoc{DiagSeverity::Error, DiagCode::SyntaxError, {}, "bad",
                   {}};
  EXPECT_EQ(noLoc.str(), "error [syntax-error] bad");
}

TEST(Diag, ClearResets) {
  DiagEngine diag;
  diag.error(DiagCode::SyntaxError, {}, "x");
  diag.clear();
  EXPECT_FALSE(diag.hasErrors());
  EXPECT_TRUE(diag.diagnostics().empty());
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  support::ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallelFor(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossJobs) {
  support::ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallelFor(round, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), round);
  }
}

TEST(ThreadPool, SizeOneRunsInline) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  const auto self = std::this_thread::get_id();
  pool.parallelFor(10, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), self);
  });
}

TEST(ThreadPool, ZeroPicksDefaultAndClamps) {
  support::ThreadPool pool(0);
  EXPECT_GE(pool.workers(), 1u);
  EXPECT_LE(pool.workers(), 16u);
  EXPECT_GE(support::ThreadPool::defaultWorkers(), 1u);
}

// The state-caching merge rule the DPOR explorer's dedup relies on
// (VisitedMap's comment): a revisit re-expands exactly what the stored
// visit slept and this one would run, and the stored mask shrinks so
// nothing re-expands twice.
TEST(VisitedMap, InsertOrMergeFollowsTheStateCachingRule) {
  support::VisitedMap visited;
  const support::Hash128 a{0x1234, 0x5678};
  const support::Hash128 b{0x1234, 0x9999};  // same hi, different lo
  constexpr std::uint64_t kSleep1 = 0b0110;  // first visit slept {1, 2}
  constexpr std::uint64_t kSleep2 = 0b1100;  // second visit sleeps {2, 3}
  constexpr std::uint64_t kPmask = 0b1111;

  const auto first = visited.insertOrMerge(a, kSleep1, kPmask);
  EXPECT_TRUE(first.fresh);
  EXPECT_EQ(first.missing, 0u);

  // missing = pmask & stored & ~sleep: action 1, slept before, runs now.
  const auto second = visited.insertOrMerge(a, kSleep2, kPmask);
  EXPECT_FALSE(second.fresh);
  EXPECT_EQ(second.missing, kPmask & kSleep1 & ~kSleep2);
  EXPECT_EQ(second.missing, 0b0010u);

  // The stored mask shrank to stored & sleep = {2}: the same masks again
  // re-expand nothing.
  const auto third = visited.insertOrMerge(a, kSleep2, kPmask);
  EXPECT_FALSE(third.fresh);
  EXPECT_EQ(third.missing, 0u);
  // Only action 2 is still slept in the stored mask.
  EXPECT_EQ(visited.insertOrMerge(a, 0, kPmask).missing, 0b0100u);

  EXPECT_TRUE(visited.insertOrMerge(b, 0, 0).fresh);
  EXPECT_EQ(visited.size(), 2u);
  EXPECT_EQ(visited.approxBytes(), 2u * 2 * sizeof(support::Hash128));
}

TEST(ThreadPool, SubmitRunsEveryTask) {
  support::ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i)
    pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.waitIdle();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, SubmitSizeOneRunsInline) {
  support::ThreadPool pool(1);
  bool ran = false;
  pool.submit([&] { ran = true; });
  // No other thread exists; submit must have run the task already.
  EXPECT_TRUE(ran);
  pool.waitIdle();
}

TEST(ThreadPool, SubmitInterleavesWithParallelFor) {
  support::ThreadPool pool(4);
  std::atomic<int> tasks{0};
  std::atomic<int> indices{0};
  for (int i = 0; i < 16; ++i)
    pool.submit([&] { tasks.fetch_add(1, std::memory_order_relaxed); });
  pool.parallelFor(64, [&](std::size_t) {
    indices.fetch_add(1, std::memory_order_relaxed);
  });
  pool.waitIdle();
  EXPECT_EQ(tasks.load(), 16);
  EXPECT_EQ(indices.load(), 64);
}

TEST(Counter, IncrementsAndReads) {
  support::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.inc(0);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAllLand) {
  support::Counter c;
  support::ThreadPool pool(4);
  pool.parallelFor(1000, [&](std::size_t) { c.inc(); });
  EXPECT_EQ(c.value(), 1000u);
}

TEST(Fingerprint, DeterministicAndContentSensitive) {
  const support::Hash128 a = support::fingerprintBytes("hello");
  EXPECT_EQ(a, support::fingerprintBytes("hello"));
  EXPECT_NE(a, support::fingerprintBytes("hellp"));
  EXPECT_NE(a, support::fingerprintBytes("hello "));
  EXPECT_NE(a, support::fingerprintBytes(""));
}

TEST(Fingerprint, LengthPrefixingSeparatesConcatenations) {
  // "ab"+"c" and "a"+"bc" feed the same bytes; the length prefix must
  // still separate them, or cache keys built from several fields would
  // collide across field boundaries.
  support::Fingerprinter f1;
  f1.mixBytes("ab");
  f1.mixBytes("c");
  support::Fingerprinter f2;
  f2.mixBytes("a");
  f2.mixBytes("bc");
  EXPECT_NE(f1.digest(), f2.digest());
}

TEST(Fingerprint, HexRoundTrip) {
  const support::Hash128 h = support::fingerprintBytes("round trip");
  const std::string hex = support::toHex(h);
  EXPECT_EQ(hex.size(), 32u);
  support::Hash128 back{};
  ASSERT_TRUE(support::fromHex(hex, back));
  EXPECT_EQ(back, h);
  EXPECT_FALSE(support::fromHex("short", back));
  EXPECT_FALSE(support::fromHex(std::string(32, 'g'), back));
  EXPECT_FALSE(support::fromHex(hex + "00", back));
}

}  // namespace
}  // namespace cssame
