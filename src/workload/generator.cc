#include "src/workload/generator.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "src/ir/builder.h"

namespace cssame::workload {

namespace {

using ir::BinOp;
using ir::ProgramBuilder;

int clampInt(int v, int lo, int hi) { return std::clamp(v, lo, hi); }

double clampProb(double p) {
  if (std::isnan(p)) return 0.0;
  return std::clamp(p, 0.0, 1.0);
}

class RandomGen {
 public:
  explicit RandomGen(const GeneratorConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {}

  ir::Program run() {
    // Shared variables, each protected by locks[i % locks].
    for (int i = 0; i < cfg_.sharedVars; ++i)
      shared_.push_back(b_.var("s" + std::to_string(i)));
    // The shared array (arrayProb > 0 only — declaring it for scalar
    // configurations would shift every later symbol id).
    if (cfg_.arrayProb > 0) arr_ = b_.arrayVar("arr", kArraySize);
    for (int i = 0; i < cfg_.locks; ++i)
      locks_.push_back(b_.lock("L" + std::to_string(i)));
    if (cfg_.useEvents)
      for (int i = 0; i + 1 < cfg_.threads; ++i)
        events_.push_back(b_.event("e" + std::to_string(i)));

    // Initialize a few shared variables.
    for (std::size_t i = 0; i < shared_.size(); ++i)
      if (chance(0.5)) b_.assign(shared_[i], b_.lit(intIn(0, 9)));

    std::vector<ProgramBuilder::BodyFn> threads;
    for (int t = 0; t < cfg_.threads; ++t)
      threads.push_back([this, t] { thread(t); });
    b_.cobegin(threads);

    for (SymbolId v : shared_) b_.print(b_.ref(v));
    if (arr_.valid())
      for (std::uint32_t i = 0; i < kArraySize; ++i)
        b_.print(b_.index(arr_, b_.lit(i)));
    return b_.take();
  }

 private:
  [[nodiscard]] bool chance(double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < p;
  }
  [[nodiscard]] long long intIn(long long lo, long long hi) {
    return std::uniform_int_distribution<long long>(lo, hi)(rng_);
  }
  [[nodiscard]] SymbolId pickShared() {
    return shared_[static_cast<std::size_t>(
        intIn(0, static_cast<long long>(shared_.size()) - 1))];
  }
  [[nodiscard]] SymbolId lockOf(SymbolId var) {
    // Deterministic var → lock mapping keeps locking consistent.
    return locks_[var.index() % locks_.size()];
  }

  void thread(int t) {
    const SymbolId acc = b_.privateVar("p" + std::to_string(t));
    b_.assign(acc, b_.lit(t + 1));
    if (cfg_.ptrProb > 0) {
      // Per-thread pointer, initially targeting a random shared scalar.
      threadPtr_ = b_.privateVar("q" + std::to_string(t));
      b_.assign(threadPtr_, b_.addrOf(pickShared()));
    }
    emitStmts(t, acc, cfg_.stmtsPerThread, cfg_.maxDepth);
    if (cfg_.useEvents && !events_.empty()) {
      // A simple ordering chain: thread t posts e_t, waits for e_{t-1}.
      if (static_cast<std::size_t>(t) < events_.size())
        b_.setStmt(events_[static_cast<std::size_t>(t)]);
      if (t > 0 && static_cast<std::size_t>(t - 1) < events_.size() &&
          chance(0.5))
        b_.waitStmt(events_[static_cast<std::size_t>(t - 1)]);
    }
  }

  /// A commutative locked update: lock; s op= f(private); unlock. In
  /// determinate mode this is the only way threads touch shared state.
  void lockedUpdate(SymbolId acc) {
    const SymbolId v = pickShared();
    const SymbolId l = lockOf(v);
    b_.lockStmt(l);
    const int updates = static_cast<int>(intIn(1, 3));
    for (int i = 0; i < updates; ++i) {
      // v = v + (acc % k + c): additive and independent of interleaving.
      b_.assign(v, b_.add(b_.ref(v),
                          b_.add(b_.bin(BinOp::Mod, b_.ref(acc),
                                        b_.lit(intIn(2, 7))),
                                 b_.lit(intIn(0, 5)))));
    }
    b_.unlockStmt(l);
  }

  void unlockedUpdate(SymbolId acc) {
    const SymbolId v = pickShared();
    b_.assign(v, b_.add(b_.ref(v), b_.ref(acc)));
  }

  /// A sequentially consistent atomic access: half stores, half loads.
  void atomicUpdate(SymbolId acc) {
    const SymbolId v = pickShared();
    if (chance(0.5))
      b_.atomicStore(v, b_.add(b_.ref(acc), b_.lit(intIn(0, 9))));
    else
      b_.atomicLoad(acc, v);
  }

  /// A locked update through the thread's pointer: retarget `q` to a
  /// shared scalar, then `*q = *q + f(private)` under that scalar's lock.
  /// The pointer target is fixed at generation time and the update is
  /// additive, so determinate mode stays interleaving-independent.
  void pointerUpdate(SymbolId acc) {
    const SymbolId v = pickShared();
    const SymbolId l = lockOf(v);
    b_.assign(threadPtr_, b_.addrOf(v));
    b_.lockStmt(l);
    b_.assignDeref(b_.ref(threadPtr_),
                   b_.add(b_.deref(b_.ref(threadPtr_)),
                          b_.bin(BinOp::Mod, b_.ref(acc),
                                 b_.lit(intIn(2, 7)))));
    b_.unlockStmt(l);
  }

  /// A locked commutative array-cell update; the cell index depends only
  /// on thread-private state, so the per-thread (cell, delta) sequence —
  /// and hence the final sums — is interleaving-independent.
  void arrayUpdate(SymbolId acc) {
    const SymbolId l = lockOf(arr_);
    const long long delta = intIn(1, 9);
    b_.lockStmt(l);
    b_.assignIndex(
        arr_, b_.bin(BinOp::Mod, b_.ref(acc), b_.lit(kArraySize)),
        b_.add(b_.index(arr_, b_.bin(BinOp::Mod, b_.ref(acc),
                                     b_.lit(kArraySize))),
               b_.lit(delta)));
    b_.unlockStmt(l);
  }

  void privateWork(SymbolId acc) {
    b_.assign(acc, b_.add(b_.mul(b_.ref(acc), b_.lit(intIn(2, 5))),
                          b_.lit(intIn(1, 9))));
  }

  void emitStmts(int t, SymbolId acc, int budget, int depth) {
    while (budget > 0) {
      // Short-circuit on the probability so a zero setting draws nothing
      // from the RNG — pre-TSO seeds stay byte-identical.
      if (cfg_.fenceProb > 0 && chance(cfg_.fenceProb)) {
        b_.fence();
        budget -= 1;
        continue;
      }
      if (cfg_.ptrProb > 0 && chance(cfg_.ptrProb)) {
        pointerUpdate(acc);
        budget -= 4;
        continue;
      }
      if (cfg_.arrayProb > 0 && chance(cfg_.arrayProb)) {
        arrayUpdate(acc);
        budget -= 3;
        continue;
      }
      if (depth > 0 && chance(cfg_.branchProb)) {
        const int inner = std::min(budget, static_cast<int>(intIn(1, 4)));
        b_.if_(b_.bin(BinOp::Gt,
                      b_.bin(BinOp::Mod, b_.ref(acc), b_.lit(3)), b_.lit(0)),
               [&] { emitStmts(t, acc, inner, depth - 1); },
               [&] { privateWork(acc); });
        budget -= inner + 1;
        continue;
      }
      if (depth > 0 && chance(cfg_.loopProb)) {
        const SymbolId i = b_.privateVar("i" + std::to_string(t) + "_" +
                                         std::to_string(loopCounter_++));
        const int inner = std::min(budget, static_cast<int>(intIn(1, 3)));
        b_.assign(i, b_.lit(0));
        b_.while_(b_.lt(b_.ref(i), b_.lit(intIn(2, 4))), [&] {
          emitStmts(t, acc, inner, depth - 1);
          b_.assign(i, b_.add(b_.ref(i), b_.lit(1)));
        });
        budget -= inner + 2;
        continue;
      }
      if (chance(cfg_.lockedFraction)) {
        lockedUpdate(acc);
        budget -= 3;
      } else if (cfg_.determinate) {
        privateWork(acc);
        budget -= 1;
      } else {
        if (cfg_.atomicFraction > 0 && chance(cfg_.atomicFraction))
          atomicUpdate(acc);
        else
          unlockedUpdate(acc);
        budget -= 1;
      }
    }
  }

  static constexpr std::uint32_t kArraySize = 8;

  GeneratorConfig cfg_;
  std::mt19937_64 rng_;
  ProgramBuilder b_;
  std::vector<SymbolId> shared_;
  std::vector<SymbolId> locks_;
  std::vector<SymbolId> events_;
  SymbolId arr_;        ///< shared array (arrayProb > 0 only)
  SymbolId threadPtr_;  ///< current thread's pointer (ptrProb > 0 only)
  int loopCounter_ = 0;
};

}  // namespace

GeneratorConfig GeneratorConfig::sanitized() const {
  GeneratorConfig cfg = *this;
  cfg.threads = clampInt(cfg.threads, 1, 256);
  cfg.sharedVars = clampInt(cfg.sharedVars, 1, 4096);
  cfg.locks = clampInt(cfg.locks, 1, 1024);
  cfg.stmtsPerThread = clampInt(cfg.stmtsPerThread, 0, 1 << 16);
  cfg.maxDepth = clampInt(cfg.maxDepth, 0, 16);
  cfg.branchProb = clampProb(cfg.branchProb);
  cfg.loopProb = clampProb(cfg.loopProb);
  cfg.lockedFraction = clampProb(cfg.lockedFraction);
  cfg.fenceProb = clampProb(cfg.fenceProb);
  cfg.atomicFraction = clampProb(cfg.atomicFraction);
  cfg.ptrProb = clampProb(cfg.ptrProb);
  cfg.arrayProb = clampProb(cfg.arrayProb);
  return cfg;
}

ir::Program generateRandom(const GeneratorConfig& config) {
  return RandomGen(config.sanitized()).run();
}

ir::Program makeLockStructured(int threads, int regions, int stmtsPerRegion,
                               double lockedFraction, std::uint64_t seed) {
  threads = clampInt(threads, 1, 256);
  regions = clampInt(regions, 0, 1 << 12);
  stmtsPerRegion = clampInt(stmtsPerRegion, 0, 1 << 12);
  lockedFraction = clampProb(lockedFraction);
  std::mt19937_64 rng(seed);
  auto chance = [&](double p) {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng) < p;
  };
  auto intIn = [&](long long lo, long long hi) {
    return std::uniform_int_distribution<long long>(lo, hi)(rng);
  };

  ProgramBuilder b;
  const SymbolId L = b.lock("L");
  std::vector<SymbolId> shared;
  for (int v = 0; v < threads + 2; ++v)
    shared.push_back(b.var("v" + std::to_string(v)));
  for (SymbolId v : shared) b.assign(v, b.lit(intIn(0, 9)));

  std::vector<ProgramBuilder::BodyFn> bodies;
  for (int t = 0; t < threads; ++t) {
    bodies.push_back([&, t] {
      const SymbolId p = b.privateVar("p" + std::to_string(t));
      b.assign(p, b.lit(t));
      for (int r = 0; r < regions; ++r) {
        // Each region starts by killing its region variable, making later
        // uses in the region non-upward-exposed (CSSAME's Theorem 2).
        const SymbolId rv = shared[static_cast<std::size_t>(
            intIn(0, static_cast<long long>(shared.size()) - 1))];
        b.lockStmt(L);
        b.assign(rv, b.lit(intIn(0, 99)));
        for (int s = 0; s < stmtsPerRegion; ++s) {
          if (chance(lockedFraction)) {
            b.assign(rv, b.add(b.ref(rv), b.ref(p)));
          } else {
            b.assign(p, b.add(b.ref(p), b.lit(1)));
          }
        }
        b.unlockStmt(L);
        // Unlocked shared access between regions (conflicting).
        if (!chance(lockedFraction))
          b.assign(rv, b.add(b.ref(rv), b.lit(1)));
      }
    });
  }
  b.cobegin(bodies);
  for (SymbolId v : shared) b.print(b.ref(v));
  return b.take();
}

ir::Program makeBank(int accounts, int threads, int opsPerThread,
                     std::uint64_t seed) {
  accounts = clampInt(accounts, 1, 1 << 12);
  threads = clampInt(threads, 1, 256);
  opsPerThread = clampInt(opsPerThread, 0, 1 << 12);
  std::mt19937_64 rng(seed);
  auto intIn = [&](long long lo, long long hi) {
    return std::uniform_int_distribution<long long>(lo, hi)(rng);
  };

  ProgramBuilder b;
  const SymbolId bankLock = b.lock("bank");
  const SymbolId feeRate = b.func("fee_rate");
  std::vector<SymbolId> accts;
  for (int a = 0; a < accounts; ++a)
    accts.push_back(b.var("acct" + std::to_string(a)));
  for (SymbolId a : accts) b.assign(a, b.lit(100));

  std::vector<ProgramBuilder::BodyFn> tellers;
  for (int t = 0; t < threads; ++t) {
    tellers.push_back([&, t] {
      // Per-teller bookkeeping: private, hence lock independent. The
      // rate comes from an opaque call so constant propagation cannot
      // fold the bookkeeping away before LICM gets to move it.
      const SymbolId rate = b.privateVar("rate" + std::to_string(t));
      const SymbolId count = b.privateVar("count" + std::to_string(t));
      const SymbolId volume = b.privateVar("volume" + std::to_string(t));
      b.assign(rate, b.call(feeRate, b.lit(t)));
      b.assign(count, b.lit(0));
      b.assign(volume, b.lit(0));
      for (int op = 0; op < opsPerThread; ++op) {
        const SymbolId acct = accts[static_cast<std::size_t>(
            intIn(0, static_cast<long long>(accts.size()) - 1))];
        const long long amount = intIn(1, 50);
        b.lockStmt(bankLock);
        b.assign(acct, b.add(b.ref(acct), b.lit(amount)));
        // Bookkeeping needlessly inside the critical section — exactly
        // the lock independent code LICM is designed to evict.
        b.assign(count, b.add(b.ref(count), b.lit(1)));
        b.assign(volume, b.add(b.ref(volume),
                               b.mul(b.lit(amount), b.ref(rate))));
        b.unlockStmt(bankLock);
      }
      b.print(b.ref(count));
      b.print(b.ref(volume));
    });
  }
  b.cobegin(tellers);
  for (SymbolId a : accts) b.print(b.ref(a));
  return b.take();
}

std::string lockRegionSource(int threads, int regions) {
  std::string s = "int x = 3, z = 5;\nlock L;\nlock M;\ncobegin {\n";
  for (int t = 0; t < threads; ++t) {
    s += "  thread T" + std::to_string(t) + " {\n";
    for (int k = 0; k < regions; ++k)
      s += "    lock(L); x = x + " + std::to_string((t * 31 + k) % 97 + 1) +
           "; unlock(L); lock(M); z = z + 1; unlock(M);\n";
    s += "  }\n";
  }
  return s + "}\nprint(x);\nprint(z);\n";
}

}  // namespace cssame::workload
