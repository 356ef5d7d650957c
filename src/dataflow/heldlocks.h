// Held-locks dataflow, as a DenseSolver instance.
//
// A forward may/must analysis of Lock/Unlock effects over the PFG's
// control edges: Lock(L) adds L at the node's out, Unlock(L) removes it.
// May = union over predecessors (some path holds the lock), must =
// intersection (every path does). Unlike the mutex-structure locksets it
// also covers *ill-formed* regions — a lock(L) whose unlock does not
// post-dominate it still holds L in between — which is exactly what the
// lock-lifecycle checks (self-deadlock, lock leak) need.
//
// Lives below the driver layer so driver::Compilation can cache one
// instance per analysis the way it caches access sites; sanalysis
// re-exports the class under its historical name.
#pragma once

#include "src/dataflow/framework.h"
#include "src/support/bitset.h"

namespace cssame::dataflow {

/// The paired may/must lockset lattice solved in one sweep, one bit per
/// symbol: programs with up to DynBitset::kInlineBits symbols keep both
/// sets inline, so the solve makes no per-node allocation.
struct LockPair {
  DynBitset may;   ///< union over paths
  DynBitset must;  ///< intersection over paths

  friend bool operator==(const LockPair& a, const LockPair& b) {
    return a.may == b.may && a.must == b.must;
  }
};

class HeldLocks {
 public:
  explicit HeldLocks(const pfg::Graph& graph, SolverOptions opts = {});

  /// True when some path may hold `lock` as control *enters* the node.
  [[nodiscard]] bool mayHoldOnEntry(NodeId n, SymbolId lock) const {
    return solver_.inOf(n).may.test(lock.index());
  }

  /// True when some control path from `from`'s successors reaches `to`
  /// without executing any Unlock(lock) node — the reachability kernel of
  /// the self-deadlock witness and the lock-leak check.
  [[nodiscard]] bool reachesWithoutUnlock(NodeId from, NodeId to,
                                          SymbolId lock) const;

  [[nodiscard]] const SolveStats& stats() const { return solver_.stats(); }

 private:
  struct Problem {
    using Value = LockPair;
    std::size_t locks = 0;  ///< bitset width (symbol count)

    [[nodiscard]] const char* name() const { return "held-locks"; }
    [[nodiscard]] LockPair boundary() const {
      // Nothing is held at program entry, on any path.
      return {DynBitset(locks), DynBitset(locks)};
    }
    [[nodiscard]] LockPair top(NodeId) const {
      // Optimistic start: may = {} (no path holds anything yet), must =
      // all locks (the identity of intersection).
      LockPair v{DynBitset(locks), DynBitset(locks)};
      v.must.setAll();
      return v;
    }
    void meet(LockPair& into, const LockPair& from) const {
      into.may.unionWith(from.may);
      into.must.intersectWith(from.must);
    }
    [[nodiscard]] LockPair transfer(const pfg::Node& n,
                                    const LockPair& in) const {
      LockPair out = in;
      if (n.kind == pfg::NodeKind::Lock) {
        out.may.set(n.syncStmt->sync.index());
        out.must.set(n.syncStmt->sync.index());
      } else if (n.kind == pfg::NodeKind::Unlock) {
        out.may.reset(n.syncStmt->sync.index());
        out.must.reset(n.syncStmt->sync.index());
      }
      return out;
    }
  };

  const pfg::Graph& graph_;
  DenseSolver<Problem> solver_;
};

}  // namespace cssame::dataflow
