// Forward reachability over the PFG's control edges.
//
// A dataflow problem whose facts are generated and killed one at a time,
// under a union meet, needs no solver: a fact holds on entry to exactly
// the nodes a walk from the nodes generating it enters without passing a
// node that kills it. The lock-lifecycle checks ask that question of
// every lock ("may L still be held here?": generated at Lock(L), killed
// at Unlock(L)), and the TSO check of every plain shared store ("may it
// still sit in the store buffer here?": killed by any node that drains
// the buffer). Both answers are walks from the generating nodes, so they
// also cover nodes unreachable from the entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "src/pfg/graph.h"
#include "src/support/bitset.h"

namespace cssame::dataflow {

/// Walks control edges of one graph, any number of times. Each walk marks
/// the nodes it enters with its own number, so starting one costs O(1)
/// and many small walks cost their own size, not the graph's.
class Walker {
 public:
  explicit Walker(const pfg::Graph& graph)
      : graph_(graph), mark_(graph.size(), 0) {}

  /// Enters the successors of every source, then the successors of every
  /// entered node `pass` accepts, calling `enter(id)` once per entered
  /// node. A source is entered only when the walk reaches it again. Stops
  /// early once `target`, when valid, is entered.
  template <typename Pass, typename Enter>
  void walk(std::span<const NodeId> sources, const Pass& pass,
            const Enter& enter, NodeId target = {}) {
    if (++walk_ == 0) {  // the numbers wrapped: forget every old mark
      std::fill(mark_.begin(), mark_.end(), 0);
      walk_ = 1;
    }
    const auto enterSuccs = [&](NodeId from) {
      for (NodeId s : graph_.node(from).succs) {
        if (mark_[s.index()] != walk_) {
          mark_[s.index()] = walk_;
          enter(s);
          work_.push_back(s);
        }
      }
    };
    for (NodeId s : sources) enterSuccs(s);
    while (!work_.empty()) {
      if (target.valid() && mark_[target.index()] == walk_) {
        work_.clear();
        break;
      }
      const NodeId cur = work_.back();
      work_.pop_back();
      if (pass(graph_.node(cur))) enterSuccs(cur);
    }
  }

  /// True when the walk from `from` enters `to`.
  template <typename Pass>
  [[nodiscard]] bool reaches(NodeId from, NodeId to, const Pass& pass) {
    walk({&from, 1}, pass, [](NodeId) {}, to);
    return mark_[to.index()] == walk_;
  }

 private:
  const pfg::Graph& graph_;
  std::vector<std::uint32_t> mark_;  ///< number of the last walk entering
  std::uint32_t walk_ = 0;
  std::vector<NodeId> work_;
};

/// The walk predicate of `lock`: every node but an Unlock(lock) keeps it
/// held.
[[nodiscard]] inline auto keepsHeld(SymbolId lock) {
  return [lock](const pfg::Node& n) {
    return n.kind != pfg::NodeKind::Unlock || n.syncStmt->sync != lock;
  };
}

/// The locks that may be held as control enters each node, indexed by
/// lock symbol: the nodes one walk from all of the lock's Lock nodes
/// enters while keepsHeld(lock). Unlike the mutex structures' locksets
/// this covers ill-formed regions too, as the self-deadlock and lock-leak
/// checks need. Empty for a symbol no Lock node acquires.
[[nodiscard]] std::vector<DynBitset> heldLocksOnEntry(const pfg::Graph& graph);

/// The plain shared stores that may still sit in the issuing thread's
/// store buffer as control enters each node, indexed by node, ascending by
/// statement id: the static abstraction of interp::Machine's per-thread
/// storeBuf under MemoryModel::TSO. A store is generated unless a later
/// atomic assignment of its block drains it, and the walk from its block
/// passes only blocks without atomic assignments: every other node drains
/// the buffer. Fences and atomics wait for it to empty (x86-TSO gives
/// lock, unlock, set, wait and barrier the same locked-operation
/// semantics), and entry, fork and join points start or end threads,
/// whose buffers are empty by construction.
[[nodiscard]] std::vector<std::vector<StmtId>> pendingStoresOnEntry(
    const pfg::Graph& graph);

}  // namespace cssame::dataflow
