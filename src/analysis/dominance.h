// Dominator and post-dominator trees over the PFG's control edges.
//
// The paper (Definition 2) applies dominance exclusively to *control
// paths*; conflict and synchronization edges never participate. Both the
// mutex-body detection (Algorithm A.1) and LICM (Theorem 3) are driven by
// DOM/PDOM queries, so the tree exposes O(1) dominates() via Euler-tour
// intervals, plus dominance frontiers for φ placement. Children and
// frontiers never change after construction and are stored flat.
#pragma once

#include <span>
#include <vector>

#include "src/pfg/graph.h"
#include "src/support/flat_lists.h"
#include "src/support/ids.h"

namespace cssame::analysis {

class Dominators {
 public:
  enum class Direction { Forward, Reverse };

  /// Forward builds the dominator tree rooted at entry; Reverse builds the
  /// post-dominator tree rooted at exit (edges traversed backwards).
  Dominators(const pfg::Graph& graph, Direction dir);

  /// Immediate dominator; invalid for the root and unreachable nodes.
  [[nodiscard]] NodeId idom(NodeId n) const { return idom_[n.index()]; }

  /// Reflexive: dominates(n, n) is true.
  [[nodiscard]] bool dominates(NodeId a, NodeId b) const {
    if (!reachable(a) || !reachable(b)) return false;
    return tin_[a.index()] <= tin_[b.index()] &&
           tout_[b.index()] <= tout_[a.index()];
  }

  [[nodiscard]] bool strictlyDominates(NodeId a, NodeId b) const {
    return a != b && dominates(a, b);
  }

  [[nodiscard]] bool reachable(NodeId n) const {
    return n == root_ || idom_[n.index()].valid();
  }

  [[nodiscard]] NodeId root() const { return root_; }

  /// Children of n in the dominator tree, in node-id order.
  [[nodiscard]] std::span<const NodeId> children(NodeId n) const {
    return children_[n.index()];
  }

  /// Dominance frontier of n (forward direction: used for φ placement;
  /// reverse direction: control dependence).
  [[nodiscard]] std::span<const NodeId> frontier(NodeId n) const {
    return frontier_[n.index()];
  }

  /// Reverse post-order of the traversal used to build the tree
  /// (reachable nodes only).
  [[nodiscard]] const std::vector<NodeId>& order() const { return rpo_; }

 private:
  [[nodiscard]] std::span<const NodeId> predsOf(const pfg::Node& n) const {
    return dir_ == Direction::Forward ? n.preds : n.succs;
  }
  [[nodiscard]] std::span<const NodeId> succsOf(const pfg::Node& n) const {
    return dir_ == Direction::Forward ? n.succs : n.preds;
  }

  void computeFrontiers(const pfg::Graph& graph);

  Direction dir_;
  NodeId root_;
  std::vector<NodeId> idom_;
  FlatLists<NodeId> children_;
  FlatLists<NodeId> frontier_;
  std::vector<NodeId> rpo_;
  std::vector<std::uint32_t> tin_, tout_;  // Euler intervals on the dom tree
};

}  // namespace cssame::analysis
