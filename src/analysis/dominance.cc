#include "src/analysis/dominance.h"

#include <cassert>

namespace cssame::analysis {

namespace {
constexpr std::uint32_t kUnvisited = 0xffffffffu;
}

// Cooper–Harvey–Kennedy iterative dominators over reverse post-order.
Dominators::Dominators(const pfg::Graph& graph, Direction dir) : dir_(dir) {
  const std::size_t n = graph.size();
  root_ = dir == Direction::Forward ? graph.entry : graph.exit;
  idom_.assign(n, NodeId{});
  tin_.assign(n, 0);
  tout_.assign(n, 0);

  // Depth-first post-order from the root along succsOf.
  std::vector<std::uint32_t> postIndex(n, kUnvisited);
  std::vector<NodeId> postOrder;
  postOrder.reserve(n);
  {
    std::vector<std::pair<NodeId, std::size_t>> stack;
    std::vector<bool> onStackOrDone(n, false);
    stack.emplace_back(root_, 0);
    onStackOrDone[root_.index()] = true;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const std::span<const NodeId> succs = succsOf(graph.node(node));
      if (next < succs.size()) {
        const NodeId s = succs[next++];
        if (!onStackOrDone[s.index()]) {
          onStackOrDone[s.index()] = true;
          stack.emplace_back(s, 0);
        }
      } else {
        postIndex[node.index()] =
            static_cast<std::uint32_t>(postOrder.size());
        postOrder.push_back(node);
        stack.pop_back();
      }
    }
  }

  rpo_.assign(postOrder.rbegin(), postOrder.rend());

  auto intersect = [&](NodeId a, NodeId b) {
    while (a != b) {
      while (postIndex[a.index()] < postIndex[b.index()])
        a = idom_[a.index()];
      while (postIndex[b.index()] < postIndex[a.index()])
        b = idom_[b.index()];
    }
    return a;
  };

  idom_[root_.index()] = root_;  // temporarily self, cleared below
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId b : rpo_) {
      if (b == root_) continue;
      NodeId newIdom{};
      for (NodeId p : predsOf(graph.node(b))) {
        if (postIndex[p.index()] == kUnvisited) continue;  // unreachable
        if (!idom_[p.index()].valid()) continue;           // not processed yet
        newIdom = newIdom.valid() ? intersect(p, newIdom) : p;
      }
      if (newIdom.valid() && idom_[b.index()] != newIdom) {
        idom_[b.index()] = newIdom;
        changed = true;
      }
    }
  }
  idom_[root_.index()] = NodeId{};  // the root has no idom

  // Children in node-id order: (idom, child) pairs grouped by idom.
  using Link = std::pair<NodeId, NodeId>;
  std::vector<Link> links;
  links.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (idom_[i].valid())
      links.emplace_back(idom_[i], NodeId{static_cast<NodeId::value_type>(i)});
  children_ = FlatLists<NodeId>::group(
      n, std::span<const Link>(links),
      [](const Link& l) { return l.first.index(); },
      [](const Link& l) { return l.second; });

  // Euler intervals for O(1) dominates().
  std::uint32_t timer = 1;
  std::vector<std::pair<NodeId, std::size_t>> stack;
  stack.emplace_back(root_, 0);
  tin_[root_.index()] = timer++;
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    const std::span<const NodeId> kids = children_[node.index()];
    if (next < kids.size()) {
      const NodeId k = kids[next++];
      tin_[k.index()] = timer++;
      stack.emplace_back(k, 0);
    } else {
      tout_[node.index()] = timer++;
      stack.pop_back();
    }
  }

  computeFrontiers(graph);
}

void Dominators::computeFrontiers(const pfg::Graph& graph) {
  // Cytron et al.'s two-pass formulation, using the CHK "walk up from each
  // join predecessor" variant. Every (runner, b) pair is recorded in
  // discovery order and then grouped by runner, so each frontier lists
  // its nodes in the order they were found. A join b is only ever added
  // while b itself is processed, so remembering the last join added to
  // each runner is enough to skip duplicates.
  using Link = std::pair<NodeId, NodeId>;
  std::vector<Link> links;
  std::vector<NodeId> lastJoin(graph.size());
  for (NodeId b : rpo_) {
    const std::span<const NodeId> preds = predsOf(graph.node(b));
    if (preds.size() < 2) continue;
    for (NodeId p : preds) {
      if (!reachable(p)) continue;
      NodeId runner = p;
      while (runner.valid() && runner != idom_[b.index()]) {
        if (lastJoin[runner.index()] != b) {
          lastJoin[runner.index()] = b;
          links.emplace_back(runner, b);
        }
        runner = idom_[runner.index()];
      }
    }
  }
  frontier_ = FlatLists<NodeId>::group(
      graph.size(), std::span<const Link>(links),
      [](const Link& l) { return l.first.index(); },
      [](const Link& l) { return l.second; });
}

}  // namespace cssame::analysis
