// Brute-force validation of the dominator machinery: on randomly
// generated programs, dominates(a, b) computed by the iterative algorithm
// must agree with the definition — a dominates b iff removing a makes b
// unreachable from the root. Same for post-dominators on the reverse
// graph, and frontier membership is checked against its definition.
#include <gtest/gtest.h>

#include <set>
#include <span>

#include "src/analysis/dominance.h"
#include "src/pfg/build.h"
#include "src/workload/generator.h"

namespace cssame::analysis {
namespace {

/// Reachability from `root` along succ/pred edges, skipping `removed`.
std::vector<bool> reachAvoiding(const pfg::Graph& g, NodeId root,
                                NodeId removed, bool forward) {
  std::vector<bool> seen(g.size(), false);
  if (root == removed) return seen;
  std::vector<NodeId> work{root};
  seen[root.index()] = true;
  while (!work.empty()) {
    const NodeId cur = work.back();
    work.pop_back();
    const std::span<const NodeId> next =
        forward ? g.node(cur).succs : g.node(cur).preds;
    for (NodeId n : next) {
      if (n == removed || seen[n.index()]) continue;
      seen[n.index()] = true;
      work.push_back(n);
    }
  }
  return seen;
}

class DominanceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DominanceProperty, MatchesBruteForceDefinition) {
  workload::GeneratorConfig cfg;
  cfg.seed = GetParam();
  cfg.threads = 2 + static_cast<int>(GetParam() % 3);
  cfg.stmtsPerThread = 10;
  cfg.branchProb = 0.35;
  cfg.loopProb = 0.25;
  ir::Program prog = workload::generateRandom(cfg);
  pfg::Graph g = pfg::buildPfg(prog);
  Dominators dom(g, Dominators::Direction::Forward);
  Dominators pdom(g, Dominators::Direction::Reverse);

  // Baseline reachability (nothing removed) to restrict to live nodes.
  const std::vector<bool> reachable =
      reachAvoiding(g, g.entry, NodeId{0xfffffffeu}, true);

  for (const pfg::Node& a : g.nodes()) {
    if (!reachable[a.id.index()]) continue;
    // Removing a: which nodes become unreachable? Exactly the ones a
    // strictly dominates (plus a itself).
    const std::vector<bool> without =
        reachAvoiding(g, g.entry, a.id, true);
    for (const pfg::Node& b : g.nodes()) {
      if (!reachable[b.id.index()]) continue;
      const bool brute = a.id == b.id || !without[b.id.index()];
      EXPECT_EQ(dom.dominates(a.id, b.id), brute)
          << "dom #" << a.id.value() << " vs #" << b.id.value()
          << " seed " << GetParam();
    }
  }

  // Post-dominance: same definition on the reverse graph.
  for (const pfg::Node& a : g.nodes()) {
    if (!reachable[a.id.index()]) continue;
    const std::vector<bool> without =
        reachAvoiding(g, g.exit, a.id, false);
    for (const pfg::Node& b : g.nodes()) {
      if (!reachable[b.id.index()]) continue;
      const bool brute = a.id == b.id || !without[b.id.index()];
      EXPECT_EQ(pdom.dominates(a.id, b.id), brute)
          << "pdom #" << a.id.value() << " vs #" << b.id.value()
          << " seed " << GetParam();
    }
  }
}

TEST_P(DominanceProperty, FrontierDefinition) {
  // y ∈ DF(x) iff x dominates some predecessor of y but does not
  // strictly dominate y.
  workload::GeneratorConfig cfg;
  cfg.seed = GetParam() + 1000;
  cfg.threads = 2;
  cfg.stmtsPerThread = 12;
  cfg.branchProb = 0.4;
  cfg.loopProb = 0.3;
  ir::Program prog = workload::generateRandom(cfg);
  pfg::Graph g = pfg::buildPfg(prog);
  Dominators dom(g, Dominators::Direction::Forward);

  for (const pfg::Node& x : g.nodes()) {
    if (!dom.reachable(x.id)) continue;
    std::set<NodeId> expected;
    for (const pfg::Node& y : g.nodes()) {
      if (!dom.reachable(y.id)) continue;
      bool domsAPred = false;
      for (NodeId p : y.preds)
        if (dom.reachable(p) && dom.dominates(x.id, p)) domsAPred = true;
      if (domsAPred && !dom.strictlyDominates(x.id, y.id))
        expected.insert(y.id);
    }
    const std::span<const NodeId> frontier = dom.frontier(x.id);
    std::set<NodeId> actual(frontier.begin(), frontier.end());
    EXPECT_EQ(actual, expected) << "node #" << x.id.value();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominanceProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cssame::analysis
