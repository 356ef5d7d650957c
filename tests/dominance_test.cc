// Unit tests for dominators, post-dominators and dominance frontiers on
// the PFG (paper Definition 2: dominance over control paths only).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "src/analysis/dominance.h"
#include "src/parser/parser.h"
#include "src/pfg/build.h"

namespace cssame::analysis {
namespace {

using pfg::Graph;
using pfg::NodeKind;

struct Fixture {
  ir::Program prog;
  Graph graph;
  Dominators dom;
  Dominators pdom;

  explicit Fixture(const char* src)
      : prog(parser::parseOrDie(src)),
        graph(pfg::buildPfg(prog)),
        dom(graph, Dominators::Direction::Forward),
        pdom(graph, Dominators::Direction::Reverse) {}

  NodeId nodeWithConst(long long v) {
    for (const pfg::Node& n : graph.nodes())
      for (const ir::Stmt* s : n.stmts)
        if (s->kind == ir::StmtKind::Assign &&
            s->expr->kind == ir::ExprKind::IntConst && s->expr->intValue == v)
          return n.id;
    ADD_FAILURE() << "no node assigning constant " << v;
    return NodeId{};
  }
};

TEST(Dominators, EntryDominatesEverything) {
  Fixture f("int a; if (a > 0) { a = 1; } else { a = 2; } a = 3;");
  for (const pfg::Node& n : f.graph.nodes()) {
    if (!f.dom.reachable(n.id)) continue;
    EXPECT_TRUE(f.dom.dominates(f.graph.entry, n.id));
  }
}

TEST(Dominators, ExitPostDominatesEverything) {
  Fixture f("int a; while (a < 3) { a = a + 1; } print(a);");
  for (const pfg::Node& n : f.graph.nodes()) {
    if (!f.pdom.reachable(n.id)) continue;
    EXPECT_TRUE(f.pdom.dominates(f.graph.exit, n.id));
  }
}

TEST(Dominators, DiamondBranchesDoNotDominateJoin) {
  Fixture f("int a; if (a > 0) { a = 1; } else { a = 2; } a = 3;");
  const NodeId thenNode = f.nodeWithConst(1);
  const NodeId elseNode = f.nodeWithConst(2);
  const NodeId join = f.nodeWithConst(3);
  EXPECT_FALSE(f.dom.dominates(thenNode, join));
  EXPECT_FALSE(f.dom.dominates(elseNode, join));
  EXPECT_FALSE(f.dom.dominates(thenNode, elseNode));
  // The join post-dominates both branches.
  EXPECT_TRUE(f.pdom.dominates(join, thenNode));
  EXPECT_TRUE(f.pdom.dominates(join, elseNode));
}

TEST(Dominators, ReflexiveAndStrict) {
  Fixture f("int a; a = 1;");
  const NodeId n = f.nodeWithConst(1);
  EXPECT_TRUE(f.dom.dominates(n, n));
  EXPECT_FALSE(f.dom.strictlyDominates(n, n));
  EXPECT_TRUE(f.dom.strictlyDominates(f.graph.entry, n));
}

TEST(Dominators, IdomChainReachesRoot) {
  Fixture f(
      "int a; if (a > 0) { if (a > 1) { a = 1; } } while (a < 9) { a = a + 2; }");
  for (const pfg::Node& n : f.graph.nodes()) {
    if (!f.dom.reachable(n.id) || n.id == f.graph.entry) continue;
    // Walk up the idom chain; it must terminate at the entry.
    NodeId cur = n.id;
    int steps = 0;
    while (cur != f.graph.entry) {
      cur = f.dom.idom(cur);
      ASSERT_TRUE(cur.valid());
      ASSERT_LT(++steps, 1000);
    }
  }
}

TEST(Dominators, LoopHeaderDominatesBody) {
  Fixture f("int a; while (a < 5) { a = 1; } print(a);");
  const NodeId body = f.nodeWithConst(1);
  NodeId header;
  for (const pfg::Node& n : f.graph.nodes())
    if (n.terminator != nullptr) header = n.id;
  // The increment is inside the body: a = a + 1 has IntConst operand 1.
  ASSERT_TRUE(header.valid());
  EXPECT_TRUE(f.dom.dominates(header, body));
  EXPECT_FALSE(f.dom.dominates(body, header));
}

TEST(Dominators, FrontierOfBranchArmsIsJoin) {
  Fixture f("int a; if (a > 0) { a = 1; } else { a = 2; } a = 3;");
  const NodeId thenNode = f.nodeWithConst(1);
  const NodeId join = f.nodeWithConst(3);
  const std::span<const NodeId> frontier = f.dom.frontier(thenNode);
  EXPECT_NE(std::find(frontier.begin(), frontier.end(), join), frontier.end());
}

TEST(Dominators, LoopBodyFrontierContainsHeader) {
  Fixture f("int a; while (a < 5) { a = 1; } print(a);");
  const NodeId body = f.nodeWithConst(1);
  NodeId header;
  for (const pfg::Node& n : f.graph.nodes())
    if (n.terminator != nullptr) header = n.id;
  const std::span<const NodeId> frontier = f.dom.frontier(body);
  EXPECT_NE(std::find(frontier.begin(), frontier.end(), header),
            frontier.end());
}

TEST(Dominators, CobeginThreadsMutuallyUndominated) {
  Fixture f(R"(
    int a;
    cobegin {
      thread { a = 1; }
      thread { a = 2; }
    }
    a = 3;
  )");
  const NodeId t0 = f.nodeWithConst(1);
  const NodeId t1 = f.nodeWithConst(2);
  const NodeId after = f.nodeWithConst(3);
  EXPECT_FALSE(f.dom.dominates(t0, t1));
  EXPECT_FALSE(f.dom.dominates(t1, t0));
  EXPECT_FALSE(f.dom.dominates(t0, after));  // other thread path avoids t0
  // The coend (and hence the code after it) post-dominates both threads.
  EXPECT_TRUE(f.pdom.dominates(after, t0));
  EXPECT_TRUE(f.pdom.dominates(after, t1));
}

TEST(Dominators, RpoOrderStartsAtRoot) {
  Fixture f("int a; a = 1; if (a > 0) { a = 2; }");
  ASSERT_FALSE(f.dom.order().empty());
  EXPECT_EQ(f.dom.order().front(), f.graph.entry);
  ASSERT_FALSE(f.pdom.order().empty());
  EXPECT_EQ(f.pdom.order().front(), f.graph.exit);
}

TEST(Dominators, ChildrenConsistentWithIdom) {
  Fixture f("int a; if (a) { a = 1; } else { a = 2; } while (a) { a = 3; }");
  for (const pfg::Node& n : f.graph.nodes()) {
    for (NodeId c : f.dom.children(n.id)) EXPECT_EQ(f.dom.idom(c), n.id);
  }
}

}  // namespace
}  // namespace cssame::analysis
