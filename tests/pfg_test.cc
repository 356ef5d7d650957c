// Unit tests for Parallel Flow Graph construction (paper Definition 1):
// block formation, dedicated lock/unlock nodes, branch successor order,
// fork/join shape, thread paths and the DOT export.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/analysis/concurrency.h"
#include "src/parser/parser.h"
#include "src/pfg/build.h"
#include "src/pfg/dot.h"
#include "src/pfg/verify.h"

namespace cssame::pfg {
namespace {

std::size_t countKind(const Graph& g, NodeKind k) {
  std::size_t n = 0;
  for (const Node& node : g.nodes()) n += node.kind == k;
  return n;
}

TEST(PfgBuild, StraightLineIsOneBlock) {
  ir::Program p = parser::parseOrDie("int a; a = 1; a = 2; a = a + 1;");
  Graph g = buildPfg(p);
  EXPECT_EQ(countKind(g, NodeKind::Entry), 1u);
  EXPECT_EQ(countKind(g, NodeKind::Exit), 1u);
  // entry -> block(3 stmts) -> exit
  bool found = false;
  for (const Node& n : g.nodes())
    if (n.kind == NodeKind::Block && n.stmts.size() == 3) found = true;
  EXPECT_TRUE(found);
}

TEST(PfgBuild, LockUnlockGetOwnNodes) {
  // Definition 1.3: Lock and Unlock are represented by their own nodes.
  ir::Program p =
      parser::parseOrDie("int a; lock L; a = 1; lock(L); a = 2; unlock(L); a = 3;");
  Graph g = buildPfg(p);
  EXPECT_EQ(countKind(g, NodeKind::Lock), 1u);
  EXPECT_EQ(countKind(g, NodeKind::Unlock), 1u);
  // The lock splits the statements into separate blocks.
  for (const Node& n : g.nodes()) {
    if (n.kind != NodeKind::Block) continue;
    for (const ir::Stmt* s : n.stmts) {
      EXPECT_NE(s->kind, ir::StmtKind::Lock);
      EXPECT_NE(s->kind, ir::StmtKind::Unlock);
    }
  }
}

TEST(PfgBuild, IfBranchSuccessorOrder) {
  ir::Program p = parser::parseOrDie(
      "int a; if (a > 0) { a = 1; } else { a = 2; } a = 3;");
  Graph g = buildPfg(p);
  const Node* branch = nullptr;
  for (const Node& n : g.nodes())
    if (n.terminator != nullptr) branch = &n;
  ASSERT_NE(branch, nullptr);
  ASSERT_EQ(branch->succs.size(), 2u);
  // succs[0] = then entry; its block contains a = 1.
  const Node& thenEntry = g.node(branch->succs[0]);
  ASSERT_FALSE(thenEntry.stmts.empty());
  EXPECT_EQ(thenEntry.stmts[0]->expr->intValue, 1);
  const Node& elseEntry = g.node(branch->succs[1]);
  ASSERT_FALSE(elseEntry.stmts.empty());
  EXPECT_EQ(elseEntry.stmts[0]->expr->intValue, 2);
}

TEST(PfgBuild, IfWithoutElseFallsThrough) {
  ir::Program p = parser::parseOrDie("int a; if (a > 0) { a = 1; } a = 3;");
  Graph g = buildPfg(p);
  const Node* branch = nullptr;
  for (const Node& n : g.nodes())
    if (n.terminator != nullptr) branch = &n;
  ASSERT_NE(branch, nullptr);
  ASSERT_EQ(branch->succs.size(), 2u);
  // succs[1] goes straight to the join.
  const Node& join = g.node(branch->succs[1]);
  EXPECT_TRUE(join.kind == NodeKind::Block);
}

TEST(PfgBuild, WhileLoopShape) {
  ir::Program p =
      parser::parseOrDie("int a; while (a < 5) { a = a + 1; } print(a);");
  Graph g = buildPfg(p);
  const Node* header = nullptr;
  for (const Node& n : g.nodes())
    if (n.terminator != nullptr && n.terminator->kind == ir::StmtKind::While)
      header = &n;
  ASSERT_NE(header, nullptr);
  ASSERT_EQ(header->succs.size(), 2u);
  // Body must loop back to the header.
  const NodeId bodyEntry = header->succs[0];
  bool loopsBack = false;
  std::vector<NodeId> work{bodyEntry};
  std::vector<bool> seen(g.size(), false);
  while (!work.empty()) {
    NodeId cur = work.back();
    work.pop_back();
    if (seen[cur.index()]) continue;
    seen[cur.index()] = true;
    for (NodeId s : g.node(cur).succs) {
      if (s == header->id) loopsBack = true;
      else if (!seen[s.index()]) work.push_back(s);
    }
  }
  EXPECT_TRUE(loopsBack);
}

TEST(PfgBuild, CobeginForkJoin) {
  ir::Program p = parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { a = 1; }
      thread { a = 2; }
      thread { a = 3; }
    }
    print(a);
  )");
  Graph g = buildPfg(p);
  EXPECT_EQ(countKind(g, NodeKind::Cobegin), 1u);
  EXPECT_EQ(countKind(g, NodeKind::Coend), 1u);
  const Node* fork = nullptr;
  const Node* join = nullptr;
  for (const Node& n : g.nodes()) {
    if (n.kind == NodeKind::Cobegin) fork = &n;
    if (n.kind == NodeKind::Coend) join = &n;
  }
  ASSERT_NE(fork, nullptr);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(fork->succs.size(), 3u);
  EXPECT_EQ(join->preds.size(), 3u);
}

TEST(PfgBuild, ThreadPaths) {
  ir::Program p = parser::parseOrDie(R"(
    int a;
    cobegin {
      thread { a = 1; }
      thread {
        cobegin {
          thread { a = 2; }
          thread { a = 3; }
        }
      }
    }
  )");
  Graph g = buildPfg(p);
  // Find the node containing a = 3: path depth 2, inner index 1.
  for (const Node& n : g.nodes()) {
    if (n.kind != NodeKind::Block) continue;
    for (const ir::Stmt* s : n.stmts) {
      if (s->expr->kind == ir::ExprKind::IntConst && s->expr->intValue == 3) {
        ASSERT_EQ(n.threadPath.size(), 2u);
        EXPECT_EQ(n.threadPath[0].threadIndex, 1u);
        EXPECT_EQ(n.threadPath[1].threadIndex, 1u);
      }
      if (s->expr->kind == ir::ExprKind::IntConst && s->expr->intValue == 1) {
        ASSERT_EQ(n.threadPath.size(), 1u);
        EXPECT_EQ(n.threadPath[0].threadIndex, 0u);
      }
    }
  }
}

TEST(PfgBuild, StmtToNodeMapping) {
  ir::Program p = parser::parseOrDie(
      "int a; lock L; a = 1; lock(L); if (a > 0) { a = 2; } unlock(L);");
  Graph g = buildPfg(p);
  ir::forEachStmt(p.body, [&](const ir::Stmt& s) {
    const NodeId n = g.nodeOf(&s);
    ASSERT_TRUE(n.valid()) << ir::stmtKindName(s.kind);
    switch (s.kind) {
      case ir::StmtKind::Lock:
        EXPECT_EQ(g.node(n).kind, NodeKind::Lock);
        break;
      case ir::StmtKind::Unlock:
        EXPECT_EQ(g.node(n).kind, NodeKind::Unlock);
        break;
      case ir::StmtKind::If:
        EXPECT_EQ(g.node(n).terminator, &s);
        break;
      default:
        break;
    }
  });
}

TEST(PfgBuild, EdgesAreConsistent) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); if (a > 1) { a = 2; } unlock(L); }
      thread { while (a < 9) { a = a + 1; } }
    }
  )");
  Graph g = buildPfg(p);
  for (const Node& n : g.nodes()) {
    for (NodeId s : n.succs) {
      const auto& preds = g.node(s).preds;
      EXPECT_NE(std::find(preds.begin(), preds.end(), n.id), preds.end());
    }
    for (NodeId pr : n.preds) {
      const auto& succs = g.node(pr).succs;
      EXPECT_NE(std::find(succs.begin(), succs.end(), n.id), succs.end());
    }
  }
}

TEST(PfgVerify, AcceptsWellFormedGraphs) {
  const char* programs[] = {
      "int a; a = 1;",
      "int a; if (a > 0) { a = 1; } else { a = 2; }",
      "int a; while (a < 5) { a = a + 1; }",
      "int a; lock L; lock(L); a = 1; unlock(L);",
      R"(int a; event e; barrier;
         cobegin { thread { a = 1; set(e); } thread { wait(e); } })",
      "int s; doall i = 0, 2 { s = s + i; }",
  };
  for (const char* src : programs) {
    ir::Program p = parser::parseOrDie(src);
    Graph g = buildPfg(p);
    const auto problems = verifyGraph(g);
    EXPECT_TRUE(problems.empty())
        << src << "\n"
        << (problems.empty() ? "" : problems.front());
  }
}

TEST(PfgVerify, DetectsBrokenEdges) {
  ir::Program p = parser::parseOrDie("int a; a = 1;");
  Graph g = buildPfg(p);
  // Sabotage: drop one predecessor record.
  for (Node& n : g.nodes()) {
    if (!n.preds.empty()) {
      n.preds = {};
      break;
    }
  }
  EXPECT_FALSE(verifyGraph(g).empty());
}

TEST(Dot, ContainsNodesAndSyncEdges) {
  ir::Program p = parser::parseOrDie(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); a = 1; unlock(L); }
      thread { lock(L); a = 2; unlock(L); }
    }
  )");
  Graph g = buildPfg(p);
  // Populate conflict edges the way the pipeline does, and derive the
  // sync edges the way --dump-pfg does.
  analysis::Dominators dom(g, analysis::Dominators::Direction::Forward);
  analysis::Mhp mhp(g, dom);
  analysis::computeConflictEdges(g, mhp, analysis::collectAccessSites(g));
  const analysis::SyncEdges sync = analysis::syncEdges(g, mhp);

  const std::string dot = toDot(g, sync.mutex, sync.dsync);
  EXPECT_NE(dot.find("digraph PFG"), std::string::npos);
  EXPECT_NE(dot.find("style=dotted"), std::string::npos);  // mutex edges
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // conflict edges
  EXPECT_NE(dot.find("a = 1"), std::string::npos);
}

}  // namespace
}  // namespace cssame::pfg
