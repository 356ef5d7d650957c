// Equivalence sweep for the flat PFG and dominator trees.
//
// pfg::Graph stores its per-node lists (successors, predecessors, block
// statements, thread paths) and its statement-to-node table in flat
// graph-owned arrays, and analysis::Dominators stores children and
// frontiers the same way. Both promise the exact lists, in the exact
// order, of the list-per-node structures they replaced: succs[0] is a
// branch's taken edge, φ arguments follow succs order, and dominator
// children and frontiers drive renaming and φ placement order. This test
// holds them to that against a verbatim transcription of the list-per-node
// lowering and Dominators, over the example programs, the paper figures,
// lock-region programs, nested cobegins, barriers and 400 generated
// programs in five feature families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/analysis/dominance.h"
#include "src/ir/stmt.h"
#include "src/parser/parser.h"
#include "src/pfg/build.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::pfg {
namespace {

// ---------------------------------------------------------------------------
// Reference: the list-per-node graph, its lowering and its dominator trees,
// transcribed verbatim (only the type names differ).
// ---------------------------------------------------------------------------

using RefPath = std::vector<ThreadPathEntry>;

struct RefNode {
  NodeId id;
  NodeKind kind = NodeKind::Block;
  std::vector<ir::Stmt*> stmts;
  ir::Stmt* terminator = nullptr;
  ir::Stmt* syncStmt = nullptr;
  std::vector<NodeId> succs;
  std::vector<NodeId> preds;
  RefPath threadPath;
};

class RefGraph {
 public:
  explicit RefGraph(ir::Program& program) : program_(&program) {}

  [[nodiscard]] ir::Program& program() const { return *program_; }

  NodeId newNode(NodeKind kind, RefPath path = {}) {
    const NodeId id{static_cast<NodeId::value_type>(nodes_.size())};
    RefNode n;
    n.id = id;
    n.kind = kind;
    n.threadPath = std::move(path);
    nodes_.push_back(std::move(n));
    return id;
  }

  void addEdge(NodeId from, NodeId to) {
    node(from).succs.push_back(to);
    node(to).preds.push_back(from);
  }

  [[nodiscard]] RefNode& node(NodeId id) { return nodes_[id.index()]; }
  [[nodiscard]] const RefNode& node(NodeId id) const {
    return nodes_[id.index()];
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  NodeId entry;
  NodeId exit;

  [[nodiscard]] NodeId nodeOf(const ir::Stmt* s) const {
    auto it = stmtNode_.find(s);
    return it == stmtNode_.end() ? NodeId{} : it->second;
  }
  void mapStmt(const ir::Stmt* s, NodeId n) { stmtNode_[s] = n; }

 private:
  ir::Program* program_;
  std::vector<RefNode> nodes_;
  std::unordered_map<const ir::Stmt*, NodeId> stmtNode_;
};

class RefLowerer {
 public:
  explicit RefLowerer(ir::Program& prog) : graph_(prog) {}

  RefGraph run() {
    graph_.entry = graph_.newNode(NodeKind::Entry);
    graph_.exit = graph_.newNode(NodeKind::Exit);
    NodeId cur = newBlock();
    graph_.addEdge(graph_.entry, cur);
    cur = lowerList(graph_.program().body, cur);
    graph_.addEdge(cur, graph_.exit);
    return std::move(graph_);
  }

 private:
  NodeId newBlock() { return graph_.newNode(NodeKind::Block, path_); }

  NodeId ensureBlock(NodeId cur) {
    RefNode& n = graph_.node(cur);
    if (n.kind == NodeKind::Block && n.terminator == nullptr) return cur;
    const NodeId b = newBlock();
    graph_.addEdge(cur, b);
    return b;
  }

  NodeId lowerSyncNode(NodeId cur, NodeKind kind, ir::Stmt* s) {
    const NodeId n = graph_.newNode(kind, path_);
    graph_.node(n).syncStmt = s;
    graph_.mapStmt(s, n);
    graph_.addEdge(cur, n);
    return n;
  }

  NodeId lowerList(ir::StmtList& list, NodeId cur) {
    for (auto& sp : list) cur = lowerStmt(sp.get(), cur);
    return cur;
  }

  NodeId lowerStmt(ir::Stmt* s, NodeId cur) {
    using ir::StmtKind;
    switch (s->kind) {
      case StmtKind::Assign:
      case StmtKind::CallStmt:
      case StmtKind::Print:
      case StmtKind::Assert: {
        cur = ensureBlock(cur);
        graph_.node(cur).stmts.push_back(s);
        graph_.mapStmt(s, cur);
        return cur;
      }
      case StmtKind::Lock:
        return lowerSyncNode(cur, NodeKind::Lock, s);
      case StmtKind::Unlock:
        return lowerSyncNode(cur, NodeKind::Unlock, s);
      case StmtKind::Set:
        return lowerSyncNode(cur, NodeKind::Set, s);
      case StmtKind::Wait:
        return lowerSyncNode(cur, NodeKind::Wait, s);
      case StmtKind::Barrier:
        return lowerSyncNode(cur, NodeKind::Barrier, s);
      case StmtKind::Fence:
        return lowerSyncNode(cur, NodeKind::Fence, s);
      case StmtKind::If: {
        cur = ensureBlock(cur);
        graph_.node(cur).terminator = s;
        graph_.mapStmt(s, cur);
        const NodeId thenEntry = newBlock();
        graph_.addEdge(cur, thenEntry);
        const NodeId thenExit = lowerList(s->thenBody, thenEntry);
        const NodeId join = newBlock();
        if (s->elseBody.empty()) {
          graph_.addEdge(cur, join);
        } else {
          const NodeId elseEntry = newBlock();
          graph_.addEdge(cur, elseEntry);
          const NodeId elseExit = lowerList(s->elseBody, elseEntry);
          graph_.addEdge(elseExit, join);
        }
        graph_.addEdge(thenExit, join);
        return join;
      }
      case StmtKind::While: {
        const NodeId header = newBlock();
        graph_.addEdge(cur, header);
        graph_.node(header).terminator = s;
        graph_.mapStmt(s, header);
        const NodeId bodyEntry = newBlock();
        graph_.addEdge(header, bodyEntry);
        const NodeId bodyExit = lowerList(s->thenBody, bodyEntry);
        graph_.addEdge(bodyExit, header);
        const NodeId exitB = newBlock();
        graph_.addEdge(header, exitB);
        return exitB;
      }
      case StmtKind::Cobegin: {
        const NodeId fork = graph_.newNode(NodeKind::Cobegin, path_);
        graph_.node(fork).syncStmt = s;
        graph_.mapStmt(s, fork);
        graph_.addEdge(cur, fork);
        const NodeId join = graph_.newNode(NodeKind::Coend, path_);
        graph_.node(join).syncStmt = s;
        for (std::uint32_t ti = 0; ti < s->threads.size(); ++ti) {
          path_.push_back(ThreadPathEntry{s->id, ti});
          const NodeId tEntry = newBlock();
          graph_.addEdge(fork, tEntry);
          const NodeId tExit = lowerList(s->threads[ti].body, tEntry);
          graph_.addEdge(tExit, join);
          path_.pop_back();
        }
        return join;
      }
    }
    return cur;
  }

  RefGraph graph_;
  RefPath path_;
};

constexpr std::uint32_t kUnvisited = 0xffffffffu;

class RefDominators {
 public:
  using Direction = analysis::Dominators::Direction;

  RefDominators(const RefGraph& graph, Direction dir) : dir_(dir) {
    const std::size_t n = graph.size();
    root_ = dir == Direction::Forward ? graph.entry : graph.exit;
    idom_.assign(n, NodeId{});
    children_.assign(n, {});
    frontier_.assign(n, {});
    tin_.assign(n, 0);
    tout_.assign(n, 0);

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
        const auto& succs = succsOf(graph.node(node));
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

    idom_[root_.index()] = root_;
    bool changed = true;
    while (changed) {
      changed = false;
      for (NodeId b : rpo_) {
        if (b == root_) continue;
        NodeId newIdom{};
        for (NodeId p : predsOf(graph.node(b))) {
          if (postIndex[p.index()] == kUnvisited) continue;
          if (!idom_[p.index()].valid()) continue;
          newIdom = newIdom.valid() ? intersect(p, newIdom) : p;
        }
        if (newIdom.valid() && idom_[b.index()] != newIdom) {
          idom_[b.index()] = newIdom;
          changed = true;
        }
      }
    }
    idom_[root_.index()] = NodeId{};

    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id{static_cast<NodeId::value_type>(i)};
      if (idom_[i].valid()) children_[idom_[i].index()].push_back(id);
    }

    std::uint32_t timer = 1;
    std::vector<std::pair<NodeId, std::size_t>> stack;
    stack.emplace_back(root_, 0);
    tin_[root_.index()] = timer++;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto& kids = children_[node.index()];
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

  [[nodiscard]] NodeId idom(NodeId n) const { return idom_[n.index()]; }
  [[nodiscard]] bool reachable(NodeId n) const {
    return n == root_ || idom_[n.index()].valid();
  }
  [[nodiscard]] const std::vector<NodeId>& children(NodeId n) const {
    return children_[n.index()];
  }
  [[nodiscard]] const std::vector<NodeId>& frontier(NodeId n) const {
    return frontier_[n.index()];
  }
  [[nodiscard]] const std::vector<NodeId>& order() const { return rpo_; }

 private:
  [[nodiscard]] const std::vector<NodeId>& predsOf(const RefNode& n) const {
    return dir_ == Direction::Forward ? n.preds : n.succs;
  }
  [[nodiscard]] const std::vector<NodeId>& succsOf(const RefNode& n) const {
    return dir_ == Direction::Forward ? n.succs : n.preds;
  }

  void computeFrontiers(const RefGraph& graph) {
    for (NodeId b : rpo_) {
      const auto& preds = predsOf(graph.node(b));
      if (preds.size() < 2) continue;
      for (NodeId p : preds) {
        if (!reachable(p)) continue;
        NodeId runner = p;
        while (runner.valid() && runner != idom_[b.index()]) {
          auto& fr = frontier_[runner.index()];
          if (std::find(fr.begin(), fr.end(), b) == fr.end())
            fr.push_back(b);
          runner = idom_[runner.index()];
        }
      }
    }
  }

  Direction dir_;
  NodeId root_;
  std::vector<NodeId> idom_;
  std::vector<std::vector<NodeId>> children_;
  std::vector<std::vector<NodeId>> frontier_;
  std::vector<NodeId> rpo_;
  std::vector<std::uint32_t> tin_, tout_;
};

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

/// Node ids as plain numbers, so a mismatch prints readably.
template <typename Range>
std::vector<std::uint32_t> ids(const Range& r) {
  std::vector<std::uint32_t> out;
  for (NodeId n : r) out.push_back(n.value());
  return out;
}

/// A thread path as (cobegin, arm) numbers.
template <typename Range>
std::vector<std::pair<std::uint32_t, std::uint32_t>> pathOf(const Range& r) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  for (const ThreadPathEntry& e : r)
    out.emplace_back(e.cobegin.value(), e.threadIndex);
  return out;
}

void expectSameTree(const analysis::Dominators& dom, const RefDominators& ref,
                    std::size_t nodes, const std::string& what) {
  ASSERT_EQ(ids(dom.order()), ids(ref.order())) << what << ": order()";
  for (std::size_t i = 0; i < nodes; ++i) {
    const NodeId n{static_cast<NodeId::value_type>(i)};
    ASSERT_EQ(dom.idom(n), ref.idom(n)) << what << ": idom of #" << i;
    ASSERT_EQ(ids(dom.children(n)), ids(ref.children(n)))
        << what << ": children of #" << i;
    ASSERT_EQ(ids(dom.frontier(n)), ids(ref.frontier(n)))
        << what << ": frontier of #" << i;
  }
}

std::size_t checked = 0;

void checkProgram(ir::Program prog, const std::string& what) {
  const Graph graph = buildPfg(prog);
  const RefGraph ref = RefLowerer(prog).run();
  ++checked;

  ASSERT_EQ(graph.size(), ref.size()) << what;
  ASSERT_EQ(graph.entry, ref.entry) << what;
  ASSERT_EQ(graph.exit, ref.exit) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const NodeId id{static_cast<NodeId::value_type>(i)};
    const Node& n = graph.node(id);
    const RefNode& r = ref.node(id);
    ASSERT_EQ(n.id, id) << what;
    ASSERT_EQ(n.kind, r.kind) << what << ": kind of #" << i;
    ASSERT_EQ(ids(n.succs), ids(r.succs)) << what << ": succs of #" << i;
    ASSERT_EQ(ids(n.preds), ids(r.preds)) << what << ": preds of #" << i;
    ASSERT_TRUE(std::equal(n.stmts.begin(), n.stmts.end(), r.stmts.begin(),
                           r.stmts.end()))
        << what << ": stmts of #" << i;
    ASSERT_EQ(n.terminator, r.terminator) << what << ": terminator of #" << i;
    ASSERT_EQ(n.syncStmt, r.syncStmt) << what << ": syncStmt of #" << i;
    ASSERT_EQ(pathOf(n.threadPath), pathOf(r.threadPath))
        << what << ": threadPath of #" << i;
    // The node's context holds its path; equal paths share one context.
    ASSERT_LT(n.context, graph.contextCount()) << what;
    ASSERT_EQ(pathOf(graph.contextPath(n.context)), pathOf(r.threadPath))
        << what << ": context of #" << i;
  }
  std::map<std::vector<std::pair<std::uint32_t, std::uint32_t>>,
           std::uint32_t>
      contextOfPath;
  for (const Node& n : graph.nodes()) {
    const auto [it, fresh] =
        contextOfPath.try_emplace(pathOf(n.threadPath), n.context);
    ASSERT_EQ(it->second, n.context)
        << what << ": #" << n.id.value() << " shares a path, not a context";
    (void)fresh;
  }
  ASSERT_EQ(contextOfPath.size(), graph.contextCount()) << what;

  std::size_t stmts = 0;
  ir::forEachStmt(prog.body, [&](const ir::Stmt& s) {
    ++stmts;
    EXPECT_EQ(graph.nodeOf(&s), ref.nodeOf(&s))
        << what << ": nodeOf statement " << s.id.value();
  });
  EXPECT_EQ(stmts, prog.size()) << what;

  using Direction = analysis::Dominators::Direction;
  for (Direction dir : {Direction::Forward, Direction::Reverse}) {
    const analysis::Dominators dom(graph, dir);
    const RefDominators refDom(ref, dir);
    expectSameTree(dom, refDom, ref.size(),
                   what + (dir == Direction::Forward ? " (dom)" : " (pdom)"));
  }
}

void checkSource(const std::string& src, const std::string& what) {
  checkProgram(parser::parseOrDie(src), what + "\n" + src);
}

// ---------------------------------------------------------------------------
// Corpora.
// ---------------------------------------------------------------------------

TEST(PfgEquivalence, ExamplePrograms) {
  const std::filesystem::path gallery =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "examples" / "programs";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(gallery))
    if (entry.path().extension() == ".cp") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 16u);
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in) << file;
    std::stringstream text;
    text << in.rdbuf();
    checkSource(text.str(), file.filename().string());
  }
}

TEST(PfgEquivalence, PaperFigures) {
  checkSource(workload::figure1Source(), "figure1");
  checkSource(workload::figure2Source(), "figure2");
  checkSource(workload::figure5aSource(), "figure5a");
}

TEST(PfgEquivalence, LockRegions) {
  for (int k = 1; k <= 32; ++k)
    checkSource(workload::lockRegionSource(3, k),
                "lock regions k=" + std::to_string(k));
}

TEST(PfgEquivalence, NestedCobegins) {
  checkSource(R"(
    int a; int b;
    cobegin {
      thread {
        cobegin {
          thread { a = 1; }
          thread { b = 2; cobegin { thread { a = 3; } thread { b = 4; } } }
        }
        a = a + b;
      }
      thread { b = 5; }
    }
    print(a);
  )",
              "three nesting levels");
  checkSource(R"(
    int a; int i; lock L;
    while (i < 3) {
      cobegin {
        thread { lock(L); a = a + 1; unlock(L); }
        thread { if (a > 1) { cobegin { thread { a = 2; } thread { i = i + 1; } } } else { i = i + 1; } }
      }
    }
    print(a);
  )",
              "cobegin in a loop and under a branch");
  checkSource(R"(
    int a; int b;
    cobegin { thread { a = 1; } thread { b = 1; } }
    cobegin { thread { a = b; } thread { b = a; } thread { } }
    cobegin { thread { cobegin { thread { a = 2; } } } }
  )",
              "cobegins in sequence, empty and one-arm threads");
}

TEST(PfgEquivalence, Barriers) {
  checkSource(R"(
    int a; int b; int c;
    cobegin {
      thread { a = 1; barrier; b = 1; barrier; c = 1; }
      thread { c = 2; barrier; a = 2; barrier; b = 2; }
      thread { b = 3; barrier; c = 3; barrier; a = 3; }
    }
  )",
              "three-phase three-thread");
  checkSource(R"(
    int a; int i;
    cobegin {
      thread { i = 0; while (i < 3) { a = a + 1; barrier; i = i + 1; } }
      thread { i = 0; while (i < 3) { a = a + 2; barrier; i = i + 1; } }
    }
  )",
              "barrier in a loop");
  checkSource(R"(
    int a; int b; event e;
    cobegin {
      thread { if (a > 0) { barrier; } set(e); a = 1; }
      thread { wait(e); barrier; b = 2; fence; }
      thread { cobegin { thread { a = 1; barrier; b = 1; } thread { barrier; } } }
    }
  )",
              "conditional, nested and event barriers");
}

TEST(PfgEquivalence, GeneratedFamilies) {
  // Five feature families of 80 programs each: plain, pointers, arrays,
  // events with fences, and atomics.
  for (int family = 0; family < 5; ++family) {
    for (std::uint64_t i = 1; i <= 80; ++i) {
      workload::GeneratorConfig cfg;
      cfg.seed = 7919 * static_cast<std::uint64_t>(family) + i;
      cfg.threads = 2 + static_cast<int>(i % 4);
      cfg.stmtsPerThread = 4 + static_cast<int>(i % 9);
      cfg.maxDepth = 1 + static_cast<int>(i % 3);
      cfg.determinate = (i % 2) == 0;
      switch (family) {
        case 0: break;
        case 1: cfg.ptrProb = 0.15; break;
        case 2: cfg.arrayProb = 0.15; break;
        case 3:
          cfg.useEvents = true;
          cfg.fenceProb = 0.1;
          break;
        case 4: cfg.atomicFraction = 0.3; break;
      }
      checkProgram(workload::generateRandom(cfg),
                   "family " + std::to_string(family) + " seed " +
                       std::to_string(cfg.seed));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(PfgEquivalence, CorpusSize) {
  // Run after the corpora above (gtest keeps declaration order): at least
  // 400 generated programs plus every hand-written and gallery program.
  EXPECT_GE(checked, 400u + 32u + 3u + 16u);
}

TEST(PfgNodeOf, InvalidForStatementsTheBuilderDidNotLower) {
  const char* src = "int a; lock L; lock(L); a = 1; unlock(L); print(a);";
  ir::Program prog = parser::parseOrDie(src);
  const Graph graph = buildPfg(prog);
  EXPECT_FALSE(graph.nodeOf(nullptr).valid());

  // A statement created after the build has an id past the table.
  const ir::StmtPtr late = prog.newStmt(ir::StmtKind::Assign);
  EXPECT_FALSE(graph.nodeOf(late.get()).valid());

  // A statement of another program can carry an id the table covers.
  ir::Program other = parser::parseOrDie(src);
  std::size_t inRange = 0;
  ir::forEachStmt(other.body, [&](const ir::Stmt& s) {
    ASSERT_LT(s.id.index(), prog.numStmtIds());
    ++inRange;
    EXPECT_FALSE(graph.nodeOf(&s).valid()) << "statement " << s.id.value();
  });
  EXPECT_EQ(inRange, 4u);
  ir::forEachStmt(prog.body, [&](const ir::Stmt& s) {
    EXPECT_TRUE(graph.nodeOf(&s).valid()) << "statement " << s.id.value();
  });
}

}  // namespace
}  // namespace cssame::pfg
