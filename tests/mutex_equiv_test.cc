// Equivalence sweep for the linear mutex-structure construction and its
// per-node lockset index.
//
// src/mutex/mutex_structures.cc pairs each lock node with its nearest
// candidate unlock only, keeps only the well-formed bodies and answers
// membership queries from an index; src/cssa/rewrite.cc memoizes
// Theorem 1 per (definition, body). Both promise exactly the results of
// Algorithm A.1 and A.3 as first written. This test holds them to that: a
// verbatim transcription of the original all-candidates construction and
// of the original rewrite serves as the reference, and the paper figures,
// the mutex_test shapes, hand-written nesting/branch/loop shapes, lock
// region programs for k = 1..32, and >= 400 generated programs (plain,
// pointers, arrays, events; some with lock statements deleted,
// duplicated or retargeted) are checked for exact equality of
//
//   * the well-formed bodies: lock variable, lock node, unlock node and
//     member set, in order,
//   * every node's bodies, lockset and per-lock containing body, and the
//     common-lock test on every conflict edge,
//   * the Section 6 diagnostics (str(), in order),
//   * the CSSAME form: countLivePis, argsRemoved, pisRemoved and the
//     rendered form, plus both rewrite predicates on every π.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cssa/cssa.h"
#include "src/cssa/form_printer.h"
#include "src/cssa/rewrite.h"
#include "src/driver/pipeline.h"
#include "src/ir/printer.h"
#include "src/parser/parser.h"
#include "src/ssa/ssa.h"
#include "src/support/bitset.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame::mutex {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: a transcription of the original Algorithm A.1
// construction (every candidate body materialized, then filtered) and of
// its linear-scan queries. Deliberately kept dumb and independent of the
// production index.
// ---------------------------------------------------------------------------

/// A candidate body as the original construction stored it: an N-bit
/// member set per candidate, well-formed or not.
struct RefBody {
  MutexBodyId id;
  SymbolId lockVar;
  NodeId lockNode;
  NodeId unlockNode;
  DynBitset members;
  bool wellFormed = true;
};

class RefMutexStructures {
 public:
  RefMutexStructures(const pfg::Graph& graph, const analysis::Dominators& dom,
                     const analysis::Dominators& pdom, DiagEngine* diag) {
    // Lines 1–5: collect plock_i / punlock_i per lock variable.
    std::unordered_map<SymbolId, std::vector<NodeId>> locks, unlocks;
    for (const pfg::Node& n : graph.nodes()) {
      if (n.kind == pfg::NodeKind::Lock)
        locks[n.syncStmt->sync].push_back(n.id);
      else if (n.kind == pfg::NodeKind::Unlock)
        unlocks[n.syncStmt->sync].push_back(n.id);
    }

    std::vector<SymbolId> allLockVars;
    for (const auto& [l, _] : locks) allLockVars.push_back(l);
    for (const auto& [l, _] : unlocks)
      if (!locks.contains(l)) allLockVars.push_back(l);
    std::sort(allLockVars.begin(), allLockVars.end());

    // Lines 9–18: candidate bodies (n, x) with n DOM x and x PDOM n.
    for (SymbolId l : allLockVars) {
      std::vector<MutexBodyId> structure;
      for (NodeId n : locks[l]) {
        for (NodeId x : unlocks[l]) {
          if (!dom.dominates(n, x) || !pdom.dominates(x, n)) continue;
          RefBody body;
          body.id = MutexBodyId{static_cast<MutexBodyId::value_type>(
              bodies_.size())};
          body.lockVar = l;
          body.lockNode = n;
          body.unlockNode = x;
          body.members.resize(graph.size());
          for (const pfg::Node& a : graph.nodes()) {
            if (dom.strictlyDominates(n, a.id) && pdom.dominates(x, a.id))
              body.members.set(a.id.index());
          }
          // Lines 19–26: a candidate containing another Lock(L)/Unlock(L)
          // node (other than its own delimiters) is ill-formed.
          for (NodeId m : locks[l]) {
            if (m != n && m != x && body.members.test(m.index()))
              body.wellFormed = false;
          }
          for (NodeId m : unlocks[l]) {
            if (m != n && m != x && body.members.test(m.index()))
              body.wellFormed = false;
          }
          structure.push_back(body.id);
          bodies_.push_back(std::move(body));
        }
      }
      if (!structure.empty()) {
        structures_[l] = std::move(structure);
        lockVars_.push_back(l);
      }
    }

    if (diag != nullptr) {
      const auto delimitsWellFormed = [this](NodeId node, bool asLock) {
        for (const RefBody& b : bodies_) {
          if (!b.wellFormed) continue;
          if ((asLock && b.lockNode == node) ||
              (!asLock && b.unlockNode == node))
            return true;
        }
        return false;
      };
      for (const RefBody& b : bodies_) {
        if (b.wellFormed) continue;
        if (delimitsWellFormed(b.lockNode, true) &&
            delimitsWellFormed(b.unlockNode, false))
          continue;
        diag->warn(DiagCode::IllFormedMutexBody,
                   graph.node(b.lockNode).syncStmt->loc,
                   "mutex body for lock '" +
                       graph.program().symbols.nameOf(b.lockVar) +
                       "' contains nested lock/unlock of the same lock; "
                       "it will not be used to reduce dependencies");
      }
    }

    if (diag != nullptr) {
      for (const pfg::Node& n : graph.nodes()) {
        if (n.kind != pfg::NodeKind::Lock && n.kind != pfg::NodeKind::Unlock)
          continue;
        const bool isLock = n.kind == pfg::NodeKind::Lock;
        bool matched = false;
        for (const RefBody& b : bodies_) {
          if (!b.wellFormed) continue;
          if ((isLock && b.lockNode == n.id) ||
              (!isLock && b.unlockNode == n.id)) {
            matched = true;
            break;
          }
        }
        if (!matched) {
          const std::string name =
              graph.program().symbols.nameOf(n.syncStmt->sync);
          diag->warn(
              isLock ? DiagCode::UnmatchedLock : DiagCode::UnmatchedUnlock,
              n.syncStmt->loc,
              std::string(isLock ? "lock(" : "unlock(") + name +
                  ") is not part of any well-formed mutex body");
        }
      }
    }
  }

  [[nodiscard]] const std::vector<RefBody>& bodies() const {
    return bodies_;
  }
  [[nodiscard]] const RefBody& body(MutexBodyId id) const {
    return bodies_[id.index()];
  }
  [[nodiscard]] const std::vector<SymbolId>& lockVars() const {
    return lockVars_;
  }

  [[nodiscard]] MutexBodyId wellFormedBodyContaining(NodeId node,
                                                     SymbolId lockVar) const {
    auto it = structures_.find(lockVar);
    if (it == structures_.end()) return MutexBodyId{};
    for (MutexBodyId id : it->second) {
      const RefBody& b = bodies_[id.index()];
      if (b.wellFormed && b.members.test(node.index())) return id;
    }
    return MutexBodyId{};
  }

  [[nodiscard]] std::vector<MutexBodyId> bodiesContaining(NodeId node) const {
    std::vector<MutexBodyId> out;
    for (const RefBody& b : bodies_) {
      if (b.wellFormed && b.members.test(node.index())) out.push_back(b.id);
    }
    return out;
  }

 private:
  std::vector<RefBody> bodies_;
  std::unordered_map<SymbolId, std::vector<MutexBodyId>> structures_;
  std::vector<SymbolId> lockVars_;
};

// Reference rewrite: the original predicates (a fresh visited vector and
// deque per search) and the original unmemoized Algorithm A.3 loop.

bool refKillsClass(const pfg::Graph& graph, const ir::Stmt* s, SymbolId cls) {
  return graph.aliases.strongDef(*s) && graph.aliases.repOf(s->lhs) == cls;
}

bool refNodeDefines(const pfg::Graph& graph, const pfg::Node& n,
                    SymbolId var) {
  for (const ir::Stmt* s : n.stmts)
    if (refKillsClass(graph, s, var)) return true;
  return false;
}

bool refIsUpwardExposedFromBody(const pfg::Graph& graph, const RefBody& b,
                                SymbolId var, const ir::Stmt* useStmt,
                                NodeId node) {
  const pfg::Node& start = graph.node(node);
  for (const ir::Stmt* s : start.stmts) {
    if (s == useStmt) break;
    if (refKillsClass(graph, s, var)) return false;
  }
  std::deque<NodeId> work;
  std::vector<bool> visited(graph.size(), false);
  auto enqueuePreds = [&](NodeId id) {
    for (NodeId p : graph.node(id).preds) {
      if (p != b.lockNode && !b.members.test(p.index())) continue;
      if (!visited[p.index()]) {
        visited[p.index()] = true;
        work.push_back(p);
      }
    }
  };
  enqueuePreds(node);
  while (!work.empty()) {
    const NodeId cur = work.front();
    work.pop_front();
    if (cur == b.lockNode) return true;
    if (refNodeDefines(graph, graph.node(cur), var)) continue;
    enqueuePreds(cur);
  }
  return false;
}

bool refDefReachesBodyExit(const pfg::Graph& graph, const RefBody& b,
                           SymbolId var, const ir::Stmt* defStmt,
                           NodeId node) {
  const pfg::Node& start = graph.node(node);
  bool seenDef = false;
  for (const ir::Stmt* s : start.stmts) {
    if (s == defStmt) {
      seenDef = true;
      continue;
    }
    if (seenDef && refKillsClass(graph, s, var)) return false;
  }
  if (node == b.unlockNode) return true;
  std::deque<NodeId> work;
  std::vector<bool> visited(graph.size(), false);
  auto enqueueSuccs = [&](NodeId id) {
    for (NodeId s : graph.node(id).succs) {
      if (!b.members.test(s.index())) continue;
      if (!visited[s.index()]) {
        visited[s.index()] = true;
        work.push_back(s);
      }
    }
  };
  enqueueSuccs(node);
  while (!work.empty()) {
    const NodeId cur = work.front();
    work.pop_front();
    if (cur == b.unlockNode) return true;
    if (refNodeDefines(graph, graph.node(cur), var)) continue;
    enqueueSuccs(cur);
  }
  return false;
}

cssa::RewriteStats refRewritePiTerms(const pfg::Graph& graph,
                                     ssa::SsaForm& form,
                                     const RefMutexStructures& structures) {
  cssa::RewriteStats stats;
  for (ssa::Definition& p : form.defs) {
    if (p.kind != ssa::DefKind::Pi || p.removed) continue;
    const SymbolId v = p.var;
    const NodeId useNode = p.node;
    for (SymbolId lockVar : structures.lockVars()) {
      const MutexBodyId bId =
          structures.wellFormedBodyContaining(useNode, lockVar);
      if (!bId.valid()) continue;
      const RefBody& b = structures.body(bId);
      const bool exposed =
          refIsUpwardExposedFromBody(graph, b, v, p.piUseStmt, useNode);
      auto& args = p.piConflictArgs;
      const std::size_t before = args.size();
      args.erase(
          std::remove_if(
              args.begin(), args.end(),
              [&](const ssa::PiConflictArg& a) {
                const MutexBodyId bpId = structures.wellFormedBodyContaining(
                    a.fromNode, lockVar);
                if (!bpId.valid() || bpId == bId) return false;
                const RefBody& bp = structures.body(bpId);
                if (!exposed) return true;
                if (!refDefReachesBodyExit(graph, bp, v, a.defStmt,
                                           a.fromNode))
                  return true;
                return false;
              }),
          args.end());
      stats.argsRemoved += before - args.size();
    }
    if (p.piConflictArgs.empty()) {
      form.useDef[p.piUse] = p.piControlArg;
      p.removed = true;
      ++stats.pisRemoved;
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------

/// Member node indices in increasing order, from either member set type.
template <typename Set>
std::vector<std::size_t> memberList(const Set& members) {
  std::vector<std::size_t> out;
  members.forEach([&](std::size_t i) { out.push_back(i); });
  return out;
}

std::vector<std::string> rendered(const DiagEngine& diag) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diag.diagnostics()) out.push_back(d.str());
  return out;
}

std::set<SymbolId> refLockset(NodeId node, const RefMutexStructures& ref) {
  std::set<SymbolId> out;
  for (MutexBodyId id : ref.bodiesContaining(node))
    out.insert(ref.body(id).lockVar);
  return out;
}

/// (lock node, unlock node) of a body, or a pair of invalid ids.
template <typename Structures>
std::pair<NodeId, NodeId> delimiters(const Structures& s, MutexBodyId id) {
  if (!id.valid()) return {};
  return {s.body(id).lockNode, s.body(id).unlockNode};
}

/// What a sweep exercised, so no sweep can pass vacuously.
struct Coverage {
  std::size_t bodies = 0;
  std::size_t illFormedWarnings = 0;
  std::size_t unmatchedWarnings = 0;
  std::size_t argsRemoved = 0;
};

/// Analyzes `prog` with the production pipeline, asserts that the
/// reference construction and rewrite agree with it exactly, and adds
/// what the program exercised to `cov`.
void checkEquivalence(ir::Program prog, const std::string& label,
                      Coverage& cov) {
  SCOPED_TRACE(label);
  driver::Compilation c = driver::analyze(prog, {.warnings = false});
  pfg::Graph& graph = c.graph();

  DiagEngine prodDiag, refDiag;
  const MutexStructures prod(graph, c.dom(), c.pdom(), &prodDiag);
  const RefMutexStructures ref(graph, c.dom(), c.pdom(), &refDiag);

  // Well-formed bodies, in order; the pipeline built the same ones.
  std::vector<const RefBody*> expect;
  for (const RefBody& b : ref.bodies())
    if (b.wellFormed) expect.push_back(&b);
  ASSERT_EQ(prod.bodies().size(), expect.size());
  ASSERT_EQ(c.mutexes().bodies().size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    for (const MutexStructures* s : {&prod, &c.mutexes()}) {
      const MutexBody& b = s->bodies()[i];
      ASSERT_EQ(b.id.index(), i);
      ASSERT_TRUE(b.wellFormed);
      ASSERT_EQ(b.lockVar, expect[i]->lockVar) << "body " << i;
      ASSERT_EQ(b.lockNode, expect[i]->lockNode) << "body " << i;
      ASSERT_EQ(b.unlockNode, expect[i]->unlockNode) << "body " << i;
      ASSERT_EQ(memberList(b.members), memberList(expect[i]->members))
          << "body " << i;
    }
  }
  std::set<SymbolId> wellFormedLocks;
  for (const RefBody* b : expect) wellFormedLocks.insert(b->lockVar);
  EXPECT_EQ(std::set<SymbolId>(prod.lockVars().begin(),
                               prod.lockVars().end()),
            wellFormedLocks);

  // Per-node index.
  std::set<SymbolId> allLocks(ref.lockVars().begin(), ref.lockVars().end());
  for (const pfg::Node& n : graph.nodes()) {
    const std::set<SymbolId> want = refLockset(n.id, ref);
    const std::span<const SymbolId> got = prod.locksAt(n.id);
    ASSERT_EQ(std::vector<SymbolId>(got.begin(), got.end()),
              std::vector<SymbolId>(want.begin(), want.end()))
        << "lockset of node " << n.id.value();
    const std::vector<MutexBodyId> wantBodies = ref.bodiesContaining(n.id);
    const std::span<const MutexBodyId> gotBodies =
        prod.bodiesContaining(n.id);
    ASSERT_EQ(gotBodies.size(), wantBodies.size())
        << "bodies of node " << n.id.value();
    for (std::size_t i = 0; i < wantBodies.size(); ++i)
      ASSERT_EQ(delimiters(prod, gotBodies[i]),
                delimiters(ref, wantBodies[i]));
    for (SymbolId l : allLocks)
      ASSERT_EQ(delimiters(prod, prod.wellFormedBodyContaining(n.id, l)),
                delimiters(ref, ref.wellFormedBodyContaining(n.id, l)))
          << "body of lock " << l.value() << " at node " << n.id.value();
  }
  std::vector<pfg::ConflictEdge> edges;
  graph.conflicts.forEachEdge(
      [&](const pfg::ConflictEdge& e) { edges.push_back(e); });
  for (const pfg::ConflictEdge& e : edges) {
    const std::set<SymbolId> a = refLockset(e.from, ref);
    const std::set<SymbolId> b = refLockset(e.to, ref);
    const bool common = std::any_of(a.begin(), a.end(), [&](SymbolId l) {
      return b.contains(l);
    });
    ASSERT_EQ(prod.shareLock(e.from, e.to), common);
  }

  // Section 6 diagnostics, byte for byte and in order.
  ASSERT_EQ(rendered(prodDiag), rendered(refDiag));
  cov.bodies += expect.size();
  cov.illFormedWarnings += refDiag.countOf(DiagCode::IllFormedMutexBody);
  cov.unmatchedWarnings += refDiag.countOf(DiagCode::UnmatchedLock) +
                           refDiag.countOf(DiagCode::UnmatchedUnlock);

  // CSSAME rewrite: rebuild the pipeline's unrewritten CSSA form on the
  // final partition and rewrite it with the reference.
  ssa::SsaForm form = ssa::buildSequentialSsa(graph, c.dom());
  cssa::placePiTerms(graph, form, c.mhp(), c.sites());
  for (const ssa::Definition& p : form.defs) {
    if (p.kind != ssa::DefKind::Pi) continue;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      const MutexBody& b = prod.bodies()[i];
      if (b.members.test(p.node.index())) {
        ASSERT_EQ(cssa::isUpwardExposedFromBody(graph, b, p.var, p.piUse,
                                                p.piUseStmt, p.node),
                  refIsUpwardExposedFromBody(graph, *expect[i], p.var,
                                             p.piUseStmt, p.node));
      }
      for (const ssa::PiConflictArg& a : p.piConflictArgs) {
        if (b.members.test(a.fromNode.index())) {
          ASSERT_EQ(cssa::defReachesBodyExit(graph, b, p.var, a.defStmt,
                                             a.fromNode),
                    refDefReachesBodyExit(graph, *expect[i], p.var,
                                          a.defStmt, a.fromNode));
        }
      }
    }
  }
  const cssa::RewriteStats refStats = refRewritePiTerms(graph, form, ref);
  cov.argsRemoved += refStats.argsRemoved;
  EXPECT_EQ(c.rewriteStats().argsRemoved, refStats.argsRemoved);
  EXPECT_EQ(c.rewriteStats().pisRemoved, refStats.pisRemoved);
  EXPECT_EQ(c.ssa().countLivePis(), form.countLivePis());
  EXPECT_EQ(cssa::printForm(graph, c.ssa()), cssa::printForm(graph, form));
}

void checkSource(const char* src, const std::string& label, Coverage& cov) {
  checkEquivalence(parser::parseOrDie(src), label, cov);
}

/// Prints `prog` and applies one seeded edit to a lock statement: delete
/// it, duplicate it, or retarget it to another declared lock. The result
/// has unmatched delimiters or ill-formed candidates for the Section 6
/// warnings to report.
std::string mutateLocks(const ir::Program& prog, std::uint64_t seed) {
  std::vector<std::string> lines;
  std::istringstream in(ir::printProgram(prog));
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::vector<std::size_t> sync;
  std::vector<std::string> lockNames;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (l.find("lock(") != std::string::npos) sync.push_back(i);
    if (l.rfind("lock ", 0) == 0)
      lockNames.push_back(l.substr(5, l.size() - 6));
  }
  if (!sync.empty()) {
    std::mt19937_64 rng(seed);
    const std::size_t at = sync[rng() % sync.size()];
    switch (lockNames.empty() ? 0 : rng() % 3) {
      case 0:
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      case 1:
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                     lines[at]);
        break;
      default: {
        std::string& l = lines[at];
        const std::size_t open = l.find('(');
        const std::size_t close = l.find(')', open);
        l = l.substr(0, open + 1) + lockNames[rng() % lockNames.size()] +
            l.substr(close);
      }
    }
  }
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

TEST(MutexEquivalence, PaperFigures) {
  Coverage cov;
  checkSource(workload::figure1Source(), "figure1", cov);
  checkSource(workload::figure2Source(), "figure2", cov);
  checkSource(workload::figure5aSource(), "figure5a", cov);
  EXPECT_GT(cov.bodies, 0u);
  EXPECT_GT(cov.argsRemoved, 0u);
}

TEST(MutexEquivalence, MutexTestShapes) {
  // Every program of mutex_test.cc.
  const char* shapes[] = {
      "int a; lock L; lock(L); a = 1; unlock(L);",
      "int a; lock L; lock(L); if (a > 0) { a = 1; } else { a = 2; } "
      "unlock(L);",
      "int a; lock L; lock(L); while (a < 5) { a = a + 1; } unlock(L);",
      "int a, c; lock L; lock(L); if (c > 0) { unlock(L); } else { "
      "unlock(L); }",
      "int a; lock L; lock(L); a = 1; unlock(L); lock(L); a = 2; "
      "unlock(L);",
      "int a; lock L; lock(L); lock(L); a = 1; unlock(L); unlock(L);",
      "int a; lock L, M; lock(L); lock(M); a = 1; unlock(M); unlock(L);",
      "int a; lock L, M; lock(L); a = 1; unlock(L); lock(M); a = 2; "
      "unlock(M);",
      "int a, b; lock L; a = 0; lock(L); a = 1; unlock(L); b = 2;",
      "int a; lock L; lock(L); a = 1;",
      "int a; lock L; a = 1; unlock(L);",
      "int a; lock L; cobegin { thread { lock(L); a = 1; unlock(L); } "
      "thread { lock(L); a = 2; unlock(L); } thread { lock(L); a = 3; "
      "unlock(L); } }",
  };
  Coverage cov;
  int i = 0;
  for (const char* src : shapes)
    checkSource(src, "mutex_test shape " + std::to_string(i++), cov);
  EXPECT_GT(cov.illFormedWarnings, 0u);
  EXPECT_GT(cov.unmatchedWarnings, 0u);
}

TEST(MutexEquivalence, HandShapes) {
  Coverage cov;
  // Nested same lock, three deep, and nested inside another lock.
  checkSource(R"(
    int a; lock L;
    cobegin {
      thread { lock(L); lock(L); lock(L); a = 1; unlock(L); unlock(L);
               unlock(L); }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "nested same lock x3", cov);
  checkSource(R"(
    int a, b; lock L, M;
    cobegin {
      thread { lock(M); lock(L); lock(L); a = 1; unlock(L); b = a;
               unlock(L); unlock(M); }
      thread { lock(M); lock(L); a = 2; b = 3; unlock(L); unlock(M); }
    }
  )",
              "nested same lock inside another lock", cov);
  // Conditional unlock: in one arm only, and in both arms.
  checkSource(R"(
    int a, c; lock L;
    cobegin {
      thread { lock(L); a = 1; if (c > 0) { unlock(L); } a = 3; }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "unlock in one arm", cov);
  checkSource(R"(
    int a, c; lock L;
    cobegin {
      thread { lock(L); a = 1; if (c > 0) { unlock(L); } else {
               unlock(L); } lock(L); a = 4; unlock(L); }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "unlock in both arms then a body", cov);
  // Lock in a branch: whole body inside an arm, lock in one arm with the
  // unlock after the join, lock in both arms.
  checkSource(R"(
    int a, c; lock L;
    cobegin {
      thread { if (c > 0) { lock(L); a = 1; unlock(L); } else { a = 5; } }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "body inside a branch", cov);
  checkSource(R"(
    int a, c; lock L;
    cobegin {
      thread { if (c > 0) { lock(L); } a = 1; unlock(L); }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "lock in one arm", cov);
  checkSource(R"(
    int a, c; lock L;
    cobegin {
      thread { if (c > 0) { lock(L); a = 7; } else { lock(L); a = 8; }
               a = 1; unlock(L); }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "lock in both arms", cov);
  // Loops: body around a loop, body inside a loop, lock before a loop
  // with the unlock inside it, lock inside with the unlock after it,
  // sequential bodies inside a loop, nested loops.
  checkSource(R"(
    int a, i; lock L;
    cobegin {
      thread { lock(L); i = 0; while (i < 3) { a = a + 1; i = i + 1; }
               unlock(L); }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "body around a loop", cov);
  checkSource(R"(
    int a, i; lock L;
    cobegin {
      thread { i = 0; while (i < 3) { lock(L); a = a + 1; unlock(L);
               i = i + 1; } }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "body inside a loop", cov);
  checkSource(R"(
    int a, i; lock L;
    cobegin {
      thread { lock(L); i = 0; while (i < 3) { a = a + 1; unlock(L);
               i = i + 1; } }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "unlock inside a loop", cov);
  checkSource(R"(
    int a, i; lock L;
    cobegin {
      thread { i = 0; while (i < 3) { lock(L); a = a + 1; i = i + 1; }
               unlock(L); }
      thread { lock(L); a = 2; unlock(L); }
    }
  )",
              "lock inside a loop", cov);
  checkSource(R"(
    int a, b, i, j; lock L, M;
    cobegin {
      thread { i = 0; while (i < 3) { lock(L); a = a + 1; unlock(L);
               lock(L); j = 0; while (j < 2) { lock(M); b = b + a;
               unlock(M); j = j + 1; } unlock(L); i = i + 1; } }
      thread { lock(L); lock(M); a = 2; b = 1; unlock(M); unlock(L); }
    }
  )",
              "sequential and nested bodies in loops", cov);
  // Crossed L/M: overlapping but not nested regions, in both orders.
  checkSource(R"(
    int a, b; lock L, M;
    cobegin {
      thread { lock(L); a = 1; lock(M); b = a; unlock(L); a = b;
               unlock(M); }
      thread { lock(M); b = 2; lock(L); a = b; unlock(M); b = a;
               unlock(L); }
    }
  )",
              "crossed L/M", cov);
  // One definition in nested bodies of two locks: it reaches M's unlock
  // but is killed before L's, so Theorem 1 differs per body.
  checkSource(R"(
    int a, b; lock L, M;
    cobegin {
      thread { lock(L); lock(M); a = 1; unlock(M); a = 2; unlock(L); }
      thread { lock(M); b = a; unlock(M); }
      thread { lock(L); b = a; unlock(L); }
    }
  )",
              "definition in nested bodies", cov);
  // Bodies in nested cobegins and an unmatched unlock before a body.
  checkSource(R"(
    int a, b; lock L;
    cobegin {
      thread { cobegin { thread { lock(L); a = 1; unlock(L); }
                         thread { lock(L); b = a; unlock(L); } }
               lock(L); a = b; unlock(L); }
      thread { unlock(L); lock(L); a = 2; unlock(L); }
    }
  )",
              "nested cobegin and stray unlock", cov);
  EXPECT_GT(cov.illFormedWarnings, 0u);
  EXPECT_GT(cov.unmatchedWarnings, 0u);
  EXPECT_GT(cov.argsRemoved, 0u);
}

TEST(MutexEquivalence, LockRegions) {
  Coverage cov;
  for (int k = 1; k <= 32; ++k)
    checkEquivalence(parser::parseOrDie(workload::lockRegionSource(3, k)),
                     "lock regions k=" + std::to_string(k), cov);
  // 3 threads x 2 locks x k bodies; every π keeps its arguments (each
  // body's write is upward exposed and reaches the unlock).
  EXPECT_EQ(cov.bodies, 6u * (32 * 33 / 2));
}

workload::GeneratorConfig mixedConfig(std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.threads = 2 + static_cast<int>(seed % 4);
  cfg.sharedVars = 3 + static_cast<int>(seed % 4);
  cfg.locks = 1 + static_cast<int>(seed % 3);
  cfg.stmtsPerThread = 4 + static_cast<int>(seed % 9);
  cfg.lockedFraction = 0.2 * static_cast<double>(seed % 6);
  cfg.useEvents = (seed % 2) == 0;
  cfg.determinate = (seed % 3) == 0;
  // Rotate plain, pointer, array and mixed programs.
  cfg.ptrProb = (seed % 4 == 1 || seed % 4 == 3) ? 0.25 : 0.0;
  cfg.arrayProb = (seed % 4 == 2 || seed % 4 == 3) ? 0.25 : 0.0;
  return cfg;
}

TEST(MutexEquivalence, RandomWorkloadSweep) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 400; ++seed)
    checkEquivalence(workload::generateRandom(mixedConfig(seed)),
                     "generateRandom seed=" + std::to_string(seed), cov);
  EXPECT_GT(cov.bodies, 0u);
  EXPECT_GT(cov.argsRemoved, 0u);
}

TEST(MutexEquivalence, MutatedLockSweep) {
  // Random programs with one lock statement deleted, duplicated or
  // retargeted: unmatched delimiters and ill-formed candidates.
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const std::string src =
        mutateLocks(workload::generateRandom(mixedConfig(seed + 1000)), seed);
    checkEquivalence(parser::parseOrDie(src),
                     "mutated seed=" + std::to_string(seed) + "\n" + src, cov);
  }
  EXPECT_GT(cov.illFormedWarnings, 0u);
  EXPECT_GT(cov.unmatchedWarnings, 0u);
}

TEST(MutexEquivalence, StructuredWorkloads) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    checkEquivalence(
        workload::makeLockStructured(2 + static_cast<int>(seed % 5),
                                     1 + static_cast<int>(seed % 4), 3,
                                     0.25 * static_cast<double>(seed % 5),
                                     seed),
        "makeLockStructured seed=" + std::to_string(seed), cov);
    checkEquivalence(workload::makeBank(3, 2 + static_cast<int>(seed % 3),
                                        3, seed),
                     "makeBank seed=" + std::to_string(seed), cov);
  }
  EXPECT_GT(cov.bodies, 0u);
  EXPECT_GT(cov.argsRemoved, 0u);
}

}  // namespace
}  // namespace cssame::mutex
