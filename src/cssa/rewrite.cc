#include "src/cssa/rewrite.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cssame::cssa {

namespace {

/// True if the statement overwrites the whole alias class `cls` — only
/// strong definitions (scalar store to a singleton class) kill. An Index
/// or Deref store updates at most one member/cell, so values written
/// earlier may survive it and it must not end a path search.
bool killsClass(const pfg::Graph& graph, const ir::Stmt* s, SymbolId cls) {
  return graph.aliases.strongDef(*s) && graph.aliases.repOf(s->lhs) == cls;
}

/// True if the block node contains a killing definition of class `var`.
bool nodeDefines(const pfg::Graph& graph, const pfg::Node& n, SymbolId var) {
  for (const ir::Stmt* s : n.stmts)
    if (killsClass(graph, s, var)) return true;
  return false;
}

/// Control-path searches restricted to one mutex body. All searches of
/// one rewrite share a single visited buffer: a node counts as visited
/// in the current search iff its stamp equals the search's epoch, so a
/// new search clears nothing.
class BodySearch {
 public:
  explicit BodySearch(const pfg::Graph& graph)
      : graph_(graph), stamp_(graph.size(), 0) {}

  /// Theorem 2: some control path from the body's lock node reaches the
  /// use without passing a killing definition of `var`.
  bool upwardExposed(const mutex::MutexBody& b, SymbolId var,
                     const ir::Stmt* useStmt, NodeId node) {
    // A killing definition before the use in the same node ends the
    // exposure. When the use sits in the terminator condition, every
    // statement of the node precedes it.
    for (const ir::Stmt* s : graph_.node(node).stmts) {
      if (s == useStmt) break;
      if (killsClass(graph_, s, var)) return false;
    }

    // Backward search restricted to the body (plus its lock node): exposed
    // iff some definition-free control path reaches the lock node.
    begin();
    auto pushPreds = [&](NodeId id) {
      for (NodeId p : graph_.node(id).preds)
        if ((p == b.lockNode || b.members.test(p.index())) && visit(p))
          work_.push_back(p);
    };
    pushPreds(node);
    while (!work_.empty()) {
      const NodeId cur = work_.back();
      work_.pop_back();
      if (cur == b.lockNode) return true;  // reached n with no kill
      if (nodeDefines(graph_, graph_.node(cur), var)) continue;  // killed
      pushPreds(cur);
    }
    return false;
  }

  /// Theorem 1: the definition reaches the body's unlock node along some
  /// control path inside the body.
  bool reachesExit(const mutex::MutexBody& b, SymbolId var,
                   const ir::Stmt* defStmt, NodeId node) {
    // A later killing definition in the same node kills this one.
    bool seenDef = false;
    for (const ir::Stmt* s : graph_.node(node).stmts) {
      if (s == defStmt) {
        seenDef = true;
        continue;
      }
      if (seenDef && killsClass(graph_, s, var)) return false;
    }

    if (node == b.unlockNode) return true;

    // Forward search restricted to the body: reaches iff some control path
    // arrives at the unlock node without passing another definition.
    begin();
    auto pushSuccs = [&](NodeId id) {
      for (NodeId s : graph_.node(id).succs)  // unlock node is a member
        if (b.members.test(s.index()) && visit(s)) work_.push_back(s);
    };
    pushSuccs(node);
    while (!work_.empty()) {
      const NodeId cur = work_.back();
      work_.pop_back();
      if (cur == b.unlockNode) return true;
      if (nodeDefines(graph_, graph_.node(cur), var)) continue;  // killed
      pushSuccs(cur);
    }
    return false;
  }

 private:
  void begin() {
    ++epoch_;
    work_.clear();
  }
  /// Marks `id` visited; false if it already was in this search.
  bool visit(NodeId id) {
    if (stamp_[id.index()] == epoch_) return false;
    stamp_[id.index()] = epoch_;
    return true;
  }

  const pfg::Graph& graph_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> work_;
};

}  // namespace

bool isUpwardExposedFromBody(const pfg::Graph& graph,
                             const mutex::MutexBody& b, SymbolId var,
                             const ir::Expr* ref, const ir::Stmt* useStmt,
                             NodeId node) {
  (void)ref;
  return BodySearch(graph).upwardExposed(b, var, useStmt, node);
}

bool defReachesBodyExit(const pfg::Graph& graph, const mutex::MutexBody& b,
                        SymbolId var, const ir::Stmt* defStmt, NodeId node) {
  return BodySearch(graph).reachesExit(b, var, defStmt, node);
}

RewriteStats rewritePiTerms(pfg::Graph& graph, ssa::SsaForm& form,
                            const mutex::MutexStructures& structures) {
  RewriteStats stats;
  BodySearch search(graph);
  // Theorem 1's predicate depends only on the definition and the body b'
  // (a definition statement has one node and one alias class), not on the
  // π whose argument it is: memoize it per (definition, body).
  std::unordered_map<std::uint64_t, bool> reachesExit;

  for (ssa::Definition& p : form.defs) {
    if (p.kind != ssa::DefKind::Pi || p.removed) continue;
    const SymbolId v = p.var;
    const NodeId useNode = p.node;

    // For every lock whose well-formed body contains the use, try to
    // remove conflict arguments coming from other bodies of the same
    // mutex structure (Algorithm A.3 lines 14–20).
    for (SymbolId lockVar : structures.lockVars()) {
      const MutexBodyId bId =
          structures.wellFormedBodyContaining(useNode, lockVar);
      if (!bId.valid()) continue;
      const mutex::MutexBody& b = structures.body(bId);

      const bool exposed = search.upwardExposed(b, v, p.piUseStmt, useNode);

      auto& args = p.piConflictArgs;
      const std::size_t before = args.size();
      args.erase(
          std::remove_if(
              args.begin(), args.end(),
              [&](const ssa::PiConflictArg& a) {
                const MutexBodyId bpId = structures.wellFormedBodyContaining(
                    a.fromNode, lockVar);
                if (!bpId.valid() || bpId == bId) return false;
                const mutex::MutexBody& bp = structures.body(bpId);
                if (!exposed) return true;  // Theorem 2
                const std::uint64_t key =
                    std::uint64_t{a.defStmt->id.value()} << 32 |
                    bpId.value();
                auto [it, fresh] = reachesExit.try_emplace(key, false);
                if (fresh)
                  it->second = search.reachesExit(bp, v, a.defStmt,
                                                  a.fromNode);
                return !it->second;  // Theorem 1
              }),
          args.end());
      stats.argsRemoved += before - args.size();
    }

    // Lines 21–25: a π with only the control argument left is deleted and
    // its use rewired to the sequential reaching definition.
    if (p.piConflictArgs.empty()) {
      form.useDef[p.piUse] = p.piControlArg;
      p.removed = true;
      ++stats.pisRemoved;
    }
  }
  return stats;
}

}  // namespace cssame::cssa
