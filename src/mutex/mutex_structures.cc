#include "src/mutex/mutex_structures.h"

#include <algorithm>
#include <map>

namespace cssame::mutex {

namespace {

bool isUnlockOf(const pfg::Node& node, SymbolId lockVar) {
  return node.kind == pfg::NodeKind::Unlock && node.syncStmt->sync == lockVar;
}

bool isLockOf(const pfg::Node& node, SymbolId lockVar) {
  return node.kind == pfg::NodeKind::Lock && node.syncStmt->sync == lockVar;
}

/// Calls `fn(x)` for every Unlock(L) node x that forms a candidate body
/// with the Lock(L) node n (n DOM x, x PDOM n), nearest first, until `fn`
/// returns false. The candidates all lie on n's post-dominator chain.
template <typename Fn>
void forEachCandidateUnlock(const pfg::Graph& graph,
                            const analysis::Dominators& dom,
                            const analysis::Dominators& pdom, NodeId n,
                            SymbolId lockVar, Fn&& fn) {
  for (NodeId x = pdom.idom(n); x.valid(); x = pdom.idom(x))
    if (isUnlockOf(graph.node(x), lockVar) && dom.dominates(n, x) && !fn(x))
      return;
}

/// Fills `body.members` with B_L(n,x) by a forward walk from n through
/// member nodes. In the PFG of a structured program every member is
/// reachable from n along members (a member reached only through x would
/// need a loop through x that x still post-dominates). Returns false as
/// soon as the walk meets another Lock(L)/Unlock(L) node: the candidate
/// is ill-formed (Algorithm A.1 lines 19–26). `walkedBy[i]` names the
/// last lock node whose walk reached node i; it spares a per-body
/// visited set.
bool collectMembers(const pfg::Graph& graph, const analysis::Dominators& dom,
                    const analysis::Dominators& pdom, MutexBody& body,
                    std::vector<NodeId>& walkedBy) {
  std::vector<NodeId> found;
  // Adds cur's member successors; false on a nested delimiter.
  const auto expand = [&](NodeId cur) {
    for (NodeId s : graph.node(cur).succs) {
      if (walkedBy[s.index()] == body.lockNode ||
          !dom.strictlyDominates(body.lockNode, s) ||
          !pdom.dominates(body.unlockNode, s))
        continue;
      const pfg::Node& member = graph.node(s);
      if (s != body.unlockNode && (isLockOf(member, body.lockVar) ||
                                   isUnlockOf(member, body.lockVar)))
        return false;
      walkedBy[s.index()] = body.lockNode;
      found.push_back(s);
    }
    return true;
  };
  if (!expand(body.lockNode)) return false;
  for (std::size_t i = 0; i < found.size(); ++i)
    if (!expand(found[i])) return false;
  std::sort(found.begin(), found.end());
  body.members = NodeSet(std::move(found));
  return true;
}

}  // namespace

MutexStructures::MutexStructures(const pfg::Graph& graph,
                                 const analysis::Dominators& dom,
                                 const analysis::Dominators& pdom,
                                 DiagEngine* diag) {
  // Lines 1–5: collect plock_i per lock variable, in lock-variable order.
  std::map<SymbolId, std::vector<NodeId>> locks;
  for (const pfg::Node& n : graph.nodes())
    if (n.kind == pfg::NodeKind::Lock) locks[n.syncStmt->sync].push_back(n.id);

  // Lines 9–26, pruned to the one candidate per lock node that can be
  // well-formed: the nearest candidate unlock. Any farther candidate
  // x' post-dominates that unlock x, which n strictly dominates, so x is
  // a member of B_L(n,x') and makes it ill-formed.
  std::vector<NodeId> walkedBy(graph.size());
  for (const auto& [l, lockNodes] : locks) {
    std::vector<MutexBodyId> structure;
    for (NodeId n : lockNodes) {
      NodeId x;
      forEachCandidateUnlock(graph, dom, pdom, n, l, [&x](NodeId c) {
        x = c;
        return false;
      });
      if (!x.valid()) continue;
      MutexBody body;
      body.id =
          MutexBodyId{static_cast<MutexBodyId::value_type>(bodies_.size())};
      body.lockVar = l;
      body.lockNode = n;
      body.unlockNode = x;
      if (!collectMembers(graph, dom, pdom, body, walkedBy)) continue;
      structure.push_back(body.id);
      bodies_.push_back(std::move(body));
    }
    if (!structure.empty()) {
      structures_[l] = std::move(structure);
      lockVars_.push_back(l);
    }
  }
  buildIndex(graph.size());
  if (diag == nullptr) return;

  std::vector<bool> boundsLock(graph.size(), false);
  std::vector<bool> boundsUnlock(graph.size(), false);
  for (const MutexBody& b : bodies_) {
    boundsLock[b.lockNode.index()] = true;
    boundsUnlock[b.unlockNode.index()] = true;
  }

  // Ill-formed candidates are only worth a warning when one of their
  // delimiters belongs to no well-formed body: two *sequential* regions
  // of the same lock also produce an ill-formed cross pair (first lock,
  // last unlock), but every delimiter still bounds a real body and the
  // structure is fine. Genuine nesting leaves the outer lock/unlock
  // unmatched, so it keeps warning here (and below as Unmatched*).
  // Every candidate of an unmatched lock node is ill-formed; a matched
  // lock node's other candidates are found from their unmatched unlock.
  struct Candidate {
    SymbolId lockVar;
    NodeId lockNode, unlockNode;
  };
  std::vector<Candidate> illFormed;
  for (const pfg::Node& node : graph.nodes()) {
    if (node.kind == pfg::NodeKind::Lock && !boundsLock[node.id.index()]) {
      const SymbolId l = node.syncStmt->sync;
      forEachCandidateUnlock(graph, dom, pdom, node.id, l, [&](NodeId x) {
        illFormed.push_back({l, node.id, x});
        return true;
      });
    } else if (node.kind == pfg::NodeKind::Unlock &&
               !boundsUnlock[node.id.index()]) {
      const SymbolId l = node.syncStmt->sync;
      for (NodeId n = dom.idom(node.id); n.valid(); n = dom.idom(n))
        if (boundsLock[n.index()] && isLockOf(graph.node(n), l) &&
            pdom.dominates(node.id, n))
          illFormed.push_back({l, n, node.id});
    }
  }
  // Report in Algorithm A.1's (lock variable, lock node, unlock node)
  // enumeration order.
  std::sort(illFormed.begin(), illFormed.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.lockVar != b.lockVar) return a.lockVar < b.lockVar;
              if (a.lockNode != b.lockNode) return a.lockNode < b.lockNode;
              return a.unlockNode < b.unlockNode;
            });
  for (const Candidate& c : illFormed)
    diag->warn(DiagCode::IllFormedMutexBody,
               graph.node(c.lockNode).syncStmt->loc,
               "mutex body for lock '" +
                   graph.program().symbols.nameOf(c.lockVar) +
                   "' contains nested lock/unlock of the same lock; "
                   "it will not be used to reduce dependencies");

  // Section 6: every Lock/Unlock node that delimits no well-formed body is
  // reported as a potentially unsafe synchronization structure.
  for (const pfg::Node& n : graph.nodes()) {
    if (n.kind != pfg::NodeKind::Lock && n.kind != pfg::NodeKind::Unlock)
      continue;
    const bool isLock = n.kind == pfg::NodeKind::Lock;
    if ((isLock ? boundsLock : boundsUnlock)[n.id.index()]) continue;
    const std::string name = graph.program().symbols.nameOf(n.syncStmt->sync);
    diag->warn(isLock ? DiagCode::UnmatchedLock : DiagCode::UnmatchedUnlock,
               n.syncStmt->loc,
               std::string(isLock ? "lock(" : "unlock(") + name +
                   ") is not part of any well-formed mutex body");
  }
}

void MutexStructures::buildIndex(std::size_t nodeCount) {
  // Count, prefix-sum, fill: each row lists its bodies in body order.
  bodyStart_.assign(nodeCount + 1, 0);
  for (const MutexBody& b : bodies_)
    b.members.forEach([this](std::size_t i) { ++bodyStart_[i + 1]; });
  for (std::size_t i = 0; i < nodeCount; ++i)
    bodyStart_[i + 1] += bodyStart_[i];
  bodyIndex_.resize(bodyStart_[nodeCount]);
  std::vector<std::uint32_t> next(bodyStart_.begin(), bodyStart_.end() - 1);
  for (const MutexBody& b : bodies_)
    b.members.forEach([&](std::size_t i) { bodyIndex_[next[i]++] = b.id; });

  // Bodies are ordered by lock variable and bodies of one lock never
  // overlap, so each row's locks come out ascending and distinct.
  lockIndex_.reserve(bodyIndex_.size());
  for (MutexBodyId id : bodyIndex_)
    lockIndex_.push_back(bodies_[id.index()].lockVar);
}

MutexBodyId MutexStructures::wellFormedBodyContaining(NodeId node,
                                                      SymbolId lockVar) const {
  for (MutexBodyId id : bodiesContaining(node))
    if (bodies_[id.index()].lockVar == lockVar) return id;
  return MutexBodyId{};
}

bool MutexStructures::shareLock(NodeId a, NodeId b) const {
  const std::span<const SymbolId> la = locksAt(a);
  const std::span<const SymbolId> lb = locksAt(b);
  auto i = la.begin();
  auto j = lb.begin();
  while (i != la.end() && j != lb.end()) {
    if (*i == *j) return true;
    if (*i < *j)
      ++i;
    else
      ++j;
  }
  return false;
}

}  // namespace cssame::mutex
