// Mutex bodies and mutex structures (paper Section 3.2, Algorithm A.1).
//
// A mutex body B_L(n,x) is the single-entry/single-exit region delimited
// by a Lock(L) node n and an Unlock(L) node x with n DOM x and x PDOM n,
// containing all nodes strictly dominated by n and post-dominated by x
// (x itself is a member, n is not — Definition 3). A candidate containing
// another Lock(L)/Unlock(L) node is *ill-formed*; unlike Masticola's
// strict intervals, ill-formed bodies do not invalidate the whole mutex
// structure — they are simply never used to reduce data dependencies
// (paper Section 3.2, point 3).
//
// Algorithm A.1 enumerates every (n, x) candidate and filters afterwards,
// which is cubic on straight-line threads of many regions. Only one
// candidate per lock node can be well-formed: the nearest Unlock(L) on
// n's post-dominator chain that n dominates. Every farther candidate
// contains that nearer unlock and is ill-formed. So the construction
// pairs each lock node with that one unlock and keeps only the
// well-formed bodies. It enumerates the remaining ill-formed candidates
// only where the Section 6 warnings need them, for delimiters that bound
// no well-formed body. Each node's bodies and lockset are then indexed
// once, and every membership query reads that index.
#pragma once

#include <algorithm>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/analysis/dominance.h"
#include "src/pfg/graph.h"
#include "src/support/diag.h"

namespace cssame::mutex {

/// The member nodes of one body, ascending. Sparse, so all bodies of a
/// program take space linear in their total size, not bodies × nodes.
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(std::vector<NodeId> ascending)
      : nodes_(std::move(ascending)) {}

  [[nodiscard]] bool test(std::size_t index) const {
    return std::binary_search(
        nodes_.begin(), nodes_.end(),
        NodeId{static_cast<NodeId::value_type>(index)});
  }
  [[nodiscard]] std::size_t count() const { return nodes_.size(); }

  /// Calls `fn(index)` for every member, in increasing order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (NodeId n : nodes_) fn(n.index());
  }

 private:
  std::vector<NodeId> nodes_;
};

struct MutexBody {
  MutexBodyId id;
  SymbolId lockVar;
  NodeId lockNode;    ///< n  = Lock(L)
  NodeId unlockNode;  ///< x  = Unlock(L)
  NodeSet members;    ///< B_L(n,x); excludes n, includes x
  /// Always true: only well-formed bodies are kept.
  bool wellFormed = true;
};

/// The mutex structure M_L of a lock variable is the set of its mutex
/// bodies (Definition 4). This class holds all structures of a program.
class MutexStructures {
 public:
  /// Runs Algorithm A.1. `dom`/`pdom` are the forward and reverse trees of
  /// `graph`. When `diag` is non-null, unmatched Lock/Unlock nodes and
  /// ill-formed bodies are reported as warnings (paper Section 6).
  MutexStructures(const pfg::Graph& graph, const analysis::Dominators& dom,
                  const analysis::Dominators& pdom, DiagEngine* diag);

  /// The well-formed bodies, ordered by (lock variable, lock node, unlock
  /// node). Ill-formed candidates are never kept.
  [[nodiscard]] const std::vector<MutexBody>& bodies() const {
    return bodies_;
  }
  [[nodiscard]] const MutexBody& body(MutexBodyId id) const {
    return bodies_[id.index()];
  }

  /// Well-formed bodies of the mutex structure M_L.
  [[nodiscard]] const std::vector<MutexBodyId>& structureOf(
      SymbolId lockVar) const {
    static const std::vector<MutexBodyId> kEmpty;
    auto it = structures_.find(lockVar);
    return it == structures_.end() ? kEmpty : it->second;
  }

  /// All lock variables that own at least one well-formed body, ascending.
  [[nodiscard]] const std::vector<SymbolId>& lockVars() const {
    return lockVars_;
  }

  /// The well-formed body of lock L containing node `node`, if any.
  /// Well-formed bodies of one lock never overlap, so this is unique.
  [[nodiscard]] MutexBodyId wellFormedBodyContaining(NodeId node,
                                                     SymbolId lockVar) const;

  /// All well-formed bodies (of any lock) containing `node`, in body
  /// order.
  [[nodiscard]] std::span<const MutexBodyId> bodiesContaining(
      NodeId node) const {
    return {bodyIndex_.data() + bodyStart_[node.index()],
            bodyIndex_.data() + bodyStart_[node.index() + 1]};
  }

  /// The node's lockset for race checking: the lock variables of the
  /// well-formed bodies containing it, ascending and distinct.
  [[nodiscard]] std::span<const SymbolId> locksAt(NodeId node) const {
    return {lockIndex_.data() + bodyStart_[node.index()],
            lockIndex_.data() + bodyStart_[node.index() + 1]};
  }

  /// True when some lock protects both nodes (their locksets intersect).
  [[nodiscard]] bool shareLock(NodeId a, NodeId b) const {
    return holdsAnyOf(a, locksAt(b));
  }

  /// True when the node's lockset meets `locks` (ascending and distinct).
  [[nodiscard]] bool holdsAnyOf(NodeId node,
                                std::span<const SymbolId> locks) const;

 private:
  void buildIndex(std::size_t nodeCount);

  std::vector<MutexBody> bodies_;
  std::unordered_map<SymbolId, std::vector<MutexBodyId>> structures_;
  std::vector<SymbolId> lockVars_;
  // Per-node index in compressed rows: node i's bodies are
  // bodyIndex_[bodyStart_[i] .. bodyStart_[i+1]), and lockIndex_ holds
  // each entry's lock variable at the same position.
  std::vector<std::uint32_t> bodyStart_;
  std::vector<MutexBodyId> bodyIndex_;
  std::vector<SymbolId> lockIndex_;
};

}  // namespace cssame::mutex
