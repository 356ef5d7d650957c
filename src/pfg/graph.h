// The Parallel Flow Graph (paper Definition 1).
//
// A PFG is a control flow graph over *parallel basic blocks* where
//   - Lock/Unlock (and Set/Wait) operations get their own nodes,
//   - cobegin/coend are explicit fork/join nodes,
//   - E = Ect ∪ Esync ∪ Ecf:
//       Ect    control flow edges (stored as succ/pred adjacency),
//       Esync  = Emutex (undirected lock↔unlock) ∪ Edsync (set→wait),
//       Ecf    directed conflict edges between concurrent blocks that
//              access the same shared variable, labelled def/use.
//     Ecf is stored (`conflicts`) once analysis::computeConflictEdges has
//     run. Esync is not: no analysis reads it (mutex bodies come from
//     dominance), so analysis::syncEdges derives it for the DOT writer.
//
// The graph never changes once built, so its per-node lists are stored
// flat in graph-owned arrays and each Node hands them out as spans (see
// support/flat_lists.h). A Graph is therefore move-only.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "src/ir/alias.h"
#include "src/ir/program.h"
#include "src/support/flat_lists.h"
#include "src/support/ids.h"
#include "src/support/status.h"

namespace cssame::pfg {

enum class NodeKind : std::uint8_t {
  Entry,    ///< unique EntryG
  Exit,     ///< unique ExitG
  Block,    ///< straight-line parallel basic block
  Cobegin,  ///< fork node
  Coend,    ///< join node
  Lock,     ///< Lock(L) — own node per Definition 1.3
  Unlock,   ///< Unlock(L)
  Set,      ///< Set(e)
  Wait,     ///< Wait(e)
  Barrier,  ///< barrier rendezvous of the enclosing cobegin's threads
  Fence,    ///< full memory fence; orders memory, synchronizes nothing
};

[[nodiscard]] const char* nodeKindName(NodeKind k);

/// Identifies the thread context of a node: the stack of (cobegin stmt,
/// thread index) pairs enclosing it. Two nodes whose paths first differ at
/// the same cobegin with different thread indices belong to concurrent
/// threads (see analysis::Mhp).
struct ThreadPathEntry {
  StmtId cobegin;
  std::uint32_t threadIndex = 0;

  friend bool operator==(const ThreadPathEntry& a, const ThreadPathEntry& b) {
    return a.cobegin == b.cobegin && a.threadIndex == b.threadIndex;
  }
};
/// A view of the graph's one interned copy of a thread path.
using ThreadPath = std::span<const ThreadPathEntry>;

struct Node {
  NodeId id;
  NodeKind kind = NodeKind::Block;

  /// Block only: simple statements (Assign / CallStmt / Print), in order.
  std::span<ir::Stmt* const> stmts;
  /// Block only: If/While statement whose condition is evaluated at the end
  /// of this node. With a terminator: succs[0] = taken (then/body),
  /// succs[1] = not taken (else/exit).
  ir::Stmt* terminator = nullptr;
  /// Lock/Unlock/Set/Wait: the sync statement. Cobegin/Coend: the cobegin
  /// statement they delimit.
  ir::Stmt* syncStmt = nullptr;

  std::span<const NodeId> succs;  ///< Ect out-edges
  std::span<const NodeId> preds;  ///< Ect in-edges

  /// Index of the node's thread context: nodes with equal thread paths
  /// share one, numbered in order of their first node.
  std::uint32_t context = 0;
  ThreadPath threadPath;

  [[nodiscard]] bool isSync() const {
    return kind == NodeKind::Lock || kind == NodeKind::Unlock ||
           kind == NodeKind::Set || kind == NodeKind::Wait;
  }
};

/// A directed conflict edge (Ecf). The paper labels each end def (D) or
/// use (U); we record the edge def-site → access-site with the access kind.
struct ConflictEdge {
  NodeId from;       ///< defining node
  NodeId to;         ///< node with the conflicting use or def
  SymbolId var;      ///< the shared variable
  bool toIsDef = false;  ///< DD edge when true, DU edge otherwise
};

/// An undirected mutex synchronization edge between a Lock and an Unlock
/// node of the same lock variable in concurrent threads (Emutex).
struct MutexEdge {
  NodeId lockNode;
  NodeId unlockNode;
  SymbolId lockVar;
};

/// A directed event synchronization edge Set(e) → Wait(e) (Edsync).
struct DsyncEdge {
  NodeId setNode;
  NodeId waitNode;
  SymbolId eventVar;
};

class Graph {
 public:
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  [[nodiscard]] ir::Program& program() const { return *program_; }

  [[nodiscard]] Node& node(NodeId id) {
    CSSAME_CHECK(id.valid() && id.index() < nodes_.size(),
                 "pfg node id out of range");
    return nodes_[id.index()];
  }
  [[nodiscard]] const Node& node(NodeId id) const {
    CSSAME_CHECK(id.valid() && id.index() < nodes_.size(),
                 "pfg node id out of range");
    return nodes_[id.index()];
  }

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] std::vector<Node>& nodes() { return nodes_; }

  /// Number of distinct thread contexts (Node::context is below it).
  [[nodiscard]] std::size_t contextCount() const {
    return contextPaths_.keys();
  }
  /// The thread path shared by every node of context `c`.
  [[nodiscard]] ThreadPath contextPath(std::uint32_t c) const {
    return contextPaths_[c];
  }

  NodeId entry;
  NodeId exit;

  std::vector<ConflictEdge> conflicts;

  /// May-alias partition the access index and SSA construction key on.
  /// Defaults to the identity (every symbol its own class; no deref
  /// sites), which is exact for scalar-only programs. The pipeline
  /// installs a conservative partition before its first analysis of a
  /// pointer program and a points-to-refined one for the rebuild.
  ir::AliasClasses aliases;

  /// Node that evaluates/executes the given statement. Simple statements
  /// map to their Block, If/While to the block they terminate, sync
  /// statements to their own node, Cobegin to the fork node. Invalid for
  /// a statement the graph was not built from.
  [[nodiscard]] NodeId nodeOf(const ir::Stmt* s) const {
    if (s == nullptr || s->id.index() >= stmtNode_.size()) return NodeId{};
    const StmtSlot& slot = stmtNode_[s->id.index()];
    return slot.stmt == s ? slot.node : NodeId{};
  }

  /// Human-readable one-line description of a node, for DOT labels/tests.
  [[nodiscard]] std::string describe(NodeId id) const;

 private:
  friend class GraphBuilder;  // src/pfg/build.cc

  explicit Graph(ir::Program& program) : program_(&program) {}

  /// One StmtId's entry of the statement-to-node table; `stmt` tells a
  /// lowered statement from another with the same id.
  struct StmtSlot {
    const ir::Stmt* stmt = nullptr;
    NodeId node;
  };

  ir::Program* program_;
  std::vector<Node> nodes_;
  // The arrays the nodes' spans view.
  FlatLists<NodeId> succs_;
  FlatLists<NodeId> preds_;
  FlatLists<ir::Stmt*> stmts_;
  FlatLists<ThreadPathEntry> contextPaths_;
  std::vector<StmtSlot> stmtNode_;  ///< indexed by StmtId
};

}  // namespace cssame::pfg
