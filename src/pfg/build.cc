#include "src/pfg/build.h"

namespace cssame::pfg {

const char* nodeKindName(NodeKind k) {
  switch (k) {
    case NodeKind::Entry: return "entry";
    case NodeKind::Exit: return "exit";
    case NodeKind::Block: return "block";
    case NodeKind::Cobegin: return "cobegin";
    case NodeKind::Coend: return "coend";
    case NodeKind::Lock: return "lock";
    case NodeKind::Unlock: return "unlock";
    case NodeKind::Set: return "set";
    case NodeKind::Wait: return "wait";
    case NodeKind::Barrier: return "barrier";
    case NodeKind::Fence: return "fence";
  }
  return "?";
}

/// Lowers the IR in one walk that records nodes, edges, block statements
/// and thread contexts in creation order, then flattens the lists into the
/// graph's arrays. Counting sorts keep every list in push order, so
/// succs[0] stays the taken edge of a branch.
class GraphBuilder {
 public:
  explicit GraphBuilder(ir::Program& prog) : graph_(prog) {
    graph_.stmtNode_.resize(prog.numStmtIds());
  }

  Graph run() {
    graph_.entry = newNode(NodeKind::Entry);
    graph_.exit = newNode(NodeKind::Exit);
    NodeId cur = newBlock();
    addEdge(graph_.entry, cur);
    cur = lowerList(graph_.program().body, cur);
    addEdge(cur, graph_.exit);
    flatten();
    return std::move(graph_);
  }

 private:
  using Edge = std::pair<NodeId, NodeId>;
  using BlockStmt = std::pair<NodeId, ir::Stmt*>;
  using ContextEntry = std::pair<std::uint32_t, ThreadPathEntry>;

  NodeId newNode(NodeKind kind) {
    const NodeId id{static_cast<NodeId::value_type>(graph_.nodes_.size())};
    Node& n = graph_.nodes_.emplace_back();
    n.id = id;
    n.kind = kind;
    n.context = context_;
    return id;
  }

  NodeId newBlock() { return newNode(NodeKind::Block); }

  void addEdge(NodeId from, NodeId to) { edges_.emplace_back(from, to); }

  void mapStmt(const ir::Stmt* s, NodeId n) {
    graph_.stmtNode_[s->id.index()] = Graph::StmtSlot{s, n};
  }

  /// Opens the context of thread `ti` of cobegin `s` inside the current
  /// one. Each arm is lowered once, so every call makes a new context.
  void enterThread(const ir::Stmt* s, std::uint32_t ti) {
    path_.push_back(ThreadPathEntry{s->id, ti});
    enclosing_.push_back(context_);
    context_ = contexts_++;
    for (const ThreadPathEntry& e : path_)
      contextEntries_.emplace_back(context_, e);
  }

  void leaveThread() {
    path_.pop_back();
    context_ = enclosing_.back();
    enclosing_.pop_back();
  }

  /// Returns a Block node new statements can be appended to: `cur` itself
  /// if it is an unterminated Block, otherwise a fresh successor Block.
  NodeId ensureBlock(NodeId cur) {
    const Node& n = graph_.node(cur);
    if (n.kind == NodeKind::Block && n.terminator == nullptr) return cur;
    const NodeId b = newBlock();
    addEdge(cur, b);
    return b;
  }

  NodeId lowerSyncNode(NodeId cur, NodeKind kind, ir::Stmt* s) {
    const NodeId n = newNode(kind);
    graph_.node(n).syncStmt = s;
    mapStmt(s, n);
    addEdge(cur, n);
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
        blockStmts_.emplace_back(cur, s);
        mapStmt(s, cur);
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
        mapStmt(s, cur);
        // succs[0] = then entry, succs[1] = else entry / join.
        const NodeId thenEntry = newBlock();
        addEdge(cur, thenEntry);
        const NodeId thenExit = lowerList(s->thenBody, thenEntry);
        const NodeId join = newBlock();
        if (s->elseBody.empty()) {
          addEdge(cur, join);
        } else {
          const NodeId elseEntry = newBlock();
          addEdge(cur, elseEntry);
          const NodeId elseExit = lowerList(s->elseBody, elseEntry);
          addEdge(elseExit, join);
        }
        addEdge(thenExit, join);
        return join;
      }
      case StmtKind::While: {
        // Header evaluates the condition: succs[0] = body, succs[1] = exit.
        const NodeId header = newBlock();
        addEdge(cur, header);
        graph_.node(header).terminator = s;
        mapStmt(s, header);
        const NodeId bodyEntry = newBlock();
        addEdge(header, bodyEntry);
        const NodeId bodyExit = lowerList(s->thenBody, bodyEntry);
        addEdge(bodyExit, header);
        const NodeId exitB = newBlock();
        addEdge(header, exitB);
        return exitB;
      }
      case StmtKind::Cobegin: {
        const NodeId fork = newNode(NodeKind::Cobegin);
        graph_.node(fork).syncStmt = s;
        mapStmt(s, fork);
        addEdge(cur, fork);
        const NodeId join = newNode(NodeKind::Coend);
        graph_.node(join).syncStmt = s;
        for (std::uint32_t ti = 0; ti < s->threads.size(); ++ti) {
          enterThread(s, ti);
          const NodeId tEntry = newBlock();
          addEdge(fork, tEntry);
          const NodeId tExit = lowerList(s->threads[ti].body, tEntry);
          addEdge(tExit, join);
          leaveThread();
        }
        return join;
      }
    }
    return cur;
  }

  /// Moves the recorded lists into the graph's arrays and points every
  /// node's spans at its part of them.
  void flatten() {
    const std::size_t n = graph_.nodes_.size();
    const std::span<const Edge> edges(edges_);
    graph_.succs_ = FlatLists<NodeId>::group(
        n, edges, [](const Edge& e) { return e.first.index(); },
        [](const Edge& e) { return e.second; });
    graph_.preds_ = FlatLists<NodeId>::group(
        n, edges, [](const Edge& e) { return e.second.index(); },
        [](const Edge& e) { return e.first; });
    graph_.stmts_ = FlatLists<ir::Stmt*>::group(
        n, std::span<const BlockStmt>(blockStmts_),
        [](const BlockStmt& b) { return b.first.index(); },
        [](const BlockStmt& b) { return b.second; });
    graph_.contextPaths_ = FlatLists<ThreadPathEntry>::group(
        contexts_, std::span<const ContextEntry>(contextEntries_),
        [](const ContextEntry& c) { return c.first; },
        [](const ContextEntry& c) { return c.second; });
    for (Node& node : graph_.nodes_) {
      const std::size_t i = node.id.index();
      node.succs = graph_.succs_[i];
      node.preds = graph_.preds_[i];
      node.stmts = graph_.stmts_[i];
      node.threadPath = graph_.contextPaths_[node.context];
    }
  }

  Graph graph_;
  std::vector<Edge> edges_;
  std::vector<BlockStmt> blockStmts_;
  // Thread contexts: context 0 is the top level's empty path, and each
  // entry records one (context, path element) pair in path order.
  std::vector<ThreadPathEntry> path_;
  std::uint32_t context_ = 0;
  std::uint32_t contexts_ = 1;
  std::vector<std::uint32_t> enclosing_;
  std::vector<ContextEntry> contextEntries_;
};

Graph buildPfg(ir::Program& program) { return GraphBuilder(program).run(); }

std::string Graph::describe(NodeId id) const {
  const Node& n = node(id);
  std::string out = "#" + std::to_string(id.value()) + " " +
                    nodeKindName(n.kind);
  const ir::SymbolTable& syms = program_->symbols;
  if (n.isSync() && n.syncStmt != nullptr)
    out += "(" + syms.nameOf(n.syncStmt->sync) + ")";
  if (n.kind == NodeKind::Block) {
    out += " [" + std::to_string(n.stmts.size()) + " stmts" +
           (n.terminator != nullptr ? ", branch" : "") + "]";
  }
  return out;
}

}  // namespace cssame::pfg
