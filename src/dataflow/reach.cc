#include "src/dataflow/reach.h"

namespace cssame::dataflow {

std::vector<DynBitset> heldLocksOnEntry(const pfg::Graph& graph) {
  std::vector<std::vector<NodeId>> lockNodes(graph.program().symbols.size());
  for (const pfg::Node& n : graph.nodes())
    if (n.kind == pfg::NodeKind::Lock)
      lockNodes[n.syncStmt->sync.index()].push_back(n.id);
  Walker walker(graph);
  std::vector<DynBitset> held(lockNodes.size());
  for (std::size_t l = 0; l < lockNodes.size(); ++l) {
    if (lockNodes[l].empty()) continue;
    const SymbolId lock{static_cast<SymbolId::value_type>(l)};
    held[l] = DynBitset(graph.size());
    walker.walk(lockNodes[l], keepsHeld(lock),
                [&](NodeId n) { held[l].set(n.index()); });
  }
  return held;
}

std::vector<std::vector<StmtId>> pendingStoresOnEntry(
    const pfg::Graph& graph) {
  const ir::SymbolTable& syms = graph.program().symbols;
  // The stores each block leaves in the buffer, and the nodes that drain
  // it: every non-block node and every block with an atomic assignment.
  std::vector<std::vector<StmtId>> issued(graph.size());
  DynBitset drains(graph.size());
  for (const pfg::Node& n : graph.nodes()) {
    if (n.kind != pfg::NodeKind::Block) {
      drains.set(n.id.index());
      continue;
    }
    std::vector<StmtId>& stores = issued[n.id.index()];
    for (const ir::Stmt* s : n.stmts) {
      if (s->kind != ir::StmtKind::Assign) continue;
      const SymbolId cls = graph.aliases.defTargetOf(*s);
      if (s->atomic) {
        drains.set(n.id.index());
        stores.clear();
      } else if (cls.valid() && graph.aliases.classShared(cls, syms)) {
        // A plain store to any shared cell — direct, indexed, or through
        // a pointer — issues into the buffer.
        stores.push_back(s->id);
      }
    }
  }
  // The stores of one block walk alike, so each block walks once.
  Walker walker(graph);
  std::vector<std::vector<StmtId>> pending(graph.size());
  const auto passes = [&](const pfg::Node& n) {
    return !drains.test(n.id.index());
  };
  for (const pfg::Node& n : graph.nodes()) {
    const std::vector<StmtId>& stores = issued[n.id.index()];
    if (stores.empty()) continue;
    walker.walk({&n.id, 1}, passes, [&](NodeId e) {
      std::vector<StmtId>& window = pending[e.index()];
      window.insert(window.end(), stores.begin(), stores.end());
    });
  }
  for (std::vector<StmtId>& window : pending)
    std::sort(window.begin(), window.end());
  return pending;
}

}  // namespace cssame::dataflow
