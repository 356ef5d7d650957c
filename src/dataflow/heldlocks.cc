#include "src/dataflow/heldlocks.h"

namespace cssame::dataflow {

HeldLocks::HeldLocks(const pfg::Graph& graph)
    : graph_(graph), solver_(graph, Problem{graph.program().symbols.size()}) {
  // The lock lattice is finite and the transfer function monotone, so
  // the budget can only trip on absurd caps; treat that as an internal
  // error rather than a recoverable state (callers hold locksets, not
  // Expected<locksets>).
  const Status status = solver_.solve();
  CSSAME_CHECK(status.ok(), "held-locks dataflow did not converge");
}

bool HeldLocks::reachesWithoutUnlock(NodeId from, NodeId to,
                                     SymbolId lock) const {
  DynBitset seen(graph_.size());
  std::vector<NodeId> work;
  seen.set(from.index());
  for (NodeId s : graph_.node(from).succs) {
    if (!seen.test(s.index())) {
      seen.set(s.index());
      work.push_back(s);
    }
  }
  while (!work.empty()) {
    const NodeId cur = work.back();
    work.pop_back();
    if (cur == to) return true;
    const pfg::Node& n = graph_.node(cur);
    // An Unlock(lock) node terminates this path: beyond it the lock is
    // released again.
    if (n.kind == pfg::NodeKind::Unlock && n.syncStmt->sync == lock)
      continue;
    for (NodeId s : n.succs) {
      if (!seen.test(s.index())) {
        seen.set(s.index());
        work.push_back(s);
      }
    }
  }
  return false;
}

}  // namespace cssame::dataflow
