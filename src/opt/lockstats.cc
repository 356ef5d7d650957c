#include "src/opt/lockstats.h"

#include "src/opt/lock_independence.h"

namespace cssame::opt {

CriticalSectionReport analyzeCriticalSections(
    const driver::Compilation& comp) {
  CriticalSectionReport report;
  const LockIndependence independence(comp);
  const pfg::Graph& graph = comp.graph();

  for (const mutex::MutexBody& b : comp.mutexes().bodies()) {
    BodyReport br;
    br.body = b.id;
    br.lockVar = b.lockVar;
    b.members.forEach([&](std::size_t nodeIdx) {
      const pfg::Node& n =
          graph.node(NodeId{static_cast<NodeId::value_type>(nodeIdx)});
      if (n.kind != pfg::NodeKind::Block) return;
      for (const ir::Stmt* s : n.stmts) {
        ++br.interiorStmts;
        if (independence.isLockIndependent(*s)) ++br.lockIndependent;
      }
      // Branch statements count as interior work too (their condition
      // evaluates under the lock) but are never individually movable.
      if (n.terminator != nullptr) ++br.interiorStmts;
    });
    report.totalInterior += br.interiorStmts;
    report.totalIndependent += br.lockIndependent;
    report.bodies.push_back(br);
  }
  return report;
}

}  // namespace cssame::opt
