#include "src/mutex/deadlock.h"

#include <algorithm>
#include <map>
#include <set>

namespace cssame::mutex {

namespace {

/// One nested acquisition: a Lock(inner) node inside a body of `outer`.
struct Acquisition {
  SymbolId outer;
  SymbolId inner;
  NodeId site;  ///< the inner Lock node
};

}  // namespace

DeadlockReport detectDeadlocks(const pfg::Graph& graph,
                               const analysis::Mhp& mhp,
                               const MutexStructures& structures,
                               DiagEngine& diag) {
  DeadlockReport report;
  const ir::SymbolTable& syms = graph.program().symbols;

  // Collect nested acquisitions from well-formed bodies.
  std::vector<Acquisition> acquisitions;
  for (const pfg::Node& n : graph.nodes()) {
    if (n.kind != pfg::NodeKind::Lock) continue;
    const SymbolId inner = n.syncStmt->sync;
    for (MutexBodyId id : structures.bodiesContaining(n.id)) {
      const SymbolId outer = structures.body(id).lockVar;
      if (outer != inner)
        acquisitions.push_back(Acquisition{outer, inner, n.id});
    }
  }

  auto siteLoc = [&graph](NodeId site) {
    return graph.node(site).syncStmt->loc;
  };

  // ABBA: opposite orders at sites that may run concurrently.
  std::set<std::pair<SymbolId, SymbolId>> reported;
  for (const Acquisition& ab : acquisitions) {
    for (const Acquisition& ba : acquisitions) {
      if (ab.outer != ba.inner || ab.inner != ba.outer) continue;
      if (!mhp.mayHappenInParallel(ab.site, ba.site)) continue;
      const auto key = std::minmax(ab.outer, ab.inner);
      if (!reported.insert({key.first, key.second}).second) continue;
      ++report.abbaPairs;
      diag.warn(DiagCode::PotentialDeadlock, siteLoc(ab.site),
                "potential deadlock: locks '" + syms.nameOf(ab.outer) +
                    "' and '" + syms.nameOf(ab.inner) +
                    "' are acquired in opposite orders by concurrent "
                    "threads")
          .note(siteLoc(ab.site),
                "this thread acquires '" + syms.nameOf(ab.inner) +
                    "' while holding '" + syms.nameOf(ab.outer) + "'")
          .note(siteLoc(ba.site),
                "a concurrent thread acquires '" + syms.nameOf(ba.inner) +
                    "' while holding '" + syms.nameOf(ba.outer) + "'");
    }
  }

  // Longer cycles in the lock-order digraph (conservative: no pairwise
  // concurrency check). DFS over unique edges, keeping the path so the
  // warning can name a representative cycle with real source sites.
  std::map<SymbolId, std::set<SymbolId>> order;
  std::map<std::pair<SymbolId, SymbolId>, NodeId> edgeSite;
  for (const Acquisition& a : acquisitions) {
    order[a.outer].insert(a.inner);
    edgeSite.emplace(std::make_pair(a.outer, a.inner), a.site);
  }

  std::set<SymbolId> visiting, done;
  std::vector<SymbolId> path;
  std::vector<SymbolId> witnessCycle;  ///< first cycle through >= 3 locks
  std::size_t cycles = 0;
  auto dfs = [&](SymbolId v, auto&& self) -> void {
    visiting.insert(v);
    path.push_back(v);
    auto it = order.find(v);
    if (it != order.end()) {
      for (SymbolId next : it->second) {
        if (visiting.contains(next)) {
          // 2-cycles are the ABBA detector's province, where the MHP
          // check can rule out sequential opposite orders; only cycles
          // through three or more locks are counted here.
          const auto start = std::find(path.begin(), path.end(), next);
          if (std::distance(start, path.end()) >= 3) {
            ++cycles;
            if (witnessCycle.empty())
              witnessCycle.assign(start, path.end());
          }
          continue;
        }
        if (!done.contains(next)) self(next, self);
      }
    }
    path.pop_back();
    visiting.erase(v);
    done.insert(v);
  };
  for (const auto& [v, _] : order)
    if (!done.contains(v)) dfs(v, dfs);

  report.orderCycles = cycles;
  if (report.orderCycles > 0) {
    // Anchor the warning at the first acquisition of the witness cycle so
    // it points at source instead of <unknown>.
    SourceLoc loc;
    if (!witnessCycle.empty()) {
      auto it = edgeSite.find({witnessCycle.front(),
                               witnessCycle[1 % witnessCycle.size()]});
      if (it != edgeSite.end()) loc = siteLoc(it->second);
    }
    Diagnostic& d = diag.warn(
        DiagCode::PotentialDeadlock, loc,
        "lock-order graph contains " + std::to_string(report.orderCycles) +
            " cycle(s) through three or more locks");
    for (std::size_t i = 0; i < witnessCycle.size(); ++i) {
      const SymbolId from = witnessCycle[i];
      const SymbolId to = witnessCycle[(i + 1) % witnessCycle.size()];
      auto it = edgeSite.find({from, to});
      if (it == edgeSite.end()) continue;
      d.note(siteLoc(it->second),
             "'" + syms.nameOf(to) + "' acquired while holding '" +
                 syms.nameOf(from) + "'");
    }
  }
  return report;
}

}  // namespace cssame::mutex
