#include "src/analysis/concurrency.h"

#include <algorithm>
#include <set>

namespace cssame::analysis {

Mhp::Mhp(const pfg::Graph& graph, const Dominators& dom) {
  buildOrderingFacts(graph, dom);
  buildContextTables(graph);
  buildBarrierPhases(graph, dom);
}

void Mhp::buildContextTables(const pfg::Graph& graph) {
  // The graph interns the distinct thread paths. Real programs have one
  // context per (possibly nested) cobegin arm plus the sequential top
  // level, so the pairwise table stays tiny even for huge graphs.
  contextCount_ = static_cast<std::uint32_t>(graph.contextCount());
  ctxOf_.resize(graph.size());
  for (const pfg::Node& node : graph.nodes())
    ctxOf_[node.id.index()] = node.context;

  // Every concurrent pair is subject to the set/wait refinement as soon
  // as any event orders anything; buildBarrierPhases adds the barrier
  // refinement where a barrier can separate the pair.
  const std::uint8_t refine = orderingEvents_ != 0 ? kRefineOrdering : 0;
  pairs_.assign(std::size_t{contextCount_} * contextCount_, PairEntry{});
  for (std::uint32_t ca = 0; ca < contextCount_; ++ca) {
    for (std::uint32_t cb = 0; cb < contextCount_; ++cb) {
      PairEntry& p = pairs_[std::size_t{ca} * contextCount_ + cb];
      p.concurrent = pathsDiverge(graph.contextPath(ca), graph.contextPath(cb),
                                  &p.divergence, &p.level);
      if (p.concurrent) p.refine = refine;
    }
  }
}

void Mhp::buildOrderingFacts(const pfg::Graph& graph, const Dominators& dom) {
  // Per event variable: its Set nodes and Wait nodes.
  std::unordered_map<SymbolId, std::vector<NodeId>> setNodes, waitNodes;
  for (const pfg::Node& n : graph.nodes()) {
    if (n.kind == pfg::NodeKind::Set)
      setNodes[n.syncStmt->sync].push_back(n.id);
    else if (n.kind == pfg::NodeKind::Wait)
      waitNodes[n.syncStmt->sync].push_back(n.id);
  }
  // Only events with both a Set and a Wait node can order anything.
  std::vector<std::pair<const std::vector<NodeId>*,
                        const std::vector<NodeId>*>> events;
  for (const auto& [event, sets] : setNodes) {
    auto waitsIt = waitNodes.find(event);
    if (waitsIt != waitNodes.end()) events.push_back({&sets, &waitsIt->second});
  }
  orderingEvents_ = events.size();
  if (orderingEvents_ == 0) return;

  ordSrc_.assign(graph.size(), DynBitset(orderingEvents_));
  ordDst_.assign(graph.size(), DynBitset(orderingEvents_));
  std::vector<NodeId> stack;
  for (std::size_t e = 0; e < events.size(); ++e) {
    // ordSrc: every dominator of a Set(e) node (the idom chain, s
    // included — dominance is reflexive).
    for (NodeId s : *events[e].first) {
      if (!dom.reachable(s)) continue;
      for (NodeId x = s;;) {
        ordSrc_[x.index()].set(e);
        if (x == dom.root()) break;
        x = dom.idom(x);
        if (!x.valid()) break;
      }
    }
    // ordDst: every node dominated by a Wait(e) node (its dom subtree).
    for (NodeId w : *events[e].second) {
      if (!dom.reachable(w)) continue;
      stack.assign(1, w);
      while (!stack.empty()) {
        const NodeId x = stack.back();
        stack.pop_back();
        ordDst_[x.index()].set(e);
        for (NodeId c : dom.children(x)) stack.push_back(c);
      }
    }
  }
}

void Mhp::buildBarrierPhases(const pfg::Graph& graph, const Dominators& dom) {
  // A barrier belongs to the arm of its *innermost* cobegin; one at the
  // top level has no partners.
  std::vector<NodeId> barriers;
  for (const pfg::Node& n : graph.nodes())
    if (n.kind == pfg::NodeKind::Barrier && !n.threadPath.empty())
      barriers.push_back(n.id);
  if (barriers.empty()) return;

  phaseBase_.resize(graph.size());
  std::size_t levels = 0;
  for (const pfg::Node& n : graph.nodes()) {
    phaseBase_[n.id.index()] = static_cast<std::uint32_t>(levels);
    levels += n.threadPath.size();
  }
  phases_.assign(levels, BarrierPhase{});

  // Count each barrier at its own level in the phases of the nodes of
  // its arm it dominates and reaches. A cobegin one of whose barriers
  // sits on a control cycle (inside a loop) may pass it repeatedly; the
  // phase-counting argument then breaks, so its refinement is disabled.
  std::set<std::uint32_t> disabled;
  std::set<std::pair<std::uint32_t, std::uint32_t>> barrierArms;
  DynBitset reach(graph.size());
  std::vector<NodeId> work;
  for (NodeId bar : barriers) {
    const pfg::ThreadPath path = graph.node(bar).threadPath;
    const std::size_t level = path.size() - 1;
    const pfg::ThreadPathEntry arm = path.back();
    barrierArms.insert({arm.cobegin.value(), arm.threadIndex});
    auto inArm = [&](NodeId x) {
      const pfg::ThreadPath xp = graph.node(x).threadPath;
      return xp.size() > level && xp[level] == arm;
    };

    // Dominated nodes: the barrier's dominator subtree, itself included.
    if (dom.reachable(bar)) {
      work.assign(1, bar);
      while (!work.empty()) {
        const NodeId x = work.back();
        work.pop_back();
        if (inArm(x)) ++phases_[phaseBase_[x.index()] + level].dominating;
        for (NodeId c : dom.children(x)) work.push_back(c);
      }
    }

    // Reached nodes: everything reachable from the barrier's successors.
    reach.resetAll();
    work.clear();
    for (NodeId s : graph.node(bar).succs) {
      if (!reach.test(s.index())) {
        reach.set(s.index());
        work.push_back(s);
      }
    }
    while (!work.empty()) {
      const NodeId cur = work.back();
      work.pop_back();
      if (inArm(cur)) ++phases_[phaseBase_[cur.index()] + level].reaching;
      for (NodeId s : graph.node(cur).succs) {
        if (!reach.test(s.index())) {
          reach.set(s.index());
          work.push_back(s);
        }
      }
    }
    if (reach.test(bar.index())) disabled.insert(arm.cobegin.value());
  }

  // A pair of sibling arms can be separated when its cobegin's
  // refinement is enabled and either arm holds a barrier.
  bool anyBarrierPair = false;
  for (PairEntry& p : pairs_) {
    if (!p.concurrent) continue;
    const std::uint32_t c = p.divergence.cobegin.value();
    if (disabled.contains(c)) continue;
    if (!barrierArms.contains({c, p.divergence.armA}) &&
        !barrierArms.contains({c, p.divergence.armB}))
      continue;
    p.refine |= kRefineBarrier;
    anyBarrierPair = true;
  }
  if (!anyBarrierPair) {
    phaseBase_ = {};
    phases_ = {};
  }
}

bool Mhp::pathsDiverge(pfg::ThreadPath pa, pfg::ThreadPath pb, Divergence* d,
                       std::uint32_t* level) {
  const std::size_t common = std::min(pa.size(), pb.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (pa[i].cobegin != pb[i].cobegin) return false;  // unrelated forks
    if (pa[i].threadIndex != pb[i].threadIndex) {
      d->cobegin = pa[i].cobegin;
      d->armA = pa[i].threadIndex;
      d->armB = pb[i].threadIndex;
      *level = static_cast<std::uint32_t>(i);
      return true;
    }
  }
  // One path is a prefix of the other: same thread lineage, sequential.
  return false;
}

void computeConflictEdges(pfg::Graph& graph, const Mhp& mhp,
                          const AccessSites& sites) {
  pfg::ConflictRelation& ecf = graph.conflicts;
  ecf = pfg::ConflictRelation{};
  ecf.sources.reserve(sites.nodeDefs.size());

  // A class's runs are built when its first defining node comes up. The
  // defining nodes of one class arrive in id order, so a cursor finds
  // each one's own run.
  struct ClassRuns {
    bool built = false;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t cursor = 0;
  };
  // Per run: the edges its members end, and the list of its class and
  // context, once some defining node in the run asks for it.
  struct RunInfo {
    std::uint32_t runEdges = 0;
    bool listBuilt = false;
    std::uint32_t listBegin = 0;
    std::uint32_t listEnd = 0;
    std::size_t listEdges = 0;
  };
  std::vector<ClassRuns> classes(graph.program().symbols.size());
  std::vector<RunInfo> runInfo;

  // Merges the class's def and use records, both in node-id order, into
  // one accessor per node, and cuts a run wherever the context changes.
  auto appendRuns = [&](SymbolId cls, ClassRuns& cr) {
    const std::vector<AccessSites::Def>& defs = sites.defs.find(cls)->second;
    const auto usesIt = sites.uses.find(cls);
    const std::span<const AccessSites::Use> uses =
        usesIt != sites.uses.end() ? std::span(usesIt->second)
                                   : std::span<const AccessSites::Use>{};
    cr.built = true;
    cr.begin = cr.cursor = static_cast<std::uint32_t>(ecf.runs.size());
    std::size_t i = 0, j = 0;
    while (i < defs.size() || j < uses.size()) {
      const NodeId node =
          j == uses.size() || (i < defs.size() && defs[i].node < uses[j].node)
              ? defs[i].node
              : uses[j].node;
      pfg::ConflictRelation::Accessor a{node, false, false};
      for (; i < defs.size() && defs[i].node == node; ++i) a.def = true;
      for (; j < uses.size() && uses[j].node == node; ++j) a.use = true;
      const std::uint32_t ctx = graph.node(node).context;
      const auto at = static_cast<std::uint32_t>(ecf.accessors.size());
      if (ecf.runs.size() == cr.begin || ecf.runs.back().context != ctx) {
        ecf.runs.push_back(pfg::ConflictRelation::Run{at, at, ctx});
        runInfo.emplace_back();
      }
      ecf.accessors.push_back(a);
      ++ecf.runs.back().end;
      runInfo.back().runEdges += (a.use ? 1 : 0) + (a.def ? 1 : 0);
    }
    cr.end = static_cast<std::uint32_t>(ecf.runs.size());
  };

  // Lists the class's runs whose context conflicts with that of run
  // `own`, and hands the list to every run of the class in that context.
  auto buildList = [&](const ClassRuns& cr, std::uint32_t own) {
    const std::uint32_t ctx = ecf.runs[own].context;
    const auto begin = static_cast<std::uint32_t>(ecf.listRuns.size());
    std::size_t edges = 0;
    for (std::uint32_t r = cr.begin; r < cr.end; ++r) {
      if (mhp.contextRelation(ctx, ecf.runs[r].context) ==
          Mhp::ContextRelation::Sequential)
        continue;
      ecf.listRuns.push_back(r);
      edges += runInfo[r].runEdges;
    }
    const auto end = static_cast<std::uint32_t>(ecf.listRuns.size());
    for (std::uint32_t r = cr.begin; r < cr.end; ++r) {
      if (ecf.runs[r].context != ctx) continue;
      runInfo[r].listBuilt = true;
      runInfo[r].listBegin = begin;
      runInfo[r].listEnd = end;
      runInfo[r].listEdges = edges;
    }
  };

  for (const AccessSites::NodeDef& nd : sites.nodeDefs) {
    ClassRuns& cr = classes[nd.cls.index()];
    if (!cr.built) appendRuns(nd.cls, cr);
    while (cr.cursor + 1 < cr.end &&
           !(nd.node < ecf.accessors[ecf.runs[cr.cursor + 1].begin].node))
      ++cr.cursor;
    if (!runInfo[cr.cursor].listBuilt) buildList(cr, cr.cursor);
    const RunInfo& own = runInfo[cr.cursor];
    if (own.listEdges == 0) continue;
    ecf.sources.push_back(pfg::ConflictRelation::Source{
        nd.node, nd.cls, own.listBegin, own.listEnd});
    ecf.edgeCount += own.listEdges;
  }
}

SyncEdges syncEdges(const pfg::Graph& graph, const Mhp& mhp) {
  SyncEdges out;
  // Sync nodes, indexed by kind (and target symbol for the edge heads) so
  // the pairing below touches only same-symbol candidates.
  std::vector<const pfg::Node*> lockNodes, setNodes;
  std::unordered_map<SymbolId, std::vector<const pfg::Node*>> unlocksBySym,
      waitsBySym;
  for (const pfg::Node& n : graph.nodes()) {
    switch (n.kind) {
      case pfg::NodeKind::Lock: lockNodes.push_back(&n); break;
      case pfg::NodeKind::Unlock:
        unlocksBySym[n.syncStmt->sync].push_back(&n);
        break;
      case pfg::NodeKind::Set: setNodes.push_back(&n); break;
      case pfg::NodeKind::Wait:
        waitsBySym[n.syncStmt->sync].push_back(&n);
        break;
      default: break;
    }
  }

  // Emutex: Lock(L) <-> Unlock(L) in concurrent threads.
  for (const pfg::Node* a : lockNodes) {
    auto it = unlocksBySym.find(a->syncStmt->sync);
    if (it == unlocksBySym.end()) continue;
    for (const pfg::Node* b : it->second) {
      if (!mhp.mayHappenInParallel(a->id, b->id)) continue;
      out.mutex.push_back(pfg::MutexEdge{a->id, b->id, a->syncStmt->sync});
    }
  }

  // Edsync: Set(e) -> Wait(e) in concurrent threads.
  for (const pfg::Node* a : setNodes) {
    auto it = waitsBySym.find(a->syncStmt->sync);
    if (it == waitsBySym.end()) continue;
    for (const pfg::Node* b : it->second) {
      if (!mhp.inConcurrentThreads(a->id, b->id)) continue;
      out.dsync.push_back(pfg::DsyncEdge{a->id, b->id, a->syncStmt->sync});
    }
  }
  return out;
}

namespace {

/// The first record of `cls` at `node` in a node-ordered record map.
template <typename Record>
const Record* firstAt(
    const std::unordered_map<SymbolId, std::vector<Record>>& records,
    NodeId node, SymbolId cls) {
  const auto it = records.find(cls);
  if (it == records.end()) return nullptr;
  const auto at = std::lower_bound(
      it->second.begin(), it->second.end(), node,
      [](const Record& r, NodeId n) { return r.node < n; });
  return at != it->second.end() && at->node == node ? &*at : nullptr;
}

}  // namespace

const AccessSites::Def* AccessSites::defAt(NodeId node, SymbolId cls) const {
  return firstAt(defs, node, cls);
}

const AccessSites::Use* AccessSites::useAt(NodeId node, SymbolId cls) const {
  return firstAt(uses, node, cls);
}

AccessSites collectAccessSites(const pfg::Graph& graph) {
  AccessSites sites;
  const ir::SymbolTable& syms = graph.program().symbols;
  const ir::AliasClasses& aliases = graph.aliases;

  // Every reading expression — VarRef, Index load, Deref load — keys by
  // its alias class. Under the identity partition this degenerates to the
  // historic walk: shared VarRefs only (Index keys by its array symbol;
  // Deref sites are only mapped once a partition is installed).
  auto collectUses = [&](const ir::Expr& e, ir::Stmt* stmt, NodeId node) {
    ir::forEachExpr(e, [&](const ir::Expr& sub) {
      const SymbolId cls = aliases.useTargetOf(sub);
      if (!cls.valid() || !aliases.classShared(cls, syms)) return;
      const bool viaDeref = sub.kind == ir::ExprKind::Deref;
      sites.uses[cls].push_back(AccessSites::Use{
          &sub, stmt, node, viaDeref ? SymbolId{} : sub.var, viaDeref});
    });
  };

  for (const pfg::Node& n : graph.nodes()) {
    const std::size_t nodeDefsBegin = sites.nodeDefs.size();
    for (ir::Stmt* s : n.stmts) {
      if (s->expr) collectUses(*s->expr, s, n.id);
      // `a[i] = e` reads i; `*p = e` reads p. The address operand is a
      // plain use walk of its own.
      if (s->lhsAddr) collectUses(*s->lhsAddr, s, n.id);
      const SymbolId def = aliases.defTargetOf(*s);
      if (def.valid() && aliases.classShared(def, syms)) {
        const bool viaDeref = s->lhsKind == ir::LValueKind::Deref;
        sites.defs[def].push_back(AccessSites::Def{
            s, n.id, viaDeref ? SymbolId{} : s->lhs, viaDeref});
        if (std::none_of(sites.nodeDefs.begin() + nodeDefsBegin,
                         sites.nodeDefs.end(),
                         [&](const AccessSites::NodeDef& d) {
                           return d.cls == def;
                         }))
          sites.nodeDefs.push_back(AccessSites::NodeDef{n.id, def});
      }
    }
    if (n.terminator != nullptr && n.terminator->expr)
      collectUses(*n.terminator->expr, n.terminator, n.id);
  }
  return sites;
}

}  // namespace cssame::analysis
