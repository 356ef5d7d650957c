#include "src/ssa/ssa.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace cssame::ssa {

SsaNameId SsaForm::newDef(DefKind kind, SymbolId var, NodeId node) {
  Definition d;
  d.name = SsaNameId{static_cast<SsaNameId::value_type>(defs.size())};
  d.kind = kind;
  d.var = var;
  d.version = versionCounter_[var]++;
  d.node = node;
  defs.push_back(std::move(d));
  return defs.back().name;
}

std::vector<SsaNameId> SsaForm::livePis() const {
  std::vector<SsaNameId> out;
  for (const Definition& d : defs)
    if (d.kind == DefKind::Pi && !d.removed) out.push_back(d.name);
  return out;
}

std::size_t SsaForm::countLivePis() const { return livePis().size(); }

std::size_t SsaForm::countLivePhis() const {
  std::size_t n = 0;
  for (const Definition& d : defs)
    if (d.kind == DefKind::Phi && !d.removed) ++n;
  return n;
}

std::size_t SsaForm::countPiConflictArgs() const {
  std::size_t n = 0;
  for (const Definition& d : defs)
    if (d.kind == DefKind::Pi && !d.removed) n += d.piConflictArgs.size();
  return n;
}

std::string SsaForm::nameOf(SsaNameId n, const ir::SymbolTable& syms) const {
  const Definition& d = def(n);
  return syms.nameOf(d.var) + std::to_string(d.version);
}

namespace {

class Builder {
 public:
  Builder(pfg::Graph& graph, const analysis::Dominators& dom)
      : graph_(graph),
        dom_(dom),
        syms_(graph.program().symbols),
        aliases_(graph.aliases) {}

  SsaForm run() {
    form_.phisAt.assign(graph_.size(), {});
    createEntryDefs();
    placePhis();
    rename();
    pruneCoendPhis();
    return std::move(form_);
  }

 private:
  void createEntryDefs() {
    form_.entryDef.assign(graph_.program().symbols.size(), SsaNameId{});
    // One entry definition per alias class (per symbol under identity);
    // class members share their representative's definition.
    for (const ir::Symbol& sym : syms_.all()) {
      if (sym.kind != ir::SymbolKind::Var) continue;
      if (aliases_.repOf(sym.id) != sym.id) continue;
      form_.entryDef[sym.id.index()] =
          form_.newDef(DefKind::Entry, sym.id, graph_.entry);
    }
    for (const ir::Symbol& sym : syms_.all()) {
      if (sym.kind != ir::SymbolKind::Var) continue;
      const SymbolId rep = aliases_.repOf(sym.id);
      if (rep != sym.id)
        form_.entryDef[sym.id.index()] = form_.entryDef[rep.index()];
    }
  }

  // Minimal SSA φ placement: iterated dominance frontier of each alias
  // class's definition nodes (the entry node counts as a definition site
  // — the entry value merges with conditional definitions).
  void placePhis() {
    std::unordered_map<SymbolId, std::vector<NodeId>> defNodes;
    for (const pfg::Node& n : graph_.nodes()) {
      for (const ir::Stmt* s : n.stmts) {
        const SymbolId cls = aliases_.defTargetOf(*s);
        if (cls.valid()) defNodes[cls].push_back(n.id);
      }
    }

    for (auto& [var, nodes] : defNodes) {
      std::vector<bool> hasPhi(graph_.size(), false);
      std::vector<bool> inWork(graph_.size(), false);
      std::vector<NodeId> work = nodes;
      work.push_back(graph_.entry);  // the Entry definition's site
      for (NodeId n : work) inWork[n.index()] = true;
      while (!work.empty()) {
        const NodeId n = work.back();
        work.pop_back();
        if (!dom_.reachable(n)) continue;
        for (NodeId f : dom_.frontier(n)) {
          if (hasPhi[f.index()]) continue;
          hasPhi[f.index()] = true;
          const SsaNameId phi = form_.newDef(DefKind::Phi, var, f);
          form_.phisAt[f.index()].push_back(phi);
          if (!inWork[f.index()]) {
            inWork[f.index()] = true;
            work.push_back(f);
          }
        }
      }
    }
  }

  // Dominator-tree renaming with per-variable definition stacks. Builds
  // the factored use-def chains: useDef for every VarRef, φ arguments per
  // incoming control edge.
  void rename() {
    // Stacks live at class-representative indices only; every access goes
    // through repOf, so member symbols never touch their own slot.
    stacks_.assign(syms_.size(), {});
    for (const ir::Symbol& sym : syms_.all())
      if (sym.kind == ir::SymbolKind::Var && aliases_.repOf(sym.id) == sym.id)
        stacks_[sym.id.index()].push_back(form_.entryDef[sym.id.index()]);
    renameNode(dom_.root());
  }

  SsaNameId top(SymbolId cls) const {
    const auto& st = stacks_[cls.index()];
    assert(!st.empty());
    return st.back();
  }

  void resolveUses(const ir::Expr& e) {
    ir::forEachExpr(e, [&](const ir::Expr& sub) {
      const SymbolId cls = aliases_.useTargetOf(sub);
      if (cls.valid()) form_.useDef[&sub] = top(cls);
    });
  }

  void renameNode(NodeId id) {
    const pfg::Node& n = graph_.node(id);
    // This node's pushes sit above `mark` on the shared undo stack.
    const std::size_t mark = pushed_.size();

    auto push = [&](SymbolId var, SsaNameId def) {
      stacks_[var.index()].push_back(def);
      pushed_.push_back(var);
    };

    for (SsaNameId phi : form_.phisAt[id.index()])
      push(form_.def(phi).var, phi);

    for (ir::Stmt* s : n.stmts) {
      if (s->expr) resolveUses(*s->expr);
      if (s->lhsAddr) resolveUses(*s->lhsAddr);
      const SymbolId cls = aliases_.defTargetOf(*s);
      if (cls.valid()) {
        const SsaNameId d = form_.newDef(DefKind::Assign, cls, id);
        form_.def(d).stmt = s;
        form_.def(d).weak = !aliases_.strongDef(*s);
        form_.assignDef[s] = d;
        push(cls, d);
      }
    }
    if (n.terminator != nullptr && n.terminator->expr)
      resolveUses(*n.terminator->expr);

    // Fill φ arguments of control successors for the edge (id → succ).
    for (NodeId succ : n.succs) {
      for (SsaNameId phi : form_.phisAt[succ.index()]) {
        Definition& p = form_.def(phi);
        p.phiArgs.push_back(PhiArg{id, top(p.var)});
      }
    }

    for (NodeId child : dom_.children(id)) renameNode(child);

    while (pushed_.size() > mark) {
      stacks_[pushed_.back().index()].pop_back();
      pushed_.pop_back();
    }
  }

  // coend φ pruning: keep only arguments from threads that define the
  // variable; fold single-argument φs into copies (see ssa.h header).
  void pruneCoendPhis() {
    // (cobegin stmt id, thread index) → does it define var v? Encoded as a
    // set of (cobegin, thread, var) triples via nested maps.
    struct Key {
      StmtId cobegin;
      std::uint32_t thread;
      SymbolId var;
      bool operator==(const Key&) const = default;
    };
    struct KeyHash {
      std::size_t operator()(const Key& k) const {
        std::size_t h = std::hash<StmtId>{}(k.cobegin);
        h = h * 31 + k.thread;
        h = h * 31 + std::hash<SymbolId>{}(k.var);
        return h;
      }
    };
    std::unordered_set<Key, KeyHash> threadDefines;
    for (const Definition& d : form_.defs) {
      if (d.kind != DefKind::Assign) continue;
      for (const pfg::ThreadPathEntry& e : graph_.node(d.node).threadPath)
        threadDefines.insert(Key{e.cobegin, e.threadIndex, d.var});
    }

    auto threadIndexOf = [&](NodeId pred, StmtId cobegin) -> std::int64_t {
      for (const pfg::ThreadPathEntry& e : graph_.node(pred).threadPath)
        if (e.cobegin == cobegin) return e.threadIndex;
      return -1;
    };

    // Folded φ → its replacement. The decisions below read no names, so
    // the uses are rewritten once, after the last fold.
    std::vector<SsaNameId> forward(form_.defs.size());
    bool folded = false;
    for (const pfg::Node& n : graph_.nodes()) {
      if (n.kind != pfg::NodeKind::Coend) continue;
      const StmtId cobegin = n.syncStmt->id;
      auto& phis = form_.phisAt[n.id.index()];
      for (auto it = phis.begin(); it != phis.end();) {
        Definition& p = form_.def(*it);
        auto& args = p.phiArgs;
        args.erase(std::remove_if(args.begin(), args.end(),
                                  [&](const PhiArg& a) {
                                    const std::int64_t ti =
                                        threadIndexOf(a.pred, cobegin);
                                    if (ti < 0) return false;  // not a thread edge
                                    return !threadDefines.contains(
                                        Key{cobegin,
                                            static_cast<std::uint32_t>(ti),
                                            p.var});
                                  }),
                   args.end());
        if (args.size() == 1) {
          // Resolving the target now keeps the table acyclic: a φ whose
          // last argument already forwards back to it folds into itself.
          const SsaNameId to = resolve(forward, args.front().def);
          if (to != p.name) {
            forward[p.name.index()] = to;
            folded = true;
          }
          p.removed = true;
          it = phis.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (folded) forwardAllUses(forward);
  }

  /// Follows a name through the folded φs to the name that replaces it.
  static SsaNameId resolve(const std::vector<SsaNameId>& forward,
                           SsaNameId name) {
    while (forward[name.index()].valid()) name = forward[name.index()];
    return name;
  }

  /// Rewrites every use-def link and every argument — removed φs'
  /// included — through the forwarding table, in one pass.
  void forwardAllUses(const std::vector<SsaNameId>& forward) {
    for (auto& [use, def] : form_.useDef) def = resolve(forward, def);
    for (Definition& d : form_.defs) {
      for (PhiArg& a : d.phiArgs) a.def = resolve(forward, a.def);
      if (d.kind == DefKind::Pi) {
        d.piControlArg = resolve(forward, d.piControlArg);
        for (PiConflictArg& a : d.piConflictArgs)
          a.def = resolve(forward, a.def);
      }
    }
  }

  pfg::Graph& graph_;
  const analysis::Dominators& dom_;
  const ir::SymbolTable& syms_;
  const ir::AliasClasses& aliases_;
  SsaForm form_;
  std::vector<std::vector<SsaNameId>> stacks_;
  /// Undo stack of renaming: the class of every definition pushed onto
  /// `stacks_`, popped when the dominator subtree that pushed it is done.
  std::vector<SymbolId> pushed_;
};

}  // namespace

SsaForm buildSequentialSsa(pfg::Graph& graph,
                           const analysis::Dominators& dom) {
  return Builder(graph, dom).run();
}

std::vector<std::string> SsaForm::verify(const pfg::Graph& graph) const {
  std::vector<std::string> problems;
  const ir::SymbolTable& syms = graph.program().symbols;

  auto checkUse = [&](const ir::Expr& e) {
    ir::forEachExpr(e, [&](const ir::Expr& sub) {
      const SymbolId cls = graph.aliases.useTargetOf(sub);
      // A Deref with an empty points-to set reads no location and
      // legitimately carries no link; other non-reading kinds are skipped.
      if (!cls.valid()) return;
      auto it = useDef.find(&sub);
      if (it == useDef.end()) {
        problems.push_back("use of '" + syms.nameOf(cls) +
                           "' has no use-def link");
        return;
      }
      const Definition& d = def(it->second);
      if (d.removed)
        problems.push_back("use of '" + syms.nameOf(cls) +
                           "' points at a removed definition");
      if (d.var != cls)
        problems.push_back("use-def link for '" + syms.nameOf(cls) +
                           "' points at a definition of another class");
    });
  };

  for (const pfg::Node& n : graph.nodes()) {
    for (const ir::Stmt* s : n.stmts) {
      if (s->expr) checkUse(*s->expr);
      if (s->lhsAddr) checkUse(*s->lhsAddr);
      if (s->kind == ir::StmtKind::Assign &&
          graph.aliases.defTargetOf(*s).valid() && !assignDef.contains(s))
        problems.push_back("assignment without SSA definition");
    }
    if (n.terminator != nullptr && n.terminator->expr)
      checkUse(*n.terminator->expr);
  }

  for (const Definition& d : defs) {
    if (d.removed) continue;
    for (const PhiArg& a : d.phiArgs) {
      if (def(a.def).removed)
        problems.push_back("phi argument references a removed definition");
      if (def(a.def).var != d.var)
        problems.push_back("phi argument of a different variable");
    }
    if (d.kind == DefKind::Pi) {
      if (def(d.piControlArg).removed)
        problems.push_back("pi control argument removed");
      for (const PiConflictArg& a : d.piConflictArgs)
        if (def(a.def).removed)
          problems.push_back("pi conflict argument removed");
    }
  }
  return problems;
}

}  // namespace cssame::ssa
