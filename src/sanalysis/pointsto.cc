#include "src/sanalysis/pointsto.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <numeric>
#include <vector>

#include "src/support/bitset.h"

namespace cssame::sanalysis {

bool PtSet::join(const PtSet& o) {
  if (anywhere) return false;
  if (o.anywhere) {
    anywhere = true;
    locs.clear();  // canonical form: ⊤ carries no members
    return true;
  }
  bool changed = false;
  for (SymbolId l : o.locs) changed |= locs.insert(l).second;
  return changed;
}

void PtSet::meet(const PtSet& o) {
  if (o.anywhere) return;
  if (anywhere) {
    *this = o;
    return;
  }
  std::erase_if(locs, [&](SymbolId l) { return !o.locs.contains(l); });
}

std::string formatPtSet(const PtSet& pts, const ir::SymbolTable& syms) {
  if (pts.anywhere) return "{anywhere}";
  std::string out = "{";
  for (SymbolId l : pts.locs) {
    if (out.size() > 1) out += ", ";
    out += syms.nameOf(l);
  }
  return out + "}";
}

namespace {

/// A PtSet inside a solve: the same lattice over a bitset of symbol
/// indices. ⊤ keeps its bitset clear, PtSet's canonical form.
struct Pts {
  bool anywhere = false;
  DynBitset locs;

  bool operator==(const Pts&) const = default;
  [[nodiscard]] bool empty() const { return !anywhere && locs.none(); }

  /// Lattice join; returns true when this set grew.
  bool join(const Pts& o) {
    if (anywhere) return false;
    if (o.anywhere) {
      anywhere = true;
      locs.resetAll();
      return true;
    }
    return locs.unionWith(o.locs);
  }

  /// Lattice meet (set intersection; ⊤ is the identity).
  void meet(const Pts& o) {
    if (o.anywhere) return;
    if (anywhere) {
      *this = o;
      return;
    }
    locs.intersectWith(o.locs);
  }
};

/// Reads the VarRef chains of one expression root in the order the
/// evaluator reads them. The root's first evaluation resolves them
/// through useDef and appends them to the record; later evaluations
/// replay it, so a solve looks each chain up once.
class ChainCursor {
 public:
  ChainCursor(std::vector<SsaNameId>& record, const ssa::SsaForm& form,
              std::size_t at, bool recording)
      : record_(&record), form_(&form), at_(at), recording_(recording) {}

  /// The chain of the next VarRef read; invalid when the use has none.
  SsaNameId next(const ir::Expr& ref) {
    if (!recording_) return (*record_)[at_++];
    auto it = form_->useDef.find(&ref);
    record_->push_back(it == form_->useDef.end() ? SsaNameId{} : it->second);
    return record_->back();
  }

 private:
  std::vector<SsaNameId>* record_;
  const ssa::SsaForm* form_;
  std::size_t at_;
  bool recording_;
};

/// Cap on the worklist pops of one propagation. It is generous: real
/// programs converge in a few sweeps, and the cap only exists so a
/// non-monotone transfer function cannot hang the compiler.
constexpr std::uint64_t kMaxPops = std::uint64_t{1} << 22;

/// The state of one points-to solve over one form (see pointsto.h for
/// the lattice): the flow-insensitive store map and the per-site sets as
/// flat per-symbol and per-site tables, each class's members for weak
/// definitions, the recorded VarRef chains and the general round's SSA
/// values. A *round* is the outer fixpoint: iterate() repeats a pass
/// ending in harvest() until no store grows the map. The round chooses
/// what a VarRef's chain is worth; the evaluator and the harvest are the
/// same for every round.
class Solver {
 public:
  Solver(const pfg::Graph& graph, const ssa::SsaForm& form)
      : graph_(graph),
        form_(form),
        nsyms_(graph.program().symbols.size()),
        loc_(nsyms_, bottom()),
        touched_(nsyms_, false),
        members_(nsyms_),
        defChains_(form.defs.size(), kUnrecorded) {
    for (const ir::Symbol& sym : graph.program().symbols.all()) {
      if (sym.kind != ir::SymbolKind::Var) continue;
      vars_.push_back(sym.id);
      members_[graph.aliases.repOf(sym.id).index()].push_back(sym.id);
    }
  }

  [[nodiscard]] Pts bottom() const { return Pts{false, DynBitset(nsyms_)}; }
  [[nodiscard]] Pts top() const { return Pts{true, DynBitset(nsyms_)}; }

  /// Runs `pass` until it reports no growth; true when it converged
  /// within the cap. Monotone over a finite lattice, so the cap is a
  /// non-convergence backstop only.
  template <typename Pass>
  bool iterate(Pass&& pass) {
    const std::size_t maxOuter = 64 + nsyms_;
    bool changed = true;
    while (changed && stats_.outerPasses < maxOuter) {
      ++stats_.outerPasses;
      changed = pass();
    }
    return !changed;
  }

  /// One harvest pass: records every deref site's target set and joins
  /// the value of every store into the map entry of each location it
  /// may target. `value(chain)` is what a VarRef's chain is worth this
  /// round. Returns true when the map grew.
  template <typename ChainValue>
  bool harvest(const ChainValue& value) {
    const bool recording = !harvested_;
    if (recording) harvestAt_ = chains_.size();
    ChainCursor chains(chains_, form_, harvestAt_, recording);
    bool changed = false;
    std::size_t load = 0, store = 0;

    auto joinLoc = [&](SymbolId l, const Pts& v) {
      if (!touched_[l.index()]) {
        touched_[l.index()] = true;
        touchOrder_.push_back(l);
      }
      changed |= loc_[l.index()].join(v);
    };
    auto recordLoads = [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& sub) {
        if (sub.kind != ir::ExprKind::Deref) return;
        if (recording) {
          loadSites_.push_back(&sub);
          loadVals_.push_back(bottom());
        }
        loadVals_[load++] = eval(*sub.operands[0], chains, value);
      });
    };

    for (const pfg::Node& n : graph_.nodes()) {
      for (const ir::Stmt* s : n.stmts) {
        if (s->expr) recordLoads(*s->expr);
        if (s->lhsAddr) recordLoads(*s->lhsAddr);
        if (s->kind != ir::StmtKind::Assign) continue;
        const Pts rhs = eval(*s->expr, chains, value);
        switch (s->lhsKind) {
          case ir::LValueKind::Var:
          case ir::LValueKind::Index:
            joinLoc(s->lhs, rhs);
            break;
          case ir::LValueKind::Deref: {
            const Pts addr = eval(*s->lhsAddr, chains, value);
            if (recording) {
              storeSites_.push_back(s);
              storeVals_.push_back(bottom());
            }
            storeVals_[store++] = addr;
            if (addr.anywhere) {
              for (SymbolId l : vars_) joinLoc(l, rhs);
            } else {
              addr.locs.forEach([&](std::size_t l) {
                joinLoc(SymbolId{static_cast<SymbolId::value_type>(l)}, rhs);
              });
            }
            break;
          }
        }
      }
      if (n.terminator != nullptr && n.terminator->expr)
        recordLoads(*n.terminator->expr);
    }
    harvested_ = true;
    return changed;
  }

  /// One sparse propagation of the general round: pointer values flow
  /// along the use-def chains, and an Assign evaluates its right-hand
  /// side against the store map as it stands. Every definition is
  /// evaluated once in order (names not seeded yet read ∅), then a FIFO
  /// worklist re-evaluates the readers of each name whose value grew.
  /// Values only grow within a propagation, so a φ/π popped again joins
  /// its value with just the arguments that changed since its last
  /// evaluation; its first pop is a full join. Each call starts over
  /// from the seeding and adds its pops to innerIterations.
  void propagate() {
    if (readerBegin_.empty()) buildReaders();
    const std::size_t n = form_.defs.size();
    values_.assign(n, bottom());
    evaluatedAt_.assign(n, 0);
    changedAt_.assign(n, 0);
    std::deque<SsaNameId> work;
    std::vector<bool> queued(n, false);
    for (const ssa::Definition& d : form_.defs) {
      values_[d.name.index()] = evaluate(d);
      if (!d.removed && d.kind != ssa::DefKind::Entry) {
        work.push_back(d.name);
        queued[d.name.index()] = true;
      }
    }

    std::uint64_t pops = 0;
    while (!work.empty()) {
      CSSAME_CHECK(pops < kMaxPops, "points-to propagation did not converge");
      const SsaNameId id = work.front();
      work.pop_front();
      queued[id.index()] = false;
      const std::uint64_t now = ++pops;

      Pts v = reevaluate(form_.def(id));
      evaluatedAt_[id.index()] = now;
      if (v == values_[id.index()]) continue;
      values_[id.index()] = std::move(v);
      changedAt_[id.index()] = now;
      for (std::uint32_t r = readerBegin_[id.index()];
           r < readerBegin_[id.index() + 1]; ++r) {
        const SsaNameId reader = readers_[r];
        if (!queued[reader.index()]) {
          queued[reader.index()] = true;
          work.push_back(reader);
        }
      }
    }
    stats_.innerIterations += pops;
  }

  /// A name's value as of the last propagation.
  [[nodiscard]] const Pts& valueOf(SsaNameId d) const {
    return values_[d.index()];
  }

  /// The round's answer in the public types; every site degrades to ⊤
  /// when the round did not converge.
  [[nodiscard]] PointsToResult finish(bool converged) const {
    PointsToResult result;
    result.stats = stats_;
    for (SymbolId l : touchOrder_)
      result.locPts.emplace(l, toPtSet(loc_[l.index()]));
    for (std::size_t i = 0; i < loadSites_.size(); ++i)
      result.loadPts.emplace(loadSites_[i], toPtSet(loadVals_[i]));
    for (std::size_t i = 0; i < storeSites_.size(); ++i)
      result.storePts.emplace(storeSites_[i], toPtSet(storeVals_[i]));
    if (!converged) {
      // Backstop: degrade every site to ⊤ rather than ship an unsound
      // partial answer.
      result.stats.converged = false;
      for (auto& [e, p] : result.loadPts) p = PtSet::any();
      for (auto& [s, p] : result.storePts) p = PtSet::any();
    }

    result.stats.derefSites = result.loadPts.size() + result.storePts.size();
    std::size_t finiteSites = 0, finiteTargets = 0;
    auto tally = [&](const PtSet& p) {
      if (p.anywhere) {
        ++result.stats.anywhereSites;
      } else {
        ++finiteSites;
        finiteTargets += p.locs.size();
      }
    };
    for (const auto& [e, p] : result.loadPts) tally(p);
    for (const auto& [s, p] : result.storePts) tally(p);
    result.stats.avgTargets =
        finiteSites == 0 ? 0.0
                         : static_cast<double>(finiteTargets) /
                               static_cast<double>(finiteSites);
    return result;
  }

 private:
  static constexpr std::size_t kUnrecorded = SIZE_MAX;

  /// Lists each name's readers once, in compressed rows: the readers of
  /// name i are readers_[readerBegin_[i] .. readerBegin_[i + 1]). A
  /// reader is a φ/π term taking the name as an argument or an Assign
  /// definition whose right-hand side reads it (Index and Deref loads
  /// read the store map, which the outer fixpoint re-propagates on
  /// change). Readers are listed in definition order.
  void buildReaders() {
    const std::size_t n = form_.defs.size();
    std::vector<std::pair<std::uint32_t, SsaNameId>> edges;
    for (const ssa::Definition& d : form_.defs) {
      if (d.removed) continue;
      ssa::forEachArg(
          d, [&](SsaNameId a) { edges.emplace_back(a.index(), d.name); });
      if (d.kind != ssa::DefKind::Assign || d.stmt == nullptr ||
          !d.stmt->expr)
        continue;
      ir::forEachExpr(*d.stmt->expr, [&](const ir::Expr& sub) {
        if (sub.kind != ir::ExprKind::VarRef) return;
        auto it = form_.useDef.find(&sub);
        if (it != form_.useDef.end() && it->second.valid())
          edges.emplace_back(it->second.index(), d.name);
      });
    }
    readerBegin_.assign(n + 1, 0);
    for (const auto& [from, reader] : edges) ++readerBegin_[from + 1];
    for (std::size_t i = 0; i < n; ++i) readerBegin_[i + 1] += readerBegin_[i];
    std::vector<std::uint32_t> next(readerBegin_.begin(),
                                    readerBegin_.end() - 1);
    readers_.resize(edges.size());
    for (const auto& [from, reader] : edges) readers_[next[from]++] = reader;
  }

  /// A definition's value from scratch. Entry definitions hold ∅: every
  /// location starts 0-initialized, and ∅ means exactly "this value is 0".
  [[nodiscard]] Pts evaluate(const ssa::Definition& d) {
    switch (d.kind) {
      case ssa::DefKind::Assign:
        return evalAssign(d);
      case ssa::DefKind::Entry:
        return bottom();
      case ssa::DefKind::Phi:
      case ssa::DefKind::Pi: {
        Pts v = bottom();
        ssa::forEachArg(d, [&](SsaNameId a) { v.join(values_[a.index()]); });
        return v;
      }
    }
    return bottom();
  }

  /// A popped definition's new value. A φ/π evaluated before is its
  /// current value joined with the arguments that changed after that
  /// evaluation; an argument that changed at the same pop is the term
  /// itself, already in its value.
  [[nodiscard]] Pts reevaluate(const ssa::Definition& d) {
    const std::uint64_t last = evaluatedAt_[d.name.index()];
    const bool term = d.kind == ssa::DefKind::Phi || d.kind == ssa::DefKind::Pi;
    if (!term || last == 0) return evaluate(d);
    Pts v = values_[d.name.index()];
    ssa::forEachArg(d, [&](SsaNameId a) {
      if (changedAt_[a.index()] > last) v.join(values_[a.index()]);
    });
    return v;
  }

  /// Transfer function of an Assign definition: its right-hand side,
  /// joined with its class's contents when the definition is weak (it
  /// updates one member or cell and the class may keep what it held).
  [[nodiscard]] Pts evalAssign(const ssa::Definition& d) {
    Pts v = top();
    if (d.stmt != nullptr && d.stmt->expr) {
      std::size_t& at = defChains_[d.name.index()];
      const bool recording = at == kUnrecorded;
      if (recording) at = chains_.size();
      ChainCursor chains(chains_, form_, at, recording);
      v = eval(*d.stmt->expr, chains,
               [&](SsaNameId c) -> const Pts& { return values_[c.index()]; });
    }
    if (d.weak) {
      for (SymbolId m : members_[d.var.index()]) {
        v.join(loc_[m.index()]);
        if (v.anywhere) break;
      }
    }
    return v;
  }

  /// The one expression evaluator (transfer functions in pointsto.h).
  /// A VarRef reads its chain's value met with its own cell: the chain
  /// carries flow and concurrency sensitivity, the cell bounds it to
  /// this variable's contents; a use with no chain reads the cell.
  template <typename ChainValue>
  [[nodiscard]] Pts eval(const ir::Expr& e, ChainCursor& chains,
                         const ChainValue& value) const {
    switch (e.kind) {
      case ir::ExprKind::IntConst:
        // Any nonzero integer names a cell of the flat memory, so pointer
        // arithmetic soundness needs no special casing: `p + 1` joins ⊤.
        return e.intValue == 0 ? bottom() : top();
      case ir::ExprKind::VarRef: {
        // The chain value is class-keyed: across a weak definition it
        // over-approximates the contents of *any* class member, which
        // under the conservative mega-class smears every cell to ⊤.
        // Meeting it with the per-cell set keeps the flow/concurrency
        // sensitivity of the π chains without the class-width blowup;
        // both operands only grow, so the outer fixpoint stays monotone.
        const SsaNameId chain = chains.next(e);
        Pts v = chain.valid() ? value(chain) : top();
        v.meet(loc_[e.var.index()]);
        return v;
      }
      case ir::ExprKind::AddrOf: {
        Pts p = bottom();
        p.locs.set(e.var.index());  // &a[i] collapses to the array symbol
        return p;
      }
      case ir::ExprKind::Index:
        return loc_[e.var.index()];
      case ir::ExprKind::Deref: {
        const Pts addr = eval(*e.operands[0], chains, value);
        if (addr.anywhere) return top();
        Pts out = bottom();
        addr.locs.forEach([&](std::size_t l) { out.join(loc_[l]); });
        return out;
      }
      case ir::ExprKind::Unary: {
        const Pts a = eval(*e.operands[0], chains, value);
        // Neg: -0 = 0; negating an address leaves the valid range.
        // Not: !0 = 1 names cell 0.
        if (e.unop == ir::UnOp::Neg) return a.empty() ? bottom() : top();
        return top();
      }
      case ir::ExprKind::Binary: {
        Pts a = eval(*e.operands[0], chains, value);
        Pts b = eval(*e.operands[1], chains, value);
        switch (e.binop) {
          case ir::BinOp::Add:
            // 0 is the additive identity; adding two non-null values may
            // land anywhere.
            if (a.empty()) return b;
            if (b.empty()) return a;
            return top();
          case ir::BinOp::Sub:
            if (b.empty()) return a;  // x - 0 = x
            return top();
          case ir::BinOp::Mul:
            if (a.empty() || b.empty()) return bottom();  // 0 · x = 0
            return top();
          case ir::BinOp::Div:
          case ir::BinOp::Mod:
            if (a.empty()) return bottom();  // 0 / x = 0 (total semantics)
            return top();
          case ir::BinOp::And:
            if (a.empty() || b.empty()) return bottom();  // 0 && x = 0
            return top();
          case ir::BinOp::Or:
            if (a.empty() && b.empty()) return bottom();  // 0 || 0 = 0
            return top();
          default:
            // Comparisons yield 0 or 1, and 1 names cell 0.
            return top();
        }
      }
      case ir::ExprKind::Call:
        return top();
    }
    return top();
  }

  [[nodiscard]] static PtSet toPtSet(const Pts& p) {
    if (p.anywhere) return PtSet::any();
    PtSet out;
    p.locs.forEach([&](std::size_t l) {
      out.locs.insert(out.locs.end(),
                      SymbolId{static_cast<SymbolId::value_type>(l)});
    });
    return out;
  }

  const pfg::Graph& graph_;
  const ssa::SsaForm& form_;
  std::size_t nsyms_;
  PointsToStats stats_;
  std::vector<Pts> loc_;  ///< store map, by symbol index
  /// Locations some store has joined into, in first-touch order (the
  /// key set of PointsToResult::locPts).
  std::vector<bool> touched_;
  std::vector<SymbolId> touchOrder_;
  std::vector<SymbolId> vars_;  ///< Var symbols, in table order
  std::vector<std::vector<SymbolId>> members_;  ///< by class representative
  /// Deref sites in harvest order and their latest target sets.
  std::vector<const ir::Expr*> loadSites_;
  std::vector<Pts> loadVals_;
  std::vector<const ir::Stmt*> storeSites_;
  std::vector<Pts> storeVals_;
  /// Recorded VarRef chains: per Assign definition from defChains_, and
  /// the harvest's from harvestAt_.
  std::vector<SsaNameId> chains_;
  std::vector<std::size_t> defChains_;
  std::size_t harvestAt_ = 0;
  bool harvested_ = false;
  /// The general round's propagation: each name's readers, built on the
  /// first propagate(); each name's value; and the pop number of its last
  /// evaluation (0: seeded only) and of its last change (0: unchanged
  /// since seeding).
  std::vector<std::uint32_t> readerBegin_;
  std::vector<SsaNameId> readers_;
  std::vector<Pts> values_;
  std::vector<std::uint64_t> evaluatedAt_;
  std::vector<std::uint64_t> changedAt_;
};

/// One flag per SSA name of the conservative round: 1 when some Assign
/// definition reaches it through φ/π arguments. One forward pass from the
/// Assign definitions over the terms reading each name; a backward walk
/// per name would be quadratic on the conservative form, where every
/// variable shares one class.
std::vector<std::uint8_t> assignmentsReaching(const ssa::SsaForm& form) {
  std::vector<std::vector<SsaNameId>> readers(form.defs.size());
  for (const ssa::Definition& d : form.defs)
    if (!d.removed)
      ssa::forEachArg(
          d, [&](SsaNameId a) { readers[a.index()].push_back(d.name); });
  std::vector<std::uint8_t> reached(form.defs.size(), 0);
  std::vector<SsaNameId> work;
  auto reach = [&](SsaNameId n) {
    if (reached[n.index()] != 0) return;
    reached[n.index()] = 1;
    work.push_back(n);
  };
  for (const ssa::Definition& d : form.defs)
    if (d.kind == ssa::DefKind::Assign) reach(d.name);
  while (!work.empty()) {
    const SsaNameId a = work.back();
    work.pop_back();
    for (SsaNameId t : readers[a.index()]) reach(t);
  }
  return reached;
}

}  // namespace

PointsToResult solvePointsTo(const pfg::Graph& graph,
                             const ssa::SsaForm& form) {
  // Outer fixpoint: alternate a sparse value propagation with a harvest
  // of every store into the store map until the map stops growing. The
  // readers are listed once; each pass re-propagates against the grown
  // map.
  Solver solver(graph, form);
  const bool converged = solver.iterate([&] {
    solver.propagate();
    return solver.harvest(
        [&](SsaNameId c) -> const Pts& { return solver.valueOf(c); });
  });
  return solver.finish(converged);
}

bool allAssignsWeak(const ssa::SsaForm& form) {
  return std::all_of(form.defs.begin(), form.defs.end(),
                     [](const ssa::Definition& d) {
                       return d.kind != ssa::DefKind::Assign || d.removed ||
                              d.weak;
                     });
}

analysis::AccessSites conservativePiSites(const analysis::AccessSites& sites,
                                          const ssa::SsaForm& form) {
  const std::vector<std::uint8_t> reached = assignmentsReaching(form);
  analysis::AccessSites kept;
  for (const auto& [cls, uses] : sites.uses)
    for (const analysis::AccessSites::Use& u : uses)
      if (u.ref->kind == ir::ExprKind::VarRef &&
          reached[form.useDef.at(u.ref).index()] == 0)
        kept.uses[cls].push_back(u);
  if (!kept.uses.empty()) kept.defs = sites.defs;
  return kept;
}

ir::AliasClasses refineConservative(const pfg::Graph& graph,
                                    const ssa::SsaForm& form) {
  CSSAME_CHECK(allAssignsWeak(form),
               "conservative round needs every assignment weak");
  // Every assignment joins every cell, so a chain some assignment
  // reaches holds a superset of every cell and one no assignment reaches
  // holds ∅: a VarRef reads its own cell or ∅, and no propagation is
  // needed (pointsto.h, "Solver").
  const std::vector<std::uint8_t> reached = assignmentsReaching(form);
  Solver solver(graph, form);
  const Pts all = solver.top(), none = solver.bottom();
  const bool converged = solver.iterate([&] {
    return solver.harvest([&](SsaNameId c) -> const Pts& {
      return reached[c.index()] != 0 ? all : none;
    });
  });
  return solver.finish(converged).buildClasses(graph.program());
}

ir::AliasClasses PointsToResult::buildClasses(const ir::Program& prog) const {
  const ir::SymbolTable& syms = prog.symbols;
  const std::size_t n = syms.size();

  // Union-find over symbol indices, min-id roots so representatives are
  // deterministic regardless of site iteration order.
  std::vector<std::uint32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (b < a) std::swap(a, b);
    parent[b] = a;
  };

  auto uniteSet = [&](const PtSet& p) {
    if (p.anywhere) {
      std::uint32_t first = UINT32_MAX;
      for (const ir::Symbol& sym : syms.all()) {
        if (sym.kind != ir::SymbolKind::Var) continue;
        if (first == UINT32_MAX)
          first = sym.id.index();
        else
          unite(first, sym.id.index());
      }
      return;
    }
    SymbolId first{};
    for (SymbolId l : p.locs) {
      if (!first.valid())
        first = l;
      else
        unite(first.index(), l.index());
    }
  };
  for (const auto& [e, p] : loadPts) uniteSet(p);
  for (const auto& [s, p] : storePts) uniteSet(p);

  ir::AliasClasses out;
  auto repOf = [&](SymbolId s) {
    return SymbolId{static_cast<SymbolId::value_type>(find(s.index()))};
  };
  auto siteRep = [&](const PtSet& p) -> SymbolId {
    if (p.anywhere) {
      for (const ir::Symbol& sym : syms.all())
        if (sym.kind == ir::SymbolKind::Var) return repOf(sym.id);
      return SymbolId{};
    }
    if (p.locs.empty()) return SymbolId{};  // touches nothing at runtime
    return repOf(*p.locs.begin());
  };
  // Site maps first: setPartition's drop-to-identity check inspects them.
  for (const auto& [e, p] : loadPts) {
    const SymbolId rep = siteRep(p);
    if (rep.valid()) out.setDerefLoad(e, rep);
  }
  for (const auto& [s, p] : storePts) {
    const SymbolId rep = siteRep(p);
    if (rep.valid()) out.setDerefStore(s, rep);
  }

  std::vector<SymbolId> rep(n);
  for (const ir::Symbol& sym : syms.all())
    rep[sym.id.index()] =
        sym.kind == ir::SymbolKind::Var ? repOf(sym.id) : SymbolId{};
  out.setPartition(std::move(rep), syms);
  return out;
}

}  // namespace cssame::sanalysis
