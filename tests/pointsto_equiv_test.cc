// Equivalence sweep for the pointer refinement loop.
//
// The pointer phase of driver::Compilation computes a pointer program's
// first refined partition without a points-to propagation
// (sanalysis::refineConservative), places that round's π terms only at
// the uses it reads (sanalysis::conservativePiSites), and builds Ecf
// once, after the last round, instead of for every form. solvePointsTo
// propagates on its own: it builds its reader lists once and re-joins
// only the arguments that changed, on flat per-symbol state. All of it
// promises exactly the results of the code as first written, and
// parallel reaching definitions walk the FUD chains instead of solving a
// fixpoint. This test holds it to that: a verbatim transcription of the
// original SsaPropagator, solvePointsTo, computeParallelReachingDefs and
// pointer phase of Compilation's constructor serves as the reference, and
// the alias_* gallery, the pointsto_test shapes, the bench_alias corpus,
// >= 400 generated programs (pointers, arrays, events, fences and locks
// varied, up to 4 threads x 48 statements), programs with a wild (⊤)
// store, hand-written programs whose conservative round keeps a π, and
// one-variable programs (which take the general solve) are checked, with
// CSSAME rewriting on and off, for exact equality of
//
//   * the first refined partition,
//   * the final partition and the per-site deref classes,
//   * locPts, loadPts, storePts and every PointsToStats field,
//   * the final Ecf edges, piStats, rewriteStats and the rendered CSSAME
//     form,
//   * the reaching definitions of every use (cssa::reachingDefs against
//     the reference's defsOf) on the final form — here and on scalar and
//     lock-region programs.
//
// Programs with more symbols than a DynBitset keeps inline cover the
// solver's heap-backed values.
#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/concurrency.h"
#include "src/analysis/dominance.h"
#include "src/cssa/cssa.h"
#include "src/cssa/form_printer.h"
#include "src/cssa/reaching.h"
#include "src/cssa/rewrite.h"
#include "src/dataflow/sccp.h"
#include "src/driver/pipeline.h"
#include "src/mutex/mutex_structures.h"
#include "src/parser/parser.h"
#include "src/pfg/build.h"
#include "src/sanalysis/pointsto.h"
#include "src/ssa/ssa.h"
#include "src/support/bitset.h"
#include "src/support/timer.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: the sparse propagator, the points-to solver,
// parallel reaching definitions and the pointer phase of the pipeline as
// first written. Deliberately kept verbatim.
// ---------------------------------------------------------------------------
namespace ref {

using dataflow::SolveStats;

/// The library's solver options when this reference was written.
struct SolverOptions {
  std::uint64_t maxIterations = 1u << 22;
};
using sanalysis::PointsToResult;
using sanalysis::PtSet;

template <typename P>
class SsaPropagator {
 public:
  using Value = typename P::Value;

  static constexpr bool kHasExtraDeps =
      requires(const P& p, const ssa::Definition& d) {
        { p.extraDeps(d) } -> std::convertible_to<std::vector<SsaNameId>>;
      };
  static constexpr bool kHasEvalAssign =
      requires(const P& p, const ssa::Definition& d,
               const std::function<typename P::Value(SsaNameId)>& get) {
        { p.evalAssign(d, get) } -> std::convertible_to<typename P::Value>;
      };

  SsaPropagator(const ssa::SsaForm& form, P problem, SolverOptions opts = {})
      : form_(form), problem_(std::move(problem)), opts_(opts) {}

  Status solve() {
    const std::size_t n = form_.defs.size();
    stats_ = SolveStats{problem_.name(), 0, 0, false};

    // Factored def-use edges: which φ/π terms consume each definition.
    users_.assign(n, {});
    for (const ssa::Definition& d : form_.defs) {
      if (d.removed) continue;
      if (d.kind == ssa::DefKind::Phi) {
        for (const ssa::PhiArg& a : d.phiArgs)
          users_[a.def.index()].push_back(d.name);
      } else if (d.kind == ssa::DefKind::Pi) {
        users_[d.piControlArg.index()].push_back(d.name);
        for (const ssa::PiConflictArg& a : d.piConflictArgs)
          users_[a.def.index()].push_back(d.name);
      }
      if constexpr (kHasExtraDeps) {
        for (SsaNameId dep : problem_.extraDeps(d))
          if (dep.valid() && dep.index() < n)
            users_[dep.index()].push_back(d.name);
      }
    }

    values_.clear();
    values_.reserve(n);
    std::deque<SsaNameId> work;
    std::vector<bool> queued(n, false);
    for (const ssa::Definition& d : form_.defs) {
      values_.push_back(evaluate(d));
      const bool seeded =
          d.kind == ssa::DefKind::Phi || d.kind == ssa::DefKind::Pi ||
          (kHasEvalAssign && d.kind == ssa::DefKind::Assign);
      if (!d.removed && seeded) {
        work.push_back(d.name);
        queued[d.name.index()] = true;
      }
    }

    while (!work.empty()) {
      if (stats_.iterations >= opts_.maxIterations)
        return Fault{FaultKind::BudgetExceeded, problem_.name(),
                     "ssa propagation budget exhausted after " +
                         std::to_string(stats_.iterations) + " iterations",
                     {}};
      const SsaNameId id = work.front();
      work.pop_front();
      queued[id.index()] = false;
      ++stats_.iterations;

      Value v = evaluate(form_.def(id));
      if (v == values_[id.index()]) continue;
      values_[id.index()] = std::move(v);
      ++stats_.changes;
      for (SsaNameId u : users_[id.index()]) {
        if (!queued[u.index()]) {
          queued[u.index()] = true;
          work.push_back(u);
        }
      }
    }
    stats_.converged = true;
    return Status::okStatus();
  }

  [[nodiscard]] const Value& valueOf(SsaNameId d) const {
    return values_[d.index()];
  }
  [[nodiscard]] const SolveStats& stats() const { return stats_; }

 private:
  [[nodiscard]] Value evaluate(const ssa::Definition& d) const {
    switch (d.kind) {
      case ssa::DefKind::Assign:
        if constexpr (kHasEvalAssign) {
          const std::function<Value(SsaNameId)> get =
              [this](SsaNameId id) -> Value {
            return id.valid() && id.index() < values_.size()
                       ? values_[id.index()]
                       : problem_.identity();
          };
          return problem_.evalAssign(d, get);
        }
        [[fallthrough]];
      case ssa::DefKind::Entry:
        return problem_.initial(d);
      case ssa::DefKind::Phi: {
        Value v = problem_.identity();
        for (const ssa::PhiArg& a : d.phiArgs)
          if (a.def.index() < values_.size())
            problem_.join(v, values_[a.def.index()]);
        return v;
      }
      case ssa::DefKind::Pi: {
        Value v = problem_.identity();
        if (d.piControlArg.index() < values_.size())
          problem_.join(v, values_[d.piControlArg.index()]);
        for (const ssa::PiConflictArg& a : d.piConflictArgs)
          if (a.def.index() < values_.size())
            problem_.join(v, values_[a.def.index()]);
        return v;
      }
    }
    return problem_.identity();
  }

  const ssa::SsaForm& form_;
  P problem_;
  SolverOptions opts_;
  std::vector<Value> values_;
  std::vector<std::vector<SsaNameId>> users_;
  SolveStats stats_;
};

/// SsaPropagator client (see pointsto.h for the lattice). The problem
/// reads — never writes — the outer locPts map; the driver below re-runs
/// the propagation whenever a harvest pass grows that map.
struct PointsToProblem {
  using Value = PtSet;

  const pfg::Graph* graph = nullptr;
  const ssa::SsaForm* form = nullptr;
  const std::unordered_map<SymbolId, PtSet>* locPts = nullptr;

  [[nodiscard]] const char* name() const { return "points-to"; }
  [[nodiscard]] PtSet identity() const { return {}; }

  /// Entry definitions: every location starts 0-initialized, and the ∅
  /// invariant is exactly "this value is 0".
  [[nodiscard]] PtSet initial(const ssa::Definition&) const { return {}; }

  void join(PtSet& into, const PtSet& arg) const { into.join(arg); }

  [[nodiscard]] PtSet lookupLoc(SymbolId l) const {
    auto it = locPts->find(l);
    return it == locPts->end() ? PtSet{} : it->second;
  }

  /// The SSA names an Assign's value depends on: the use-def links of the
  /// VarRefs in its right-hand side (Index/Deref loads read locPts, which
  /// the outer fixpoint re-solves on change).
  [[nodiscard]] std::vector<SsaNameId> extraDeps(
      const ssa::Definition& d) const {
    std::vector<SsaNameId> deps;
    if (d.kind != ssa::DefKind::Assign || d.stmt == nullptr) return deps;
    if (!d.stmt->expr) return deps;
    ir::forEachExpr(*d.stmt->expr, [&](const ir::Expr& sub) {
      if (sub.kind != ir::ExprKind::VarRef) return;
      auto it = form->useDef.find(&sub);
      if (it != form->useDef.end()) deps.push_back(it->second);
    });
    return deps;
  }

  [[nodiscard]] PtSet evalAssign(
      const ssa::Definition& d,
      const std::function<PtSet(SsaNameId)>& get) const {
    PtSet v = d.stmt != nullptr && d.stmt->expr
                  ? evalExpr(*d.stmt->expr, get)
                  : PtSet::any();
    if (d.weak) {
      // A weak definition updates at most one member/cell of its class;
      // the class as a whole may still hold anything it held before.
      const ir::SymbolTable& syms = graph->program().symbols;
      for (const ir::Symbol& sym : syms.all()) {
        if (sym.kind != ir::SymbolKind::Var) continue;
        if (graph->aliases.repOf(sym.id) != d.var) continue;
        v.join(lookupLoc(sym.id));
        if (v.anywhere) break;
      }
    }
    return v;
  }

  [[nodiscard]] PtSet evalExpr(
      const ir::Expr& e, const std::function<PtSet(SsaNameId)>& get) const {
    switch (e.kind) {
      case ir::ExprKind::IntConst:
        // Any nonzero integer names a cell of the flat memory, so pointer
        // arithmetic soundness needs no special casing: `p + 1` joins ⊤.
        return e.intValue == 0 ? PtSet{} : PtSet::any();
      case ir::ExprKind::VarRef: {
        // The flow-insensitive contents of this specific cell: sound on
        // its own (every store into the cell is harvested into locPts,
        // and the 0-initialized base is the ∅ bottom), and the fallback
        // when the use has no chain link.
        const PtSet cell = lookupLoc(e.var);
        auto it = form->useDef.find(&e);
        if (it == form->useDef.end()) return cell;
        // The chain value is class-keyed: across a weak definition it
        // over-approximates the contents of *any* class member, which
        // under the conservative mega-class smears every cell to ⊤.
        // Meeting it with the per-cell set keeps the flow/concurrency
        // sensitivity of the π chains without the class-width blowup;
        // both operands only grow, so the outer fixpoint stays monotone.
        PtSet v = get(it->second);
        v.meet(cell);
        return v;
      }
      case ir::ExprKind::AddrOf: {
        PtSet p;
        p.locs.insert(e.var);  // &a[i] collapses to the array symbol
        return p;
      }
      case ir::ExprKind::Index:
        return lookupLoc(e.var);
      case ir::ExprKind::Deref: {
        const PtSet addr = evalExpr(*e.operands[0], get);
        if (addr.anywhere) return PtSet::any();
        PtSet out;
        for (SymbolId l : addr.locs) {
          out.join(lookupLoc(l));
          if (out.anywhere) break;
        }
        return out;
      }
      case ir::ExprKind::Unary: {
        const PtSet a = evalExpr(*e.operands[0], get);
        // Neg: -0 = 0; negating an address leaves the valid range.
        // Not: !0 = 1 names cell 0.
        if (e.unop == ir::UnOp::Neg) return a.empty() ? PtSet{} : PtSet::any();
        return PtSet::any();
      }
      case ir::ExprKind::Binary: {
        const PtSet a = evalExpr(*e.operands[0], get);
        const PtSet b = evalExpr(*e.operands[1], get);
        switch (e.binop) {
          case ir::BinOp::Add:
            // 0 is the additive identity; adding two non-null values may
            // land anywhere.
            if (a.empty()) return b;
            if (b.empty()) return a;
            return PtSet::any();
          case ir::BinOp::Sub:
            if (b.empty()) return a;  // x - 0 = x
            if (a.empty() && b.empty()) return PtSet{};
            return PtSet::any();
          case ir::BinOp::Mul:
            if (a.empty() || b.empty()) return PtSet{};  // 0 · x = 0
            return PtSet::any();
          case ir::BinOp::Div:
          case ir::BinOp::Mod:
            if (a.empty()) return PtSet{};  // 0 / x = 0 (total semantics)
            return PtSet::any();
          case ir::BinOp::And:
            if (a.empty() || b.empty()) return PtSet{};  // 0 && x = 0
            return PtSet::any();
          case ir::BinOp::Or:
            if (a.empty() && b.empty()) return PtSet{};  // 0 || 0 = 0
            return PtSet::any();
          default:
            // Comparisons yield 0 or 1, and 1 names cell 0.
            return PtSet::any();
        }
      }
      case ir::ExprKind::Call:
        return PtSet::any();
    }
    return PtSet::any();
  }
};

PointsToResult solvePointsTo(const pfg::Graph& graph,
                             const ssa::SsaForm& form) {
  PointsToResult result;
  const ir::SymbolTable& syms = graph.program().symbols;

  // Outer fixpoint: alternate a sparse value propagation with a harvest
  // of every store into locPts until the map stops growing. Monotone over
  // a finite lattice; the cap is a non-convergence backstop only.
  const std::size_t maxOuter = 64 + syms.size();
  bool changed = true;
  while (changed && result.stats.outerPasses < maxOuter) {
    ++result.stats.outerPasses;
    changed = false;

    PointsToProblem problem{&graph, &form, &result.locPts};
    SsaPropagator<PointsToProblem> solver(form, problem);
    const Status status = solver.solve();
    CSSAME_CHECK(status.ok(), "points-to propagation did not converge");
    result.stats.innerIterations += solver.stats().iterations;

    const std::function<PtSet(SsaNameId)> get =
        [&solver](SsaNameId id) -> PtSet { return solver.valueOf(id); };

    auto joinLoc = [&](SymbolId l, const PtSet& v) {
      changed |= result.locPts[l].join(v);
    };
    auto joinAllLocs = [&](const PtSet& v) {
      for (const ir::Symbol& sym : syms.all())
        if (sym.kind == ir::SymbolKind::Var) joinLoc(sym.id, v);
    };
    auto recordLoads = [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& sub) {
        if (sub.kind != ir::ExprKind::Deref) return;
        result.loadPts[&sub] = problem.evalExpr(*sub.operands[0], get);
      });
    };

    for (const pfg::Node& n : graph.nodes()) {
      for (const ir::Stmt* s : n.stmts) {
        if (s->expr) recordLoads(*s->expr);
        if (s->lhsAddr) recordLoads(*s->lhsAddr);
        if (s->kind != ir::StmtKind::Assign) continue;
        const PtSet rhs = problem.evalExpr(*s->expr, get);
        switch (s->lhsKind) {
          case ir::LValueKind::Var:
          case ir::LValueKind::Index:
            joinLoc(s->lhs, rhs);
            break;
          case ir::LValueKind::Deref: {
            const PtSet addr = problem.evalExpr(*s->lhsAddr, get);
            result.storePts[s] = addr;
            if (addr.anywhere) {
              joinAllLocs(rhs);
            } else {
              for (SymbolId l : addr.locs) joinLoc(l, rhs);
            }
            break;
          }
        }
      }
      if (n.terminator != nullptr && n.terminator->expr)
        recordLoads(*n.terminator->expr);
    }
  }
  if (changed) {
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
      finiteSites == 0
          ? 0.0
          : static_cast<double>(finiteTargets) / static_cast<double>(finiteSites);
  return result;
}

/// SsaPropagator problem: each SSA name carries the set of *real*
/// definitions (Entry and Assign) that may flow into it. R(d) = {d} for a
/// real definition; φ and π terms union over their arguments — exactly
/// the transitive FUD-chain expansion of Algorithm A.4, but solved once
/// for every name instead of re-walked per use.
struct RealDefsProblem {
  using Value = std::vector<SsaNameId>;  ///< sorted, unique

  [[nodiscard]] const char* name() const { return "reaching-defs"; }
  [[nodiscard]] Value initial(const ssa::Definition& d) const {
    return {d.name};
  }
  [[nodiscard]] Value identity() const { return {}; }
  void join(Value& into, const Value& arg) const {
    Value merged;
    merged.reserve(into.size() + arg.size());
    std::set_union(into.begin(), into.end(), arg.begin(), arg.end(),
                   std::back_inserter(merged));
    into = std::move(merged);
  }
};

/// The tables of the solve: defs(u) per VarRef, uses(d) per real
/// definition, and the solver's convergence report.
struct ReachingInfo {
  std::unordered_map<const ir::Expr*, std::vector<SsaNameId>> defsOf;
  std::unordered_map<SsaNameId, std::vector<const ir::Expr*>> usesOf;
  dataflow::SolveStats stats;
};

ReachingInfo computeParallelReachingDefs(const pfg::Graph& graph,
                                         const ssa::SsaForm& form) {
  ReachingInfo info;

  SsaPropagator<RealDefsProblem> solver(form, {});
  const Status status = solver.solve();
  CSSAME_CHECK(status.ok(), "reaching-defs propagation did not converge");
  info.stats = solver.stats();

  auto recordUses = [&](const ir::Expr& root) {
    ir::forEachExpr(root, [&](const ir::Expr& sub) {
      // Every reading expression with a use-def link: VarRef, Index load,
      // Deref load. Non-reading kinds (and empty-points-to derefs) have
      // no entry and are skipped naturally.
      auto it = form.useDef.find(&sub);
      if (it == form.useDef.end()) return;
      const std::vector<SsaNameId>& defs = solver.valueOf(it->second);
      info.defsOf[&sub] = defs;
      for (SsaNameId d : defs) info.usesOf[d].push_back(&sub);
    });
  };

  for (const pfg::Node& n : graph.nodes()) {
    for (const ir::Stmt* s : n.stmts) {
      if (s->expr) recordUses(*s->expr);
      if (s->lhsAddr) recordUses(*s->lhsAddr);
    }
    if (n.terminator != nullptr && n.terminator->expr)
      recordUses(*n.terminator->expr);
  }
  return info;
}


/// True when two alias partitions key every access identically: same
/// class representative for every symbol and the same class (or absence
/// of one) at every deref site. The refinement loop below stops when a
/// re-solve no longer moves the partition.
bool samePartition(const ir::AliasClasses& a, const ir::AliasClasses& b,
                   const ir::Program& prog) {
  for (const ir::Symbol& s : prog.symbols.all())
    if (a.repOf(s.id) != b.repOf(s.id)) return false;
  bool same = true;
  ir::forEachStmt(prog.body, [&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::Assign && s.lhsKind == ir::LValueKind::Deref &&
        a.derefStoreClass(&s) != b.derefStoreClass(&s))
      same = false;
    ir::forEachStmtExpr(s, [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& e) {
        if (e.kind == ir::ExprKind::Deref &&
            a.derefLoadClass(&e) != b.derefLoadClass(&e))
          same = false;
      });
    });
  });
  return same;
}

/// driver::Compilation's analysis artifacts, built by its constructor as
/// first written (below), plus two instrumentation fields.
class Compilation {
 public:
  Compilation(ir::Program& program, driver::PipelineOptions opts);

  ir::Program* program_;
  std::unique_ptr<pfg::Graph> graph_;
  std::unique_ptr<analysis::Dominators> dom_;
  std::unique_ptr<analysis::Dominators> pdom_;
  std::unique_ptr<analysis::Mhp> mhp_;
  std::unique_ptr<mutex::MutexStructures> mutexes_;
  analysis::AccessSites sites_;
  std::unique_ptr<ssa::SsaForm> ssa_;
  std::unique_ptr<sanalysis::PointsToResult> pointsTo_;
  cssa::PiPlacementStats piStats_;
  cssa::RewriteStats rewriteStats_;
  std::vector<support::PhaseTime> phaseTimes_;
  DiagEngine diag_;
  ir::AliasClasses first_;  ///< first refined partition (pointer programs)
  int rounds_ = 0;          ///< refinement rounds after the first
};

Compilation::Compilation(ir::Program& program, driver::PipelineOptions opts)
    : program_(&program) {
  support::Stopwatch watch;
  auto phase = [&](const char* name) {
    phaseTimes_.push_back(support::PhaseTime{name, watch.lap()});
  };
  graph_ = std::make_unique<pfg::Graph>(pfg::buildPfg(program));
  phase("pfg");
  // Phase A of the pointer pipeline: before any class-keyed structure
  // exists, install the syntactic conservative partition so the first
  // CSSAME build is sound for `*p` accesses. Scalar and array-only
  // programs keep the identity partition — their keying is already exact
  // and the whole phase-B rebuild below is skipped.
  const bool pointers = ir::usesDeref(program);
  if (pointers) graph_->aliases = ir::conservativeClasses(program);
  dom_ = std::make_unique<analysis::Dominators>(
      *graph_, analysis::Dominators::Direction::Forward);
  phase("dom");
  pdom_ = std::make_unique<analysis::Dominators>(
      *graph_, analysis::Dominators::Direction::Reverse);
  phase("pdom");
  mhp_ = std::make_unique<analysis::Mhp>(*graph_, *dom_);
  phase("mhp");
  // The access index is collected once, ahead of everything that needs
  // per-node def/use sets: conflict-edge construction, π placement and
  // the lockset engines (csan, races) via sites().
  sites_ = analysis::collectAccessSites(*graph_);
  phase("sites");
  analysis::computeConflictEdges(*graph_, *mhp_, sites_);
  phase("conflicts");
  mutexes_ = std::make_unique<mutex::MutexStructures>(
      *graph_, *dom_, *pdom_, opts.warnings ? &diag_ : nullptr);
  phase("mutex");
  ssa_ = std::make_unique<ssa::SsaForm>(
      ssa::buildSequentialSsa(*graph_, *dom_));
  phase("ssa");
  piStats_ = cssa::placePiTerms(*graph_, *ssa_, *mhp_, sites_);
  phase("cssa-pi");
  if (opts.enableCssame) {
    rewriteStats_ = cssa::rewritePiTerms(*graph_, *ssa_, *mutexes_);
    phase("cssame-rewrite");
  }
  if (pointers) {
    // Phase B: solve points-to over the conservative form, refine the
    // partition to what may actually alias, and rebuild every class-keyed
    // structure (access index, Ecf edges, SSA/CSSAME form) on it. The
    // control skeleton (PFG, dominators, MHP, mutex structures) does not
    // depend on the partition and is reused as-is.
    auto rebuildKeyed = [&] {
      sites_ = analysis::collectAccessSites(*graph_);
      analysis::computeConflictEdges(*graph_, *mhp_, sites_);
      ssa_ = std::make_unique<ssa::SsaForm>(
          ssa::buildSequentialSsa(*graph_, *dom_));
      piStats_ = cssa::placePiTerms(*graph_, *ssa_, *mhp_, sites_);
      if (opts.enableCssame)
        rewriteStats_ = cssa::rewritePiTerms(*graph_, *ssa_, *mutexes_);
    };
    pointsTo_ = std::make_unique<sanalysis::PointsToResult>(
        ref::solvePointsTo(*graph_, *ssa_));
    phase("pointsto");
    graph_->aliases = pointsTo_->buildClasses(program);
    first_ = graph_->aliases;  // instrumentation: the first refinement
    rebuildKeyed();
    // Iterate solve → refine → rebuild: the conservative mega-class made
    // every pointer variable's defs weak, so the first solve's use-def
    // chains are no sharper than the flow-insensitive store map. Once the
    // refined partition restores singleton classes, a re-solve recovers
    // the sparse chain precision, which can split classes further. Each
    // round's input form is keyed by a sound partition, so every solve is
    // sound; the round cap is a backstop, not a correctness requirement.
    for (int round = 0; round < 3; ++round) {
      ++rounds_;  // instrumentation: solve → refine rounds run
      auto next = std::make_unique<sanalysis::PointsToResult>(
          ref::solvePointsTo(*graph_, *ssa_));
      ir::AliasClasses refined = next->buildClasses(program);
      const bool stable = samePartition(graph_->aliases, refined, program);
      pointsTo_ = std::move(next);  // per-site sets from the final form
      if (stable) break;
      graph_->aliases = std::move(refined);
      rebuildKeyed();
    }
    phase("sites-refined");
  }
}

}  // namespace ref

// ---------------------------------------------------------------------------
// Rendering and comparison.
// ---------------------------------------------------------------------------

/// Every fact an alias partition keys: each symbol's representative,
/// class size and shared flag, and each deref site's class, in program
/// order.
std::string renderPartition(const ir::AliasClasses& a,
                            const ir::Program& prog) {
  const ir::SymbolTable& syms = prog.symbols;
  std::string out = a.identity() ? "identity\n" : "";
  out += "non-singleton classes " + std::to_string(a.nonSingletonClasses()) +
         "\n";
  for (const ir::Symbol& s : syms.all()) {
    if (s.kind != ir::SymbolKind::Var) continue;
    out += s.name + " -> " + syms.nameOf(a.repOf(s.id)) +
           (a.singleton(s.id) ? " single" : "") +
           (a.classShared(s.id, syms) ? " shared" : "") + "\n";
  }
  auto cls = [&](SymbolId c) {
    return c.valid() ? syms.nameOf(c) : std::string("-");
  };
  ir::forEachStmt(prog.body, [&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::Assign && s.lhsKind == ir::LValueKind::Deref)
      out += "store " + s.loc.str() + " " + cls(a.derefStoreClass(&s)) + "\n";
    ir::forEachStmtExpr(s, [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& e) {
        if (e.kind == ir::ExprKind::Deref)
          out += "load " + e.loc.str() + " " + cls(a.derefLoadClass(&e)) +
                 "\n";
      });
    });
  });
  return out;
}

std::string renderPointsTo(const sanalysis::PointsToResult& pt,
                           const ir::Program& prog) {
  const ir::SymbolTable& syms = prog.symbols;
  std::string out;
  for (const ir::Symbol& s : syms.all()) {
    auto it = pt.locPts.find(s.id);
    if (it != pt.locPts.end())
      out += "cell " + s.name + " " +
             sanalysis::formatPtSet(it->second, syms) + "\n";
  }
  ir::forEachStmt(prog.body, [&](const ir::Stmt& s) {
    auto st = pt.storePts.find(&s);
    if (st != pt.storePts.end())
      out += "store " + s.loc.str() + " " +
             sanalysis::formatPtSet(st->second, syms) + "\n";
    ir::forEachStmtExpr(s, [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& e) {
        auto ld = pt.loadPts.find(&e);
        if (ld != pt.loadPts.end())
          out += "load " + e.loc.str() + " " +
                 sanalysis::formatPtSet(ld->second, syms) + "\n";
      });
    });
  });
  const sanalysis::PointsToStats& st = pt.stats;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "outer %zu inner %llu converged %d sites %zu wild %zu "
                "avg %.17g\n",
                st.outerPasses,
                static_cast<unsigned long long>(st.innerIterations),
                st.converged ? 1 : 0, st.derefSites, st.anywhereSites,
                st.avgTargets);
  return out + buf;
}

std::string renderEdges(const pfg::Graph& graph, const ir::Program& prog) {
  std::string out;
  for (const pfg::ConflictEdge& e : graph.conflicts)
    out += "ecf " + std::to_string(e.from.index()) + " -> " +
           std::to_string(e.to.index()) + " var " +
           prog.symbols.nameOf(e.var) + (e.toIsDef ? " DD" : " DU") + "\n";
  return out;
}

/// The walk's reaching definitions of every use of `form` against the
/// reference's, solved on `graph` and `refForm` (the same form, or one
/// printing identically).
void expectSameReaching(const ssa::SsaForm& form, const pfg::Graph& graph,
                        const ssa::SsaForm& refForm, const std::string& what) {
  const ref::ReachingInfo want =
      ref::computeParallelReachingDefs(graph, refForm);
  EXPECT_EQ(form.useDef.size(), want.defsOf.size()) << "uses: " << what;
  for (const auto& [use, defs] : want.defsOf)
    EXPECT_TRUE(cssa::reachingDefs(form, use) == defs)
        << "reaching defs at " << use->loc.str() << ": " << what;
}

/// What the new first round did on one program.
struct FirstRound {
  ir::AliasClasses partition;
  bool cellRound = false;  ///< the propagation-free round ran
  std::size_t pisKept = 0;  ///< live πs of its conservative form
};

/// The pointer pipeline's first round as driver::Compilation now runs it:
/// the conservative form with πs only where the round reads them, then
/// the propagation-free refinement, or the general solve when a strong
/// assignment rules it out.
FirstRound firstRound(ir::Program& prog, bool enableCssame) {
  pfg::Graph graph = pfg::buildPfg(prog);
  graph.aliases = ir::conservativeClasses(prog);
  const analysis::Dominators dom(graph,
                                 analysis::Dominators::Direction::Forward);
  const analysis::Dominators pdom(graph,
                                  analysis::Dominators::Direction::Reverse);
  const analysis::Mhp mhp(graph, dom);
  const analysis::AccessSites sites = analysis::collectAccessSites(graph);
  const mutex::MutexStructures mutexes(graph, dom, pdom, nullptr);
  ssa::SsaForm form = ssa::buildSequentialSsa(graph, dom);
  FirstRound out;
  out.cellRound = sanalysis::allAssignsWeak(form);
  if (out.cellRound)
    cssa::placePiTerms(graph, form, mhp,
                       sanalysis::conservativePiSites(sites, form));
  else
    cssa::placePiTerms(graph, form, mhp, sites);
  if (enableCssame) cssa::rewritePiTerms(graph, form, mutexes);
  out.pisKept = form.countLivePis();
  out.partition =
      out.cellRound
          ? sanalysis::refineConservative(graph, form)
          : sanalysis::solvePointsTo(graph, form).buildClasses(prog);
  return out;
}

struct Coverage {
  std::size_t programs = 0;
  std::size_t pointerPrograms = 0;
  std::size_t cellRounds = 0;   ///< propagation-free round ran
  std::size_t fallbacks = 0;    ///< general solve on the conservative form
  std::size_t keptPis = 0;      ///< conservative rounds that kept a π
  std::size_t wildSites = 0;    ///< ⊤ deref sites in final results
  std::size_t multiRound = 0;   ///< programs needing >= 2 refinement rounds
};

/// Checks one program under one option set.
void checkOnce(ir::Program& prog, bool enableCssame, const std::string& what,
               Coverage& cov) {
  const driver::PipelineOptions opts{.enableCssame = enableCssame,
                                     .warnings = false};
  const std::string tag =
      what + (enableCssame ? " [cssame]" : " [no-cssame]");
  ref::Compilation want(prog, opts);
  driver::Compilation got = driver::analyze(prog, opts);
  ++cov.programs;

  ASSERT_EQ(got.pointsTo() != nullptr, want.pointsTo_ != nullptr) << tag;
  if (want.pointsTo_ != nullptr) {
    ++cov.pointerPrograms;
    const FirstRound first = firstRound(prog, enableCssame);
    EXPECT_EQ(renderPartition(first.partition, prog),
              renderPartition(want.first_, prog))
        << "first refined partition: " << tag;
    cov.cellRounds += first.cellRound ? 1 : 0;
    cov.fallbacks += first.cellRound ? 0 : 1;
    cov.keptPis += first.cellRound && first.pisKept > 0 ? 1 : 0;
    cov.multiRound += want.rounds_ >= 2 ? 1 : 0;

    const sanalysis::PointsToResult& pg = *got.pointsTo();
    const sanalysis::PointsToResult& pw = *want.pointsTo_;
    EXPECT_EQ(renderPointsTo(pg, prog), renderPointsTo(pw, prog))
        << "points-to: " << tag;
    EXPECT_TRUE(pg.locPts == pw.locPts) << "locPts: " << tag;
    EXPECT_TRUE(pg.loadPts == pw.loadPts) << "loadPts: " << tag;
    EXPECT_TRUE(pg.storePts == pw.storePts) << "storePts: " << tag;
    cov.wildSites += pw.stats.anywhereSites;
  }
  EXPECT_EQ(renderPartition(got.graph().aliases, prog),
            renderPartition(want.graph_->aliases, prog))
      << "final partition: " << tag;
  EXPECT_EQ(renderEdges(got.graph(), prog), renderEdges(*want.graph_, prog))
      << "edges: " << tag;
  EXPECT_EQ(got.piStats().pisPlaced, want.piStats_.pisPlaced) << tag;
  EXPECT_EQ(got.piStats().conflictArgs, want.piStats_.conflictArgs) << tag;
  EXPECT_EQ(got.rewriteStats().argsRemoved, want.rewriteStats_.argsRemoved)
      << tag;
  EXPECT_EQ(got.rewriteStats().pisRemoved, want.rewriteStats_.pisRemoved)
      << tag;
  EXPECT_EQ(cssa::printForm(got.graph(), got.ssa()),
            cssa::printForm(*want.graph_, *want.ssa_))
      << "form: " << tag;

  // The walk against the reference, solved on the same form and on the
  // reference pipeline's own.
  expectSameReaching(got.ssa(), got.graph(), got.ssa(), tag);
  expectSameReaching(got.ssa(), *want.graph_, *want.ssa_, tag);
}

void checkProgram(ir::Program prog, const std::string& what, Coverage& cov) {
  checkOnce(prog, true, what, cov);
  checkOnce(prog, false, what, cov);
}

void checkSource(const std::string& src, const std::string& what,
                 Coverage& cov) {
  checkProgram(parser::parseOrDie(src), what + "\n" + src, cov);
}

// ---------------------------------------------------------------------------
// Corpora.
// ---------------------------------------------------------------------------

TEST(PointsToEquivalence, AliasGalleryAndPointsToShapes) {
  Coverage cov;
  const std::filesystem::path gallery =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "examples" / "programs";
  std::size_t files = 0;
  for (const char* name :
       {"alias_array_race.cp", "alias_locked_ptr.cp", "alias_shared_cell.cp"}) {
    std::ifstream in(gallery / name);
    ASSERT_TRUE(in) << "missing gallery program " << name;
    std::stringstream text;
    text << in.rdbuf();
    checkSource(text.str(), name, cov);
    ++files;
  }
  EXPECT_EQ(files, 3u);
  // The pointsto_test shapes.
  const char* shapes[] = {
      "int a, b; lock L; cobegin { thread T0 { lock(L); a = a + 1; "
      "unlock(L); } thread T1 { lock(L); b = a; unlock(L); } } print(a); "
      "print(b);",
      "int a[4]; int i, j; i = 0; j = 1; cobegin { thread T0 { a[i] = 1; } "
      "thread T1 { a[j] = 2; } } print(a[0]);",
      "int x, out, ptr; ptr = &x; *ptr = 5; out = *ptr; print(out);",
      "int x, y, ptr; ptr = &x; *ptr = 1; ptr = &y; *ptr = 2; print(x); "
      "print(y);",
      "int x, y, ptrA, ptrB; lock m; ptrA = &x; ptrB = &y; cobegin { thread "
      "T0 { lock(m); *ptrA = 1; unlock(m); } thread T1 { lock(m); *ptrB = 2; "
      "unlock(m); } } print(x); print(y);",
      "int out, ptr; ptr = 0; out = *ptr; print(out);",
      "int x, ptr; ptr = 7; *ptr = 1; print(x);",
      "int x, y, ptr; lock m; ptr = &x; cobegin { thread A { lock(m); ptr = "
      "&y; unlock(m); } thread B { lock(m); *ptr = 3; unlock(m); } } "
      "print(x); print(y);",
      "int a[4]; int i, j; i = 0; j = i; cobegin { thread T0 { a[i] = 1; } "
      "thread T1 { a[j] = 2; } } print(a[0]);",
  };
  int i = 0;
  for (const char* src : shapes)
    checkSource(src, "pointsto_test shape " + std::to_string(i++), cov);
  EXPECT_GT(cov.pointerPrograms, 0u);
  EXPECT_GT(cov.wildSites, 0u);  // `ptr = 7; *ptr = 1`
}

TEST(PointsToEquivalence, BenchAliasCorpus) {
  Coverage cov;
  const char* litmus[] = {
      "int x, p, q; p = &x; q = &x; cobegin { thread A { *p = 1; } thread B "
      "{ *q = 2; } } print(x);",
      "int x, p, q; lock m; p = &x; q = &x; cobegin { thread A { lock(m); "
      "*p = 1; unlock(m); } thread B { lock(m); *q = 2; unlock(m); } } "
      "print(x);",
      "int a[4]; int i, j; i = 0; j = i; cobegin { thread A { a[i] = 1; } "
      "thread B { a[j] = 2; } } print(a[0]);",
      "int x, y, p; p = &x; cobegin { thread A { x = 5; } thread B { y = *p; "
      "} } print(y);",
      "int x, y, p, q; lock m; p = &x; q = &y; cobegin { thread A { lock(m); "
      "*p = 1; unlock(m); } thread B { lock(m); *q = 2; unlock(m); } } "
      "print(x); print(y);",
  };
  int i = 0;
  for (const char* src : litmus)
    checkSource(src, "bench_alias litmus " + std::to_string(i++), cov);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.threads = 2;
    cfg.sharedVars = 3;
    cfg.locks = 2;
    cfg.stmtsPerThread = 3 + static_cast<int>(seed % 2);
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 3);
    cfg.determinate = false;
    cfg.ptrProb = 0.4;
    checkProgram(workload::generateRandom(cfg),
                 "bench_alias pointer seed=" + std::to_string(seed), cov);
  }
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = 2000 + seed;
    cfg.threads = 2;
    cfg.sharedVars = 2;
    cfg.locks = 1;
    cfg.stmtsPerThread = 3;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.lockedFraction = 0.25 * static_cast<double>(seed % 3);
    cfg.determinate = false;
    cfg.arrayProb = 0.5;
    checkProgram(workload::generateRandom(cfg),
                 "bench_alias array seed=" + std::to_string(seed), cov);
  }
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = 4000 + seed;
    cfg.threads = 2;
    cfg.sharedVars = 2;
    cfg.locks = 2;
    cfg.stmtsPerThread = 3;
    cfg.maxDepth = 1;
    cfg.loopProb = 0.0;
    cfg.determinate = true;
    cfg.ptrProb = 0.3;
    cfg.arrayProb = 0.2;
    checkProgram(workload::generateRandom(cfg),
                 "bench_alias determinate seed=" + std::to_string(seed), cov);
  }
  EXPECT_GT(cov.pointerPrograms, 60u);
}

workload::GeneratorConfig sweepConfig(std::uint64_t seed) {
  static const int kStmts[] = {6, 12, 24, 48};
  static const double kPtr[] = {0.1, 0.15, 0.25, 0.4};
  workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.threads = 2 + static_cast<int>(seed % 3);
  cfg.sharedVars = 2 + static_cast<int>(seed % 5);
  cfg.locks = 1 + static_cast<int>(seed % 3);
  cfg.stmtsPerThread = kStmts[seed % 4];
  cfg.lockedFraction = 0.2 * static_cast<double>(seed % 5);
  cfg.useEvents = seed % 3 == 0;
  cfg.fenceProb = seed % 5 == 1 ? 0.1 : 0.0;
  cfg.determinate = seed % 2 == 0;
  cfg.ptrProb = kPtr[(seed / 4) % 4];
  cfg.arrayProb = seed % 3 == 1 ? 0.2 : 0.0;
  return cfg;
}

TEST(PointsToEquivalence, GeneratedPointerSweep) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 420; ++seed)
    checkProgram(workload::generateRandom(sweepConfig(seed)),
                 "generateRandom seed=" + std::to_string(seed), cov);
  std::printf(
      "generated sweep: %zu pointer runs, %zu propagation-free, %zu "
      "fallback, %zu keeping a pi, %zu needing >= 2 rounds, %zu wild sites\n",
      cov.pointerPrograms, cov.cellRounds, cov.fallbacks, cov.keptPis,
      cov.multiRound, cov.wildSites);
  EXPECT_GE(cov.pointerPrograms, 2u * 400u);
  // The propagation-free round is the common path, not a corner case.
  EXPECT_GE(cov.cellRounds * 100, cov.pointerPrograms * 95);
  EXPECT_GT(cov.multiRound, 0u);
}

TEST(PointsToEquivalence, WideSymbolTables) {
  // More symbols than a DynBitset keeps inline: the solver's values and
  // store map take their heap-backed form.
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    workload::GeneratorConfig cfg;
    cfg.seed = 9000 + seed;
    cfg.threads = 3 + static_cast<int>(seed % 2);
    cfg.sharedVars = 130 + 10 * static_cast<int>(seed % 3);
    cfg.stmtsPerThread = 24;
    cfg.determinate = seed % 2 == 0;
    cfg.ptrProb = 0.3;
    cfg.arrayProb = seed % 3 == 0 ? 0.2 : 0.0;
    ir::Program prog = workload::generateRandom(cfg);
    EXPECT_GT(prog.symbols.size(), DynBitset::kInlineBits);
    checkProgram(std::move(prog), "wide seed=" + std::to_string(seed), cov);
  }
  EXPECT_EQ(cov.pointerPrograms, 8u);
}

TEST(PointsToEquivalence, WildStores) {
  Coverage cov;
  checkSource("int x, y, p; *3 = x; y = *p; print(x); print(y);", "wild store",
              cov);
  checkSource(R"(
    int x, y, p, q; lock m;
    p = &x;
    cobegin {
      thread A { lock(m); *3 = p; unlock(m); }
      thread B { lock(m); q = *p; *q = 1; unlock(m); }
    }
    print(x); print(y);
  )",
              "wild store feeding a load", cov);
  checkSource(R"(
    int a[3]; int p, s;
    p = &a[1];
    cobegin {
      thread A { *(p + 1) = 4; }
      thread B { s = *p; }
    }
    print(s);
  )",
              "pointer arithmetic", cov);
  EXPECT_GT(cov.wildSites, 0u);
}

TEST(PointsToEquivalence, ConservativeRoundKeepsPis) {
  // Uses whose sequential chain reaches no assignment (nothing is stored
  // before the cobegin) while a concurrent thread assigns: the
  // conservative round reads their π, so it must place it.
  Coverage cov;
  checkSource(R"(
    int x, y, p;
    cobegin {
      thread A { y = x; }
      thread B { p = &x; *p = 1; }
    }
    print(y);
  )",
              "unreached use, concurrent store", cov);
  checkSource(R"(
    int x, p, q;
    cobegin {
      thread A { q = *p; }
      thread B { p = &x; }
    }
    print(q);
  )",
              "unreached pointer, concurrent retarget", cov);
  checkSource(R"(
    int x, y, p, q; lock m;
    cobegin {
      thread A { lock(m); q = *p; unlock(m); }
      thread B { lock(m); p = &x; unlock(m); }
      thread C { lock(m); p = &y; *p = 4; unlock(m); }
    }
    print(x); print(y);
  )",
              "locked retargets", cov);
  EXPECT_GT(cov.keptPis, 0u);
  EXPECT_EQ(cov.fallbacks, 0u);
}

TEST(PointsToEquivalence, OneVariableProgramsTakeTheFallback) {
  // A single variable is a singleton class even under the conservative
  // partition, so its direct stores stay strong and the pipeline runs the
  // general solve on the full conservative form.
  Coverage cov;
  checkSource("int p; p = &p; *p = 3; print(p);", "self pointer", cov);
  checkSource(R"(
    int p;
    cobegin {
      thread A { p = &p; }
      thread B { *p = 1; }
    }
    print(p);
  )",
              "concurrent self pointer", cov);
  checkSource("int p; p = 5; *p = 1; print(p);", "one variable, wild", cov);
  EXPECT_GT(cov.fallbacks, 0u);
}

TEST(PointsToEquivalence, ReachingDefinitionsOnScalarAndLockRegionPrograms) {
  std::size_t checked = 0;
  auto check = [&](ir::Program prog, const std::string& what) {
    driver::Compilation c = driver::analyze(prog, {.warnings = false});
    EXPECT_EQ(c.pointsTo(), nullptr) << what;
    expectSameReaching(c.ssa(), c.graph(), c.ssa(), what);
    ++checked;
  };
  check(parser::parseOrDie(workload::figure1Source()), "figure1");
  check(parser::parseOrDie(workload::figure2Source()), "figure2");
  check(parser::parseOrDie(workload::figure5aSource()), "figure5a");
  for (int k = 1; k <= 16; ++k)
    check(parser::parseOrDie(workload::lockRegionSource(3, k)),
          "lock regions k=" + std::to_string(k));
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    workload::GeneratorConfig cfg = sweepConfig(seed);
    cfg.ptrProb = 0.0;
    check(workload::generateRandom(cfg),
          "scalar seed=" + std::to_string(seed));
  }
  EXPECT_EQ(checked, 3u + 16u + 120u);
}

}  // namespace
}  // namespace cssame
