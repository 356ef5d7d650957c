// Sparse conditional propagation over the CSSAME form — the
// Wegman–Zadeck SCC engine generalized over its value lattice.
//
// The engine owns everything that is lattice-independent: the two
// worklists (control edges and SSA names), edge/node executability, the
// φ meet over executable incoming edges and the π meet of the control
// argument with every conflict argument whose defining node is
// executable (the concurrent merge the CSSAME rewriting prunes). A π
// keeps that meet between evaluations and folds in only the arguments
// that lowered since its last one; values only descend, so the result is
// the full re-meet's. The domain supplies the values:
//
//   struct Domain {
//     using Value = ...;                       // with operator==
//     const char* name() const;
//     Value top() const;                       // unevaluated / unreachable
//     Value constant(long long v) const;       // IntConst and entry (=0)
//     Value unknown() const;                   // external call result
//     Value meet(const Value& a, const Value& b) const;
//     Value evalUnary(ir::UnOp op, const Value& v) const;
//     Value evalBinary(ir::BinOp op, const Value& a, const Value& b) const;
//     BranchVerdict branch(const Value& cond) const;
//     // Convergence hook: called when a definition's value changes after
//     // it already held a non-top value; `growths` counts such changes.
//     // Domains with infinite descending chains (intervals) widen here;
//     // finite lattices return `next` unchanged.
//     Value widen(const Value& prev, const Value& next,
//                 std::uint32_t growths) const;
//   };
//
// Its one production lattice is CVRA's collapse-free intervals
// (sanalysis/vrange.h); CSCC (opt/cscc.cc) folds their singletons. It is
// the library's one dataflow solver: the other fixpoints are walks (the
// FUD-chain walk of cssa/reaching.h, the reachability walks of
// dataflow/reach.h), and points-to propagates on its own
// (sanalysis/pointsto.cc). A solve runs under one iteration budget
// (kMaxIterations), reports SolveStats, and degrades a blown budget to a
// Fault (BudgetExceeded) instead of hanging.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/pfg/graph.h"
#include "src/ssa/ssa.h"
#include "src/support/status.h"

namespace cssame::dataflow {

/// Cap on solver re-evaluations. It is generous: real programs converge
/// in a few sweeps, and the cap only exists so a non-monotone transfer
/// function cannot hang the compiler.
inline constexpr std::uint64_t kMaxIterations = 1u << 22;

/// Convergence report of one solver run.
struct SolveStats {
  std::string analysis;           ///< e.g. "vrange", "cscc"
  std::uint64_t iterations = 0;   ///< re-evaluations performed
  std::uint64_t changes = 0;      ///< evaluations that lowered a value
  bool converged = false;
};

/// What a branch condition's lattice value says about the outgoing edges.
enum class BranchVerdict : std::uint8_t {
  Unknown,    ///< still top: wait for more information
  Both,       ///< either edge may execute
  TrueOnly,   ///< only the taken edge (succs[0]) executes
  FalseOnly,  ///< only the fall-through edge (succs[1]) executes
};

template <typename D>
class SparseConditional {
 public:
  using Value = typename D::Value;

  SparseConditional(const pfg::Graph& graph, const ssa::SsaForm& form,
                    D domain)
      : graph_(graph), form_(form), domain_(std::move(domain)) {}

  Status solve() {
    stats_ = SolveStats{domain_.name(), 0, 0, false};
    lattice_.assign(form_.defs.size(), domain_.top());
    growths_.assign(form_.defs.size(), 0);
    nodeExec_.assign(graph_.size(), false);
    edgeExec_.assign(graph_.size(), {});
    for (std::size_t i = 0; i < graph_.size(); ++i)
      edgeExec_[i].assign(
          graph_.node(NodeId{static_cast<NodeId::value_type>(i)})
              .succs.size(),
          false);

    // Program entry: every variable starts at 0 (language semantics).
    for (SsaNameId d : form_.entryDef)
      if (d.valid()) lattice_[d.index()] = domain_.constant(0);

    buildUsers();

    for (std::size_t i = 0; i < graph_.node(graph_.entry).succs.size(); ++i)
      flowWork_.push_back({graph_.entry, i});

    while (!flowWork_.empty() || !ssaWork_.empty()) {
      if (stats_.iterations >= kMaxIterations)
        return Fault{FaultKind::BudgetExceeded, domain_.name(),
                     "sccp iteration budget exhausted after " +
                         std::to_string(stats_.iterations) + " iterations",
                     {}};
      while (!flowWork_.empty()) {
        auto [from, succIdx] = flowWork_.front();
        flowWork_.pop_front();
        ++stats_.iterations;
        markEdge(from, succIdx);
      }
      while (!ssaWork_.empty()) {
        const SsaNameId d = ssaWork_.front();
        ssaWork_.pop_front();
        ++stats_.iterations;
        propagate(d);
      }
    }
    stats_.converged = true;
    return Status::okStatus();
  }

  [[nodiscard]] const Value& value(SsaNameId d) const {
    return lattice_[d.index()];
  }
  [[nodiscard]] bool nodeExecutable(NodeId n) const {
    return nodeExec_[n.index()];
  }
  [[nodiscard]] const SolveStats& stats() const { return stats_; }

 private:
  /// Evaluates an expression in the current lattice environment (VarRefs
  /// read their use-def values).
  [[nodiscard]] Value evalExpr(const ir::Expr& e) const {
    switch (e.kind) {
      case ir::ExprKind::IntConst:
        return domain_.constant(e.intValue);
      case ir::ExprKind::VarRef:
        return lattice_[form_.useDef.at(&e).index()];
      case ir::ExprKind::Unary:
        return domain_.evalUnary(e.unop, evalExpr(*e.operands[0]));
      case ir::ExprKind::Binary:
        return domain_.evalBinary(e.binop, evalExpr(*e.operands[0]),
                                  evalExpr(*e.operands[1]));
      case ir::ExprKind::Call:
      case ir::ExprKind::AddrOf:
      case ir::ExprKind::Deref:
      case ir::ExprKind::Index:
        return domain_.unknown();
    }
    return domain_.unknown();
  }

  struct Users {
    std::vector<SsaNameId> terms;  ///< φ/π definitions using this def
    std::vector<ir::Stmt*> stmts;  ///< simple statements using it
    std::vector<NodeId> branches;  ///< nodes whose terminator uses it
  };

  /// A π's meet as of its last evaluation, unwidened, and the arguments
  /// that may have lowered it since.
  struct PiMeet {
    Value meet;
    bool evaluated = false;
    std::vector<SsaNameId> dirty;
  };

  void buildUsers() {
    users_.assign(form_.defs.size(), {});
    pisByStmt_.clear();
    pisByNode_.assign(graph_.size(), {});
    piSlot_.assign(form_.defs.size(), kNoSlot);
    piMeets_.clear();

    for (const ssa::Definition& d : form_.defs) {
      if (d.removed) continue;
      if (d.kind == ssa::DefKind::Phi) {
        for (const ssa::PhiArg& a : d.phiArgs)
          users_[a.def.index()].terms.push_back(d.name);
      } else if (d.kind == ssa::DefKind::Pi) {
        piSlot_[d.name.index()] = static_cast<std::uint32_t>(piMeets_.size());
        piMeets_.push_back({domain_.top(), false, {}});
        users_[d.piControlArg.index()].terms.push_back(d.name);
        for (const ssa::PiConflictArg& a : d.piConflictArgs) {
          users_[a.def.index()].terms.push_back(d.name);
          pisByNode_[a.fromNode.index()].push_back(d.name);
        }
        pisByStmt_[d.piUseStmt].push_back(d.name);
      }
    }

    for (const pfg::Node& n : graph_.nodes()) {
      for (ir::Stmt* s : n.stmts) {
        if (!s->expr) continue;
        ir::forEachExpr(*s->expr, [&](const ir::Expr& e) {
          if (e.kind != ir::ExprKind::VarRef) return;
          users_[form_.useDef.at(&e).index()].stmts.push_back(s);
        });
      }
      if (n.terminator != nullptr && n.terminator->expr) {
        ir::forEachExpr(*n.terminator->expr, [&](const ir::Expr& e) {
          if (e.kind != ir::ExprKind::VarRef) return;
          users_[form_.useDef.at(&e).index()].branches.push_back(n.id);
        });
      }
    }
  }

  void lower(SsaNameId d, const Value& v) {
    const Value& prev = lattice_[d.index()];
    Value merged = domain_.meet(prev, v);
    if (merged == prev) return;
    if (!(prev == domain_.top()))
      merged = domain_.widen(prev, merged, ++growths_[d.index()]);
    if (merged == prev) return;
    lattice_[d.index()] = std::move(merged);
    ++stats_.changes;
    ssaWork_.push_back(d);
    // πs not yet evaluated will re-meet every argument anyway.
    for (SsaNameId t : users_[d.index()].terms) {
      const std::uint32_t slot = piSlot_[t.index()];
      if (slot != kNoSlot && piMeets_[slot].evaluated)
        piMeets_[slot].dirty.push_back(d);
    }
  }

  void evalTerm(SsaNameId id) {
    const ssa::Definition& d = form_.def(id);
    if (d.removed) return;
    if (d.kind == ssa::DefKind::Phi) {
      Value v = domain_.top();
      for (const ssa::PhiArg& a : d.phiArgs) {
        if (!isEdgeExec(a.pred, d.node)) continue;
        v = domain_.meet(v, lattice_[a.def.index()]);
      }
      lower(id, v);
    } else if (d.kind == ssa::DefKind::Pi) {
      PiMeet& pi = piMeets_[piSlot_[id.index()]];
      if (!pi.evaluated) {
        pi.meet = lattice_[d.piControlArg.index()];
        for (const ssa::PiConflictArg& a : d.piConflictArgs) {
          if (!nodeExec_[a.fromNode.index()]) continue;
          pi.meet = domain_.meet(pi.meet, lattice_[a.def.index()]);
        }
        pi.evaluated = true;
      } else {
        // A conflict argument is an assignment, ⊤ until its node is
        // executable, so every dirty name belongs in the meet.
        for (SsaNameId a : pi.dirty)
          pi.meet = domain_.meet(pi.meet, lattice_[a.index()]);
      }
      pi.dirty.clear();
      lower(id, pi.meet);
    }
  }

  [[nodiscard]] bool isEdgeExec(NodeId from, NodeId to) const {
    const pfg::Node& f = graph_.node(from);
    for (std::size_t i = 0; i < f.succs.size(); ++i)
      if (f.succs[i] == to && edgeExec_[from.index()][i]) return true;
    return false;
  }

  void evalStmt(ir::Stmt* s) {
    // π terms feeding this statement's uses first.
    auto it = pisByStmt_.find(s);
    if (it != pisByStmt_.end())
      for (SsaNameId pi : it->second) evalTerm(pi);
    if (s->kind == ir::StmtKind::Assign) {
      // A deref store whose points-to set is empty defines nothing.
      auto def = form_.assignDef.find(s);
      if (def == form_.assignDef.end()) return;
      // A weak definition (deref store, array store, or any store into a
      // multi-symbol alias class) may leave other cells of the class
      // unchanged, so the class value after it is not just the rhs.
      lower(def->second, form_.def(def->second).weak
                             ? domain_.unknown()
                             : evalExpr(*s->expr));
    }
  }

  void evalBranch(NodeId id) {
    const pfg::Node& n = graph_.node(id);
    if (n.terminator == nullptr) {
      for (std::size_t i = 0; i < n.succs.size(); ++i)
        flowWork_.push_back({id, i});
      return;
    }
    auto it = pisByStmt_.find(n.terminator);
    if (it != pisByStmt_.end())
      for (SsaNameId pi : it->second) evalTerm(pi);
    switch (domain_.branch(evalExpr(*n.terminator->expr))) {
      case BranchVerdict::Unknown:
        return;  // wait for more information
      case BranchVerdict::Both:
        for (std::size_t i = 0; i < n.succs.size(); ++i)
          flowWork_.push_back({id, i});
        return;
      // succs[0] = taken (then/body), succs[1] = not taken (else/exit).
      case BranchVerdict::TrueOnly:
        flowWork_.push_back({id, 0});
        return;
      case BranchVerdict::FalseOnly:
        if (n.succs.size() > 1) flowWork_.push_back({id, 1});
        return;
    }
  }

  void markEdge(NodeId from, std::size_t succIdx) {
    if (edgeExec_[from.index()][succIdx]) return;
    edgeExec_[from.index()][succIdx] = true;
    const NodeId to = graph_.node(from).succs[succIdx];

    // φ terms at the target see a new executable incoming edge.
    for (SsaNameId phi : form_.phisAt[to.index()]) evalTerm(phi);

    if (nodeExec_[to.index()]) return;
    nodeExec_[to.index()] = true;

    // π terms with conflict arguments defined in this node may lower.
    for (SsaNameId pi : pisByNode_[to.index()]) evalTerm(pi);

    const pfg::Node& n = graph_.node(to);
    for (ir::Stmt* s : n.stmts) evalStmt(s);
    evalBranch(to);
  }

  void propagate(SsaNameId d) {
    const Users& u = users_[d.index()];
    for (SsaNameId t : u.terms) evalTerm(t);
    for (ir::Stmt* s : u.stmts)
      if (nodeExec_[graph_.nodeOf(s).index()]) evalStmt(s);
    for (NodeId b : u.branches)
      if (nodeExec_[b.index()]) evalBranch(b);
  }

  const pfg::Graph& graph_;
  const ssa::SsaForm& form_;
  D domain_;

  std::vector<Value> lattice_;
  std::vector<std::uint32_t> growths_;
  std::vector<bool> nodeExec_;
  std::vector<std::vector<bool>> edgeExec_;  // parallel to node.succs
  std::vector<Users> users_;
  std::unordered_map<const ir::Stmt*, std::vector<SsaNameId>> pisByStmt_;
  std::vector<std::vector<SsaNameId>> pisByNode_;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<std::uint32_t> piSlot_;  ///< per def: index into piMeets_
  std::vector<PiMeet> piMeets_;
  std::deque<std::pair<NodeId, std::size_t>> flowWork_;
  std::deque<SsaNameId> ssaWork_;
  SolveStats stats_;
};

}  // namespace cssame::dataflow
