// Generic dataflow framework over the PFG and the CSSAME form.
//
// The library's fixpoints are instances of the three solver shapes
// defined here:
//
//   DenseSolver<P>       a classic forward worklist solver over PFG
//                        control edges: per-node IN/OUT values, a meet
//                        over predecessors and a transfer function. P
//                        picks the lattice (may = union, must =
//                        intersect, or anything else with a monotone
//                        meet). Held locks and TSO's pending stores.
//
//   SsaPropagator<P>     a sparse solver over the SSA names of the
//                        CSSAME form: each definition carries one lattice
//                        value, φ/π terms re-join their arguments, and
//                        changes ripple along the factored def-use edges
//                        only — no per-node state at all. Points-to.
//
//   SparseConditional<D> (sccp.h) the Wegman–Zadeck conditional engine —
//                        SSA values plus control-edge executability —
//                        shared by CSCC constant propagation and the
//                        concurrent value-range analysis.
//
// A closure over φ/π arguments alone needs no solver: parallel reaching
// definitions walk the FUD chains (cssa/reaching.h).
//
// All solvers run under one iteration budget (kMaxIterations) and report
// structured SolveStats; a blown budget degrades to a Fault
// (BudgetExceeded) through the existing Expected/Status machinery instead
// of hanging.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/pfg/graph.h"
#include "src/ssa/ssa.h"
#include "src/support/status.h"

namespace cssame::dataflow {

/// Cap on node (dense) or definition (sparse) re-evaluations. It is
/// generous: real programs converge in a few sweeps, and the cap only
/// exists so a non-monotone transfer function cannot hang the compiler.
inline constexpr std::uint64_t kMaxIterations = 1u << 22;

/// Convergence report of one solver run, surfaced through
/// driver::Compilation::solverStats() and `cssamec --stats`.
struct SolveStats {
  std::string analysis;           ///< e.g. "held-locks", "points-to"
  std::uint64_t iterations = 0;   ///< node/def re-evaluations performed
  std::uint64_t changes = 0;      ///< evaluations that lowered a value
  bool converged = false;

  [[nodiscard]] std::string str() const {
    return analysis + ": " + std::to_string(iterations) + " iteration(s), " +
           std::to_string(changes) + " change(s)" +
           (converged ? "" : " [budget exceeded]");
  }
};

/// Dense forward iterative solver. The problem type P supplies:
///
///   using Value = ...;                      // with operator==
///   const char* name() const;
///   Value boundary() const;                 // value at the entry node
///   Value top(NodeId n) const;              // optimistic initial value
///   void meet(Value& into, const Value& from) const;
///   Value transfer(const pfg::Node& n, const Value& in) const;
///
/// IN[entry] = boundary(); IN[n] = meet over out-values of control
/// predecessors; OUT[n] = transfer(n, IN[n]).
template <typename P>
class DenseSolver {
 public:
  using Value = typename P::Value;

  DenseSolver(const pfg::Graph& graph, P problem)
      : graph_(graph), problem_(std::move(problem)) {}

  /// Runs to fixpoint. Returns a BudgetExceeded fault if the iteration
  /// cap trips first (the partial result is still readable and sound for
  /// monotone problems only after convergence).
  Status solve() {
    const std::size_t n = graph_.size();
    const NodeId boundary = graph_.entry;
    stats_ = SolveStats{problem_.name(), 0, 0, false};

    in_.clear();
    out_.clear();
    in_.reserve(n);
    out_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id{static_cast<NodeId::value_type>(i)};
      in_.push_back(id == boundary ? problem_.boundary() : problem_.top(id));
      out_.push_back(problem_.transfer(graph_.node(id), in_.back()));
    }

    // Seed in reverse post-order so the first sweep already visits most
    // nodes after their inputs.
    std::deque<NodeId> work;
    std::vector<bool> queued(n, false);
    for (NodeId id : postorder(boundary)) {
      work.push_front(id);
      queued[id.index()] = true;
    }
    // Nodes unreachable from the boundary still get solved (their top()
    // values may matter to callers); append them after the ordered seed.
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id{static_cast<NodeId::value_type>(i)};
      if (!queued[i]) {
        work.push_back(id);
        queued[i] = true;
      }
    }

    while (!work.empty()) {
      if (stats_.iterations >= kMaxIterations)
        return Fault{FaultKind::BudgetExceeded, problem_.name(),
                     "dataflow iteration budget exhausted after " +
                         std::to_string(stats_.iterations) + " iterations",
                     {}};
      const NodeId id = work.front();
      work.pop_front();
      queued[id.index()] = false;
      ++stats_.iterations;

      const pfg::Node& node = graph_.node(id);
      if (id != boundary) {
        Value v = problem_.top(id);
        for (NodeId p : node.preds) problem_.meet(v, out_[p.index()]);
        if (!(v == in_[id.index()])) in_[id.index()] = std::move(v);
      }
      Value o = problem_.transfer(node, in_[id.index()]);
      if (o == out_[id.index()]) continue;
      out_[id.index()] = std::move(o);
      ++stats_.changes;
      for (NodeId s : node.succs) {
        if (!queued[s.index()]) {
          queued[s.index()] = true;
          work.push_back(s);
        }
      }
    }
    stats_.converged = true;
    return Status::okStatus();
  }

  [[nodiscard]] const Value& inOf(NodeId n) const { return in_[n.index()]; }
  [[nodiscard]] const SolveStats& stats() const { return stats_; }

 private:
  /// Post-order of the control flow reachable from `root`.
  [[nodiscard]] std::vector<NodeId> postorder(NodeId root) const {
    std::vector<NodeId> order;
    if (!root.valid()) return order;
    std::vector<bool> seen(graph_.size(), false);
    // Iterative DFS with an explicit edge cursor per frame.
    std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
    seen[root.index()] = true;
    while (!stack.empty()) {
      auto& [id, cursor] = stack.back();
      const auto& next = graph_.node(id).succs;
      if (cursor < next.size()) {
        const NodeId s = next[cursor++];
        if (!seen[s.index()]) {
          seen[s.index()] = true;
          stack.emplace_back(s, 0);
        }
      } else {
        order.push_back(id);
        stack.pop_back();
      }
    }
    return order;
  }

  const pfg::Graph& graph_;
  P problem_;
  std::vector<Value> in_, out_;
  SolveStats stats_;
};

/// Sparse solver over SSA names. The problem type P supplies:
///
///   using Value = ...;                      // with operator==
///   const char* name() const;
///   Value initial(const ssa::Definition& d) const;  // Entry value
///   Value identity() const;                 // neutral element of join
///   void join(Value& into, const Value& arg) const;
///
///   std::vector<SsaNameId> extraDeps(const ssa::Definition& d) const;
///     Further definitions `d` reads — typically the use-def links of an
///     Assign's right-hand side. The solver adds def-use edges for them
///     and re-evaluates `d` when any changes.
///
///   template <typename Get>
///   Value evalAssign(const ssa::Definition& d, const Get& get) const;
///     Transfer function for Assign definitions. `get(id)` returns the
///     current value of any SSA name (identity() for names not yet
///     seeded). The points-to client evaluates `p = &x; q = p;` chains
///     sparsely through it.
///
/// φ values join their arguments, π values join their control argument
/// with every conflict argument — the concurrent merge the CSSAME form
/// makes explicit. Removed definitions are skipped.
///
/// The def-use edges are built once, by the constructor, into one flat
/// array; the form must not change afterwards. solve() may run again
/// after the problem's external input changed (points-to re-solves after
/// every store harvest); each run starts over from the seeding.
///
/// Within one solve every value only grows, so a φ/π popped again joins
/// its current value with just the arguments that changed since it last
/// ran; its first pop after seeding is a full evaluation. The join must
/// therefore be a semilattice join (idempotent, commutative, associative)
/// and every transfer function monotone. The worklist order, the
/// changed/unchanged decisions and SolveStats are those of re-joining
/// every argument on every pop.
template <typename P>
class SsaPropagator {
 public:
  using Value = typename P::Value;

  /// The `get` callable handed to evalAssign.
  class Getter {
   public:
    explicit Getter(const SsaPropagator& solver) : solver_(&solver) {}
    const Value& operator()(SsaNameId id) const {
      return id.valid() && id.index() < solver_->values_.size()
                 ? solver_->values_[id.index()]
                 : solver_->identity_;
    }

   private:
    const SsaPropagator* solver_;
  };

  SsaPropagator(const ssa::SsaForm& form, P problem)
      : form_(form),
        problem_(std::move(problem)),
        identity_(problem_.identity()) {
    buildUsers();
  }

  Status solve() {
    const std::size_t n = form_.defs.size();
    stats_ = SolveStats{problem_.name(), 0, 0, false};

    // Seeding evaluates every definition in order; names not seeded yet
    // still read identity().
    values_.assign(n, identity_);
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

    while (!work.empty()) {
      if (stats_.iterations >= kMaxIterations)
        return Fault{FaultKind::BudgetExceeded, problem_.name(),
                     "ssa propagation budget exhausted after " +
                         std::to_string(stats_.iterations) + " iterations",
                     {}};
      const SsaNameId id = work.front();
      work.pop_front();
      queued[id.index()] = false;
      const std::uint64_t now = ++stats_.iterations;

      Value v = reevaluate(form_.def(id));
      evaluatedAt_[id.index()] = now;
      if (v == values_[id.index()]) continue;
      values_[id.index()] = std::move(v);
      changedAt_[id.index()] = now;
      ++stats_.changes;
      for (std::uint32_t e = userBegin_[id.index()];
           e < userBegin_[id.index() + 1]; ++e) {
        const SsaNameId u = users_[e];
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
  /// Factored def-use edges — which definitions consume each one — in
  /// compressed form: the users of name i are users_[userBegin_[i] ..
  /// userBegin_[i + 1]), in the order the definitions list them.
  void buildUsers() {
    const std::size_t n = form_.defs.size();
    std::vector<std::pair<std::uint32_t, SsaNameId>> edges;
    for (const ssa::Definition& d : form_.defs) {
      if (d.removed) continue;
      ssa::forEachArg(
          d, [&](SsaNameId a) { edges.emplace_back(a.index(), d.name); });
      for (SsaNameId dep : problem_.extraDeps(d))
        if (dep.valid() && dep.index() < n)
          edges.emplace_back(dep.index(), d.name);
    }
    userBegin_.assign(n + 1, 0);
    for (const auto& [from, user] : edges) ++userBegin_[from + 1];
    for (std::size_t i = 0; i < n; ++i) userBegin_[i + 1] += userBegin_[i];
    std::vector<std::uint32_t> next(userBegin_.begin(), userBegin_.end() - 1);
    users_.resize(edges.size());
    for (const auto& [from, user] : edges) users_[next[from]++] = user;
  }

  [[nodiscard]] Value evaluate(const ssa::Definition& d) const {
    switch (d.kind) {
      case ssa::DefKind::Assign:
        return problem_.evalAssign(d, Getter(*this));
      case ssa::DefKind::Entry:
        return problem_.initial(d);
      case ssa::DefKind::Phi:
      case ssa::DefKind::Pi: {
        Value v = identity_;
        ssa::forEachArg(
            d, [&](SsaNameId a) { problem_.join(v, values_[a.index()]); });
        return v;
      }
    }
    return identity_;
  }

  /// A popped definition's new value. Values only grow within a solve,
  /// so a φ/π evaluated before is its current value joined with the
  /// arguments that changed after that evaluation; an argument that
  /// changed at the same pop is the term itself, already in its value.
  [[nodiscard]] Value reevaluate(const ssa::Definition& d) const {
    const std::uint64_t last = evaluatedAt_[d.name.index()];
    const bool term = d.kind == ssa::DefKind::Phi || d.kind == ssa::DefKind::Pi;
    if (!term || last == 0) return evaluate(d);
    Value v = values_[d.name.index()];
    ssa::forEachArg(d, [&](SsaNameId a) {
      if (changedAt_[a.index()] > last) problem_.join(v, values_[a.index()]);
    });
    return v;
  }

  const ssa::SsaForm& form_;
  P problem_;
  Value identity_;
  std::vector<std::uint32_t> userBegin_;
  std::vector<SsaNameId> users_;
  std::vector<Value> values_;
  /// Pop number of each name's last evaluation (0: seeded only) and of
  /// its last change (0: unchanged since seeding).
  std::vector<std::uint64_t> evaluatedAt_;
  std::vector<std::uint64_t> changedAt_;
  SolveStats stats_;
};

}  // namespace cssame::dataflow
