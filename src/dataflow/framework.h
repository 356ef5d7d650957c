// Generic dataflow framework over the CSSAME form.
//
// The library's fixpoints are instances of two solver shapes:
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
// Problems that need no solver are walks. A closure over φ/π arguments
// follows the FUD chains (parallel reaching definitions, cssa/reaching.h);
// a control-flow fact generated and killed one at a time is reachability
// over control edges (held locks and TSO's pending stores,
// dataflow/reach.h).
//
// Both solvers run under one iteration budget (kMaxIterations) and report
// structured SolveStats; a blown budget degrades to a Fault
// (BudgetExceeded) through the existing Expected/Status machinery instead
// of hanging.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/ssa/ssa.h"
#include "src/support/status.h"

namespace cssame::dataflow {

/// Cap on solver re-evaluations. It is generous: real programs converge
/// in a few sweeps, and the cap only exists so a non-monotone transfer
/// function cannot hang the compiler.
inline constexpr std::uint64_t kMaxIterations = 1u << 22;

/// Convergence report of one solver run.
struct SolveStats {
  std::string analysis;           ///< e.g. "points-to", "cscc"
  std::uint64_t iterations = 0;   ///< re-evaluations performed
  std::uint64_t changes = 0;      ///< evaluations that lowered a value
  bool converged = false;
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
