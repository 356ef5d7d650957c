// CVRA — Concurrent Value-Range Analysis over the CSSAME form.
//
// An interval domain run on the sparse conditional engine
// (dataflow/sccp.h): φ terms hull over control predecessors, π terms hull
// the control argument with every *surviving* concurrent reaching
// definition. Because the CSSAME rewriting prunes π arguments killed by
// mutual exclusion, ranges inside a mutex body tighten exactly when the
// paper's Lock/Unlock reasoning applies — plain CSSA keeps the pruned
// writers in the merge and stays wide.
//
// The propagated lattice is deliberately *collapse-free*, so that it is
// also CSCC's constant lattice (opt/cscc.h):
//   - only all-singleton operands produce singleton results (folded
//     exactly as the three-point ⊤ / constant / ⊥ lattice folds them),
//   - a non-singleton operand always produces a non-singleton result
//     (comparisons go to [0,1], arithmetic hulls are padded when they
//     would collapse),
//   - branches resolve executability only on singleton conditions,
//   - widening (after a bounded number of strict growths) only ever
//     loosens bounds that were already moving.
// Consequence: [v,v] here is exactly Const(v) there, ⊤ is ⊤, and node/edge
// executability agrees bit for bit, so CSCC folds these singletons
// instead of solving a lattice of its own. crossCheckConstants() checks
// this against a private three-point reference; vrange_test,
// sccp_equiv_test and bench_vrange's gate run it.
//
// Diagnostics use a second, *sharper* evaluation (range-separation
// comparisons, definite-zero divisors) that never feeds back into the
// lattice: DeadBranch, UnreachableCode, DivByZero, AssertProved and
// AssertMayFail. The walk runs on every call; without a DiagEngine it
// only counts.
#pragma once

#include <string>
#include <vector>

#include "src/dataflow/sccp.h"
#include "src/driver/pipeline.h"
#include "src/support/diag.h"

namespace cssame::sanalysis {

/// A (possibly half-open) integer interval, or ⊤ (unevaluated).
/// Canonical form: a bound covered by its infinity flag is stored as 0.
struct Interval {
  bool top = true;      ///< unevaluated / unreachable (lattice ⊤)
  bool loInf = false;   ///< lower bound is -∞
  bool hiInf = false;   ///< upper bound is +∞
  long long lo = 0;
  long long hi = 0;

  [[nodiscard]] static Interval topValue() { return {}; }
  [[nodiscard]] static Interval single(long long v) {
    return {false, false, false, v, v};
  }
  [[nodiscard]] static Interval bounds(long long lo, long long hi) {
    return {false, false, false, lo, hi};
  }
  [[nodiscard]] static Interval full() { return {false, true, true, 0, 0}; }
  /// The comparison/logical result range.
  [[nodiscard]] static Interval boolRange() { return bounds(0, 1); }

  /// Smallest interval containing both (⊤ is the identity).
  [[nodiscard]] static Interval hull(const Interval& a, const Interval& b);

  [[nodiscard]] bool isTop() const { return top; }
  [[nodiscard]] bool isSingleton() const {
    return !top && !loInf && !hiInf && lo == hi;
  }
  [[nodiscard]] bool isFull() const { return !top && loInf && hiInf; }
  [[nodiscard]] bool contains(long long v) const {
    return !top && (loInf || lo <= v) && (hiInf || v <= hi);
  }
  [[nodiscard]] bool excludesZero() const { return !top && !contains(0); }
  [[nodiscard]] bool isZero() const { return isSingleton() && lo == 0; }

  /// "⊤", "[3,3]", "[-inf,7]", ...
  [[nodiscard]] std::string str() const;

  friend bool operator==(const Interval& a, const Interval& b) {
    if (a.top != b.top) return false;
    if (a.top) return true;
    if (a.loInf != b.loInf || a.hiInf != b.hiInf) return false;
    if (!a.loInf && a.lo != b.lo) return false;
    if (!a.hiInf && a.hi != b.hi) return false;
    return true;
  }
};

/// Domain plugin for dataflow::SparseConditional — see the collapse-free
/// rules in the file comment.
struct IntervalDomain {
  using Value = Interval;
  /// Strict growths of one definition tolerated before bounds go to ∞.
  static constexpr std::uint32_t widenThreshold = 8;

  [[nodiscard]] const char* name() const { return "vrange"; }
  [[nodiscard]] Value top() const { return Interval::topValue(); }
  [[nodiscard]] Value constant(long long v) const {
    return Interval::single(v);
  }
  [[nodiscard]] Value unknown() const { return Interval::full(); }
  [[nodiscard]] Value meet(const Value& a, const Value& b) const {
    return Interval::hull(a, b);
  }
  [[nodiscard]] Value evalUnary(ir::UnOp op, const Value& v) const;
  [[nodiscard]] Value evalBinary(ir::BinOp op, const Value& a,
                                 const Value& b) const;
  [[nodiscard]] dataflow::BranchVerdict branch(const Value& cond) const;
  [[nodiscard]] Value widen(const Value& prev, const Value& next,
                            std::uint32_t growths) const;
};

using VrangeSolver = dataflow::SparseConditional<IntervalDomain>;

struct VrangeStats {
  std::size_t singletonDefs = 0;  ///< Assign defs with width-0 intervals
  std::size_t boundedDefs = 0;    ///< finite non-singleton Assign defs
  std::size_t deadBranches = 0;
  std::size_t unreachableNodes = 0;
  std::size_t divByZero = 0;
  std::size_t assertsProved = 0;
  std::size_t assertsMayFail = 0;
  std::uint64_t solverIterations = 0;
  [[nodiscard]] std::string str() const;
};

struct VrangeResult {
  /// Interval per SSA name (index = SsaNameId), ⊤ for removed defs.
  std::vector<Interval> defRanges;
  /// Per-symbol hull over the variable's entry definition and every
  /// assignment in an executable node: every value the variable can hold
  /// at any point of any interleaving lies inside it. ⊤ for non-variable
  /// symbols.
  std::vector<Interval> varRanges;
  /// PFG node executability under the interval lattice (index = NodeId).
  std::vector<bool> nodeExec;
  VrangeStats stats;
};

/// Runs CVRA over the compilation's CSSAME form, then the diagnostic walk,
/// which fills the DeadBranch / UnreachableCode / DivByZero / AssertProved
/// / AssertMayFail counts of `stats` and, when `diag` is non-null, emits
/// those diagnostics.
[[nodiscard]] VrangeResult analyzeValueRanges(const driver::Compilation& comp,
                                              DiagEngine* diag = nullptr);

/// Differential check against a reference solve of the three-point
/// constant lattice CSCC used before it folded these singletons: for
/// every live definition, Const(v) must equal [v,v] (both directions),
/// ⊤ ⟺ ⊤, and node executability must agree. Returns an empty string
/// when consistent, else a description of the first disagreement.
[[nodiscard]] std::string crossCheckConstants(const driver::Compilation& comp,
                                              const VrangeResult& vr);

}  // namespace cssame::sanalysis
