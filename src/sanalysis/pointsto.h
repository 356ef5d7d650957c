// Concurrent flow-insensitive points-to analysis (Andersen style).
//
// The toy language gained `&x`, `*p` and `a[i]`; every downstream
// concurrency analysis needs to know which storage a pointer access may
// touch. This pass computes, for every pointer-valued expression, the set
// of abstract locations (scalar symbols; array cells collapsed per array)
// it may address, and distils the answer into an ir::AliasClasses
// partition the whole pipeline re-keys on.
//
// Lattice. A value abstracts to a PtSet: either a finite set of locations
// it may validly address, or ⊤ ("anywhere" — may address any cell). The
// empty set carries a strict invariant: an ∅-valued expression evaluates
// to exactly 0 (null) at runtime. Transfer functions preserve it:
//
//   0            → ∅          k ≠ 0        → ⊤ (any integer addresses a
//   &x, &a[i]    → {x}, {a}                   cell in the flat memory)
//   a + b        → a if b=∅, b if a=∅, else ⊤ (pointer arithmetic may
//   a -/*//% b   → similar 0-identities        land on any cell)
//   comparisons, logicals, calls → ⊤          (can manufacture 1 = cell 0)
//   *e           → ⋃ locPts[l] for l ∈ pts(e); ⊤ when pts(e) = ⊤
//   a[i]         → locPts[a]
//
// Solver. Two nested fixpoints:
//   inner  a sparse propagation over the CSSAME form: scalar pointer
//          variables flow along use-def chains, and φ/π terms join their
//          arguments. Because π conflict arguments are placed from the
//          MHP relation, pointer values assigned in *concurrent threads*
//          are unioned into every guarded use — the concurrency
//          refinement falls out of the CSSAME form itself. Each name's
//          readers are listed once per solve, each outer pass
//          re-propagates from scratch with a FIFO worklist, and a φ/π
//          popped again joins only the arguments that changed since its
//          last evaluation. A VarRef reads its chain's value met with its
//          own cell, loads read the store map and a weak definition joins
//          its class's cells; the SCC engine (dataflow/sccp.h) has none
//          of these, so the propagation is the solver's own.
//   outer  the flow-insensitive store map locPts : location → PtSet.
//          Every store (x = e, a[i] = e, *p = e) joins the value set of
//          its right-hand side into the map entry of every location it
//          may target; loads read the map. Iterate until stable.
// Inside a solve a value is a bitset over symbols (or ⊤), the store map
// and the per-site sets are dense tables, and each VarRef's chain is
// looked up once; the public PtSet maps are filled once at the end.
//
// The conservative round (refineConservative) needs no inner fixpoint.
// Under ir::conservativeClasses every Var symbol is in one class, so
// when the program has two or more variables every assignment is a weak
// definition whose value is its right-hand side joined with every cell.
// A φ/π therefore holds ∅ when no assignment reaches it through its
// arguments and a superset of every cell otherwise, and a VarRef (chain
// ∧ cell) reads ∅ or exactly its own cell. The round computes one
// "some assignment reaches it" flag per SSA name and runs the same
// harvest with those reads; the store map, the per-site sets and so the
// partition are those of the general solve. (Both reach the same least
// fixpoint, the round in no more passes; only when the general solve
// would hit its pass cap and degrade every site to ⊤ can they differ.)
// A π can change such a read only at a VarRef whose sequential chain
// reaches no assignment (a π's conflict arguments are assignments), and
// π placement and the CSSAME rewrite decide each use's π from that use
// alone, so conservativePiSites restricts placement to those uses.
//
// Soundness posture: loads through memory are evaluated purely via
// locPts, so the class partition installed while solving (the
// conservative pre-pass) affects only chain precision, never which
// locations a load may observe. Weak definitions (Index/Deref stores)
// join the incoming class contents instead of overwriting them.
#pragma once

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/concurrency.h"
#include "src/ir/alias.h"
#include "src/pfg/graph.h"
#include "src/ssa/ssa.h"

namespace cssame::sanalysis {

/// What a value may address: a finite set of locations, or anywhere.
/// Invariant: empty (non-anywhere, no locs) means the value is exactly 0.
struct PtSet {
  bool anywhere = false;
  std::set<SymbolId> locs;  ///< sorted for deterministic iteration

  bool operator==(const PtSet&) const = default;

  [[nodiscard]] static PtSet any() { return PtSet{true, {}}; }
  [[nodiscard]] bool empty() const { return !anywhere && locs.empty(); }

  /// Lattice join; returns true when this set grew.
  bool join(const PtSet& o);

  /// Lattice meet (set intersection; ⊤ is the identity). Sound whenever
  /// both operands independently over-approximate the same value.
  void meet(const PtSet& o);
};

/// Solver convergence and precision counters, surfaced via
/// `cssamec --points-to --stats` and BENCH_alias.json.
struct PointsToStats {
  std::size_t outerPasses = 0;       ///< locPts fixpoint rounds
  std::uint64_t innerIterations = 0; ///< propagation worklist pops
  bool converged = true;             ///< false → all sites forced to ⊤
  std::size_t derefSites = 0;        ///< Deref loads + stores analyzed
  std::size_t anywhereSites = 0;     ///< sites whose pointer may be wild
  /// Mean |pts| over deref sites with a finite target set (0 when none).
  double avgTargets = 0.0;
};

struct PointsToResult {
  /// Flow-insensitive may-point-to set of each location's contents.
  std::unordered_map<SymbolId, PtSet> locPts;
  /// Per Deref *load* expression: locations the load may touch (the
  /// points-to set of its address operand).
  std::unordered_map<const ir::Expr*, PtSet> loadPts;
  /// Per Deref *store* statement: locations the store may touch.
  std::unordered_map<const ir::Stmt*, PtSet> storePts;
  PointsToStats stats;

  /// Distils the per-site sets into an alias partition: locations a
  /// single deref site may touch are unioned into one class (⊤ sites
  /// union every Var symbol), and each site is mapped to its class.
  [[nodiscard]] ir::AliasClasses buildClasses(const ir::Program& prog) const;
};

/// Runs the two-level fixpoint over a built CSSAME form. `graph.aliases`
/// is read for the class keying of the form itself (usually the
/// conservative pre-pass partition) and left untouched.
[[nodiscard]] PointsToResult solvePointsTo(const pfg::Graph& graph,
                                           const ssa::SsaForm& form);

/// Precondition of the conservative round: every live Assign definition
/// of `form` is weak. On a conservative form it fails only when the
/// program declares a single variable (a singleton class keeps strong
/// stores); the pipeline then solves that form with solvePointsTo.
[[nodiscard]] bool allAssignsWeak(const ssa::SsaForm& form);

/// The uses of `sites` whose π the conservative round reads: VarRefs
/// whose sequential chain in `form` (built, π terms not yet placed)
/// reaches no assignment. Keeps every definition when any use is kept,
/// and no per-node index — the result is placePiTerms input only.
[[nodiscard]] analysis::AccessSites conservativePiSites(
    const analysis::AccessSites& sites, const ssa::SsaForm& form);

/// The first refined partition of a pointer program: buildClasses of
/// solvePointsTo over its conservative form, computed without a
/// points-to propagation (see "Solver" above). Requires
/// allAssignsWeak(form); πs need only be placed for conservativePiSites.
[[nodiscard]] ir::AliasClasses refineConservative(const pfg::Graph& graph,
                                                  const ssa::SsaForm& form);

/// "{x, y}", "{}" or "{anywhere}" — for --stats and diagnostic notes.
[[nodiscard]] std::string formatPtSet(const PtSet& pts,
                                      const ir::SymbolTable& syms);

}  // namespace cssame::sanalysis
