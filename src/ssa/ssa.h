// Sequential SSA form over the PFG's control edges, built with factored
// use-def (FUD) chains (paper Section 4; Wolfe 1996).
//
// The IR is never rewritten: SSA is a side structure. Every variable
// reference (VarRef expression) is linked to the SSA definition that
// reaches it (`useDef`), every assignment owns a definition, and φ terms
// live at join nodes. The CSSA/CSSAME layers (src/cssa) extend the same
// SsaForm with π terms.
//
// coend nodes get the paper's special treatment ("appropriate
// modifications to avoid placing superfluous φ terms at coend nodes"):
// under shared memory, all threads of a cobegin execute, so a φ at the
// coend merges only the values of threads that actually *define* the
// variable. Arguments arriving from non-defining threads are pruned; a φ
// left with a single argument is folded into a copy and removed. This
// reproduces Figure 3, where `a5 = φ(a3, a4)` survives (both threads
// define `a`) but no φ is placed for `b` (only T0 defines it).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/dominance.h"
#include "src/pfg/graph.h"

namespace cssame::ssa {

enum class DefKind : std::uint8_t {
  Entry,   ///< the variable's value at program entry (0-initialized)
  Assign,  ///< a real store: an Assign statement
  Phi,     ///< control-flow merge
  Pi,      ///< concurrent merge (added by cssa::placePiTerms)
};

struct PhiArg {
  NodeId pred;     ///< incoming control edge this argument flows along
  SsaNameId def;
};

struct PiConflictArg {
  SsaNameId def;      ///< SSA name of the concurrent real definition
  NodeId fromNode;    ///< node containing that definition
  ir::Stmt* defStmt;  ///< the defining Assign statement
};

struct Definition {
  SsaNameId name;
  DefKind kind = DefKind::Entry;
  SymbolId var;  ///< alias-class representative (the symbol itself under
                 ///< the identity partition)
  std::uint32_t version = 0;  ///< per-class version (for printing)
  NodeId node;                ///< node the definition occurs in
  bool removed = false;       ///< folded away (coend pruning, π rewriting)
  /// A *weak* definition may update its class without overwriting it: an
  /// Index store writes one cell of a collapsed array, a Deref store one
  /// member of a multi-symbol class. Weak defs never kill earlier values
  /// — value analyses must evaluate them as unknown joined with the
  /// incoming value, and the CSSAME rewrite must not treat them as
  /// last-write kills.
  bool weak = false;

  // Assign
  ir::Stmt* stmt = nullptr;

  // Phi
  std::vector<PhiArg> phiArgs;

  // Pi
  const ir::Expr* piUse = nullptr;  ///< the VarRef this π feeds
  ir::Stmt* piUseStmt = nullptr;    ///< statement containing that use
  SsaNameId piControlArg;           ///< sequential reaching definition
  std::vector<PiConflictArg> piConflictArgs;
};

/// Calls fn for every φ argument of `d`, or for a π's control argument
/// and then each conflict argument; real definitions have none.
template <typename Fn>
void forEachArg(const Definition& d, Fn&& fn) {
  if (d.kind == DefKind::Phi) {
    for (const PhiArg& a : d.phiArgs) fn(a.def);
  } else if (d.kind == DefKind::Pi) {
    fn(d.piControlArg);
    for (const PiConflictArg& a : d.piConflictArgs) fn(a.def);
  }
}

class SsaForm {
 public:
  std::vector<Definition> defs;

  /// Reading expression (VarRef, Index load, Deref load) → definition
  /// whose value it reads. When a π term guards the use, this points at
  /// the π. Deref loads with an empty points-to set have no link (they
  /// read 0 at runtime and touch no location).
  std::unordered_map<const ir::Expr*, SsaNameId> useDef;

  /// Assign statement → its definition. Deref stores with an empty
  /// points-to set define nothing and have no entry.
  std::unordered_map<const ir::Stmt*, SsaNameId> assignDef;

  /// φ definitions per node (node id → list), coend φs included.
  std::vector<std::vector<SsaNameId>> phisAt;

  /// Entry definition per variable (indexed by symbol id; invalid for
  /// non-variable symbols). Members of one alias class share their
  /// representative's entry definition.
  std::vector<SsaNameId> entryDef;

  [[nodiscard]] Definition& def(SsaNameId n) { return defs[n.index()]; }
  [[nodiscard]] const Definition& def(SsaNameId n) const {
    return defs[n.index()];
  }

  SsaNameId newDef(DefKind kind, SymbolId var, NodeId node);

  /// Live (non-removed) π definitions.
  [[nodiscard]] std::vector<SsaNameId> livePis() const;
  [[nodiscard]] std::size_t countLivePis() const;
  [[nodiscard]] std::size_t countLivePhis() const;

  /// Total conflict arguments across live π terms.
  [[nodiscard]] std::size_t countPiConflictArgs() const;

  /// Printable name like "a2" (π/φ versions use the same scheme).
  [[nodiscard]] std::string nameOf(SsaNameId n,
                                   const ir::SymbolTable& syms) const;

  /// Structural invariants; empty result means consistent.
  [[nodiscard]] std::vector<std::string> verify(const pfg::Graph& graph) const;

 private:
  std::unordered_map<SymbolId, std::uint32_t> versionCounter_;
};

/// Builds sequential SSA (φ terms and FUD chains) over control edges.
/// `dom` must be the forward dominator tree of `graph`.
[[nodiscard]] SsaForm buildSequentialSsa(pfg::Graph& graph,
                                         const analysis::Dominators& dom);

}  // namespace cssame::ssa
