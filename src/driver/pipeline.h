// End-to-end analysis pipeline (paper Algorithm A.2).
//
// Bundles the full chain
//   IR → PFG → DOM/PDOM → MHP → Ecf → mutex structures
//      → sequential SSA → CSSA (π placement) → CSSAME (π rewriting)
// into one object the optimization passes and tools consume. Definition 1's
// Emutex and Edsync are not built: only `--dump-pfg` reads them, through
// analysis::syncEdges. Passes that mutate the IR invalidate the
// Compilation; re-run analyze() afterwards.
#pragma once

#include <memory>
#include <string_view>

#include "src/analysis/concurrency.h"
#include "src/analysis/dominance.h"
#include "src/cssa/cssa.h"
#include "src/cssa/rewrite.h"
#include "src/mutex/mutex_structures.h"
#include "src/parser/parser.h"
#include "src/pfg/build.h"
#include "src/sanalysis/pointsto.h"
#include "src/ssa/ssa.h"
#include "src/support/timer.h"

namespace cssame::driver {

struct PipelineOptions {
  /// Apply the CSSAME π rewriting (Algorithm A.3). Disable to obtain the
  /// plain CSSA form of Lee et al. — the paper's baseline.
  bool enableCssame = true;
  /// Emit Section 6 synchronization warnings (unmatched locks etc.).
  bool warnings = true;
  /// Hardened mode: tryAnalyze() verifies the input IR before analysis and
  /// every derived structure (PFG, SSA) afterwards, and the optimizer
  /// re-runs the full verifier suite — including the CSSAME ⊆ CSSA
  /// reaching-definition consistency check — after every pass, converting
  /// violations into structured diagnostics naming the offending pass.
  bool verifyEachPass = false;
};

/// The result of analyzing one program. Holds non-owning access to the
/// ir::Program, which must outlive the Compilation. Everything is
/// computed by the constructor and no const accessor caches anything, so
/// any number of threads may read one Compilation through its const
/// accessors at once.
class Compilation {
 public:
  Compilation(ir::Program& program, PipelineOptions opts);

  Compilation(Compilation&&) = default;
  Compilation& operator=(Compilation&&) = delete;
  Compilation(const Compilation&) = delete;
  Compilation& operator=(const Compilation&) = delete;

  ir::Program& program() { return *program_; }
  [[nodiscard]] const ir::Program& program() const { return *program_; }

  pfg::Graph& graph() { return *graph_; }
  [[nodiscard]] const pfg::Graph& graph() const { return *graph_; }
  [[nodiscard]] const analysis::Dominators& dom() const { return *dom_; }
  [[nodiscard]] const analysis::Dominators& pdom() const { return *pdom_; }
  [[nodiscard]] const analysis::Mhp& mhp() const { return *mhp_; }
  [[nodiscard]] const mutex::MutexStructures& mutexes() const {
    return *mutexes_;
  }
  /// Per-shared-variable access sites, collected once per analysis; the
  /// race checks, lock-independence queries and csan all consume this
  /// instead of re-walking the graph.
  [[nodiscard]] const analysis::AccessSites& sites() const { return sites_; }
  ssa::SsaForm& ssa() { return *ssa_; }
  [[nodiscard]] const ssa::SsaForm& ssa() const { return *ssa_; }

  /// Points-to solution for pointer programs, solved over the final form.
  /// The pipeline builds the form under the conservative pre-pass
  /// partition, without its Ecf edges and with π terms only at the uses
  /// whose sequential chain reaches no assignment, and refines the
  /// partition from it without a points-to propagation (the `pointsto`
  /// phase; a one-variable program solves the full conservative form
  /// instead). It then rebuilds the class-keyed structures and re-solves
  /// until the partition is stable, and builds Ecf once, on the final
  /// partition (`sites-refined`). nullptr for
  /// programs without Deref — the identity/array keying is already exact
  /// there.
  [[nodiscard]] const sanalysis::PointsToResult* pointsTo() const {
    return pointsTo_.get();
  }

  [[nodiscard]] const cssa::PiPlacementStats& piStats() const {
    return piStats_;
  }
  [[nodiscard]] const cssa::RewriteStats& rewriteStats() const {
    return rewriteStats_;
  }

  /// Wall-clock cost of every analysis phase, in execution order: pfg,
  /// dom, pdom, mhp, sites, conflicts, mutex, ssa, cssa-pi and
  /// cssame-rewrite; pointer programs add pointsto and sites-refined, and
  /// their conflicts, cssa-pi and cssame-rewrite build the conservative
  /// form described at pointsTo(). `cssamec --stats` prints this table.
  [[nodiscard]] const std::vector<support::PhaseTime>& phaseTimes() const {
    return phaseTimes_;
  }

  DiagEngine& diag() { return diag_; }
  [[nodiscard]] const DiagEngine& diag() const { return diag_; }

  /// Runs every structural verifier over this compilation (input IR, PFG,
  /// SSA form) and returns the combined violation list; empty means
  /// consistent.
  [[nodiscard]] std::vector<std::string> verifyAll() const;

 private:
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
};

/// Analyzes a program already owned by the caller. Trusted-input entry
/// point: malformed IR may trip an InvariantError (release) or assert
/// (debug). Library embedders should prefer tryAnalyze().
[[nodiscard]] inline Compilation analyze(ir::Program& program,
                                         PipelineOptions opts = {}) {
  return Compilation(program, opts);
}

/// Structured-failure entry point. Verifies the input IR up front, runs
/// the full analysis chain with invariant violations contained, and (when
/// opts.verifyEachPass) re-verifies every derived structure. On failure
/// returns a Fault naming the stage; if `diag` is non-null the fault is
/// additionally reported there as an error diagnostic. Never aborts.
[[nodiscard]] Expected<Compilation> tryAnalyze(ir::Program& program,
                                               PipelineOptions opts = {},
                                               DiagEngine* diag = nullptr);

}  // namespace cssame::driver
