#include "src/driver/pipeline.h"

#include "src/ir/verify.h"
#include "src/pfg/verify.h"

namespace cssame::driver {

namespace {

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

/// Renders a violation list as one fault message: the first violation
/// verbatim plus a count of the rest.
std::string summarize(const std::vector<std::string>& problems) {
  std::string msg = problems.front();
  if (problems.size() > 1)
    msg += " (+" + std::to_string(problems.size() - 1) + " more)";
  return msg;
}

Fault makeFault(FaultKind kind, std::string stage, std::string message,
                DiagEngine* diag) {
  Fault fault{kind, std::move(stage), std::move(message), {}};
  if (diag != nullptr) diag->reportFault(fault);
  return fault;
}

}  // namespace

Compilation::Compilation(ir::Program& program, PipelineOptions opts)
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
  // Ecf is read only once the compilation is complete (csan, tso,
  // copyprop, --stats, --dump-pfg), never by the pipeline itself, so a
  // pointer program builds it once, for its final partition, below.
  if (!pointers) analysis::computeConflictEdges(*graph_, *mhp_, sites_);
  phase("conflicts");
  mutexes_ = std::make_unique<mutex::MutexStructures>(
      *graph_, *dom_, *pdom_, opts.warnings ? &diag_ : nullptr);
  phase("mutex");
  ssa_ = std::make_unique<ssa::SsaForm>(
      ssa::buildSequentialSsa(*graph_, *dom_));
  phase("ssa");
  // The conservative round needs no points-to propagation when every
  // assignment of the conservative form is weak, and reads πs only at
  // uses no assignment reaches sequentially (sanalysis/pointsto.h). A
  // program with a single variable keeps strong stores and takes the
  // general solve over the full form.
  const bool cellRound = pointers && sanalysis::allAssignsWeak(*ssa_);
  if (cellRound) {
    piStats_ = cssa::placePiTerms(
        *graph_, *ssa_, *mhp_, sanalysis::conservativePiSites(sites_, *ssa_));
  } else {
    piStats_ = cssa::placePiTerms(*graph_, *ssa_, *mhp_, sites_);
  }
  phase("cssa-pi");
  if (opts.enableCssame) {
    rewriteStats_ = cssa::rewritePiTerms(*graph_, *ssa_, *mutexes_);
    phase("cssame-rewrite");
  }
  if (pointers) {
    // Phase B: refine the partition from the conservative form to what
    // may actually alias, and rebuild every class-keyed structure (access
    // index, SSA/CSSAME form) on it. The control skeleton (PFG,
    // dominators, MHP, mutex structures) does not depend on the partition
    // and is reused as-is.
    auto rebuildKeyed = [&] {
      sites_ = analysis::collectAccessSites(*graph_);
      ssa_ = std::make_unique<ssa::SsaForm>(
          ssa::buildSequentialSsa(*graph_, *dom_));
      piStats_ = cssa::placePiTerms(*graph_, *ssa_, *mhp_, sites_);
      if (opts.enableCssame)
        rewriteStats_ = cssa::rewritePiTerms(*graph_, *ssa_, *mutexes_);
    };
    graph_->aliases = cellRound ? sanalysis::refineConservative(*graph_, *ssa_)
                                : sanalysis::solvePointsTo(*graph_, *ssa_)
                                      .buildClasses(program);
    phase("pointsto");
    rebuildKeyed();
    // Iterate solve → refine → rebuild: the conservative mega-class made
    // every pointer variable's defs weak, so the first solve's use-def
    // chains are no sharper than the flow-insensitive store map. Once the
    // refined partition restores singleton classes, a re-solve recovers
    // the sparse chain precision, which can split classes further. Each
    // round's input form is keyed by a sound partition, so every solve is
    // sound; the round cap is a backstop, not a correctness requirement.
    for (int round = 0; round < 3; ++round) {
      auto next = std::make_unique<sanalysis::PointsToResult>(
          sanalysis::solvePointsTo(*graph_, *ssa_));
      ir::AliasClasses refined = next->buildClasses(program);
      const bool stable = samePartition(graph_->aliases, refined, program);
      pointsTo_ = std::move(next);  // per-site sets from the final form
      if (stable) break;
      graph_->aliases = std::move(refined);
      rebuildKeyed();
    }
    analysis::computeConflictEdges(*graph_, *mhp_, sites_);
    phase("sites-refined");
  }
}

std::vector<std::string> Compilation::verifyAll() const {
  std::vector<std::string> problems = ir::verify(*program_);
  for (std::string& p : pfg::verifyGraph(*graph_))
    problems.push_back("pfg: " + std::move(p));
  for (std::string& p : ssa_->verify(*graph_))
    problems.push_back("ssa: " + std::move(p));
  return problems;
}

Expected<Compilation> tryAnalyze(ir::Program& program, PipelineOptions opts,
                                 DiagEngine* diag) {
  const std::vector<std::string> inputProblems = ir::verify(program);
  if (!inputProblems.empty())
    return makeFault(FaultKind::VerifyError, "ir-verify",
                     summarize(inputProblems), diag);
  try {
    Compilation comp(program, opts);
    if (opts.verifyEachPass) {
      const std::vector<std::string> problems = comp.verifyAll();
      if (!problems.empty())
        return makeFault(FaultKind::VerifyError, "analyze",
                         summarize(problems), diag);
    }
    return comp;
  } catch (const InvariantError& e) {
    return makeFault(FaultKind::InvariantViolation, "analyze", e.what(),
                     diag);
  }
}

}  // namespace cssame::driver
