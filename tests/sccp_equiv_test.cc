// Equivalence sweep for the incremental π meet of the SCC engine and for
// CSCC's one lattice.
//
// dataflow::SparseConditional keeps each π's meet between evaluations
// and folds in only the arguments that lowered since the last one; it
// promises exactly the results of the engine as first written, which
// re-met every argument on every evaluation. CSCC (opt/cscc.cc) folds CVRA's singletons instead of
// solving the three-point constant lattice, and promises the counts that
// lattice gave. This test holds both to that: a verbatim transcription of
// the original engine and of the three-point lattice serves as the
// reference, and the examples/programs gallery, Figures 1, 2 and 5a, lock
// region programs for k = 1..32, >= 300 generated programs (plain,
// pointers, arrays, events with fences, atomics with fences; determinate
// and not) and lock-structured and bank programs are checked, with
// CSSAME rewriting on and off, for exact equality of
//
//   * every SSA name's value, every node's executability and the
//     iteration and change counts, under the interval lattice and under
//     the three-point lattice,
//   * opt::analyzeConstants against the counts of the three-point solve,
//
// and for an empty sanalysis::crossCheckConstants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dataflow/sccp.h"
#include "src/driver/pipeline.h"
#include "src/opt/cscc.h"
#include "src/parser/parser.h"
#include "src/sanalysis/vrange.h"
#include "src/workload/generator.h"
#include "src/workload/paper_programs.h"

namespace cssame {
namespace {

// ---------------------------------------------------------------------------
// Reference implementation: the sparse conditional engine and the
// three-point constant lattice as first written. Deliberately kept
// verbatim.
// ---------------------------------------------------------------------------
namespace ref {

using dataflow::BranchVerdict;
using dataflow::kMaxIterations;
using dataflow::SolveStats;

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

  /// Evaluates an expression in the current lattice environment (VarRefs
  /// read their use-def values). Callers use this post-fixpoint to grade
  /// conditions and operands with domain-specific precision.
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

 private:
  struct Users {
    std::vector<SsaNameId> terms;  ///< φ/π definitions using this def
    std::vector<ir::Stmt*> stmts;  ///< simple statements using it
    std::vector<NodeId> branches;  ///< nodes whose terminator uses it
  };

  void buildUsers() {
    users_.assign(form_.defs.size(), {});
    pisByStmt_.clear();
    pisByNode_.assign(graph_.size(), {});

    for (const ssa::Definition& d : form_.defs) {
      if (d.removed) continue;
      if (d.kind == ssa::DefKind::Phi) {
        for (const ssa::PhiArg& a : d.phiArgs)
          users_[a.def.index()].terms.push_back(d.name);
      } else if (d.kind == ssa::DefKind::Pi) {
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
      Value v = lattice_[d.piControlArg.index()];
      for (const ssa::PiConflictArg& a : d.piConflictArgs) {
        if (!nodeExec_[a.fromNode.index()]) continue;
        v = domain_.meet(v, lattice_[a.def.index()]);
      }
      lower(id, v);
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
  std::deque<std::pair<NodeId, std::size_t>> flowWork_;
  std::deque<SsaNameId> ssaWork_;
  SolveStats stats_;
};

enum class ConstKind : std::uint8_t { Top, Const, Bottom };

struct ConstValue {
  ConstKind kind = ConstKind::Top;
  long long value = 0;

  static ConstValue top() { return {ConstKind::Top, 0}; }
  static ConstValue constant(long long v) { return {ConstKind::Const, v}; }
  static ConstValue bottom() { return {ConstKind::Bottom, 0}; }

  friend bool operator==(const ConstValue& a, const ConstValue& b) {
    return a.kind == b.kind &&
           (a.kind != ConstKind::Const || a.value == b.value);
  }
};

/// Domain plugin for dataflow::SparseConditional (see the concept sketch
/// in dataflow/sccp.h).
struct ConstDomain {
  [[nodiscard]] const char* name() const { return "cscc"; }
  using Value = ConstValue;

  [[nodiscard]] Value top() const { return ConstValue::top(); }
  [[nodiscard]] Value constant(long long v) const {
    return ConstValue::constant(v);
  }
  [[nodiscard]] Value unknown() const { return ConstValue::bottom(); }

  [[nodiscard]] Value meet(const Value& a, const Value& b) const {
    if (a.kind == ConstKind::Top) return b;
    if (b.kind == ConstKind::Top) return a;
    if (a.kind == ConstKind::Bottom || b.kind == ConstKind::Bottom)
      return ConstValue::bottom();
    return a.value == b.value ? a : ConstValue::bottom();
  }

  [[nodiscard]] Value evalUnary(ir::UnOp op, const Value& v) const {
    if (v.kind != ConstKind::Const) return v;
    return ConstValue::constant(ir::evalUnOp(op, v.value));
  }
  [[nodiscard]] Value evalBinary(ir::BinOp op, const Value& a,
                                 const Value& b) const {
    if (a.kind == ConstKind::Bottom || b.kind == ConstKind::Bottom)
      return ConstValue::bottom();
    if (a.kind == ConstKind::Top || b.kind == ConstKind::Top)
      return ConstValue::top();
    return ConstValue::constant(ir::evalBinOp(op, a.value, b.value));
  }

  [[nodiscard]] dataflow::BranchVerdict branch(const Value& cond) const {
    switch (cond.kind) {
      case ConstKind::Top: return dataflow::BranchVerdict::Unknown;
      case ConstKind::Bottom: return dataflow::BranchVerdict::Both;
      case ConstKind::Const:
        return cond.value != 0 ? dataflow::BranchVerdict::TrueOnly
                               : dataflow::BranchVerdict::FalseOnly;
    }
    return dataflow::BranchVerdict::Both;
  }

  /// Finite lattice (height 2): no widening needed.
  [[nodiscard]] Value widen(const Value&, const Value& next,
                            std::uint32_t) const {
    return next;
  }
};

using ConstSolver = SparseConditional<ConstDomain>;

}  // namespace ref

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

struct Coverage {
  std::size_t compilations = 0;
  std::size_t pis = 0;           ///< live π terms solved
  std::size_t singletons = 0;    ///< interval names folded to a constant
  std::size_t unbounded = 0;     ///< interval names with an infinite bound
  std::size_t deadNodes = 0;     ///< nodes no interleaving executes
};

/// Solves one lattice with the engine and with the reference on the same
/// compilation and compares every value, every node's executability and
/// both counts.
template <typename D>
void expectSameSolve(const driver::Compilation& comp,
                     dataflow::SparseConditional<D>& got,
                     ref::SparseConditional<D>& want, const std::string& tag) {
  const std::string what = std::string(D{}.name()) + ": " + tag;
  EXPECT_TRUE(got.solve().ok()) << what;
  EXPECT_TRUE(want.solve().ok()) << what;
  EXPECT_EQ(got.stats().iterations, want.stats().iterations) << what;
  EXPECT_EQ(got.stats().changes, want.stats().changes) << what;
  for (const ssa::Definition& d : comp.ssa().defs)
    if (!(got.value(d.name) == want.value(d.name))) {
      ADD_FAILURE() << "value of def " << d.name.index() << ": " << what;
      break;
    }
  for (const pfg::Node& n : comp.graph().nodes())
    if (got.nodeExecutable(n.id) != want.nodeExecutable(n.id)) {
      ADD_FAILURE() << "executability of node " << n.id.index() << ": "
                    << what;
      break;
    }
}

/// opt::analyzeConstants' counts as CSCC took them from the three-point
/// solve.
opt::ConstPropStats referenceCounts(const driver::Compilation& comp,
                                    const ref::ConstSolver& solver) {
  opt::ConstPropStats stats;
  for (const ssa::Definition& d : comp.ssa().defs) {
    if (d.removed || d.kind != ssa::DefKind::Assign) continue;
    if (solver.value(d.name).kind == ref::ConstKind::Const)
      ++stats.constantDefs;
  }
  for (const pfg::Node& n : comp.graph().nodes()) {
    auto countUses = [&](const ir::Expr& root) {
      ir::forEachExpr(root, [&](const ir::Expr& e) {
        if (e.kind != ir::ExprKind::VarRef) return;
        auto it = comp.ssa().useDef.find(&e);
        if (it != comp.ssa().useDef.end() &&
            solver.value(it->second).kind == ref::ConstKind::Const)
          ++stats.usesReplaced;
      });
    };
    for (const ir::Stmt* s : n.stmts)
      if (s->expr) countUses(*s->expr);
    if (n.terminator != nullptr && n.terminator->expr)
      countUses(*n.terminator->expr);
  }
  return stats;
}

void checkOnce(ir::Program& prog, bool enableCssame, const std::string& what,
               Coverage& cov) {
  const std::string tag = what + (enableCssame ? " [cssame]" : " [no-cssame]");
  driver::Compilation comp = driver::analyze(
      prog, {.enableCssame = enableCssame, .warnings = false});
  ++cov.compilations;
  cov.pis += comp.ssa().countLivePis();

  sanalysis::VrangeSolver intervals(comp.graph(), comp.ssa(), {});
  ref::SparseConditional<sanalysis::IntervalDomain> refIntervals(
      comp.graph(), comp.ssa(), {});
  expectSameSolve(comp, intervals, refIntervals, tag);
  dataflow::SparseConditional<ref::ConstDomain> constants(comp.graph(),
                                                          comp.ssa(), {});
  ref::ConstSolver refConstants(comp.graph(), comp.ssa(), {});
  expectSameSolve(comp, constants, refConstants, tag);
  for (const ssa::Definition& d : comp.ssa().defs) {
    const sanalysis::Interval& v = intervals.value(d.name);
    cov.singletons += v.isSingleton() ? 1 : 0;
    cov.unbounded += !v.isTop() && (v.loInf || v.hiInf) ? 1 : 0;
  }
  for (const pfg::Node& n : comp.graph().nodes())
    cov.deadNodes += intervals.nodeExecutable(n.id) ? 0 : 1;

  const opt::ConstPropStats got = opt::analyzeConstants(comp);
  const opt::ConstPropStats want = referenceCounts(comp, refConstants);
  EXPECT_EQ(got.constantDefs, want.constantDefs) << tag;
  EXPECT_EQ(got.usesReplaced, want.usesReplaced) << tag;
  EXPECT_EQ(got.branchesResolved, 0u) << tag;
  EXPECT_EQ(got.unreachableRemoved, 0u) << tag;

  EXPECT_EQ(sanalysis::crossCheckConstants(
                comp, sanalysis::analyzeValueRanges(comp)),
            "")
      << tag;
}

void checkProgram(ir::Program prog, const std::string& what, Coverage& cov) {
  checkOnce(prog, true, what, cov);
  checkOnce(prog, false, what, cov);
}

void checkSource(const std::string& src, const std::string& what,
                 Coverage& cov) {
  checkProgram(parser::parseOrDie(src), what, cov);
}

// ---------------------------------------------------------------------------
// Corpora.
// ---------------------------------------------------------------------------

TEST(SccpEquivalence, ExamplesAndFigures) {
  Coverage cov;
  const std::filesystem::path gallery =
      std::filesystem::path(__FILE__).parent_path().parent_path() /
      "examples" / "programs";
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(gallery))
    if (entry.path().extension() == ".cp") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 16u);
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in) << file;
    std::stringstream text;
    text << in.rdbuf();
    checkSource(text.str(), file.filename().string(), cov);
  }
  checkSource(workload::figure1Source(), "figure 1", cov);
  checkSource(workload::figure2Source(), "figure 2", cov);
  checkSource(workload::figure5aSource(), "figure 5a", cov);
  EXPECT_GT(cov.singletons, 0u);
  EXPECT_GT(cov.unbounded, 0u);
  EXPECT_GT(cov.deadNodes, 0u);  // vrange_triggers.cp
}

TEST(SccpEquivalence, LockRegions) {
  Coverage cov;
  for (int k = 1; k <= 32; ++k)
    checkSource(workload::lockRegionSource(3, k),
                "lock regions k=" + std::to_string(k), cov);
  EXPECT_GT(cov.pis, 0u);
  EXPECT_GT(cov.singletons, 0u);
}

/// Five families, each determinate and not: plain, pointers, arrays,
/// events with fences, atomics with fences.
workload::GeneratorConfig familyConfig(std::uint64_t seed) {
  static const int kStmts[] = {4, 8, 12, 16};
  workload::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.threads = 2 + static_cast<int>(seed % 3);
  cfg.sharedVars = 2 + static_cast<int>(seed % 5);
  cfg.locks = 1 + static_cast<int>(seed % 3);
  cfg.stmtsPerThread = kStmts[(seed / 10) % 4];
  cfg.lockedFraction = 0.2 * static_cast<double>(seed % 6);
  cfg.determinate = (seed / 5) % 2 == 0;
  switch (seed % 5) {
    case 1: cfg.ptrProb = 0.15; break;
    case 2: cfg.arrayProb = 0.15; break;
    case 3:
      cfg.useEvents = true;
      cfg.fenceProb = 0.1;
      break;
    case 4:
      cfg.atomicFraction = 0.3;
      cfg.fenceProb = 0.1;
      break;
    default: break;
  }
  return cfg;
}

TEST(SccpEquivalence, GeneratedFamilies) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 300; ++seed)
    checkProgram(workload::generateRandom(familyConfig(seed)),
                 "generateRandom seed=" + std::to_string(seed), cov);
  EXPECT_EQ(cov.compilations, 600u);
  EXPECT_GT(cov.pis, 0u);
  EXPECT_GT(cov.singletons, 0u);
  EXPECT_GT(cov.unbounded, 0u);
  EXPECT_GT(cov.deadNodes, 0u);
}

TEST(SccpEquivalence, StructuredWorkloads) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 20; ++seed)
    checkProgram(
        workload::makeLockStructured(2 + static_cast<int>(seed % 5),
                                     1 + static_cast<int>(seed % 4), 3,
                                     0.25 * static_cast<double>(seed % 5),
                                     seed),
        "makeLockStructured seed=" + std::to_string(seed), cov);
  for (std::uint64_t seed = 1; seed <= 10; ++seed)
    checkProgram(workload::makeBank(3, 2 + static_cast<int>(seed % 3), 3, seed),
                 "makeBank seed=" + std::to_string(seed), cov);
  EXPECT_GT(cov.pis, 0u);
  EXPECT_GT(cov.singletons, 0u);
}

}  // namespace
}  // namespace cssame
