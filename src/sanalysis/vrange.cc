#include "src/sanalysis/vrange.h"

#include <algorithm>
#include <climits>

namespace cssame::sanalysis {

namespace {

/// Pads a singleton produced from non-singleton operands so the lattice
/// never collapses below a constant (see the collapse-free rules in
/// vrange.h).
Interval ensureWide(Interval r) {
  if (!r.isSingleton()) return r;
  if (r.hi < LLONG_MAX)
    ++r.hi;
  else
    --r.lo;
  return r;
}

[[nodiscard]] bool addOv(long long a, long long b, long long* r) {
  return __builtin_add_overflow(a, b, r);
}
[[nodiscard]] bool subOv(long long a, long long b, long long* r) {
  return __builtin_sub_overflow(a, b, r);
}
[[nodiscard]] bool mulOv(long long a, long long b, long long* r) {
  return __builtin_mul_overflow(a, b, r);
}

/// max(|lo|,|hi|) of a finite interval; false when the magnitude itself
/// overflows (|LLONG_MIN|).
[[nodiscard]] bool maxMagnitude(const Interval& v, long long* m) {
  if (v.lo == LLONG_MIN || v.hi == LLONG_MIN) return false;
  *m = std::max(v.lo < 0 ? -v.lo : v.lo, v.hi < 0 ? -v.hi : v.hi);
  return true;
}

/// Negation of a (non-top) interval; full() when a bound overflows.
Interval negRange(const Interval& v) {
  Interval r;
  r.top = false;
  r.loInf = v.hiInf;
  r.hiInf = v.loInf;
  if (!r.loInf) {
    if (v.hi == LLONG_MIN) return Interval::full();
    r.lo = -v.hi;
  }
  if (!r.hiInf) {
    if (v.lo == LLONG_MIN) return Interval::full();
    r.hi = -v.lo;
  }
  return r;
}

/// Conservative hull of `op` applied pointwise to two non-top intervals.
/// evalBinOp wraps on overflow, so any overflowing corner makes the true
/// result set unconstrained — return full() rather than guess.
Interval rangeBinary(ir::BinOp op, const Interval& a, const Interval& b) {
  using ir::BinOp;
  switch (op) {
    case BinOp::Add: {
      Interval r;
      r.top = false;
      r.loInf = a.loInf || b.loInf;
      r.hiInf = a.hiInf || b.hiInf;
      if (!r.loInf && addOv(a.lo, b.lo, &r.lo)) return Interval::full();
      if (!r.hiInf && addOv(a.hi, b.hi, &r.hi)) return Interval::full();
      return r;
    }
    case BinOp::Sub: {
      Interval r;
      r.top = false;
      r.loInf = a.loInf || b.hiInf;
      r.hiInf = a.hiInf || b.loInf;
      if (!r.loInf && subOv(a.lo, b.hi, &r.lo)) return Interval::full();
      if (!r.hiInf && subOv(a.hi, b.lo, &r.hi)) return Interval::full();
      return r;
    }
    case BinOp::Mul: {
      if (a.loInf || a.hiInf || b.loInf || b.hiInf) return Interval::full();
      long long c[4];
      if (mulOv(a.lo, b.lo, &c[0]) || mulOv(a.lo, b.hi, &c[1]) ||
          mulOv(a.hi, b.lo, &c[2]) || mulOv(a.hi, b.hi, &c[3]))
        return Interval::full();
      return Interval::bounds(*std::min_element(c, c + 4),
                              *std::max_element(c, c + 4));
    }
    case BinOp::Div: {
      // |a/b| <= |a| for |b| >= 1, and a/0 = 0 by language semantics.
      long long m = 0;
      if (a.loInf || a.hiInf || !maxMagnitude(a, &m)) return Interval::full();
      return Interval::bounds(-m, m);
    }
    case BinOp::Mod: {
      // |a%b| < |b| (sign follows a), a%0 = 0; also |a%b| <= |a|.
      long long m = 0;
      if (!b.loInf && !b.hiInf && maxMagnitude(b, &m))
        return Interval::bounds(-m, m);
      if (!a.loInf && !a.hiInf && maxMagnitude(a, &m))
        return Interval::bounds(-m, m);
      return Interval::full();
    }
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne:
    case BinOp::And:
    case BinOp::Or:
      return Interval::boolRange();
  }
  return Interval::full();
}

/// The sharp (diagnostic-only) comparison evaluation: range separation
/// can decide a comparison even over non-singleton operands. Never used
/// in the lattice, where that would fold a non-constant.
Interval sharpBinary(ir::BinOp op, const Interval& a, const Interval& b) {
  using ir::BinOp;
  if (a.isSingleton() && b.isSingleton())
    return Interval::single(ir::evalBinOp(op, a.lo, b.lo));

  // a ⋈ b decided for all pairs when the ranges separate.
  const bool aHiFin = !a.hiInf, aLoFin = !a.loInf;
  const bool bHiFin = !b.hiInf, bLoFin = !b.loInf;
  auto yes = [] { return Interval::single(1); };
  auto no = [] { return Interval::single(0); };
  switch (op) {
    case BinOp::Lt:
      if (aHiFin && bLoFin && a.hi < b.lo) return yes();
      if (aLoFin && bHiFin && a.lo >= b.hi) return no();
      return Interval::boolRange();
    case BinOp::Le:
      if (aHiFin && bLoFin && a.hi <= b.lo) return yes();
      if (aLoFin && bHiFin && a.lo > b.hi) return no();
      return Interval::boolRange();
    case BinOp::Gt:
      if (aLoFin && bHiFin && a.lo > b.hi) return yes();
      if (aHiFin && bLoFin && a.hi <= b.lo) return no();
      return Interval::boolRange();
    case BinOp::Ge:
      if (aLoFin && bHiFin && a.lo >= b.hi) return yes();
      if (aHiFin && bLoFin && a.hi < b.lo) return no();
      return Interval::boolRange();
    case BinOp::Eq:
      if ((aHiFin && bLoFin && a.hi < b.lo) ||
          (bHiFin && aLoFin && b.hi < a.lo))
        return no();
      return Interval::boolRange();
    case BinOp::Ne:
      if ((aHiFin && bLoFin && a.hi < b.lo) ||
          (bHiFin && aLoFin && b.hi < a.lo))
        return yes();
      return Interval::boolRange();
    case BinOp::And:
      if (a.excludesZero() && b.excludesZero()) return yes();
      if (a.isZero() || b.isZero()) return no();
      return Interval::boolRange();
    case BinOp::Or:
      if (a.excludesZero() || b.excludesZero()) return yes();
      if (a.isZero() && b.isZero()) return no();
      return Interval::boolRange();
    default:
      return rangeBinary(op, a, b);
  }
}

}  // namespace

Interval Interval::hull(const Interval& a, const Interval& b) {
  if (a.top) return b;
  if (b.top) return a;
  Interval r;
  r.top = false;
  r.loInf = a.loInf || b.loInf;
  r.hiInf = a.hiInf || b.hiInf;
  r.lo = r.loInf ? 0 : std::min(a.lo, b.lo);
  r.hi = r.hiInf ? 0 : std::max(a.hi, b.hi);
  return r;
}

std::string Interval::str() const {
  if (top) return "⊤";
  std::string s = "[";
  s += loInf ? std::string("-inf") : std::to_string(lo);
  s += ",";
  s += hiInf ? std::string("+inf") : std::to_string(hi);
  return s + "]";
}

Interval IntervalDomain::evalUnary(ir::UnOp op, const Value& v) const {
  if (v.top) return Interval::topValue();
  if (v.isSingleton()) return Interval::single(ir::evalUnOp(op, v.lo));
  if (op == ir::UnOp::Not) return Interval::boolRange();
  return ensureWide(negRange(v));
}

Interval IntervalDomain::evalBinary(ir::BinOp op, const Value& a,
                                    const Value& b) const {
  const bool aRange = !a.top && !a.isSingleton();
  const bool bRange = !b.top && !b.isSingleton();
  if (!aRange && !bRange) {
    // Mirror CSCC: ⊤ operands dominate unless a ⊥-like operand forces a
    // range result (handled below).
    if (a.top || b.top) return Interval::topValue();
    return Interval::single(ir::evalBinOp(op, a.lo, b.lo));
  }
  const Interval& av = a.top ? Interval::full() : a;
  const Interval& bv = b.top ? Interval::full() : b;
  return ensureWide(rangeBinary(op, av, bv));
}

dataflow::BranchVerdict IntervalDomain::branch(const Value& cond) const {
  if (cond.top) return dataflow::BranchVerdict::Unknown;
  if (cond.isSingleton())
    return cond.lo != 0 ? dataflow::BranchVerdict::TrueOnly
                        : dataflow::BranchVerdict::FalseOnly;
  return dataflow::BranchVerdict::Both;
}

Interval IntervalDomain::widen(const Value& prev, const Value& next,
                               std::uint32_t growths) const {
  if (growths <= widenThreshold || prev.top) return next;
  Interval w = next;
  if (!prev.loInf && !next.loInf && next.lo < prev.lo) {
    w.loInf = true;
    w.lo = 0;
  }
  if (!prev.hiInf && !next.hiInf && next.hi > prev.hi) {
    w.hiInf = true;
    w.hi = 0;
  }
  return w;
}

std::string VrangeStats::str() const {
  std::string s = "vrange: singleton=" + std::to_string(singletonDefs);
  s += " bounded=" + std::to_string(boundedDefs);
  s += " dead-branches=" + std::to_string(deadBranches);
  s += " unreachable-nodes=" + std::to_string(unreachableNodes);
  s += " div-by-zero=" + std::to_string(divByZero);
  s += " asserts-proved=" + std::to_string(assertsProved);
  s += " asserts-may-fail=" + std::to_string(assertsMayFail);
  s += " iterations=" + std::to_string(solverIterations);
  return s;
}

namespace {

/// Post-fixpoint diagnostic walk over executable nodes.
class Diagnoser {
 public:
  Diagnoser(const driver::Compilation& comp, const VrangeSolver& solver,
            DiagEngine* diag, VrangeStats& stats)
      : graph_(comp.graph()),
        form_(comp.ssa()),
        solver_(solver),
        diag_(diag),
        stats_(stats) {}

  void run() {
    for (const pfg::Node& n : graph_.nodes()) {
      if (!solver_.nodeExecutable(n.id)) {
        reportUnreachable(n);
        continue;
      }
      for (const ir::Stmt* s : n.stmts) {
        if (s->expr) scanDivisors(*s->expr);
        if (s->kind == ir::StmtKind::Assert) checkAssert(*s);
      }
      if (n.terminator != nullptr && n.terminator->expr) {
        scanDivisors(*n.terminator->expr);
        checkBranch(n);
      }
    }
  }

 private:
  /// Sharp evaluation against the solved lattice; ⊤ operands (possible
  /// only for values no interleaving produces) degrade to full().
  Interval sharp(const ir::Expr& e) {
    switch (e.kind) {
      case ir::ExprKind::IntConst:
        return Interval::single(e.intValue);
      case ir::ExprKind::VarRef: {
        const Interval& v = solver_.value(form_.useDef.at(&e));
        return v.top ? Interval::full() : v;
      }
      case ir::ExprKind::Unary: {
        const Interval v = sharp(*e.operands[0]);
        if (v.isSingleton())
          return Interval::single(ir::evalUnOp(e.unop, v.lo));
        if (e.unop == ir::UnOp::Neg) return negRange(v);
        // !x: decided whenever x's range is zero-free or exactly zero.
        if (v.excludesZero()) return Interval::single(0);
        if (v.isZero()) return Interval::single(1);
        return Interval::boolRange();
      }
      case ir::ExprKind::Binary:
        return sharpBinary(e.binop, sharp(*e.operands[0]),
                           sharp(*e.operands[1]));
      case ir::ExprKind::Call:
      case ir::ExprKind::AddrOf:
      case ir::ExprKind::Deref:
      case ir::ExprKind::Index:
        return Interval::full();
    }
    return Interval::full();
  }

  void reportUnreachable(const pfg::Node& n) {
    const ir::Stmt* site = !n.stmts.empty() ? n.stmts.front()
                           : n.syncStmt != nullptr ? n.syncStmt
                                                   : nullptr;
    if (site == nullptr) return;  // structural node (entry/exit/coend)
    ++stats_.unreachableNodes;
    if (diag_ != nullptr)
      diag_->warn(DiagCode::UnreachableCode, site->loc,
                  "no interleaving reaches this statement");
  }

  void scanDivisors(const ir::Expr& root) {
    ir::forEachExpr(root, [&](const ir::Expr& e) {
      if (e.kind != ir::ExprKind::Binary ||
          (e.binop != ir::BinOp::Div && e.binop != ir::BinOp::Mod))
        return;
      const Interval d = sharp(*e.operands[1]);
      const char* opName = e.binop == ir::BinOp::Div ? "division" : "modulo";
      if (d.isZero()) {
        ++stats_.divByZero;
        if (diag_ != nullptr)
          diag_->warn(DiagCode::DivByZero, e.loc,
                      std::string(opName) +
                          " by a divisor that is always zero (yields 0)");
      } else if (d.contains(0) && !d.isFull()) {
        ++stats_.divByZero;
        if (diag_ != nullptr)
          diag_->report(DiagSeverity::Note, DiagCode::DivByZero, e.loc,
                        std::string(opName) + " divisor range " + d.str() +
                            " contains zero");
      }
    });
  }

  void checkBranch(const pfg::Node& n) {
    const Interval c = sharp(*n.terminator->expr);
    const bool isWhile = n.terminator->kind == ir::StmtKind::While;
    if (c.excludesZero()) {
      ++stats_.deadBranches;
      if (diag_ != nullptr)
        diag_->warn(DiagCode::DeadBranch, n.terminator->loc,
                    std::string("condition range ") + c.str() +
                        " is always true" +
                        (isWhile ? "; the loop never exits normally"
                                 : "; the false branch never executes"));
    } else if (c.isZero()) {
      ++stats_.deadBranches;
      if (diag_ != nullptr)
        diag_->warn(DiagCode::DeadBranch, n.terminator->loc,
                    std::string("condition is always false; the ") +
                        (isWhile ? "loop body" : "true branch") +
                        " never executes");
    }
  }

  void checkAssert(const ir::Stmt& s) {
    const Interval c = sharp(*s.expr);
    if (c.excludesZero()) {
      ++stats_.assertsProved;
      if (diag_ != nullptr)
        diag_->report(DiagSeverity::Note, DiagCode::AssertProved, s.loc,
                      "assert proved: condition range " + c.str() +
                          " excludes zero on every interleaving");
    } else if (c.isZero()) {
      ++stats_.assertsMayFail;
      if (diag_ != nullptr)
        diag_->warn(DiagCode::AssertMayFail, s.loc,
                    "assert always fails: condition is zero on every "
                    "interleaving");
    } else if (c.contains(0)) {
      ++stats_.assertsMayFail;
      if (diag_ != nullptr)
        diag_->warn(DiagCode::AssertMayFail, s.loc,
                    "assert may fail: condition range " + c.str() +
                        " contains zero");
    }
  }

  const pfg::Graph& graph_;
  const ssa::SsaForm& form_;
  const VrangeSolver& solver_;
  DiagEngine* diag_;
  VrangeStats& stats_;
};

}  // namespace

VrangeResult analyzeValueRanges(const driver::Compilation& comp,
                                DiagEngine* diag) {
  const pfg::Graph& graph = comp.graph();
  const ssa::SsaForm& form = comp.ssa();

  VrangeSolver solver(graph, form, IntervalDomain{});
  const Status status = solver.solve();
  CSSAME_CHECK(status.ok(), "vrange solver exceeded its iteration budget");

  VrangeResult result;
  result.stats.solverIterations = solver.stats().iterations;

  result.defRanges.reserve(form.defs.size());
  for (const ssa::Definition& d : form.defs)
    result.defRanges.push_back(d.removed ? Interval::topValue()
                                         : solver.value(d.name));

  result.nodeExec.assign(graph.size(), false);
  for (std::size_t i = 0; i < graph.size(); ++i)
    result.nodeExec[i] =
        solver.nodeExecutable(NodeId{static_cast<NodeId::value_type>(i)});

  // Per-variable summary: the entry definition (initial 0) plus every
  // assignment an interleaving can execute.
  result.varRanges.assign(comp.program().symbols.size(),
                          Interval::topValue());
  for (const ssa::Definition& d : form.defs) {
    if (d.removed) continue;
    if (d.kind == ssa::DefKind::Entry) {
      result.varRanges[d.var.index()] = Interval::hull(
          result.varRanges[d.var.index()], solver.value(d.name));
    } else if (d.kind == ssa::DefKind::Assign &&
               solver.nodeExecutable(d.node)) {
      const Interval& v = solver.value(d.name);
      result.varRanges[d.var.index()] =
          Interval::hull(result.varRanges[d.var.index()], v);
      if (v.isSingleton())
        ++result.stats.singletonDefs;
      else if (!v.top && !v.loInf && !v.hiInf)
        ++result.stats.boundedDefs;
    }
  }

  Diagnoser(comp, solver, diag, result.stats).run();
  return result;
}

namespace {

/// The three-point constant lattice (⊤ / Const / ⊥) that CSCC solved
/// before it folded CVRA's singletons: crossCheckConstants' reference.
struct ConstValue {
  enum Kind : std::uint8_t { Top, Const, Bottom } kind = Top;
  long long value = 0;
  friend bool operator==(const ConstValue& a, const ConstValue& b) {
    return a.kind == b.kind && (a.kind != Const || a.value == b.value);
  }
};

struct ConstDomain {
  using Value = ConstValue;
  const char* name() const { return "cscc"; }
  Value top() const { return {}; }
  Value constant(long long v) const { return {ConstValue::Const, v}; }
  Value unknown() const { return {ConstValue::Bottom, 0}; }
  Value meet(const Value& a, const Value& b) const {
    if (a.kind == ConstValue::Top) return b;
    if (b.kind == ConstValue::Top) return a;
    return a == b ? a : unknown();
  }
  Value evalUnary(ir::UnOp op, const Value& v) const {
    return v.kind == ConstValue::Const ? constant(ir::evalUnOp(op, v.value))
                                       : v;
  }
  Value evalBinary(ir::BinOp op, const Value& a, const Value& b) const {
    if (a.kind == ConstValue::Bottom || b.kind == ConstValue::Bottom)
      return unknown();
    if (a.kind == ConstValue::Top || b.kind == ConstValue::Top) return top();
    return constant(ir::evalBinOp(op, a.value, b.value));
  }
  dataflow::BranchVerdict branch(const Value& c) const {
    if (c.kind == ConstValue::Top) return dataflow::BranchVerdict::Unknown;
    if (c.kind == ConstValue::Bottom) return dataflow::BranchVerdict::Both;
    return c.value != 0 ? dataflow::BranchVerdict::TrueOnly
                        : dataflow::BranchVerdict::FalseOnly;
  }
  /// Finite lattice (height 2): no widening needed.
  Value widen(const Value&, const Value& next, std::uint32_t) const {
    return next;
  }
};

}  // namespace

std::string crossCheckConstants(const driver::Compilation& comp,
                                const VrangeResult& vr) {
  dataflow::SparseConditional<ConstDomain> cscc(comp.graph(), comp.ssa(), {});
  const Status status = cscc.solve();
  CSSAME_CHECK(status.ok(), "cscc solver exceeded its iteration budget");
  const ssa::SsaForm& form = comp.ssa();

  for (const ssa::Definition& d : form.defs) {
    if (d.removed) continue;
    const ConstValue& cv = cscc.value(d.name);
    const Interval& iv = vr.defRanges[d.name.index()];
    switch (cv.kind) {
      case ConstValue::Const:
        if (!iv.isSingleton() || iv.lo != cv.value)
          return "def " + std::to_string(d.name.index()) + ": cscc Const(" +
                 std::to_string(cv.value) + ") but vrange " + iv.str();
        break;
      case ConstValue::Top:
        if (!iv.isTop())
          return "def " + std::to_string(d.name.index()) +
                 ": cscc ⊤ but vrange " + iv.str();
        break;
      case ConstValue::Bottom:
        if (iv.isTop() || iv.isSingleton())
          return "def " + std::to_string(d.name.index()) +
                 ": cscc ⊥ but vrange " + iv.str();
        break;
    }
  }

  for (std::size_t i = 0; i < comp.graph().size(); ++i) {
    const NodeId n{static_cast<NodeId::value_type>(i)};
    if (cscc.nodeExecutable(n) != vr.nodeExec[i])
      return "node " + std::to_string(i) + ": executability disagrees (cscc " +
             (cscc.nodeExecutable(n) ? "yes" : "no") + ", vrange " +
             (vr.nodeExec[i] ? "yes" : "no") + ")";
  }
  return {};
}

}  // namespace cssame::sanalysis
