#include "src/ir/expr.h"

namespace cssame::ir {

const char* binOpName(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::And: return "&&";
    case BinOp::Or: return "||";
  }
  return "?";
}

const char* unOpName(UnOp op) {
  switch (op) {
    case UnOp::Neg: return "-";
    case UnOp::Not: return "!";
  }
  return "?";
}

ExprPtr makeInt(long long value, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::IntConst;
  e->intValue = value;
  e->loc = loc;
  return e;
}

ExprPtr makeVar(SymbolId var, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::VarRef;
  e->var = var;
  e->loc = loc;
  return e;
}

ExprPtr makeUnary(UnOp op, ExprPtr operand, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Unary;
  e->unop = op;
  e->operands.push_back(std::move(operand));
  e->loc = loc;
  return e;
}

ExprPtr makeBinary(BinOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Binary;
  e->binop = op;
  e->operands.push_back(std::move(lhs));
  e->operands.push_back(std::move(rhs));
  e->loc = loc;
  return e;
}

ExprPtr makeCall(SymbolId callee, std::vector<ExprPtr> args, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Call;
  e->callee = callee;
  e->operands = std::move(args);
  e->loc = loc;
  return e;
}

ExprPtr makeAddrOf(SymbolId var, ExprPtr index, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::AddrOf;
  e->var = var;
  if (index) e->operands.push_back(std::move(index));
  e->loc = loc;
  return e;
}

ExprPtr makeDeref(ExprPtr address, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Deref;
  e->operands.push_back(std::move(address));
  e->loc = loc;
  return e;
}

ExprPtr makeIndex(SymbolId array, ExprPtr index, SourceLoc loc) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::Index;
  e->var = array;
  e->operands.push_back(std::move(index));
  e->loc = loc;
  return e;
}

ExprPtr cloneExpr(const Expr& e) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->loc = e.loc;
  out->intValue = e.intValue;
  out->var = e.var;
  out->unop = e.unop;
  out->binop = e.binop;
  out->callee = e.callee;
  out->operands.reserve(e.operands.size());
  for (const auto& op : e.operands) out->operands.push_back(cloneExpr(*op));
  return out;
}

long long evalBinOp(BinOp op, long long a, long long b) {
  switch (op) {
    case BinOp::Add: return static_cast<long long>(
        static_cast<unsigned long long>(a) + static_cast<unsigned long long>(b));
    case BinOp::Sub: return static_cast<long long>(
        static_cast<unsigned long long>(a) - static_cast<unsigned long long>(b));
    case BinOp::Mul: return static_cast<long long>(
        static_cast<unsigned long long>(a) * static_cast<unsigned long long>(b));
    case BinOp::Div: return b == 0 ? 0 : a / b;
    case BinOp::Mod: return b == 0 ? 0 : a % b;
    case BinOp::Lt: return a < b ? 1 : 0;
    case BinOp::Le: return a <= b ? 1 : 0;
    case BinOp::Gt: return a > b ? 1 : 0;
    case BinOp::Ge: return a >= b ? 1 : 0;
    case BinOp::Eq: return a == b ? 1 : 0;
    case BinOp::Ne: return a != b ? 1 : 0;
    case BinOp::And: return (a != 0 && b != 0) ? 1 : 0;
    case BinOp::Or: return (a != 0 || b != 0) ? 1 : 0;
  }
  return 0;
}

long long evalUnOp(UnOp op, long long a) {
  switch (op) {
    case UnOp::Neg: return static_cast<long long>(
        -static_cast<unsigned long long>(a));
    case UnOp::Not: return a == 0 ? 1 : 0;
  }
  return 0;
}

bool containsCall(const Expr& e) {
  bool found = false;
  forEachExpr(e, [&](const Expr& sub) { found |= sub.kind == ExprKind::Call; });
  return found;
}

bool exprEquals(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::IntConst:
      if (a.intValue != b.intValue) return false;
      break;
    case ExprKind::VarRef:
    case ExprKind::AddrOf:
    case ExprKind::Index:
      if (a.var != b.var) return false;
      break;
    case ExprKind::Unary:
      if (a.unop != b.unop) return false;
      break;
    case ExprKind::Binary:
      if (a.binop != b.binop) return false;
      break;
    case ExprKind::Call:
      if (a.callee != b.callee) return false;
      break;
    case ExprKind::Deref:
      break;
  }
  if (a.operands.size() != b.operands.size()) return false;
  for (std::size_t i = 0; i < a.operands.size(); ++i)
    if (!exprEquals(*a.operands[i], *b.operands[i])) return false;
  return true;
}

}  // namespace cssame::ir
