// Expression trees.
//
// Expressions are uniquely owned (no sharing), so analyses may key side
// tables by `const Expr*`: every VarRef node is a distinct *use site*,
// which is exactly the granularity SSA use-def chains need.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/support/ids.h"
#include "src/support/source_loc.h"

namespace cssame::ir {

enum class ExprKind : std::uint8_t {
  IntConst,
  VarRef,
  Unary,
  Binary,
  Call,
  AddrOf,  ///< &x or &a[i] — the address of a variable or array cell
  Deref,   ///< *e — load through a pointer-valued expression
  Index,   ///< a[e] — load of an array cell
};

enum class UnOp : std::uint8_t { Neg, Not };

enum class BinOp : std::uint8_t {
  Add, Sub, Mul, Div, Mod,
  Lt, Le, Gt, Ge, Eq, Ne,
  And, Or,
};

[[nodiscard]] const char* binOpName(BinOp op);
[[nodiscard]] const char* unOpName(UnOp op);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
  ExprKind kind = ExprKind::IntConst;
  SourceLoc loc;

  // IntConst
  long long intValue = 0;
  // VarRef
  SymbolId var;
  // Unary / Binary
  UnOp unop = UnOp::Neg;
  BinOp binop = BinOp::Add;
  // Call
  SymbolId callee;
  // AddrOf: the variable (or array) whose address is taken; Index: the
  // array variable.
  // (AddrOf/Index reuse `var`; VarRef documents the field above.)
  // Unary: 1 operand; Binary: 2; Call: n args; AddrOf: 0 (scalar or whole
  // array) or 1 (the cell index of &a[i]); Deref: 1 (the address);
  // Index: 1 (the cell index).
  std::vector<ExprPtr> operands;
};

[[nodiscard]] ExprPtr makeInt(long long value, SourceLoc loc = {});
[[nodiscard]] ExprPtr makeVar(SymbolId var, SourceLoc loc = {});
[[nodiscard]] ExprPtr makeUnary(UnOp op, ExprPtr operand, SourceLoc loc = {});
[[nodiscard]] ExprPtr makeBinary(BinOp op, ExprPtr lhs, ExprPtr rhs,
                                 SourceLoc loc = {});
[[nodiscard]] ExprPtr makeCall(SymbolId callee, std::vector<ExprPtr> args,
                               SourceLoc loc = {});
/// &var (index == nullptr) or &arr[index].
[[nodiscard]] ExprPtr makeAddrOf(SymbolId var, ExprPtr index = nullptr,
                                 SourceLoc loc = {});
[[nodiscard]] ExprPtr makeDeref(ExprPtr address, SourceLoc loc = {});
[[nodiscard]] ExprPtr makeIndex(SymbolId array, ExprPtr index,
                                SourceLoc loc = {});

[[nodiscard]] ExprPtr cloneExpr(const Expr& e);

/// Total evaluation of operators. Division/modulo by zero yields 0; this
/// keeps constant folding (CSCC) and the interpreter consistent without
/// introducing undefined behaviour. Comparisons/logicals yield 0 or 1.
[[nodiscard]] long long evalBinOp(BinOp op, long long a, long long b);
[[nodiscard]] long long evalUnOp(UnOp op, long long a);

/// Visits every sub-expression (pre-order), including `e` itself.
template <typename Fn>
void forEachExpr(const Expr& e, Fn&& fn) {
  fn(e);
  for (const auto& op : e.operands) forEachExpr(*op, fn);
}

template <typename Fn>
void forEachExpr(Expr& e, Fn&& fn) {
  fn(e);
  for (auto& op : e.operands) forEachExpr(*op, fn);
}

/// True if the expression contains a Call (which may have side effects and
/// always has an unknown value).
[[nodiscard]] bool containsCall(const Expr& e);

/// Structural equality (ignores locations).
[[nodiscard]] bool exprEquals(const Expr& a, const Expr& b);

}  // namespace cssame::ir
