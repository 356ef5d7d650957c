#include "src/cssa/form_printer.h"

#include "src/pfg/build.h"

namespace cssame::cssa {

namespace {

class FormPrinter {
 public:
  FormPrinter(const pfg::Graph& graph, const ssa::SsaForm& form)
      : graph_(graph), form_(form), syms_(graph.program().symbols) {}

  std::string run() {
    // Index π terms by the statement containing their use so they can be
    // printed directly above it.
    for (const ssa::Definition& d : form_.defs) {
      if (d.kind == ssa::DefKind::Pi && !d.removed)
        pisByStmt_[d.piUseStmt].push_back(d.name);
    }

    for (const pfg::Node& n : graph_.nodes()) node(n);
    return std::move(out_);
  }

 private:
  std::string ssaName(SsaNameId id) { return form_.nameOf(id, syms_); }

  void node(const pfg::Node& n) {
    out_ += graph_.describe(n.id);
    if (!n.threadPath.empty()) {
      out_ += " [depth " + std::to_string(n.threadPath.size()) + " thread " +
              std::to_string(n.threadPath.back().threadIndex) + "]";
    }
    out_ += ":\n";

    for (SsaNameId phi : form_.phisAt[n.id.index()]) {
      const ssa::Definition& p = form_.def(phi);
      out_ += "  " + ssaName(phi) + " = phi(";
      for (std::size_t i = 0; i < p.phiArgs.size(); ++i) {
        if (i > 0) out_ += ", ";
        out_ += ssaName(p.phiArgs[i].def);
      }
      out_ += ")\n";
    }

    for (const ir::Stmt* s : n.stmts) stmt(s);
    if (n.terminator != nullptr) {
      printPis(n.terminator);
      out_ += "  branch " + expr(*n.terminator->expr) + "\n";
    }
  }

  void printPis(const ir::Stmt* s) {
    auto it = pisByStmt_.find(s);
    if (it == pisByStmt_.end()) return;
    for (SsaNameId pi : it->second) {
      const ssa::Definition& p = form_.def(pi);
      out_ += "  " + ssaName(pi) + " = pi(" + ssaName(p.piControlArg);
      for (const ssa::PiConflictArg& a : p.piConflictArgs)
        out_ += ", " + ssaName(a.def);
      out_ += ")\n";
    }
  }

  void stmt(const ir::Stmt* s) {
    printPis(s);
    out_ += "  ";
    switch (s->kind) {
      case ir::StmtKind::Assign: {
        // A scalar store prints as its SSA definition. A Deref or Index
        // store keeps its source lvalue, whose address operands are uses,
        // and names the definition it makes, if any: a Deref store
        // through an empty points-to set makes none.
        auto it = form_.assignDef.find(s);
        const bool named = it != form_.assignDef.end();
        if (s->lhsKind == ir::LValueKind::Deref)
          out_ += deref(*s->lhsAddr);
        else if (s->lhsKind == ir::LValueKind::Index)
          out_ += syms_.nameOf(s->lhs) + "[" + expr(*s->lhsAddr) + "]";
        else
          out_ += named ? ssaName(it->second) : syms_.nameOf(s->lhs);
        out_ += " = " + expr(*s->expr);
        if (named && s->lhsKind != ir::LValueKind::Var)
          out_ += " [defines " + ssaName(it->second) + "]";
        break;
      }
      case ir::StmtKind::CallStmt:
        out_ += expr(*s->expr);
        break;
      case ir::StmtKind::Print:
        out_ += "print(" + expr(*s->expr) + ")";
        break;
      case ir::StmtKind::Assert:
        out_ += "assert(" + expr(*s->expr) + ")";
        break;
      default:
        out_ += ir::stmtKindName(s->kind);
        break;
    }
    out_ += "\n";
  }

  std::string expr(const ir::Expr& e) {
    switch (e.kind) {
      case ir::ExprKind::IntConst:
        return std::to_string(e.intValue);
      case ir::ExprKind::VarRef: {
        auto it = form_.useDef.find(&e);
        return it != form_.useDef.end() ? ssaName(it->second)
                                        : syms_.nameOf(e.var);
      }
      case ir::ExprKind::Unary:
        return std::string(ir::unOpName(e.unop)) + expr(*e.operands[0]);
      case ir::ExprKind::Binary:
        return expr(*e.operands[0]) + " " + ir::binOpName(e.binop) + " " +
               expr(*e.operands[1]);
      case ir::ExprKind::Call: {
        std::string s = syms_.nameOf(e.callee) + "(";
        for (std::size_t i = 0; i < e.operands.size(); ++i) {
          if (i > 0) s += ", ";
          s += expr(*e.operands[i]);
        }
        return s + ")";
      }
      // Pointer and array operands keep ir::printer's spelling; the
      // names inside are SSA-renamed like any other use.
      case ir::ExprKind::AddrOf:
        return "&" + syms_.nameOf(e.var) +
               (e.operands.empty() ? "" : "[" + expr(*e.operands[0]) + "]");
      case ir::ExprKind::Deref:
        return deref(*e.operands[0]);
      case ir::ExprKind::Index: {
        auto it = form_.useDef.find(&e);
        return (it != form_.useDef.end() ? ssaName(it->second)
                                         : syms_.nameOf(e.var)) +
               "[" + expr(*e.operands[0]) + "]";
      }
    }
    return "?";
  }

  /// `*p`, or `*(p + 1)` when the address is not a single operand.
  std::string deref(const ir::Expr& addr) {
    const bool bare = addr.kind == ir::ExprKind::IntConst ||
                      addr.kind == ir::ExprKind::VarRef ||
                      addr.kind == ir::ExprKind::Call ||
                      addr.kind == ir::ExprKind::AddrOf ||
                      addr.kind == ir::ExprKind::Index;
    return bare ? "*" + expr(addr) : "*(" + expr(addr) + ")";
  }

  const pfg::Graph& graph_;
  const ssa::SsaForm& form_;
  const ir::SymbolTable& syms_;
  std::unordered_map<const ir::Stmt*, std::vector<SsaNameId>> pisByStmt_;
  std::string out_;
};

}  // namespace

std::string printForm(const pfg::Graph& graph, const ssa::SsaForm& form) {
  return FormPrinter(graph, form).run();
}

}  // namespace cssame::cssa
