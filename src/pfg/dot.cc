#include "src/pfg/dot.h"

#include "src/ir/printer.h"

namespace cssame::pfg {

namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\l";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string toDot(const Graph& graph, std::span<const MutexEdge> emutex,
                  std::span<const DsyncEdge> edsync) {
  const ir::SymbolTable& syms = graph.program().symbols;
  std::string out = "digraph PFG {\n  node [shape=box, fontname=\"monospace\"];\n";

  for (const Node& n : graph.nodes()) {
    std::string label = graph.describe(n.id);
    if (n.kind == NodeKind::Block) {
      label = "#" + std::to_string(n.id.value());
      for (const ir::Stmt* s : n.stmts)
        label += "\n" + ir::printStmtBrief(*s, syms);
      if (n.terminator != nullptr)
        label += "\nbranch " + ir::printExpr(*n.terminator->expr, syms);
    }
    out += "  n" + std::to_string(n.id.value()) + " [label=\"" +
           escape(label) + "\"";
    if (n.kind == NodeKind::Lock || n.kind == NodeKind::Unlock)
      out += ", style=filled, fillcolor=lightyellow";
    if (n.kind == NodeKind::Cobegin || n.kind == NodeKind::Coend)
      out += ", shape=trapezium";
    out += "];\n";
  }

  auto edge = [&](NodeId a, NodeId b, const char* attrs) {
    out += "  n" + std::to_string(a.value()) + " -> n" +
           std::to_string(b.value()) + attrs + ";\n";
  };

  for (const Node& n : graph.nodes())
    for (NodeId s : n.succs) edge(n.id, s, "");

  for (const ConflictEdge& c : graph.conflicts) {
    std::string attrs = " [style=dashed, color=red, label=\"D" +
                        std::string(c.toIsDef ? "D:" : "U:") +
                        syms.nameOf(c.var) + "\"]";
    edge(c.from, c.to, attrs.c_str());
  }
  for (const MutexEdge& m : emutex)
    edge(m.lockNode, m.unlockNode, " [style=dotted, dir=none, color=blue]");
  for (const DsyncEdge& d : edsync)
    edge(d.setNode, d.waitNode, " [style=bold, color=darkgreen]");

  out += "}\n";
  return out;
}

}  // namespace cssame::pfg
