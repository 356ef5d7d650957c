#include "src/pfg/verify.h"

#include <algorithm>

namespace cssame::pfg {

std::vector<std::string> verifyGraph(const Graph& graph) {
  std::vector<std::string> problems;
  auto problem = [&](NodeId n, const std::string& what) {
    problems.push_back("node #" + std::to_string(n.value()) + " (" +
                       nodeKindName(graph.node(n).kind) + "): " + what);
  };

  std::size_t entries = 0, exits = 0;
  for (const Node& n : graph.nodes()) {
    // Edge mirroring.
    for (NodeId s : n.succs) {
      const auto& preds = graph.node(s).preds;
      if (std::count(preds.begin(), preds.end(), n.id) <
          std::count(n.succs.begin(), n.succs.end(), s))
        problem(n.id, "successor edge without matching predecessor");
    }

    switch (n.kind) {
      case NodeKind::Entry:
        ++entries;
        if (!n.preds.empty()) problem(n.id, "entry with predecessors");
        if (n.succs.size() != 1) problem(n.id, "entry without unique succ");
        break;
      case NodeKind::Exit:
        ++exits;
        if (!n.succs.empty()) problem(n.id, "exit with successors");
        break;
      case NodeKind::Block: {
        for (const ir::Stmt* s : n.stmts) {
          if (s->kind != ir::StmtKind::Assign &&
              s->kind != ir::StmtKind::CallStmt &&
              s->kind != ir::StmtKind::Print &&
              s->kind != ir::StmtKind::Assert)
            problem(n.id, "non-simple statement inside block");
          if (graph.nodeOf(s) != n.id)
            problem(n.id, "statement not mapped back to its block");
        }
        if (n.terminator != nullptr) {
          if (n.terminator->kind != ir::StmtKind::If &&
              n.terminator->kind != ir::StmtKind::While)
            problem(n.id, "terminator is not a branch statement");
          if (n.succs.size() != 2)
            problem(n.id, "branch block without exactly two successors");
        } else if (n.succs.size() != 1) {
          problem(n.id, "fallthrough block without unique successor");
        }
        break;
      }
      case NodeKind::Lock:
      case NodeKind::Unlock:
      case NodeKind::Set:
      case NodeKind::Wait:
      case NodeKind::Barrier:
      case NodeKind::Fence: {
        if (n.syncStmt == nullptr) {
          problem(n.id, "sync node without statement");
          break;
        }
        if (graph.nodeOf(n.syncStmt) != n.id)
          problem(n.id, "sync statement not mapped to its node");
        if (n.succs.size() != 1)
          problem(n.id, "sync node without unique successor");
        break;
      }
      case NodeKind::Cobegin:
        if (n.syncStmt == nullptr ||
            n.syncStmt->kind != ir::StmtKind::Cobegin)
          problem(n.id, "cobegin node without cobegin statement");
        else if (n.succs.size() != n.syncStmt->threads.size())
          problem(n.id, "cobegin fan-out does not match thread count");
        break;
      case NodeKind::Coend:
        if (n.succs.size() != 1)
          problem(n.id, "coend without unique successor");
        break;
    }
  }
  if (entries != 1) problems.push_back("graph without unique entry");
  if (exits != 1) problems.push_back("graph without unique exit");

  const ir::SymbolTable& syms = graph.program().symbols;
  graph.conflicts.forEachEdge([&](const ConflictEdge& e) {
    if (e.from == e.to)
      problems.push_back("conflict self-edge on node #" +
                         std::to_string(e.from.value()));
    // Conflict edges are keyed by alias-class representative; the class
    // conflicts as soon as any member is shared.
    if (!graph.aliases.classShared(e.var, syms))
      problems.push_back("conflict edge over non-shared variable '" +
                         syms.nameOf(e.var) + "'");
  });
  return problems;
}

}  // namespace cssame::pfg
