// Parallel reaching definitions over FUD chains (paper Algorithm A.4).
//
// A use's parallel reaching definitions are the *real* definitions
// (Assign statements and the Entry value) its factored use-def chain
// reaches through φ arguments and π control and conflict arguments. A
// query walks that chain; nothing is solved or cached ahead of time.
#pragma once

#include <vector>

#include "src/ssa/ssa.h"
#include "src/support/bitset.h"

namespace cssame::cssa {

/// Calls fn(d) for every Entry or Assign definition reachable from `name`
/// through φ and π arguments, skipping names already set in `visited`
/// (sized to form.defs) and setting every name it walks. A visited set
/// shared by several calls reports each real definition at most once in
/// total, so a caller that only accumulates walks the form in time linear
/// in its arguments.
template <typename Fn>
void forEachReachingDef(const ssa::SsaForm& form, SsaNameId name,
                        DynBitset& visited, Fn&& fn) {
  if (visited.test(name.index())) return;
  visited.set(name.index());
  std::vector<SsaNameId> stack{name};
  auto push = [&](SsaNameId arg) {
    if (visited.test(arg.index())) return;
    visited.set(arg.index());
    stack.push_back(arg);
  };
  while (!stack.empty()) {
    const ssa::Definition& d = form.def(stack.back());
    stack.pop_back();
    if (d.kind == ssa::DefKind::Entry || d.kind == ssa::DefKind::Assign)
      fn(d.name);
    else
      ssa::forEachArg(d, push);
  }
}

/// The parallel reaching definitions of one reading expression, sorted by
/// SSA name; empty when the expression has no use-def link.
[[nodiscard]] std::vector<SsaNameId> reachingDefs(const ssa::SsaForm& form,
                                                  const ir::Expr* use);

}  // namespace cssame::cssa
