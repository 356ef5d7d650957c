// Lowers structured IR to a Parallel Flow Graph (control edges only).
//
// Conflict edges (Ecf) require concurrency information and are added
// afterwards by analysis::computeConflictEdges. Mutex and dsync edges
// (Esync) are never stored; analysis::syncEdges derives them on demand.
#pragma once

#include "src/pfg/graph.h"

namespace cssame::pfg {

/// Builds the PFG skeleton: Entry/Exit, parallel basic blocks, fork/join
/// nodes, and dedicated Lock/Unlock/Set/Wait nodes, connected by control
/// edges. The IR program must outlive the graph.
[[nodiscard]] Graph buildPfg(ir::Program& program);

}  // namespace cssame::pfg
