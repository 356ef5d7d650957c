// DOT (Graphviz) export of a PFG, standing in for the paper's VCG output.
// Every rendering shows the whole graph: statement text inside block
// nodes, control edges, and the synchronization edges of the paper's
// Figure 2 legend — conflict edges dashed, mutex edges dotted, dsync
// edges bold.
#pragma once

#include <span>
#include <string>

#include "src/pfg/graph.h"

namespace cssame::pfg {

/// The graph stores no Esync, so the caller passes it in (see
/// analysis::syncEdges).
[[nodiscard]] std::string toDot(const Graph& graph,
                                std::span<const MutexEdge> emutex,
                                std::span<const DsyncEdge> edsync);

}  // namespace cssame::pfg
