// DOT (Graphviz) export of a PFG, standing in for the paper's VCG output.
// Every rendering shows the whole graph: statement text inside block
// nodes, control edges, and the synchronization edges of the paper's
// Figure 2 legend — conflict edges dashed, mutex edges dotted, dsync
// edges bold.
#pragma once

#include <string>

#include "src/pfg/graph.h"

namespace cssame::pfg {

[[nodiscard]] std::string toDot(const Graph& graph);

}  // namespace cssame::pfg
