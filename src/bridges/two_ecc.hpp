// 2-edge-connected components (paper §4, problem definition).
//
// "A simple method to decompose a graph into 2-edge-connected components is
// to find all bridges, remove them, and find connected components in the
// resulting graph" — this runs that method on a spanning forest of the
// graph rather than on the whole graph. A bridge lies on no cycle, so it is
// an edge of every spanning forest, and the forest minus the bridges has
// exactly the components of the graph minus the bridges. The device CC then
// sees at most n - 1 edges instead of m.
#pragma once

#include <vector>

#include "bridges/bridges.hpp"
#include "bridges/cc_spanning.hpp"
#include "device/context.hpp"
#include "graph/graph.hpp"
#include "util/types.hpp"

namespace emc::bridges {

/// Labels each node with a representative of its 2-edge-connected
/// component (nodes u, v share a label iff two edge-disjoint u-v paths
/// exist): the smallest node id of the component, as cc_spanning_forest
/// labels. `forest` must be a spanning forest of `graph` (its tree_edges
/// index graph.edges) and `is_bridge` the bridge mask of the same graph.
std::vector<NodeId> two_edge_components(const device::Context& ctx,
                                        const graph::EdgeList& graph,
                                        const SpanningForest& forest,
                                        const BridgeMask& is_bridge);

}  // namespace emc::bridges
