#include "graph/graph.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "device/primitives.hpp"
#include "device/sort.hpp"
#include "util/rng.hpp"

namespace emc::graph {

bool EdgeList::valid() const {
  for (const Edge& e : edges) {
    if (e.u < 0 || e.u >= num_nodes || e.v < 0 || e.v >= num_nodes) return false;
    if (e.u == e.v) return false;
  }
  return true;
}

Csr build_csr(const device::Context& ctx, const EdgeList& graph) {
  const NodeId n = graph.num_nodes;
  const std::size_t m = graph.edges.size();
  const auto rows = static_cast<std::size_t>(n);
  Csr csr;
  csr.num_nodes = n;
  csr.row_offsets.assign(rows + 1, 0);
  csr.neighbors.resize(2 * m);
  csr.edge_ids.resize(2 * m);
  if (rows == 0) return csr;

  // A counting sort with no shared counter: the edges split into slices of
  // consecutive ids, slice s counts its endpoints into its own row of a
  // slices x n table, one column-major scan turns each (slice, node) count
  // into that pair's cursor, and slice s scatters through its own cursors
  // with plain stores. Slice s's half-edges land after those of slices < s
  // in every row, and each slice walks its edges in id order, so every row
  // is in ascending edge-id order whatever the slice count. The count is
  // capped at 1 + 2m/n so the table never outgrows n + 2m cells.
  const std::size_t slices =
      std::min<std::size_t>(std::max(1u, ctx.workers()), 1 + 2 * m / rows);
  const std::size_t per_slice = (m + slices - 1) / slices;
  device::Arena::Scope scope(ctx.arena());
  EdgeId* cursor = scope.get<EdgeId>(slices * rows);
  const auto each_slice = [&](auto&& body) {
    ctx.pool().parallel_for(
        slices, 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t s = begin; s < end; ++s) {
            body(cursor + s * rows, s * per_slice,
                 std::min(m, (s + 1) * per_slice));
          }
        });
  };
  each_slice([&](EdgeId* count, std::size_t first, std::size_t last) {
    std::fill(count, count + rows, EdgeId{0});
    for (std::size_t e = first; e < last; ++e) {
      ++count[graph.edges[e].u];
      ++count[graph.edges[e].v];
    }
  });
  csr.row_offsets[rows] = device::exclusive_scan_columns(
      ctx, cursor, slices, rows, csr.row_offsets.data());
  each_slice([&](EdgeId* next, std::size_t first, std::size_t last) {
    for (std::size_t e = first; e < last; ++e) {
      const Edge edge = graph.edges[e];
      const EdgeId slot_u = next[edge.u]++;
      csr.neighbors[slot_u] = edge.v;
      csr.edge_ids[slot_u] = static_cast<EdgeId>(e);
      const EdgeId slot_v = next[edge.v]++;
      csr.neighbors[slot_v] = edge.u;
      csr.edge_ids[slot_v] = static_cast<EdgeId>(e);
    }
  });
  return csr;
}

namespace {

/// splitmix64 step as a pure finalizer: the cheap mixer both sides of
/// csr_matches() feed their (edge id, canonical endpoints) incidences
/// through before summing.
std::uint64_t mix64(std::uint64_t x) { return util::splitmix64(x); }

}  // namespace

bool csr_matches(const EdgeList& graph, const Csr& csr) {
  const std::size_t m = graph.edges.size();
  if (graph.num_nodes != csr.num_nodes || m != csr.num_edges()) return false;
  if (csr.row_offsets.size() != static_cast<std::size_t>(csr.num_nodes) + 1) {
    return false;
  }
  // Each undirected edge e = {u, v} appears in the CSR as two half-edges
  // carrying the same (edge id, endpoints) triple, so summing the mixed
  // triples over the edge list twice and over every CSR slot once must
  // agree. Summation makes both sides insensitive to adjacency order.
  // The edge id is mixed before combining: a raw (key ^ id) fold would let
  // structured inputs collide deterministically (edge {0,2} at id 0 and
  // edge {0,6} at id 2 fold to the same value), reducing the check to far
  // less than its nominal 64 bits on exactly the regular graphs it guards.
  std::uint64_t list_hash = 0;
  for (std::size_t e = 0; e < m; ++e) {
    const Edge edge = graph.edges[e];
    list_hash += 2 * mix64(edge_key(edge.u, edge.v) ^ mix64(e));
  }
  std::uint64_t csr_hash = 0;
  for (NodeId v = 0; v < csr.num_nodes; ++v) {
    for (EdgeId s = csr.row_offsets[v]; s < csr.row_offsets[v + 1]; ++s) {
      csr_hash += mix64(edge_key(v, csr.neighbors[s]) ^
                        mix64(csr.edge_ids[s]));
    }
  }
  return list_hash == csr_hash;
}

namespace {

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }

  NodeId find(NodeId x) {
    NodeId root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) x = std::exchange(parent_[x], root);
    return root;
  }

  bool unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (a > b) std::swap(a, b);  // smaller id becomes the root
    parent_[b] = a;
    return true;
  }

 private:
  std::vector<NodeId> parent_;
};

}  // namespace

std::vector<NodeId> connected_component_labels(const EdgeList& graph) {
  UnionFind uf(static_cast<std::size_t>(graph.num_nodes));
  for (const Edge& e : graph.edges) uf.unite(e.u, e.v);
  std::vector<NodeId> labels(static_cast<std::size_t>(graph.num_nodes));
  for (NodeId v = 0; v < graph.num_nodes; ++v) labels[v] = uf.find(v);
  return labels;
}

std::size_t count_components(const std::vector<NodeId>& labels) {
  std::size_t count = 0;
  for (std::size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] == static_cast<NodeId>(v)) ++count;
  }
  return count;
}

EdgeList largest_component(const EdgeList& graph) {
  const auto labels = connected_component_labels(graph);
  std::vector<std::size_t> size(static_cast<std::size_t>(graph.num_nodes), 0);
  for (NodeId v = 0; v < graph.num_nodes; ++v) ++size[labels[v]];
  NodeId best = 0;
  for (NodeId v = 0; v < graph.num_nodes; ++v) {
    if (size[labels[v]] > size[labels[best]]) best = v;
  }
  const NodeId keep = labels[best];

  std::vector<NodeId> remap(static_cast<std::size_t>(graph.num_nodes), kNoNode);
  NodeId next_id = 0;
  for (NodeId v = 0; v < graph.num_nodes; ++v) {
    if (labels[v] == keep) remap[v] = next_id++;
  }
  EdgeList out;
  out.num_nodes = next_id;
  out.edges.reserve(graph.edges.size());
  for (const Edge& e : graph.edges) {
    if (labels[e.u] == keep) out.edges.push_back({remap[e.u], remap[e.v]});
  }
  return out;
}

EdgeList canonicalize(const device::Context& ctx, const EdgeList& graph) {
  const std::size_t m = graph.edges.size();
  EdgeList out;
  out.num_nodes = graph.num_nodes;
  if (m == 0) return out;
  // Self-loops and out-of-range endpoints map to a sentinel that sorts past
  // every real key, so one sort groups rejects at the back and duplicates
  // (in either orientation) adjacently; compaction keeps each run's first.
  constexpr std::uint64_t kDropped = ~std::uint64_t{0};
  std::vector<std::uint64_t> keys(m);
  device::transform(ctx, m, keys.data(), [&](std::size_t e) {
    const Edge edge = graph.edges[e];
    if (!edge_valid(edge.u, edge.v, graph.num_nodes)) return kDropped;
    return edge_key(edge.u, edge.v);
  });
  device::sort_keys(ctx, keys.data(), m);
  std::vector<EdgeId> first(m);
  const std::size_t kept = device::copy_if_index(
      ctx, m,
      [&](std::size_t i) {
        return keys[i] != kDropped && (i == 0 || keys[i] != keys[i - 1]);
      },
      first.data());
  out.edges.resize(kept);
  device::transform(ctx, kept, out.edges.data(), [&](std::size_t i) {
    const std::uint64_t k = keys[first[i]];
    return Edge{static_cast<NodeId>(k >> 32),
                static_cast<NodeId>(k & 0xffffffffULL)};
  });
  return out;
}

EdgeList simplified(const EdgeList& graph) {
  return canonicalize(device::Context::sequential(), graph);
}

namespace {

/// Sequential BFS returning (farthest node, its distance). Used only for
/// diameter estimation during dataset preparation.
std::pair<NodeId, NodeId> bfs_farthest(const Csr& graph, NodeId source,
                                       std::vector<NodeId>& dist) {
  std::fill(dist.begin(), dist.end(), kNoNode);
  std::vector<NodeId> frontier{source};
  dist[source] = 0;
  NodeId far_node = source;
  NodeId far_dist = 0;
  std::vector<NodeId> next;
  while (!frontier.empty()) {
    next.clear();
    for (const NodeId u : frontier) {
      for (EdgeId i = graph.row_offsets[u]; i < graph.row_offsets[u + 1]; ++i) {
        const NodeId v = graph.neighbors[i];
        if (dist[v] == kNoNode) {
          dist[v] = dist[u] + 1;
          if (dist[v] > far_dist) {
            far_dist = dist[v];
            far_node = v;
          }
          next.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  return {far_node, far_dist};
}

}  // namespace

NodeId estimate_diameter(const Csr& graph, int sweeps, std::uint64_t seed) {
  if (graph.num_nodes == 0) return 0;
  util::Rng rng(seed);
  std::vector<NodeId> dist(static_cast<std::size_t>(graph.num_nodes));
  NodeId best = 0;
  NodeId start = static_cast<NodeId>(
      rng.below(static_cast<std::uint64_t>(graph.num_nodes)));
  for (int s = 0; s < sweeps; ++s) {
    const auto [far_node, far_dist] = bfs_farthest(graph, start, dist);
    best = std::max(best, far_dist);
    start = far_node;  // double-sweep: restart from the farthest node found
  }
  return best;
}

}  // namespace emc::graph
