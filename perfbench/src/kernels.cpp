// Kernel phase: the paper's computations on one static graph, timed the way
// the paper times them (input preparation outside the timer), plus the
// per-layer calls of the traced run and the answer checks.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <utility>

#include "bridges/stitch.hpp"
#include "core/euler_tour.hpp"
#include "gen/graphs.hpp"
#include "lca/inlabel.hpp"
#include "rmq/segment_tree.hpp"
#include "rmq/sparse_table.hpp"
#include "support/reference.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace emc;

namespace {

constexpr std::size_t kBulkItems = std::size_t{1} << 20;
constexpr std::size_t kBfsPairs = 4096;
constexpr std::size_t kBfsSources = 4;

std::vector<std::pair<NodeId, NodeId>> uniform_pairs(util::Rng& rng, NodeId n,
                                                     std::size_t count) {
  std::vector<std::pair<NodeId, NodeId>> pairs(count);
  for (auto& [u, v] : pairs) {
    u = static_cast<NodeId>(rng.below(n));
    v = static_cast<NodeId>(rng.below(n));
  }
  return pairs;
}

/// The spanning forest stitched below a virtual root n, one edge per
/// component representative: the tree the engine's forest LCA indexes.
graph::EdgeList rooted_forest_tree(const device::Context& ctx,
                                   const graph::EdgeList& graph,
                                   const bridges::SpanningForest& forest) {
  graph::EdgeList tree;
  tree.num_nodes = graph.num_nodes + 1;
  tree.edges.reserve(forest.tree_edges.size() + forest.num_components);
  for (const EdgeId e : forest.tree_edges) tree.edges.push_back(graph.edges[e]);
  for (const NodeId rep : bridges::component_representatives(ctx, forest)) {
    tree.edges.push_back({graph.num_nodes, rep});
  }
  return tree;
}

/// Records a PhaseTimer's phases as spans, renaming the ones a per-layer
/// metric reads (phase -> metric name); others keep "<prefix>.<phase>".
void record_phases(Tracer& tracer, const util::PhaseTimer& phases,
                   const std::string& prefix,
                   const std::map<std::string, std::string>& rename) {
  for (const auto& [phase, seconds] : phases.phases()) {
    const auto it = rename.find(phase);
    tracer.record(it != rename.end() ? it->second : prefix + "." + phase,
                  seconds);
  }
}

/// Direct calls into core, listrank, rmq and lca on the kernel graph's
/// spanning forest (traced run only).
void trace_tree_layers(const engine::Engine& engine, const engine::View& view,
                       const graph::EdgeList& graph, Tracer& tracer) {
  const device::Context& ctx = engine.device();
  const graph::EdgeList tree = rooted_forest_tree(ctx, graph, view.forest());
  const NodeId root = graph.num_nodes;
  {
    util::PhaseTimer phases;
    Tracer::Span span(tracer, "core.euler_tour", &engine, engine_counters);
    const core::EulerTour tour = core::build_euler_tour(
        ctx, tree, root, core::RankAlgo::kWeiJaja, &phases);
    const core::TreeStats stats = core::compute_tree_stats(ctx, tour, &phases);
    record_phases(tracer, phases, "core",
                  {{"dcel_expand", "core.dcel_expand_s"},
                   {"dcel_sort", "core.dcel_sort_s"},
                   {"dcel_next", "core.dcel_next_s"},
                   {"tour_link", "core.tour_link_s"},
                   {"list_ranking", "listrank.list_ranking_s"},
                   {"tour_array", "core.tour_array_s"},
                   {"tree_stats", "core.tree_stats_s"}});
    util::Timer timer;
    const rmq::SparseTable<NodeId, rmq::MinOp> table(ctx, stats.preorder);
    tracer.record("rmq.sparse_table_build_s", timer.seconds());
  }
  util::PhaseTimer phases;
  util::Timer timer;
  const lca::InlabelLca index =
      lca::InlabelLca::build_from_edges(ctx, tree, root, &phases);
  tracer.record("lca.build_s", timer.seconds());
  record_phases(tracer, phases, "lca",
                {{"inlabel_numbers", "lca.inlabel_numbers_s"}});
  util::Rng rng(0x1ca);
  const auto queries = uniform_pairs(rng, graph.num_nodes, kBulkItems);
  std::vector<NodeId> answers;
  timer.reset();
  index.query_batch(ctx, queries, answers);
  tracer.record("lca.query_per_item",
                timer.seconds() / static_cast<double>(kBulkItems));
}

}  // namespace

std::map<std::string, double> engine_counters(const void* source) {
  const auto& engine = *static_cast<const engine::Engine*>(source);
  const engine::EngineStats stats = engine.stats();
  return {
      {"launches", static_cast<double>(engine.device_launches())},
      {"artifact_builds", static_cast<double>(stats.artifact_builds)},
      {"artifact_hits", static_cast<double>(stats.artifact_hits)},
      {"device_query_batches", static_cast<double>(stats.device_query_batches)},
      {"host_query_batches", static_cast<double>(stats.host_query_batches)},
      {"host_fallbacks", static_cast<double>(stats.host_fallbacks)},
  };
}

void prepare_kernel_session(engine::Session& session) {
  session.csr();
  session.num_components();  // builds the spanning forest
}

KernelAnswers run_kernel_phase(const RunConfig& config, engine::Engine& engine,
                               engine::Session& session,
                               const graph::EdgeList& graph, double seconds,
                               Tracer& tracer, Result& result) {
  KernelAnswers out;
  out.graph = &graph;
  const NodeId n = graph.num_nodes;
  util::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 17);
  out.lca_request.pairs = uniform_pairs(rng, n, kBulkItems);
  out.same2ecc_request.pairs = uniform_pairs(rng, n, kBulkItems);
  out.samebcc_request.pairs = uniform_pairs(rng, n, kBulkItems);
  out.path_request.pairs = uniform_pairs(rng, n, kBulkItems);
  out.cc_request.nodes.resize(kBulkItems);
  for (NodeId& v : out.cc_request.nodes) v = static_cast<NodeId>(rng.below(n));
  NodeId sources[kBfsSources];
  for (NodeId& s : sources) s = static_cast<NodeId>(rng.below(n));
  out.bfs_request.pairs.resize(kBfsPairs);
  for (std::size_t i = 0; i < kBfsPairs; ++i) {
    out.bfs_request.pairs[i] = {sources[i % kBfsSources],
                                static_cast<NodeId>(rng.below(n))};
  }

  const struct {
    const char* label;
    engine::Backend backend;
  } backends[] = {{"tv", engine::Backend::kTv},
                  {"ck", engine::Backend::kCk},
                  {"dfs", engine::Backend::kDfs}};
  std::map<std::string, std::vector<double>> samples;
  const double overhead = engine.device().launch_overhead();

  // Pass 0 is a warm-up (first calls run up to 1.6x slower) and times one
  // call of each kind; then measured passes until `seconds` is used, at
  // least two. A measured pass repeats each kind of call until it has run
  // for about kTimePerKind, so short calls rest on more samples.
  constexpr double kTimePerKind = 0.25;
  std::map<std::string, double> first_s;
  util::Timer phase_timer;
  for (int pass = 0;; ++pass) {
    const bool measured = pass > 0;
    const auto keep = [&](const char* metric, double value) {
      if (measured) samples[metric].push_back(value);
      first_s.emplace(metric, value);
    };
    const auto reps = [&](const char* metric) {
      if (!measured) return 1;
      return static_cast<int>(std::clamp(
          std::ceil(kTimePerKind / first_s.at(metric)), 1.0, 16.0));
    };
    for (const auto& [label, backend] : backends) {
      const std::string op = std::string("bridges_") + label;
      for (int rep = 0, n = reps((op + "_s").c_str()); rep < n; ++rep) {
        session.drop_results();
        util::PhaseTimer phases;
        util::Timer timer;
        {
          Tracer::Span span(tracer, op, &engine, engine_counters);
          const bridges::BridgeMask& mask = session.run(
              engine::Bridges{tracer.enabled() ? &phases : nullptr},
              engine::Policy::fixed(backend));
          if (pass == 0) {
            (backend == engine::Backend::kTv   ? out.mask_tv
             : backend == engine::Backend::kCk ? out.mask_ck
                                               : out.mask_dfs) = mask;
          }
        }
        keep((op + "_s").c_str(), timer.seconds());
        ++result.attempted;
        record_phases(tracer, phases, "bridges." + std::string(label),
                      {{"spanning_tree", "bridges.spanning_tree_s.tv"},
                       {"euler_tour", "core.euler_tour_s.tv"},
                       {"detect_bridges", "bridges.detect_bridges_s.tv"},
                       {"bfs", "bridges.bfs_s.ck"},
                       {"mark_non_bridges", "bridges.mark_non_bridges_s.ck"}});
      }
    }

    // Inlabel preprocessing on the cached forest plus one 2^20-pair answer.
    for (int rep = 0, n = reps("lca_s"); rep < n; ++rep) {
      session.drop_results();
      util::Timer timer;
      Tracer::Span span(tracer, "lca", &engine, engine_counters);
      out.lca = session.run(out.lca_request);
      keep("lca_s", timer.seconds());
      ++result.attempted;
    }

    // Cold publish: every artifact from scratch, csr and forest included.
    session.drop_artifacts();
    {
      util::Timer timer;
      Tracer::Span span(tracer, "view", &engine, engine_counters);
      out.view = session.view();
      keep("publish_s", timer.seconds());
      ++result.attempted;
    }
    {
      Tracer::Span span(tracer, "bcc.index_build_s", &engine, engine_counters);
      out.view.bcc_index();
    }

    // Warm bulk batches over the family mix, answered by the View.
    for (int rep = 0, n = reps("query_s"); rep < n; ++rep) {
      util::Timer timer;
      Tracer::Span span(tracer, "query", &engine, engine_counters);
      const auto run = [&](const char* name, auto&& call) {
        Tracer::Span family(tracer, std::string("engine.run_s.") + name,
                            &engine, engine_counters);
        call();
        ++result.attempted;
      };
      run("same2ecc", [&] { out.same2ecc = out.view.run(out.same2ecc_request); });
      run("lca", [&] { out.lca = out.view.run(out.lca_request); });
      run("samebcc", [&] { out.samebcc = out.view.run(out.samebcc_request); });
      run("ccmembership", [&] { out.cc = out.view.run(out.cc_request); });
      run("bridgesonpath", [&] { out.paths = out.view.run(out.path_request); });
      keep("query_s", timer.seconds());
    }
    {
      util::Timer timer;
      Tracer::Span span(tracer, "bfs", &engine, engine_counters);
      Tracer::Span family(tracer, "engine.run_s.bfslevels", &engine,
                          engine_counters);
      out.bfs = out.view.run(out.bfs_request);
      keep("bfs_s", timer.seconds());
      ++result.attempted;
    }

    if (tracer.enabled()) {
      engine::Session fresh = engine.session(graph);
      util::Timer timer;
      fresh.csr();
      tracer.record("graph.csr_s", timer.seconds());
      trace_tree_layers(engine, out.view, graph, tracer);
    }
    if (pass >= 2 && phase_timer.seconds() >= seconds) break;
  }

  // Each figure is the lower quartile of its call times, throughputs
  // included; publish and bulk queries of a sharded workload are measured
  // through the sharded stack instead.
  for (const char* metric : {"bridges_tv_s", "bridges_ck_s", "bridges_dfs_s", "lca_s"}) {
    result.set(metric, lower_quartile(samples[metric]));
  }
  result.set("bfs_pairs_s", kBfsPairs / lower_quartile(samples["bfs_s"]));
  if (!config.spec->sharded) {
    result.set("publish_s", lower_quartile(samples["publish_s"]));
    result.set("query_mpairs_s",
               5.0 * kBulkItems / lower_quartile(samples["query_s"]) / 1e6);
  }
  if (tracer.enabled()) {
    for (const char* op : {"bridges_tv", "bridges_ck", "lca", "view", "query",
                           "bfs"}) {
      const double launches = tracer.median_delta(op, "launches");
      const double wall = tracer.median_seconds(op);
      result.set(std::string("device.launches.") + op, launches);
      result.set(std::string("device.launch_charge_s.") + op,
                 launches * overhead);
      result.set(std::string("device.body_s.") + op, wall - launches * overhead);
    }
    for (const auto& spec : per_layer_metrics()) {
      const std::string name = spec.name;
      if (result.metrics.count(name) != 0) continue;
      for (const SpanRecord& s : tracer.spans()) {
        if (s.name == name) {
          result.set(name, tracer.median_seconds(name));
          break;
        }
      }
    }
    result.set("lca.query_ns", tracer.median_seconds("lca.query_per_item") * 1e9);
  }
  return out;
}

ForestWalk::ForestWalk(const engine::View& view) {
  const graph::EdgeList& g = view.edges();
  const bridges::SpanningForest& forest = view.forest();
  const auto n = static_cast<std::size_t>(g.num_nodes);
  std::vector<std::vector<NodeId>> adj(n);
  for (const EdgeId e : forest.tree_edges) {
    adj[g.edges[e].u].push_back(g.edges[e].v);
    adj[g.edges[e].v].push_back(g.edges[e].u);
  }
  component_ = forest.component;
  parent_.assign(n, kNoNode);
  depth_.assign(n, -1);
  const device::Context ctx = device::Context::sequential();
  for (const NodeId rep : bridges::component_representatives(ctx, forest)) {
    std::vector<NodeId> stack{rep};
    depth_[rep] = 0;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId w : adj[u]) {
        if (depth_[w] >= 0) continue;
        depth_[w] = depth_[u] + 1;
        parent_[w] = u;
        stack.push_back(w);
      }
    }
  }
}

NodeId ForestWalk::lca(NodeId u, NodeId v) const {
  if (component_[u] != component_[v]) return kNoNode;
  while (depth_[u] > depth_[v]) u = parent_[u];
  while (depth_[v] > depth_[u]) v = parent_[v];
  while (u != v) u = parent_[u], v = parent_[v];
  return u;
}

void check_kernel_answers(const KernelAnswers& a, std::uint64_t seed,
                          Result& result) {
  const graph::EdgeList& g = *a.graph;
  const device::Context ctx = device::Context::sequential();
  util::Rng rng(seed ^ 0xc4ecc);
  constexpr std::size_t kSamples = 4096;
  const auto sample = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.below(size));
  };

  result.check(a.mask_tv == a.mask_dfs, "bridges: TV mask != DFS mask");
  result.check(a.mask_ck == a.mask_dfs, "bridges: CK mask != DFS mask");

  {
    const ForestWalk walk(a.view);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const std::size_t q = sample(a.lca.size());
      const auto [u, v] = a.lca_request.pairs[q];
      result.check(a.lca[q] == walk.lca(u, v), "LcaBatch answer != parent walk");
    }
  }

  // Same2Ecc / BridgesOnPath / CcMembership against the sequential oracle,
  // and the View's TwoEcc labels against the same partition.
  {
    const test_support::ReferenceOracle ref(ctx, g);
    const engine::TwoEccView labels = a.view.run(engine::TwoEcc{});
    for (std::size_t s = 0; s < kSamples; ++s) {
      const std::size_t q = sample(a.same2ecc.size());
      const auto [u, v] = a.same2ecc_request.pairs[q];
      const bool want = ref.comp[u] == ref.comp[v];
      result.check((a.same2ecc[q] != 0) == want, "Same2Ecc != reference");
      result.check(((*labels.labels)[u] == (*labels.labels)[v]) == want,
                   "TwoEcc labels != reference");
      const std::size_t i = sample(a.cc.size()), j = sample(a.cc.size());
      const NodeId x = a.cc_request.nodes[i], y = a.cc_request.nodes[j];
      result.check((a.cc[i] == a.cc[j]) == (ref.cc[x] == ref.cc[y]),
                   "CcMembership != reference");
    }
    // The reference answers BridgesOnPath by a BFS over the block tree.
    for (std::size_t s = 0; s < 16; ++s) {
      const std::size_t q = sample(a.paths.size());
      const auto [u, v] = a.path_request.pairs[q];
      result.check(a.paths[q] == ref.bridges_on_path(u, v),
                   "BridgesOnPath != reference");
    }
  }

  // SameBcc / Articulations against Hopcroft-Tarjan.
  {
    const test_support::ReferenceBcc ref(g);
    result.check(a.view.run(engine::Articulations{}) == ref.is_articulation,
                 "Articulations != Hopcroft-Tarjan");
    for (std::size_t s = 0; s < kSamples; ++s) {
      const std::size_t q = sample(a.samebcc.size());
      const auto [u, v] = a.samebcc_request.pairs[q];
      const auto& bu = ref.vertex_blocks[u];
      const auto& bv = ref.vertex_blocks[v];
      std::vector<NodeId> common;
      std::set_intersection(bu.begin(), bu.end(), bv.begin(), bv.end(),
                            std::back_inserter(common));
      const bool want = u == v || !common.empty();
      result.check((a.samebcc[q] != 0) == want, "SameBcc != Hopcroft-Tarjan");
    }
  }

  // BfsLevels against a host BFS from each source.
  {
    std::map<NodeId, std::vector<NodeId>> levels;
    for (std::size_t q = 0; q < a.bfs.size(); ++q) {
      const auto [s, t] = a.bfs_request.pairs[q];
      auto it = levels.find(s);
      if (it == levels.end()) {
        it = levels.emplace(s, test_support::bfs_levels(a.view.csr(), s)).first;
      }
      result.check(a.bfs[q] == it->second[t], "BfsLevels != host BFS");
    }
  }
}

// ---------------------------------------------------------------- inputs

emc::graph::EdgeList make_graph(GraphKind kind, std::uint64_t seed) {
  switch (kind) {
    case GraphKind::kRoadRibbon:
      return graph::largest_component(graph::simplified(
          gen::road_graph(8192, 128, 0.72, 0.04, seed)));
    case GraphKind::kKron:
      return graph::largest_component(
          graph::simplified(gen::kron_graph(19, 16, seed)));
    case GraphKind::kRoadSquare:
      return graph::largest_component(graph::simplified(
          gen::road_graph(1024, 1024, 0.72, 0.04, seed)));
    case GraphKind::kRoadGrid:
      return graph::simplified(gen::road_graph(512, 512, 0.72, 0.04, seed));
    case GraphKind::kKronServe:
      return graph::largest_component(
          graph::simplified(gen::kron_graph(16, 16, seed)));
  }
  return {};
}

const char* graph_label(GraphKind kind) {
  switch (kind) {
    case GraphKind::kRoadRibbon:
      return "road_graph(8192,128,0.72,0.04) largest component";
    case GraphKind::kKron:
      return "kron_graph(19,16) simplified, largest component";
    case GraphKind::kRoadSquare:
      return "road_graph(1024,1024,0.72,0.04) largest component";
    case GraphKind::kRoadGrid:
      return "road_graph(512,512,0.72,0.04) simplified";
    case GraphKind::kKronServe:
      return "kron_graph(16,16) simplified, largest component";
  }
  return "";
}

}  // namespace perfbench
