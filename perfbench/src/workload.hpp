// The benchmark's workloads: what each runs, and the two phases every
// workload shares (the paper's kernels on a static graph, then serving
// under write churn).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"

namespace perfbench {

enum class GraphKind {
  kRoadRibbon,  // road_graph(8192, 128): the paper's hard, high-diameter input
  kKron,        // kron_graph(19, 16): the paper's easy, low-diameter input
  kRoadSquare,  // road_graph(1024, 1024): between the two in diameter
  kRoadGrid,    // road_graph(512, 512): the serving graph
  kKronServe,   // kron_graph(16, 16): the low-diameter serving graph
};

struct WorkloadSpec {
  const char* name;
  GraphKind kernel_graph;  // static input of the kernel phase
  GraphKind serve_graph;   // initial graph of the serving phase
  // K=4 ShardedGraph with uniform read endpoints, instead of one Dispatcher
  // with Zipf(1)-skewed ones.
  bool sharded;
  // Frozen rates, far below the capacity measured when the benchmark was
  // defined (README.md, "Rates").
  double read_rate;   // requests/s
  double write_rate;  // updates/s
  // Share of --seconds given to the kernel phase; serving gets the rest.
  double kernel_share;
};

/// The workloads, by name; nullptr if unknown.
const WorkloadSpec* find_workload(const std::string& name);
std::string workload_names();

struct RunConfig {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;  // measured time, split between the two phases
  bool trace = false;
  std::string trace_path;
};

/// Generates a workload graph from the seed (canonical simple form; the
/// batch inputs are reduced to their largest component as in the paper).
emc::graph::EdgeList make_graph(GraphKind kind, std::uint64_t seed);
const char* graph_label(GraphKind kind);

/// Counter sampler for spans around engine calls.
std::map<std::string, double> engine_counters(const void* engine);

/// Parent walk on a View's spanning forest, each component rooted at its
/// representative as the engine roots it: the LcaBatch reference.
class ForestWalk {
 public:
  explicit ForestWalk(const emc::engine::View& view);
  emc::NodeId lca(emc::NodeId u, emc::NodeId v) const;

 private:
  std::vector<emc::NodeId> component_, parent_, depth_;
};

/// What the kernel phase answered, kept for checking after the measured
/// phases (so the references do not count towards peak_rss_mb).
struct KernelAnswers {
  const emc::graph::EdgeList* graph = nullptr;
  emc::engine::View view;
  emc::bridges::BridgeMask mask_tv, mask_ck, mask_dfs;
  emc::engine::LcaBatch lca_request;
  std::vector<emc::NodeId> lca;
  emc::engine::Same2Ecc same2ecc_request;
  std::vector<std::uint8_t> same2ecc;
  emc::engine::SameBcc samebcc_request;
  std::vector<std::uint8_t> samebcc;
  emc::engine::CcMembership cc_request;
  std::vector<emc::NodeId> cc;
  emc::engine::BridgesOnPath path_request;
  std::vector<emc::NodeId> paths;
  emc::engine::BfsLevels bfs_request;
  std::vector<emc::NodeId> bfs;
};

/// Timed set-up of the kernel phase: csr() and the spanning forest.
void prepare_kernel_session(emc::engine::Session& session);

/// Kernel phase: Bridges per backend, cold LcaBatch, cold view, warm bulk
/// batches and BfsLevels on `graph`, repeated for `seconds` after one
/// warm-up pass. Sets the kernel end-to-end metrics (lower quartiles of the
/// call times;
/// for a sharded workload all but publish_s and query_mpairs_s, which the
/// serving phase measures through the sharded stack) and, when tracing,
/// the per-layer ones.
KernelAnswers run_kernel_phase(const RunConfig& config,
                               emc::engine::Engine& engine,
                               emc::engine::Session& session,
                               const emc::graph::EdgeList& graph,
                               double seconds, Tracer& tracer, Result& result);

/// Checks the kernel answers against sequential references: the three
/// bridge masks agree, sampled LCAs match a parent walk on the forest,
/// Same2Ecc/BridgesOnPath/CcMembership match the reference oracle,
/// SameBcc/Articulations match Hopcroft-Tarjan, BfsLevels a host BFS.
void check_kernel_answers(const KernelAnswers& answers, std::uint64_t seed,
                          Result& result);

/// Serving phase (open loop, then closed loop, under a write stream) on a
/// dynamic copy of `initial`. Builds the serving stack `setup_reps` times
/// and returns the median set-up time; then serves for `seconds`, quiesces,
/// checks a final-state burst against a fresh static Session, and asserts
/// the Dispatcher and Ingestor ledgers. A sharded workload first measures
/// publish_s and query_mpairs_s through the sharded stack.
double run_serving_phase(const RunConfig& config, emc::engine::Engine& engine,
                         const emc::graph::EdgeList& initial, double seconds,
                         int setup_reps, Tracer& tracer, Result& result);

}  // namespace perfbench
