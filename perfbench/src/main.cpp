// emc benchmark driver: one workload per process.
//
//   emc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--git-sha <sha>] [--trace-out <path>]
//
// Prints a provenance block ("# " lines), then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 if
// any answer was wrong or any operation failed, 2 on a usage or environment
// error (unknown workload, non-Release build, armed failpoint).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <algorithm>

#include <malloc.h>
#include <unistd.h>

#include "engine/engine.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace emc;

// Rates are frozen, far below the capacity measured when the benchmark was
// defined (README.md, "Rates"). Changing them re-baselines every metric.
const WorkloadSpec kWorkloads[] = {
    {"road", GraphKind::kRoadRibbon, GraphKind::kRoadGrid, false, 100, 24, 0.45},
    {"kron", GraphKind::kKron, GraphKind::kKronServe, false, 300, 24, 0.45},
    {"shard", GraphKind::kRoadSquare, GraphKind::kRoadGrid, true, 1000, 40, 0.45},
};

constexpr int kSetupReps = 3;

// glibc raises its mmap threshold each time a large mmapped block is freed,
// up to 32 MiB, with the trim threshold at twice that. A long-running
// process settles there; a fresh one drifts towards it over its first
// seconds of large allocations, and the kernels slow by up to 2x while it
// does (a 2^20-pair LcaBatch on the 512x512 grid took 88 ms, then 40 ms
// three seconds later). Fixing both at the settled values starts every run
// where a long-running process ends up.
constexpr int kMmapThreshold = 32 << 20;
constexpr int kTrimThreshold = 64 << 20;

int usage(const char* why) {
  std::fprintf(stderr,
               "emc_perfbench: %s\nusage: emc_perfbench --workload <%s> "
               "--seed <n> --seconds <s> --trace <0|1> [--git-sha <sha>] "
               "[--trace-out <path>]\n",
               why, workload_names().c_str());
  return 2;
}

void print_provenance(const RunConfig& config, const engine::Engine& engine,
                      const std::string& git_sha) {
  std::printf("# workload %s seed %llu seconds %g trace %d\n",
              config.spec->name, static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0);
  std::printf("# nproc %u (online %ld)\n", std::thread::hardware_concurrency(),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# workers: device %u, multicore %u, dispatcher 2, sharded "
              "4 shards x (1 dispatcher, 1 device) + 2 facade\n",
              engine.device().workers(), engine.multicore().workers());
  std::printf("# open-loop reads %g/s, writes %g/s\n", config.spec->read_rate,
              config.spec->write_rate);
  std::printf("# malloc: mmap threshold %d MiB, trim threshold %d MiB, fixed\n",
              kMmapThreshold >> 20, kTrimThreshold >> 20);
  std::printf("# launch latency %.1f us\n",
              engine.device().launch_overhead() * 1e6);
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "EMC_", 4) == 0) std::printf("# env %s\n", *env);
  }
  std::printf("# build %s, compiler %s, git %s\n", PERFBENCH_BUILD_TYPE,
              __VERSION__, git_sha.c_str());
}

/// CPU time stolen from this machine by its host, and total CPU time, in
/// clock ticks since boot (/proc/stat); a noisy neighbour shows as steal.
std::pair<double, double> steal_and_total_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  double v[10] = {};
  const int got = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7], &v[8], &v[9]);
  std::fclose(f);
  double total = 0;
  for (int i = 0; i < std::max(got, 0); ++i) total += v[i];
  return {got >= 8 ? v[7] : 0, total};
}

void print_graph(const char* role, GraphKind kind, engine::Engine& engine,
                 const graph::EdgeList& g) {
  engine::Session session = engine.session(g);
  std::printf("# %s graph: %s, n %d, m %zu, diameter estimate %d\n", role,
              graph_label(kind), g.num_nodes, g.num_edges(),
              session.diameter_estimate());
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += '|';
    names += spec.name;
  }
  return names;
}

int run(int argc, char** argv) {
  RunConfig config;
  std::string workload, git_sha = "unknown";
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  std::optional<int> trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--trace-out") {
      config.trace_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags come in pairs");
  config.spec = find_workload(workload);
  if (config.spec == nullptr) return usage("unknown --workload");
  if (!seed || !seconds || !trace || *seconds <= 0 || (*trace != 0 && *trace != 1)) {
    return usage("--seed, --seconds (> 0) and --trace (0|1) are required");
  }
  config.seed = *seed;
  config.seconds = *seconds;
  config.trace = *trace == 1;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "emc_perfbench: refusing a %s build; build Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  if (std::getenv("EMC_FAILPOINT") != nullptr) {
    std::fprintf(stderr, "emc_perfbench: refusing to run with EMC_FAILPOINT set\n");
    return 2;
  }
  const WorkloadSpec& spec = *config.spec;

  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, kTrimThreshold);

  // Inputs come from the seed before any timer starts.
  util::Timer wall;
  const auto [steal0, total0] = steal_and_total_ticks();
  const graph::EdgeList kernel_graph = make_graph(spec.kernel_graph, config.seed);
  const graph::EdgeList serve_graph = make_graph(spec.serve_graph, config.seed);

  const double gen_s = wall.seconds();
  Tracer tracer(config.trace);
  Result result;

  // Set-up: Engine, Session, csr and forest, repeated; the last one serves.
  std::vector<double> kernel_setup;
  std::unique_ptr<engine::Engine> engine;
  std::optional<engine::Session> session;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    engine.reset();
    util::Timer timer;
    engine = std::make_unique<engine::Engine>();
    session.emplace(engine->session(kernel_graph));
    prepare_kernel_session(*session);
    kernel_setup.push_back(timer.seconds());
  }

  const engine::EngineStats before = engine->stats();
  const KernelAnswers answers =
      run_kernel_phase(config, *engine, *session, kernel_graph,
                       config.seconds * spec.kernel_share, tracer, result);
  const double serve_setup =
      run_serving_phase(config, *engine, serve_graph,
                        config.seconds * (1 - spec.kernel_share), kSetupReps, tracer,
                        result);
  const engine::EngineStats after = engine->stats();
  result.set("setup_s", median(kernel_setup) + serve_setup);
  result.set("peak_rss_mb", peak_rss_mb());
  const auto delta = [](std::size_t a, std::size_t b) {
    return static_cast<double>(b - a);
  };
  result.set("engine.host_query_batches",
             delta(before.host_query_batches, after.host_query_batches));
  result.set("engine.device_query_batches",
             delta(before.device_query_batches, after.device_query_batches));
  result.set("engine.host_fallbacks",
             delta(before.host_fallbacks, after.host_fallbacks));
  result.set("engine.artifact_builds",
             delta(before.artifact_builds, after.artifact_builds));
  result.set("engine.artifact_hits",
             delta(before.artifact_hits, after.artifact_hits));

  // Checks run after peak_rss_mb is read, so references do not count.
  const double measured_s = wall.seconds();
  check_kernel_answers(answers, config.seed, result);
  const double checked_s = wall.seconds();

  print_provenance(config, *engine, git_sha);
  print_graph("kernel", spec.kernel_graph, *engine, kernel_graph);
  print_graph("serving", spec.serve_graph, *engine, serve_graph);
  const auto [steal1, total1] = steal_and_total_ticks();
  std::printf("# cpu steal during the run: %.1f%%\n",
              total1 > total0 ? 100 * (steal1 - steal0) / (total1 - total0) : 0.0);
  std::printf("# wall: inputs %.1f s, set-up and phases %.1f s, checks %.1f s\n",
              gen_s, measured_s - gen_s, checked_s - measured_s);
  for (const std::string& what : result.mismatches) {
    std::printf("# MISMATCH %s\n", what.c_str());
  }
  std::string error;
  if (config.trace) {
    // The traced run's own end-to-end figures, for the tracing overhead.
    std::printf("# traced end-to-end %s\n",
                result.json_line(end_to_end_metrics(), true, nullptr).c_str());
    if (!config.trace_path.empty() && !tracer.write(config.trace_path)) {
      std::fprintf(stderr, "emc_perfbench: cannot write %s\n",
                   config.trace_path.c_str());
    }
  }
  const std::string line = result.json_line(
      config.trace ? per_layer_metrics() : end_to_end_metrics(), config.trace,
      &error);
  if (!error.empty()) {
    std::fprintf(stderr, "emc_perfbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
