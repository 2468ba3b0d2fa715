#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

// ------------------------------------------------------------ registry

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"bridges_tv_s", "s"},
      {"bridges_ck_s", "s"},
      {"bridges_dfs_s", "s"},
      {"lca_s", "s"},
      {"publish_s", "s"},
      {"query_mpairs_s", "Mpairs/s"},
      {"bfs_pairs_s", "pairs/s"},
      {"saturated_rps", "1/s"},
      {"visible_p99_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // device: launches, modelled launch charge and kernel-body time per op.
      {"device.launches.bridges_tv", "count"},
      {"device.launch_charge_s.bridges_tv", "s"},
      {"device.body_s.bridges_tv", "s"},
      {"device.launches.bridges_ck", "count"},
      {"device.launch_charge_s.bridges_ck", "s"},
      {"device.body_s.bridges_ck", "s"},
      {"device.launches.lca", "count"},
      {"device.launch_charge_s.lca", "s"},
      {"device.body_s.lca", "s"},
      {"device.launches.view", "count"},
      {"device.launch_charge_s.view", "s"},
      {"device.body_s.view", "s"},
      {"device.launches.query", "count"},
      {"device.launch_charge_s.query", "s"},
      {"device.body_s.query", "s"},
      {"device.launches.bfs", "count"},
      {"device.launch_charge_s.bfs", "s"},
      {"device.body_s.bfs", "s"},
      // PhaseTimer phases of one Bridges request, filed by owning module.
      {"bridges.spanning_tree_s.tv", "s"},
      {"core.euler_tour_s.tv", "s"},
      {"bridges.detect_bridges_s.tv", "s"},
      {"bridges.bfs_s.ck", "s"},
      {"bridges.mark_non_bridges_s.ck", "s"},
      // One Euler tour of the spanning forest, by phase.
      {"core.dcel_expand_s", "s"},
      {"core.dcel_sort_s", "s"},
      {"core.dcel_next_s", "s"},
      {"core.tour_link_s", "s"},
      {"listrank.list_ranking_s", "s"},
      {"core.tour_array_s", "s"},
      {"core.tree_stats_s", "s"},
      {"rmq.sparse_table_build_s", "s"},
      {"lca.build_s", "s"},
      {"lca.inlabel_numbers_s", "s"},
      {"lca.query_ns", "ns"},
      {"graph.csr_s", "s"},
      {"bcc.index_build_s", "s"},
      {"engine.run_s.same2ecc", "s"},
      {"engine.run_s.lca", "s"},
      {"engine.run_s.samebcc", "s"},
      {"engine.run_s.ccmembership", "s"},
      {"engine.run_s.bridgesonpath", "s"},
      {"engine.run_s.bfslevels", "s"},
      {"engine.host_query_batches", "count"},
      {"engine.device_query_batches", "count"},
      {"engine.host_fallbacks", "count"},
      {"engine.artifact_builds", "count"},
      {"engine.artifact_hits", "count"},
      {"engine.publish_replays", "count"},
      {"engine.publish_rebuilds", "count"},
      {"engine.publish_s.replay", "s"},
      {"engine.publish_s.rebuild", "s"},
      {"dynamic.effective_frac", "frac"},
      {"dynamic.oracle_incremental", "count"},
      {"dynamic.oracle_rebuilds", "count"},
      {"ingest.visible_p50_ms", "ms"},
      {"ingest.queue_wait_ms.p50", "ms"},
      {"ingest.queue_wait_ms.p99", "ms"},
      {"ingest.batches", "count"},
      {"ingest.batch_size_mean", "count"},
      {"ingest.erase_batches", "count"},
      {"ingest.max_queue_depth", "count"},
      {"ingest.lag_max", "count"},
      {"serve.query_p50_ms", "ms"},
      {"serve.query_p99_ms", "ms"},
      {"serve.rounds", "count"},
      {"serve.round_size_mean", "count"},
      {"serve.dedup_frac", "frac"},
      {"serve.max_queue_depth", "count"},
      {"serve.stale_served", "count"},
      {"serve.gen_late_ms.p50", "ms"},
      {"serve.gen_late_ms.p99", "ms"},
      {"shard.stitch_builds", "count"},
      {"shard.stitch_hits", "count"},
      {"shard.stitch_s", "s"},
      {"shard.boundary_applied", "count"},
      {"shard.max_staleness", "count"},
      {"shard.unsupported", "count"},
  };
  return specs;
}

// ---------------------------------------------------------- statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double lower_quartile(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 4];
}

double upper_quartile(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() - 1 - values.size() / 4];
}

Percentile tail_percentile(std::vector<double> values, double want,
                           std::size_t min_beyond) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Nearest rank: the q-quantile is the ceil(q*n)-th smallest sample.
  auto rank = static_cast<std::size_t>(std::ceil(want * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  // Samples strictly beyond rank r are n - r; keep at least min_beyond.
  if (n - rank < min_beyond) rank = n > min_beyond ? n - min_beyond : 1;
  out.value = values[rank - 1];
  out.quantile = static_cast<double>(rank) / static_cast<double>(n);
  return out;
}

// ------------------------------------------------------------ open loop

OpenLoopSchedule::OpenLoopSchedule(double rate_per_s, std::uint64_t seed,
                                   Clock::time_point start)
    : mean_gap_s_(1.0 / rate_per_s), rng_(seed), start_(start) {}

Clock::time_point OpenLoopSchedule::next() {
  // Inverse-CDF exponential gap; 1 - u lies in (0, 1], so the log is finite.
  offset_s_ += -std::log(1.0 - rng_.uniform()) * mean_gap_s_;
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset_s_));
}

// --------------------------------------------------------------- tracer

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Tracer::Span::Span(Tracer& tracer, std::string name, const void* source,
                   CounterFn counters) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  source_ = source;
  counters_ = counters;
  if (counters_ != nullptr) before_ = counters_(source_);
  SpanRecord record;
  record.name = std::move(name);
  record.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  record.start_s = seconds_between(tracer.origin_, Clock::now());
  index_ = static_cast<int>(tracer.spans_.size());
  tracer.spans_.push_back(std::move(record));
  tracer.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  SpanRecord& record = tracer_->spans_[index_];
  record.end_s = seconds_between(tracer_->origin_, Clock::now());
  if (counters_ != nullptr) {
    for (const auto& [key, after] : counters_(source_)) {
      record.deltas[key] = after - before_[key];
    }
  }
  tracer_->open_.pop_back();
}

void Tracer::record(const std::string& name, double seconds) {
  if (!enabled_) return;
  SpanRecord record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  record.end_s = seconds_between(origin_, Clock::now());
  record.start_s = record.end_s - seconds;
  spans_.push_back(std::move(record));
}

double Tracer::median_seconds(const std::string& name) const {
  std::vector<double> values;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) values.push_back(s.seconds());
  }
  return median(std::move(values));
}

double Tracer::median_delta(const std::string& name,
                            const std::string& key) const {
  std::vector<double> values;
  for (const SpanRecord& s : spans_) {
    if (s.name != name) continue;
    const auto it = s.deltas.find(key);
    values.push_back(it == s.deltas.end() ? 0.0 : it->second);
  }
  return median(std::move(values));
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "  {\"name\": \"" << s.name << "\", \"parent\": " << s.parent;
    std::snprintf(buf, sizeof buf, "%.9f", s.start_s);
    out << ", \"start_s\": " << buf;
    std::snprintf(buf, sizeof buf, "%.9f", s.end_s);
    out << ", \"end_s\": " << buf << ", \"deltas\": {";
    bool first = true;
    for (const auto& [key, value] : s.deltas) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
      out << (first ? "" : ", ") << '"' << key << "\": " << buf;
      first = false;
    }
    out << "}}" << (i + 1 < spans_.size() ? "," : "") << '\n';
  }
  out << "]\n";
  return static_cast<bool>(out);
}

// --------------------------------------------------------------- result

std::string Result::json_line(const std::vector<MetricSpec>& specs,
                              bool missing_reads_zero,
                              std::string* error) const {
  std::ostringstream out;
  std::string missing;
  out << "{\"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max<std::size_t>(attempted, 1)
      << ", \"failed\": " << failed << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = metrics.find(specs[i].name);
    double value = 0.0;
    if (it != metrics.end()) {
      value = it->second;
    } else if (!missing_reads_zero) {
      missing += std::string(missing.empty() ? "" : ", ") + specs[i].name;
    }
    if (!std::isfinite(value)) value = 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out << (i == 0 ? "" : ", ") << '"' << specs[i].name << "\": {\"value\": "
        << buf << ", \"unit\": \"" << specs[i].unit << "\"}";
  }
  out << "}}";
  if (error != nullptr) {
    *error = missing.empty() ? "" : "metrics not measured: " + missing;
  }
  return out.str();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
