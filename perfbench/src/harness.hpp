// Measurement plumbing for the emc benchmark: the metric registry, the
// percentile rule, the open-loop arrival schedule, the span tracer and the
// result line. Nothing here calls into the library; the workloads do.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ registry

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, reported by every workload when tracing is off.
/// Must match the end_to_end list of BENCHMARK.json (the tests check it).
const std::vector<MetricSpec>& end_to_end_metrics();

/// Every per-layer metric, reported by every workload when tracing is on; a
/// layer a workload does not run reads 0. Must match BENCHMARK.json.
const std::vector<MetricSpec>& per_layer_metrics();

// ---------------------------------------------------------- statistics

double median(std::vector<double> values);

/// Of repeated measurements of one quantity within a run, the quartile
/// nearest the undisturbed value. Interference (CPU steal by the host, a
/// descheduled worker) only ever adds time, so a duration is reported as
/// its lower quartile and a rate as its upper one: nearest rank, the
/// floor(n/4)-th value from the good end (the best one below four samples).
double lower_quartile(std::vector<double> values);
double upper_quartile(std::vector<double> values);

/// A latency percentile under the benchmark's rule: the requested quantile,
/// lowered until at least `min_beyond` samples lie strictly above the
/// reported rank, so a tail figure never rests on fewer than ten samples.
struct Percentile {
  double value = 0.0;
  double quantile = 0.0;  // the quantile actually reported, in (0, 1]
  std::size_t samples = 0;
};
Percentile tail_percentile(std::vector<double> values, double want,
                           std::size_t min_beyond = 10);

// ------------------------------------------------------------ open loop

/// Poisson arrival times for an open-loop client: request i is due at
/// start + the sum of i exponential gaps of mean 1/rate. A request is timed
/// from its due time, not from when the generator got round to sending it,
/// so a stall charges its wait to every request queued behind it.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_per_s, std::uint64_t seed, Clock::time_point start);

  /// Due time of the next request (advances the schedule).
  Clock::time_point next();

 private:
  double mean_gap_s_;
  emc::util::Rng rng_;
  Clock::time_point start_;
  double offset_s_ = 0.0;
};

/// How late an open-loop generator ran: sent - due, clamped at 0, in ms.
inline double lateness_ms(Clock::time_point due, Clock::time_point sent) {
  const double ms = seconds_between(due, sent) * 1e3;
  return ms > 0.0 ? ms : 0.0;
}

// --------------------------------------------------------------- tracer

/// One recorded call into the library: name, interval, parent span, and the
/// counter deltas across it (device launches and the engine's stats).
struct SpanRecord {
  std::string name;
  double start_s = 0.0;  // since the tracer was created
  double end_s = 0.0;
  int parent = -1;  // index into the span list, -1 at top level
  std::map<std::string, double> deltas;
  double seconds() const { return end_s - start_s; }
};

/// Keeps spans in memory and writes them out once at exit. When disabled a
/// Span costs one branch, so the untraced run measures the library alone.
class Tracer {
 public:
  using CounterFn = std::map<std::string, double> (*)(const void* source);

  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }

  /// RAII span. `source` is sampled through `counters` at open and close;
  /// the difference lands in SpanRecord::deltas.
  class Span {
   public:
    Span(Tracer& tracer, std::string name, const void* source = nullptr,
         CounterFn counters = nullptr);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    int index_ = -1;
    const void* source_ = nullptr;
    CounterFn counters_ = nullptr;
    std::map<std::string, double> before_;
  };

  /// Records an already-measured interval (phases a PhaseTimer reported
  /// from inside one call) as a child of the innermost open span.
  void record(const std::string& name, double seconds);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Median duration / delta over every span called `name` (0 if none).
  double median_seconds(const std::string& name) const;
  double median_delta(const std::string& name, const std::string& key) const;

  /// Writes the spans as a JSON array; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;  // stack of open span indices (driver thread)
};

// --------------------------------------------------------------- result

/// The metrics of one run plus the operation ledger; prints the final line.
struct Result {
  std::map<std::string, double> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> mismatches;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void fail(const std::string& what) {
    ++failed;
    if (mismatches.size() < 32) mismatches.push_back(what);
  }
  /// Checks an answer; a wrong one counts as a failed operation.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly the metrics of `specs` (missing ones are an error, reported
  /// through the return value and the line's "correct").
  std::string json_line(const std::vector<MetricSpec>& specs,
                        bool missing_reads_zero, std::string* error) const;
};

/// Peak resident set size of this process so far, MiB (VmHWM).
double peak_rss_mb();

}  // namespace perfbench
