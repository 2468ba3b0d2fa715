// Serving phase: reads served while writes stream in, through the public
// serve/ingest (or shard) front doors, timed from the client's side.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "dynamic/dynamic_graph.hpp"
#include "ingest/ingest.hpp"
#include "serve/serve.hpp"
#include "shard/shard.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace emc;

namespace {

constexpr std::size_t kShards = 4;
constexpr unsigned kFacadeWorkers = 2;
constexpr std::size_t kMinSamples = 8;  // of each sharded kernel measurement
constexpr std::size_t kShardBulkItems = std::size_t{1} << 20;
// Write groups of the sharded write turn: a fixed count, so every run holds
// the same three erase groups (5, 15 and 25), and visible_p99_ms, the sample
// with ten of the 200 above it, falls in the second-slowest group.
constexpr std::size_t kShardWriteGroups = 25;
constexpr std::size_t kClosedLoopOutstanding = 64;
constexpr double kClosedLoopWindowS = 0.5;  // saturated_rps is per window
constexpr double kOpenLoopShare = 0.6;  // of the serving time; closed loop after
constexpr std::size_t kHotSources = 8;
constexpr std::size_t kWriteGroup = 8;  // updates per kind-homogeneous group
constexpr std::size_t kEraseEvery = 10;  // 10% of updates are erases
constexpr NodeId kGridWidth = 512;  // road serving graph, for short-range writes

enum class Family { kSame2Ecc, kLca, kSameBcc, kCc, kPaths, kSize, kBfs };

struct MixEntry {
  Family family;
  double weight;
};

// The read mix. The sharded façade serves no LcaBatch and answers BfsLevels
// kUnsupported, so its mix drops both.
const std::vector<MixEntry> kMix = {
    {Family::kSame2Ecc, 35}, {Family::kLca, 20}, {Family::kSameBcc, 15},
    {Family::kCc, 10},       {Family::kPaths, 10}, {Family::kSize, 5},
    {Family::kBfs, 5}};
const std::vector<MixEntry> kShardMix = {
    {Family::kSame2Ecc, 35}, {Family::kSameBcc, 15}, {Family::kCc, 10},
    {Family::kPaths, 10},    {Family::kSize, 5}};

/// Draws read requests: family by weight, endpoints Zipf(1)-skewed (so the
/// coalescer's dedup finds shared work) or uniform.
class ReadSampler {
 public:
  ReadSampler(const std::vector<MixEntry>& mix, NodeId n, bool zipf,
              std::uint64_t seed)
      : mix_(mix), n_(n), zipf_(zipf), rng_(seed) {
    for (const MixEntry& e : mix_) total_ += e.weight;
    for (NodeId& s : hot_) s = endpoint();
  }

  Family family() {
    double x = rng_.uniform() * total_;
    for (const MixEntry& e : mix_) {
      if ((x -= e.weight) < 0) return e.family;
    }
    return mix_.back().family;
  }

  NodeId endpoint() {
    if (!zipf_) return static_cast<NodeId>(rng_.below(n_));
    // Log-uniform rank approximates Zipf(s=1); an odd multiplier scatters
    // the hot ranks over the id space instead of one corner of the grid.
    const double rank = std::pow(static_cast<double>(n_), rng_.uniform());
    const auto r = static_cast<std::uint64_t>(rank) - 1;
    return static_cast<NodeId>((r * 2654435761ULL) % static_cast<std::uint64_t>(n_));
  }

  NodeId hot_source() { return hot_[rng_.below(kHotSources)]; }

 private:
  std::vector<MixEntry> mix_;
  NodeId n_;
  bool zipf_;
  util::Rng rng_;
  double total_ = 0;
  NodeId hot_[kHotSources]{};
};

/// One request in flight: its due time and a wait that yields the reply
/// status once resolved, blocking until `deadline` at most (a deadline in
/// the past polls).
struct InFlight {
  Clock::time_point due;
  std::function<std::optional<serve::Status>(Clock::time_point deadline)> wait;
};

template <typename Reply>
InFlight in_flight(Clock::time_point due, std::future<Reply> future) {
  auto shared = std::make_shared<std::future<Reply>>(std::move(future));
  return {due, [shared](Clock::time_point deadline) -> std::optional<serve::Status> {
            if (shared->wait_until(deadline) != std::future_status::ready) {
              return std::nullopt;
            }
            return shared->get().status;
          }};
}

template <typename Front>
InFlight submit_read(Front& front, ReadSampler& sampler, Clock::time_point due) {
  const Family family = sampler.family();
  const NodeId u = sampler.endpoint();
  const NodeId v = sampler.endpoint();
  switch (family) {
    case Family::kSame2Ecc:
      return in_flight(due, front.submit(engine::Same2Ecc{{{u, v}}}));
    case Family::kSameBcc:
      return in_flight(due, front.submit(engine::SameBcc{{{u, v}}}));
    case Family::kCc:
      return in_flight(due, front.submit(engine::CcMembership{{u}}));
    case Family::kPaths:
      return in_flight(due, front.submit(engine::BridgesOnPath{{{u, v}}}));
    case Family::kSize:
      return in_flight(due, front.submit(engine::ComponentSize{{u}}));
    case Family::kLca:
    case Family::kBfs:
      break;
  }
  if constexpr (std::is_same_v<Front, serve::Dispatcher>) {
    if (family == Family::kLca) {
      return in_flight(due, front.submit(engine::LcaBatch{{{u, v}}}));
    }
    return in_flight(due,
                     front.submit(engine::BfsLevels{{{sampler.hot_source(), v}}}));
  }
  return in_flight(due, front.submit(engine::Same2Ecc{{{u, v}}}));
}

/// Write-visibility bookkeeping. The producer logs each intra-shard update's
/// submission time; each Ingestor's on_apply hook notes how many queued
/// updates a batch consumed; the publish hook, on the same writer thread,
/// then stamps every update applied since the previous publish as visible.
/// One producer feeds each ring in order, so a batch's updates are the
/// oldest unresolved submissions of its shard. Only updates submitted
/// before `cutoff` (the end of the open-loop phase) are sampled: under the
/// closed loop the reads saturate the machine by design.
class VisibilityLog {
 public:
  explicit VisibilityLog(std::size_t shards) : submitted_(shards) {}

  void set_cutoff(Clock::time_point cutoff) {
    const std::lock_guard<std::mutex> lk(mu_);
    cutoff_ = cutoff;
  }

  void submitted(std::size_t shard, Clock::time_point at) {
    const std::lock_guard<std::mutex> lk(mu_);
    submitted_[shard].push_back(at);
  }

  void applied(const ingest::Batch& batch) {
    const auto now = Clock::now();
    pending_raw() += batch.raw_updates;
    const std::lock_guard<std::mutex> lk(mu_);
    queue_wait_ms_.push_back(seconds_between(batch.oldest, now) * 1e3);
  }

  void published(std::size_t shard, double seconds, bool replay, bool rebuild) {
    const auto now = Clock::now();
    std::size_t& raw = pending_raw();
    const std::lock_guard<std::mutex> lk(mu_);
    if (replay) replay_s_.push_back(seconds);
    if (rebuild) rebuild_s_.push_back(seconds);
    auto& queue = submitted_[shard];
    for (; raw > 0 && !queue.empty(); --raw) {
      if (queue.front() < cutoff_) {
        visible_ms_.push_back(seconds_between(queue.front(), now) * 1e3);
      }
      queue.pop_front();
    }
  }

  std::vector<double> visible_ms() const { return locked(visible_ms_); }
  std::vector<double> queue_wait_ms() const { return locked(queue_wait_ms_); }
  std::vector<double> replay_s() const { return locked(replay_s_); }
  std::vector<double> rebuild_s() const { return locked(rebuild_s_); }

 private:
  /// Updates applied on this writer thread since its last publish.
  static std::size_t& pending_raw() {
    thread_local std::size_t raw = 0;
    return raw;
  }
  std::vector<double> locked(const std::vector<double>& v) const {
    const std::lock_guard<std::mutex> lk(mu_);
    return v;
  }

  mutable std::mutex mu_;
  Clock::time_point cutoff_ = Clock::time_point::max();
  std::vector<std::deque<Clock::time_point>> submitted_;
  std::vector<double> visible_ms_, queue_wait_ms_;
  std::vector<double> replay_s_, rebuild_s_;
};

/// The publish hook: the dispatcher's own retrying publish, timed, with the
/// visibility log told which updates it made visible.
ingest::Ingestor::PublishFn timed_publisher(serve::Dispatcher& dispatcher,
                                            VisibilityLog& log,
                                            std::size_t shard) {
  return [&dispatcher, &log, shard](engine::Session& session) {
    const auto replays = session.publish_replays();
    const auto rebuilds = session.publish_rebuilds();
    util::Timer timer;
    const bool ok = dispatcher.publish(session);
    const double seconds = timer.seconds();
    if (ok) {
      log.published(shard, seconds, session.publish_replays() > replays,
                    session.publish_rebuilds() > rebuilds);
    }
    return ok;
  };
}

/// The host's copy of the live edge set: the source of erases of present
/// edges and of the final-state reference graph.
class EdgeSet {
 public:
  explicit EdgeSet(const graph::EdgeList& initial)
      : num_nodes_(initial.num_nodes) {
    for (const graph::Edge& e : initial.edges) insert(e);
  }

  bool insert(graph::Edge e) {
    const std::uint64_t key = graph::edge_key(e.u, e.v);
    if (index_.count(key) != 0) return false;
    index_.emplace(key, edges_.size());
    edges_.push_back(e);
    return true;
  }

  graph::Edge erase_random(util::Rng& rng) {
    const std::size_t i = rng.below(edges_.size());
    const graph::Edge e = edges_[i];
    index_[graph::edge_key(edges_.back().u, edges_.back().v)] = i;
    edges_[i] = edges_.back();
    edges_.pop_back();
    index_.erase(graph::edge_key(e.u, e.v));
    return e;
  }

  bool contains(graph::Edge e) const {
    return index_.count(graph::edge_key(e.u, e.v)) != 0;
  }
  std::size_t size() const { return edges_.size(); }
  graph::EdgeList edge_list() const { return {num_nodes_, edges_}; }

 private:
  NodeId num_nodes_;
  std::vector<graph::Edge> edges_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

/// What one read client measured.
struct ReadStats {
  std::vector<double> latency_ms;  // open loop, from each request's due time
  std::vector<double> late_ms;     // open-loop generator lateness
  std::vector<double> closed_rps;  // closed loop, per kClosedLoopWindowS
  std::size_t submitted = 0;
  std::size_t not_ok = 0;
};

/// One client thread driving reads through a serving front door.
template <typename Front>
class ReadClient {
 public:
  ReadClient(Front& front, ReadSampler& sampler) : front_(front), sampler_(sampler) {}

  /// Poisson arrivals at `rate` from `start` until `end`, then waits for
  /// every reply; each request is timed from its due time. Between sends
  /// the client blocks on the oldest reply, so completions are stamped when
  /// they happen rather than at a polling tick.
  void open_loop(double rate, std::uint64_t seed, Clock::time_point start,
                 Clock::time_point end) {
    OpenLoopSchedule schedule(rate, seed, start);
    for (auto due = schedule.next(); due < end;) {
      if (inflight_.empty()) {
        std::this_thread::sleep_until(due);
      } else {
        reap(true, due);
      }
      if (Clock::now() >= due) {
        inflight_.push_back(submit_read(front_, sampler_, due));
        stats_.late_ms.push_back(lateness_ms(due, Clock::now()));
        ++stats_.submitted;
        due = schedule.next();
      }
    }
    while (!inflight_.empty()) reap(true, Clock::now() + std::chrono::milliseconds(1));
  }

  /// Keeps kClosedLoopOutstanding requests in flight for `seconds`; records
  /// the completion rate of each whole kClosedLoopWindowS window.
  void closed_loop(double seconds) {
    auto window = Clock::now();
    const auto end = window + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    std::size_t completed = 0;
    while (Clock::now() < end) {
      while (inflight_.size() < kClosedLoopOutstanding) {
        inflight_.push_back(submit_read(front_, sampler_, Clock::now()));
        ++stats_.submitted;
      }
      completed += reap(false, Clock::now() + std::chrono::microseconds(200));
      const double elapsed = seconds_between(window, Clock::now());
      if (elapsed >= kClosedLoopWindowS) {
        stats_.closed_rps.push_back(static_cast<double>(completed) / elapsed);
        completed = 0;
        window = Clock::now();
      }
    }
    while (!inflight_.empty()) reap(false, Clock::now() + std::chrono::milliseconds(1));
  }

  const ReadStats& stats() const { return stats_; }

 private:
  /// Waits for the oldest request until `deadline`, then collects every
  /// resolved one; returns how many resolved.
  std::size_t reap(bool record, Clock::time_point deadline) {
    std::size_t done = 0;
    for (std::size_t i = 0; i < inflight_.size();) {
      const std::optional<serve::Status> status =
          inflight_[i].wait(i == 0 ? deadline : Clock::time_point::min());
      if (!status) {
        ++i;
        continue;
      }
      if (*status != serve::Status::kOk) ++stats_.not_ok;
      if (record) {
        stats_.latency_ms.push_back(
            seconds_between(inflight_[i].due, Clock::now()) * 1e3);
      }
      // Keep submission order, so index 0 stays the oldest request.
      inflight_.erase(inflight_.begin() + static_cast<std::ptrdiff_t>(i));
      ++done;
    }
    return done;
  }

  Front& front_;
  ReadSampler& sampler_;
  std::vector<InFlight> inflight_;
  ReadStats stats_;
};

/// The fixed-rate write stream: groups of kWriteGroup updates of one kind,
/// one group every kWriteGroup / rate seconds: one group in kEraseEvery
/// erases present edges, the others insert short-range edges (grid
/// neighbours for road graphs, uniform pairs otherwise).
class WriteStream {
 public:
  WriteStream(EdgeSet& edges, NodeId n, bool grid, double rate,
              std::uint64_t seed)
      : edges_(edges), n_(n), grid_(grid), rng_(seed),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kWriteGroup / rate))) {}

  Clock::duration period() const { return period_; }

  /// Next group: (is_erase, edges), applied to the host edge set.
  std::pair<bool, std::vector<graph::Edge>> next() {
    std::vector<graph::Edge> group;
    // Groups 5, 15, 25, ... erase: a fixed share at fixed places, so every
    // run's open-loop window holds the same mix of replay (insert-only) and
    // rebuild (erase) publishes.
    const bool erase = ++groups_ % kEraseEvery == kEraseEvery / 2 &&
                       edges_.size() > kWriteGroup;
    for (std::size_t i = 0; i < kWriteGroup; ++i) {
      if (erase) {
        group.push_back(edges_.erase_random(rng_));
        continue;
      }
      graph::Edge e = insert_candidate();
      while (e.u == e.v) e = insert_candidate();
      edges_.insert(e);
      group.push_back(e);
    }
    return {erase, std::move(group)};
  }

 private:
  graph::Edge insert_candidate() {
    const auto u = static_cast<NodeId>(rng_.below(n_));
    if (!grid_) return {u, static_cast<NodeId>(rng_.below(n_))};
    static const NodeId kOffsets[] = {1, 2, kGridWidth, kGridWidth + 1,
                                      kGridWidth - 1, 2 * kGridWidth};
    const NodeId v = u + kOffsets[rng_.below(std::size(kOffsets))];
    return {u, v < n_ ? v : u};
  }

  EdgeSet& edges_;
  NodeId n_;
  bool grid_;
  util::Rng rng_;
  Clock::duration period_;
  std::size_t groups_ = 0;
};

// ------------------------------------------------------------ checks

/// After quiescing: a burst of every served family, checked against a fresh
/// static Session on the final edge set (LcaBatch against a parent walk on
/// the serving View's own forest, since LCAs depend on the rooted forest).
template <typename Front>
void check_final_burst(Front& front, engine::Engine& engine,
                       const graph::EdgeList& final_graph,
                       const engine::View* served, std::uint64_t seed,
                       Result& result) {
  constexpr std::size_t kBurst = 256;
  engine::Session reference = engine.session(final_graph);
  util::Rng rng(seed ^ 0xf1a1);
  const NodeId n = final_graph.num_nodes;
  const auto node = [&] { return static_cast<NodeId>(rng.below(n)); };
  const auto not_ok = [&](serve::Status status) {
    result.check(status == serve::Status::kOk, "final burst reply not kOk");
    return status != serve::Status::kOk;
  };
  for (std::size_t i = 0; i < kBurst; ++i) {
    const NodeId u = node(), v = node();
    result.attempted += 5;
    const auto same = front.submit(engine::Same2Ecc{{{u, v}}}).get();
    if (!not_ok(same.status)) {
      result.check(same.value == reference.run(engine::Same2Ecc{{{u, v}}}),
                   "final Same2Ecc != static session");
    }
    const auto bcc = front.submit(engine::SameBcc{{{u, v}}}).get();
    if (!not_ok(bcc.status)) {
      result.check(bcc.value == reference.run(engine::SameBcc{{{u, v}}}),
                   "final SameBcc != static session");
    }
    const auto paths = front.submit(engine::BridgesOnPath{{{u, v}}}).get();
    if (!not_ok(paths.status)) {
      result.check(paths.value == reference.run(engine::BridgesOnPath{{{u, v}}}),
                   "final BridgesOnPath != static session");
    }
    const auto size = front.submit(engine::ComponentSize{{u}}).get();
    if (!not_ok(size.status)) {
      result.check(size.value == reference.run(engine::ComponentSize{{u}}),
                   "final ComponentSize != static session");
    }
    const auto cc = front.submit(engine::CcMembership{{u, v}}).get();
    if (!not_ok(cc.status)) {
      const auto want = reference.run(engine::CcMembership{{u, v}});
      result.check((cc.value[0] == cc.value[1]) == (want[0] == want[1]),
                   "final CcMembership != static session");
    }
  }
  if constexpr (std::is_same_v<Front, serve::Dispatcher>) {
    const ForestWalk walk(*served);
    for (std::size_t i = 0; i < kBurst; ++i) {
      const NodeId u = node(), v = node();
      ++result.attempted;
      const auto lca = front.submit(engine::LcaBatch{{{u, v}}}).get();
      if (!not_ok(lca.status)) {
        result.check(lca.value[0] == walk.lca(u, v), "final LcaBatch != walk");
      }
    }
    // Each single-pair BfsLevels request is one whole traversal: fewer.
    for (std::size_t i = 0; i < kBurst / 8; ++i) {
      const NodeId s = static_cast<NodeId>(i % 4), t = node();
      ++result.attempted;
      const auto bfs = front.submit(engine::BfsLevels{{{s, t}}}).get();
      if (!not_ok(bfs.status)) {
        result.check(bfs.value == reference.run(engine::BfsLevels{{{s, t}}}),
                     "final BfsLevels != static session");
      }
    }
  }
}

bool dispatcher_ledger_balances(const serve::DispatcherStats& s) {
  return s.submitted == s.answered + s.shed + s.rejected + s.expired +
                            s.cancelled + s.faulted + s.unsupported;
}

bool ingestor_ledger_balances(const ingest::IngestorStats& s) {
  return s.submitted == s.accepted + s.rejected + s.cancelled &&
         s.accepted == s.applied + s.shed;
}

void set_latency_metrics(const ReadStats& reads, Result& result) {
  const Percentile p50 = tail_percentile(reads.latency_ms, 0.50);
  const Percentile p99 = tail_percentile(reads.latency_ms, 0.99);
  result.set("serve.query_p50_ms", p50.value);
  result.set("serve.query_p99_ms", p99.value);
  // The median window, so one window the host disturbed does not move it.
  result.set("saturated_rps", median(reads.closed_rps));
  std::printf("# closed loop: %zu windows of %.1f s, reads/s:", reads.closed_rps.size(),
              kClosedLoopWindowS);
  for (const double rps : reads.closed_rps) std::printf(" %.0f", rps);
  std::printf("\n");
  std::printf("# open loop: %zu samples, p50 %.3f ms, p99 %.3f ms (at q=%.4f)\n",
              p99.samples, p50.value, p99.value, p99.quantile);
  result.set("serve.gen_late_ms.p50", tail_percentile(reads.late_ms, 0.50).value);
  result.set("serve.gen_late_ms.p99", tail_percentile(reads.late_ms, 0.99).value);
  result.attempted += reads.submitted;
  result.failed += reads.not_ok;
}

void set_visibility_metrics(const VisibilityLog& log,
                            const std::vector<double>& visible_ms,
                            Result& result) {
  const Percentile p50 = tail_percentile(visible_ms, 0.50);
  const Percentile p99 = tail_percentile(visible_ms, 0.99);
  result.set("ingest.visible_p50_ms", p50.value);
  result.set("visible_p99_ms", p99.value);
  std::printf("# visibility: %zu samples, p99 reported at q=%.4f\n",
              p99.samples, p99.quantile);
  result.set("engine.publish_s.replay", median(log.replay_s()));
  result.set("engine.publish_s.rebuild", median(log.rebuild_s()));
  result.set("ingest.queue_wait_ms.p50", tail_percentile(log.queue_wait_ms(), 0.50).value);
  result.set("ingest.queue_wait_ms.p99", tail_percentile(log.queue_wait_ms(), 0.99).value);
}

void set_ingest_metrics(const ingest::IngestorStats& s, std::size_t lag_max,
                        Result& result) {
  result.set("ingest.batches", static_cast<double>(s.batches));
  result.set("ingest.batch_size_mean",
             s.batches == 0 ? 0.0 : static_cast<double>(s.applied) / s.batches);
  result.set("ingest.erase_batches", static_cast<double>(s.erase_batches));
  result.set("ingest.max_queue_depth", static_cast<double>(s.max_queue_depth));
  result.set("ingest.lag_max", static_cast<double>(lag_max));
  result.set("dynamic.effective_frac",
             s.applied == 0 ? 0.0
                            : static_cast<double>(s.applied_effective) / s.applied);
  result.failed += s.rejected + s.shed;
}

void set_serve_metrics(const serve::DispatcherStats& s, Result& result) {
  result.set("serve.rounds", static_cast<double>(s.rounds));
  result.set("serve.round_size_mean",
             s.rounds == 0 ? 0.0 : static_cast<double>(s.answered) / s.rounds);
  result.set("serve.dedup_frac",
             s.answered == 0 ? 0.0
                             : static_cast<double>(s.coalesce_cache_hits) / s.answered);
  result.set("serve.max_queue_depth", static_cast<double>(s.max_queue_depth));
  result.set("serve.stale_served", static_cast<double>(s.stale_served));
  result.set("engine.publish_replays", static_cast<double>(s.publish_replays));
  result.set("engine.publish_rebuilds", static_cast<double>(s.publish_rebuilds));
}

// ------------------------------------------------------------ stacks

/// One Dispatcher with an attached Ingestor over a dynamic graph.
struct ServingStack {
  dynamic::DynamicGraph graph;
  engine::Session session;
  ingest::Ingestor ingestor;
  serve::Dispatcher dispatcher;

  ServingStack(engine::Engine& engine, const graph::EdgeList& initial,
               VisibilityLog& log)
      : graph(engine.device(), initial),
        session(engine.session(graph)),
        ingestor(engine, graph, session, ingest_options(log)),
        dispatcher(session.view(), dispatch_options()) {
    dispatcher.attach_ingestor(ingestor);
    ingestor.set_publisher(timed_publisher(dispatcher, log, 0));
    ingestor.resume();
  }
  ~ServingStack() { ingestor.stop(); }  // before the dispatcher goes
  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  static ingest::IngestorOptions ingest_options(VisibilityLog& log) {
    ingest::IngestorOptions options;  // default batching and pacing
    options.start_paused = true;      // the session seeds the dispatcher first
    options.on_apply = [&log](const ingest::Batch& batch, std::uint64_t,
                              std::size_t) { log.applied(batch); };
    return options;
  }
  static serve::DispatcherOptions dispatch_options() {
    serve::DispatcherOptions options;  // default coalescing, no deadline
    options.workers = 2;
    options.admission = serve::Admission::kBlock;
    return options;
  }
};

/// A K=4 ShardedGraph behind a ShardedDispatcher with kFacadeWorkers
/// workers, and one device worker and one dispatcher worker inside each shard.
struct ShardedStack {
  shard::ShardedGraph graph;
  shard::ShardedDispatcher front;

  ShardedStack(const graph::EdgeList& initial, VisibilityLog& log)
      : graph(initial.num_nodes, initial, sharded_options(log)),
        front(graph, shard::ShardedDispatcherOptions{kFacadeWorkers}) {
    for (std::size_t s = 0; s < kShards; ++s) {
      graph.shard_ingestor(s).set_publisher(
          timed_publisher(graph.shard_dispatcher(s), log, s));
    }
    graph.view();  // the first stitch: ready to answer
  }

  static shard::ShardedOptions sharded_options(VisibilityLog& log) {
    shard::ShardedOptions options;
    options.shards = kShards;
    // One worker per shard, for its device context and its dispatcher: the
    // four shard engines and the façade engine then fit the machine
    // instead of oversubscribing it threefold.
    options.shard_workers = 1;
    options.dispatch.workers = 1;
    options.ingest.on_apply = [&log](const ingest::Batch& batch, std::uint64_t,
                                     std::size_t) { log.applied(batch); };
    return options;
  }
};

/// The sharded stack's own publish and bulk-query paths on the seeded graph,
/// each for half of `seconds` (at least kMinSamples times). A boundary edge
/// toggled in and then out gives each view() a new epoch vector, so every
/// timed view() re-stitches (publish_s); then 2^20-item batches of Same2Ecc,
/// SameBcc, CcMembership and BridgesOnPath run through one ShardedView
/// (query_mpairs_s), checked against a static Session on the same graph.
void run_sharded_kernels(shard::ShardedGraph& sharded, engine::Engine& engine,
                         const EdgeSet& edges, double seconds,
                         std::uint64_t seed, Result& result) {
  const NodeId n = sharded.router().num_nodes();
  util::Rng rng(seed ^ 0x5717c);
  const auto node = [&] { return static_cast<NodeId>(rng.below(n)); };
  std::vector<double> stitch_s;
  for (util::Timer phase; stitch_s.size() < kMinSamples || phase.seconds() < seconds / 2;) {
    const graph::Edge e{node(), node()};
    if (!sharded.router().is_boundary(e.u, e.v) || edges.contains(e)) continue;
    for (const bool add : {true, false}) {
      if (add) {
        sharded.insert({e});
      } else {
        sharded.erase({e});
      }
      const std::size_t builds = sharded.stats().stitch_builds;
      util::Timer timer;
      sharded.view();
      stitch_s.push_back(timer.seconds());
      ++result.attempted;
      result.check(sharded.stats().stitch_builds == builds + 1,
                   "boundary change did not re-stitch");
    }
  }
  result.set("publish_s", lower_quartile(stitch_s));

  engine::Same2Ecc same_request;
  engine::SameBcc bcc_request;
  engine::BridgesOnPath path_request;
  engine::CcMembership cc_request;
  for (std::size_t i = 0; i < kShardBulkItems; ++i) {
    same_request.pairs.emplace_back(node(), node());
    bcc_request.pairs.emplace_back(node(), node());
    path_request.pairs.emplace_back(node(), node());
    cc_request.nodes.push_back(node());
  }
  const shard::ShardedView view = sharded.view();
  std::vector<double> mpairs;
  std::vector<std::uint8_t> same, bcc;
  std::vector<NodeId> cc, paths;
  for (util::Timer phase; mpairs.size() < kMinSamples || phase.seconds() < seconds / 2;) {
    util::Timer timer;
    same = view.run(same_request);
    bcc = view.run(bcc_request);
    cc = view.run(cc_request);
    paths = view.run(path_request);
    mpairs.push_back(4.0 * kShardBulkItems / timer.seconds() / 1e6);
    result.attempted += 4;
  }
  result.set("query_mpairs_s", upper_quartile(mpairs));

  const graph::EdgeList now = edges.edge_list();
  engine::Session reference_session = engine.session(now);
  const engine::View reference = reference_session.view();
  result.check(same == reference.run(same_request), "sharded Same2Ecc != static session");
  result.check(bcc == reference.run(bcc_request), "sharded SameBcc != static session");
  result.check(paths == reference.run(path_request),
               "sharded BridgesOnPath != static session");
  // Component labels are representatives: compare partitions, not labels.
  const std::vector<NodeId> want_cc = reference.run(cc_request);
  for (std::size_t i = 0; i < 4096; ++i) {
    const std::size_t a = rng.below(cc.size()), b = rng.below(cc.size());
    result.check((cc[a] == cc[b]) == (want_cc[a] == want_cc[b]),
                 "sharded CcMembership != static session");
  }
}

double run_unsharded(const RunConfig& config, engine::Engine& engine,
                     const graph::EdgeList& initial, double seconds,
                     int setup_reps, Result& result) {
  const WorkloadSpec& spec = *config.spec;
  std::vector<double> setup;
  std::unique_ptr<VisibilityLog> log;
  std::unique_ptr<ServingStack> stack;
  for (int rep = 0; rep < setup_reps; ++rep) {
    stack.reset();
    log = std::make_unique<VisibilityLog>(1);
    util::Timer timer;
    stack = std::make_unique<ServingStack>(engine, initial, *log);
    setup.push_back(timer.seconds());
  }

  EdgeSet edges(initial);
  WriteStream stream(edges, initial.num_nodes,
                     spec.serve_graph == GraphKind::kRoadGrid, spec.write_rate,
                     config.seed ^ 0x3717e);
  std::atomic<bool> stop{false};
  std::size_t updates = 0, lag_max = 0;
  ingest::Ingestor& ingestor = stack->ingestor;
  std::thread writer([&] {
    for (auto next = Clock::now(); !stop.load(std::memory_order_acquire);
         next += stream.period()) {
      std::this_thread::sleep_until(next);
      auto [erase, group] = stream.next();
      const auto now = Clock::now();
      for (std::size_t i = 0; i < group.size(); ++i) log->submitted(0, now);
      if (erase) {
        ingestor.erase(group);
      } else {
        ingestor.insert(group);
      }
      updates += group.size();
      lag_max = std::max(lag_max, ingestor.lag());
    }
  });
  ReadSampler sampler(kMix, initial.num_nodes, /*zipf=*/true,
                      config.seed ^ 0x5eed);
  const auto start = Clock::now();
  const auto open_end = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds * kOpenLoopShare));
  log->set_cutoff(open_end);
  ReadClient client(stack->dispatcher, sampler);
  client.open_loop(spec.read_rate, config.seed ^ 0x0be7, start, open_end);
  client.closed_loop(seconds * (1 - kOpenLoopShare));
  const ReadStats& reads = client.stats();
  stop.store(true, std::memory_order_release);
  writer.join();
  ingestor.flush();

  const graph::EdgeList final_graph = edges.edge_list();
  const engine::View served = stack->dispatcher.current_view();
  result.check(served.num_edges() == final_graph.num_edges(),
               "served edge count != host edge set");
  check_final_burst(stack->dispatcher, engine, final_graph, &served,
                    config.seed, result);

  ingestor.stop();
  stack->dispatcher.stop();
  const ingest::IngestorStats ingest_stats = ingestor.stats();
  const serve::DispatcherStats dispatch_stats = stack->dispatcher.stats();
  result.check(dispatcher_ledger_balances(dispatch_stats),
               "Dispatcher ledger does not balance");
  result.check(ingestor_ledger_balances(ingest_stats),
               "Ingestor ledger does not balance");
  result.attempted += updates;
  set_latency_metrics(reads, result);
  set_visibility_metrics(*log, log->visible_ms(), result);
  set_ingest_metrics(ingest_stats, lag_max, result);
  set_serve_metrics(dispatch_stats, result);
  const dynamic::ConnectivityOracle& oracle = stack->session.two_ecc_index();
  result.set("dynamic.oracle_incremental",
             static_cast<double>(oracle.incremental_refreshes()));
  result.set("dynamic.oracle_rebuilds", static_cast<double>(oracle.rebuilds()));
  return median(setup);
}

double run_sharded(const RunConfig& config, engine::Engine& engine,
                   const graph::EdgeList& initial, double seconds,
                   int setup_reps, Result& result) {
  const WorkloadSpec& spec = *config.spec;
  std::vector<double> setup;
  std::unique_ptr<VisibilityLog> log;
  std::unique_ptr<ShardedStack> stack;
  for (int rep = 0; rep < setup_reps; ++rep) {
    stack.reset();
    log = std::make_unique<VisibilityLog>(kShards);
    util::Timer timer;
    stack = std::make_unique<ShardedStack>(initial, *log);
    setup.push_back(timer.seconds());
  }
  shard::ShardedGraph& sharded = stack->graph;
  EdgeSet edges(initial);
  run_sharded_kernels(sharded, engine, edges, seconds * 0.3, config.seed, result);

  // Reads and writes take turns. With writes streaming, every change of
  // the epoch vector rebuilds the stitch (~0.2 s on this graph) under one
  // lock, so the façade backs up without bound (README.md, "shard").
  ReadSampler sampler(kShardMix, initial.num_nodes, /*zipf=*/false,
                      config.seed ^ 0x5eed);
  ReadClient client(stack->front, sampler);
  log->set_cutoff(Clock::time_point::min());  // visibility is measured below
  // Build the view's lazy parts (the BCC skeleton) before timing.
  stack->front.submit(engine::SameBcc{{{0, 1}}}).get();
  const auto start = Clock::now();
  client.open_loop(spec.read_rate, config.seed ^ 0x0be7, start,
                   start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds * 0.2)));

  // Writes, one group at a time: a group is visible to sharded readers once
  // every shard has published it and view() has stitched the new vector.
  WriteStream stream(edges, initial.num_nodes,
                     spec.serve_graph == GraphKind::kRoadGrid, spec.write_rate,
                     config.seed ^ 0x3717e);
  std::size_t updates = 0, lag_max = 0;
  std::vector<double> visible_ms, stitch_s;
  auto next = Clock::now();
  for (std::size_t i = 0; i < kShardWriteGroups; ++i, next += stream.period()) {
    std::this_thread::sleep_until(next);
    auto [erase, group] = stream.next();
    const auto submitted = Clock::now();
    if (erase) {
      sharded.erase(group);
    } else {
      sharded.insert(group);
    }
    updates += group.size();
    lag_max = std::max(lag_max, sharded.stats().ingest.lag);
    sharded.flush();
    const std::size_t builds = sharded.stats().stitch_builds;
    util::Timer timer;
    sharded.view();
    const double stitch = timer.seconds();
    if (sharded.stats().stitch_builds > builds) stitch_s.push_back(stitch);
    const double ms = seconds_between(submitted, Clock::now()) * 1e3;
    visible_ms.insert(visible_ms.end(), group.size(), ms);
  }
  // The last stitch builds its lazy parts on first use, as the first one
  // did before the open loop: build them before the closed loop too, or its
  // first window runs at a third of the rate.
  stack->front.submit(engine::SameBcc{{{0, 1}}}).get();
  client.closed_loop(seconds * 0.25);
  const ReadStats& reads = client.stats();

  const graph::EdgeList final_graph = edges.edge_list();
  result.check(sharded.view().num_edges() == final_graph.num_edges(),
               "sharded edge count != host edge set");
  check_final_burst(stack->front, engine, final_graph, nullptr, config.seed,
                    result);

  // Sharded BfsLevels answers kUnsupported (a known gap): probed and
  // reported as shard.unsupported, outside the read mix.
  std::size_t unsupported = 0;
  for (int i = 0; i < 8; ++i) {
    const auto reply = stack->front.submit(engine::BfsLevels{{{0, i}}}).get();
    unsupported += reply.status == serve::Status::kUnsupported ? 1 : 0;
  }

  stack->front.stop();
  sharded.stop();
  const shard::ShardedStats stats = stack->front.stats();
  result.check(dispatcher_ledger_balances(stats.dispatch),
               "sharded Dispatcher ledger does not balance");
  result.check(ingestor_ledger_balances(stats.ingest),
               "sharded Ingestor ledger does not balance");
  result.attempted += updates;
  set_latency_metrics(reads, result);
  set_visibility_metrics(*log, visible_ms, result);
  set_ingest_metrics(stats.ingest, lag_max, result);
  set_serve_metrics(stats.dispatch, result);
  result.set("shard.stitch_builds", static_cast<double>(stats.stitch_builds));
  result.set("shard.stitch_hits", static_cast<double>(stats.stitch_hits));
  result.set("shard.stitch_s", median(stitch_s));
  result.set("shard.boundary_applied", static_cast<double>(stats.boundary_applied));
  result.set("shard.max_staleness", static_cast<double>(stats.max_staleness));
  result.set("shard.unsupported", static_cast<double>(unsupported));
  std::printf("# known gap: sharded BfsLevels answered kUnsupported to %zu of 8 "
              "probes (not in the read mix)\n", unsupported);
  return median(setup);
}

}  // namespace

double run_serving_phase(const RunConfig& config, engine::Engine& engine,
                         const graph::EdgeList& initial, double seconds,
                         int setup_reps, Tracer& tracer, Result& result) {
  Tracer::Span span(tracer, "serving", &engine, engine_counters);
  return config.spec->sharded
             ? run_sharded(config, engine, initial, seconds, setup_reps, result)
             : run_unsharded(config, engine, initial, seconds, setup_reps,
                             result);
}

}  // namespace perfbench
