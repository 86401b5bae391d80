// Serving benchmark for the STL stack: one program, two gated tiers and
// a socket-served probe, one live traffic feed.
//
//   serve_bench --workload flat-point|sharded-matrix --seed N
//               --seconds S --trace 0|1 [--spans PATH] [--git-sha SHA]
//
// Every workload serves the registry's CAL-S network (17.4k vertices)
// through the public serving API in this one process: a closed-loop
// query client runs against the tier while an open-loop feed pushes
// one-edge congest/restore batches at 20 batches/s. The seed drives the
// query pairs and the feed's edge order; the network is fixed.
//
//   flat-point        QueryEngine (STL), 1 reader, 16 point queries
//                     outstanding through SubmitTagged: the paper's own
//                     setting (label scan, submit path, STL-P repair,
//                     CoW publish).
//   sharded-matrix    ShardedEngine (STL, k=4), 1 reader, one 16x16
//                     distance matrix (SubmitBatch, 256 pairs)
//                     outstanding: batch grouping, the boundary-row
//                     cache, min-plus kernels, overlay repair.
//
// --trace 0 prints the end-to-end metrics over 5 fresh tier instances:
// interquartile means over every instance's window slices. --trace 1 splits one instance's window into an untraced
// half and a traced half, times the calls into each layer from this
// file (wrappers around Transport, CompletionSink and the FrameServer
// handler, replays on standalone StlIndex and DistanceIndex, the public
// Stats() counters), and prints the per-layer metrics, a self-time
// summary and the tracing overhead. The sharded workload's traced run
// also serves the point client and the feed through ShardRouter over
// localhost TCP (the router probe) for the dist and net layers. Answers
// are sampled during the run and audited against Dijkstra on each
// sample's epoch after the window closes; a wrong answer fails the run.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/stl_index.h"
#include "dist/shard_router.h"
#include "dist/socket_transport.h"
#include "dist/replica_node.h"
#include "dist/wire.h"
#include "engine/query_engine.h"
#include "engine/sharded_engine.h"
#include "graph/dijkstra.h"
#include "index/distance_index.h"
#include "net/server.h"
#include "perfbench/harness.h"
#include "workload/datasets.h"
#include "workload/query_workload.h"

namespace stl::perfbench {
namespace {

// ------------------------------------------------------------ constants

constexpr const char* kNetwork = "CAL-S";
// One reader per tier, so the reader, the writer and the feed each have
// a CPU of their own on a shared 4-CPU host. With two readers the
// process oversubscribed it: the flat tier served 25% fewer distances,
// a sharded matrix waited for the slower of its two halves, and the
// overlay rebuild fanned out into the pool only when it happened to be
// idle, so whole runs' sharded capacity moved by 30%.
constexpr int kReaders = 1;
constexpr uint32_t kShards = 4;
constexpr uint32_t kReplicas = 2;
constexpr uint32_t kOutstanding = 16;  // point queries in flight
constexpr uint32_t kMatrixSide = 16;   // 16x16 = 256 pairs per request
// The feed's rate and batch size are what every tier sustains on 4 CPUs
// with headroom: STL-P repair averages ~3 ms per congested edge on this
// network, so heavier feeds turn update visibility into backlog growth
// (see perfbench/README.md).
constexpr int64_t kFeedPeriodNs = 50'000'000;  // 20 batches/s
constexpr uint32_t kEdgesPerBatch = 1;
constexpr uint64_t kFeedPoolSeed = 0x5eedf00dULL;
constexpr Weight kCongestFactor = 3;
constexpr int64_t kWarmupNs = 500'000'000;  // queries only, untimed
// The end-to-end run measures this many fresh tier instances in turn and
// pools their window slices (see RunEndToEnd).
constexpr int kInstances = 5;
constexpr size_t kPairs = size_t{1} << 16;  // query pair pool (power of 2)
constexpr size_t kAuditSamples = 300;  // per instance
constexpr uint64_t kAuditMask = 15;  // offer 1 in 16 point answers
constexpr uint64_t kSpanSampleMask = 255;  // trace 1 in 256 requests
constexpr size_t kSpanCapacity = size_t{1} << 19;
constexpr size_t kWireSamples = 512;
constexpr int kSlices = 16;  // window A is measured in this many parts

enum Phase { kWarmup = 0, kWindowA = 1, kWindowB = 2, kDrain = 3 };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v, nullptr);
    else if (k == "--trace") a->trace = std::strcmp(v, "0") != 0;
    else if (k == "--spans") a->spans_path = v;
    else if (k == "--git-sha") a->git_sha = v;
    else return false;
  }
  return (a->workload == "flat-point" || a->workload == "sharded-matrix") &&
         a->seconds > 0;
}

// ------------------------------------------------------------ the feed

/// The traffic feed: batch 2p congests the kEdgesPerBatch distinct
/// edges of pair p (weight x3), batch 2p+1 restores them. Every epoch
/// the feed produces is therefore either the base weights or base plus
/// one congested edge set, which is what the audit replays.
///
/// The edge sets come from a fixed pool: one uniform draw of distinct
/// edges from the network, grouped into sets, independent of the seed
/// and sized so a run congests every set exactly once. The seed sets
/// the order. Repair cost per edge is heavy-tailed (a highway edge
/// rewrites thousands of labels), so a fresh draw per seed would make
/// the visibility percentiles compare edge draws rather than runs; the
/// shared pool keeps the batch-cost mix identical and leaves the tail
/// in.
struct FeedPlan {
  std::vector<std::array<EdgeId, kEdgesPerBatch>> pairs;

  size_t max_batches() const { return 2 * pairs.size(); }

  /// Batch k as desired weights (old_weight is ignored by the engines).
  std::vector<WeightUpdate> Batch(const Graph& base, size_t k) const {
    std::vector<WeightUpdate> out;
    out.reserve(kEdgesPerBatch);
    for (EdgeId e : pairs[k / 2]) {
      const Weight w = base.EdgeWeight(e);
      const Weight congested = std::min<Weight>(w * kCongestFactor, kMaxEdgeWeight);
      out.push_back({e, (k % 2 == 0) ? w : congested,
                     (k % 2 == 0) ? congested : w});
    }
    return out;
  }
};

FeedPlan MakeFeedPlan(const Graph& g, size_t batches, uint64_t seed) {
  FeedPlan plan;
  plan.pairs.resize((batches + 1) / 2);
  Rng pool_rng(kFeedPoolSeed);
  std::vector<bool> taken(g.NumEdges(), false);
  for (auto& edges : plan.pairs) {
    for (EdgeId& slot : edges) {
      EdgeId e;
      do {
        e = static_cast<EdgeId>(pool_rng.NextBounded(g.NumEdges()));
      } while (taken[e] || g.EdgeWeight(e) * kCongestFactor == g.EdgeWeight(e));
      taken[e] = true;
      slot = e;
    }
  }
  Rng rng(seed ^ 0xfeedULL);
  for (size_t i = plan.pairs.size(); i > 1; --i) {
    std::swap(plan.pairs[i - 1], plan.pairs[rng.NextBounded(i)]);
  }
  return plan;
}

// ------------------------------------------------------------ tracing

/// Everything the traced half records from outside the layers. Inert
/// until `on` is set; the wrappers then pass straight through.
struct Tracer {
  std::atomic<bool> on{false};
  Histogram submit;            // time inside the submit call
  Histogram rpc_rtt_query;     // Send -> OnResponse, row/point RPCs
  Histogram rpc_rtt_install;   // Send -> OnResponse, kInstall RPCs
  Histogram replica_query;     // FrameServer handler, row/point
  Histogram replica_install;   // FrameServer handler, kInstall
  std::atomic<uint64_t> query_rpcs{0};
  std::atomic<uint64_t> query_rpc_bytes{0};
  std::atomic<uint64_t> replica_seq{0};
  SpanLog spans{kSpanCapacity};
  std::mutex wire_mu;
  std::vector<std::vector<uint8_t>> wire_requests;   // guarded by wire_mu
  std::vector<std::vector<uint8_t>> wire_responses;  // guarded by wire_mu

  bool enabled() const { return on.load(std::memory_order_relaxed); }

  void KeepWire(std::vector<std::vector<uint8_t>>* into,
                const std::vector<uint8_t>& bytes) {
    std::lock_guard<std::mutex> lock(wire_mu);
    if (into->size() < kWireSamples) into->push_back(bytes);
  }
};

/// Transport wrapper: times each RPC from Send to OnResponse and counts
/// its bytes, split by wire kind. Tags are the router mailbox's, unique
/// per router, so they key the in-flight table.
class TracingTransport final : public Transport, public TransportSink {
 public:
  TracingTransport(Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  uint32_t NumEndpoints() const override { return inner_->NumEndpoints(); }

  void Send(uint32_t endpoint, uint64_t tag,
            std::shared_ptr<const std::vector<uint8_t>> request,
            TransportSink* sink) override {
    if (!tracer_->enabled()) {
      inner_->Send(endpoint, tag, std::move(request), sink);
      return;
    }
    WireKind kind = WireKind::kBoundaryRow;
    const bool install =
        PeekWireKind(request->data(), request->size(), &kind).ok() &&
        kind == WireKind::kInstall;
    if (!install) tracer_->KeepWire(&tracer_->wire_requests, *request);
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_[tag] = Pending{sink, NowNs(), install, request->size()};
    }
    inner_->Send(endpoint, tag, std::move(request), this);
  }

  void OnResponse(uint64_t tag, Status transport_status,
                  std::vector<uint8_t> payload) override {
    const int64_t now = NowNs();
    Pending p;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = in_flight_.find(tag);
      if (it == in_flight_.end()) return;  // the socket delivers once per Send
      p = it->second;
      in_flight_.erase(it);
    }
    if (p.install) {
      tracer_->rpc_rtt_install.Record(now - p.sent_ns);
      tracer_->spans.Add("rpc.install", kRpcKey | tag, 0, p.sent_ns, now);
    } else {
      tracer_->rpc_rtt_query.Record(now - p.sent_ns);
      tracer_->query_rpcs.fetch_add(1, std::memory_order_relaxed);
      tracer_->query_rpc_bytes.fetch_add(p.request_bytes + payload.size(),
                                         std::memory_order_relaxed);
      if (transport_status.ok()) {
        tracer_->KeepWire(&tracer_->wire_responses, payload);
      }
      tracer_->spans.Add("rpc.query", kRpcKey | tag, 0, p.sent_ns, now);
    }
    p.sink->OnResponse(tag, std::move(transport_status), std::move(payload));
  }

 private:
  struct Pending {
    TransportSink* sink = nullptr;
    int64_t sent_ns = 0;
    bool install = false;
    size_t request_bytes = 0;
  };
  Transport* const inner_;
  Tracer* const tracer_;
  std::mutex mu_;
  std::unordered_map<uint64_t, Pending> in_flight_;  // guarded by mu_
};

/// FrameServer handler wrapper: times the replica's work per request,
/// split by PeekWireKind into queries and kInstall replication.
FrameServer::Handler TracedHandler(ReplicaNode* node, Tracer* tracer) {
  return [node, tracer](const uint8_t* data, size_t size) {
    if (!tracer->enabled()) return node->Handle(data, size);
    WireKind kind = WireKind::kBoundaryRow;
    const bool install =
        PeekWireKind(data, size, &kind).ok() && kind == WireKind::kInstall;
    const int64_t t0 = NowNs();
    std::vector<uint8_t> out = node->Handle(data, size);
    const int64_t t1 = NowNs();
    (install ? tracer->replica_install : tracer->replica_query).Record(t1 - t0);
    tracer->spans.Add(install ? "replica.install" : "replica.query",
                      kReplicaKey | tracer->replica_seq.fetch_add(1), 0, t0,
                      t1);
    return out;
  };
}

// ------------------------------------------------------------ tiers

ShardedEngineOptions ShardedOptions(int readers) {
  ShardedEngineOptions o;
  o.backend = BackendKind::kStl;
  o.target_shards = kShards;
  o.num_query_threads = readers;
  return o;
}

/// The public counters a tier exposes: the serving core's EngineStats
/// plus, for the router, its RPC accounting.
struct TierStats {
  EngineStats serving;
  uint64_t rpcs_sent = 0;
  uint64_t rpc_retries = 0;
};

struct FlatTier {
  std::unique_ptr<QueryEngine> engine;

  static std::unique_ptr<FlatTier> Build(const Graph& g, Tracer*) {
    auto t = std::make_unique<FlatTier>();
    EngineOptions o;
    o.backend = BackendKind::kStl;
    o.num_query_threads = kReaders;
    t->engine = std::make_unique<QueryEngine>(g, HierarchyOptions{}, o);
    return t;
  }
  QueryEngine& serving() { return *engine; }
  TierStats Stats() const { return {engine->Stats(), 0, 0}; }
};

struct ShardedTier {
  std::unique_ptr<ShardedEngine> engine;

  static std::unique_ptr<ShardedTier> Build(const Graph& g, Tracer*) {
    auto t = std::make_unique<ShardedTier>();
    t->engine = std::make_unique<ShardedEngine>(g, HierarchyOptions{},
                                                ShardedOptions(kReaders));
    return t;
  }
  ShardedEngine& serving() { return *engine; }
  TierStats Stats() const { return {engine->Stats(), 0, 0}; }
};

struct RouterTier {
  // Declaration order is teardown order reversed: the router drains its
  // fan-outs first, then the transports go, then the servers stop, and
  // only then do the nodes they call into die.
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  std::vector<std::unique_ptr<FrameServer>> servers;
  std::unique_ptr<SocketTransport> socket;
  std::unique_ptr<TracingTransport> traced;
  std::unique_ptr<ShardRouter> router;

  static std::unique_ptr<RouterTier> Build(const Graph& g, Tracer* tracer) {
    auto t = std::make_unique<RouterTier>();
    // One reader per replica engine and per inner engine; router and
    // replicas must share engine options for epoch-exact replication.
    const ShardedEngineOptions inner = ShardedOptions(1);
    std::vector<std::string> endpoints;
    for (uint32_t i = 0; i < kReplicas; ++i) {
      t->nodes.push_back(
          std::make_unique<ReplicaNode>(g, HierarchyOptions{}, inner));
      t->servers.push_back(std::make_unique<FrameServer>(
          FrameServer::Options{}, TracedHandler(t->nodes.back().get(), tracer)));
      if (!t->servers.back()->Start().ok()) {
        std::fprintf(stderr, "replica server failed to start\n");
        std::exit(2);
      }
      endpoints.push_back("127.0.0.1:" +
                          std::to_string(t->servers.back()->port()));
    }
    t->socket = std::make_unique<SocketTransport>(endpoints);
    t->traced = std::make_unique<TracingTransport>(t->socket.get(), tracer);
    ShardRouterOptions o;
    o.engine = inner;
    o.num_query_threads = kReaders;
    t->router = std::make_unique<ShardRouter>(g, HierarchyOptions{}, o,
                                              t->traced.get(),
                                              std::vector<ShardReplica*>{});
    return t;
  }
  ShardRouter& serving() { return *router; }
  TierStats Stats() const {
    const RouterStats r = router->Stats();
    return {r.serving, r.rpcs_sent, r.rpc_retries};
  }
};

// ------------------------------------------------------------ the run

/// One of kSlices equal parts of window A. The end-to-end request
/// metrics are interquartile means over slices, so a second-long stall
/// of the host moves one slice rather than the whole figure.
struct Slice {
  Histogram latency;  // submit -> completion of kOk requests, ns
  std::atomic<uint64_t> distances{0};
  double cpu_start = 0;
  double cpu_end = 0;
};

struct PhaseStats {
  Histogram latency;  // submit -> completion of kOk requests, ns
  Histogram visible;  // feed batch due -> Flush() returned, ns
  Histogram late;     // feed batch due -> actually sent, ns
  std::atomic<uint64_t> requests{0};   // completed requests
  std::atomic<uint64_t> attempted{0};  // distances attempted
  std::atomic<uint64_t> failed{0};     // non-kOk distances
  std::atomic<uint64_t> distances{0};  // kOk distances
};

/// Shared state of one measured run: the workload's inputs, per-phase
/// statistics, the audit reservoir and the feed log.
struct RunState {
  RunState(const Graph& g, uint64_t seed, int64_t window_ns)
      : base(g),
        window_ns(window_ns),
        pairs(RandomQueryPairs(g, kPairs, seed)),
        audit(kAuditSamples, seed ^ 0xa0d17ULL) {
    const size_t batches = static_cast<size_t>(window_ns / kFeedPeriodNs) + 2;
    plan = MakeFeedPlan(g, batches, seed);
    feed_epochs.resize(plan.max_batches());
  }

  const Graph& base;
  const int64_t window_ns;
  std::vector<QueryPair> pairs;
  FeedPlan plan;
  AuditReservoir audit;
  std::array<PhaseStats, 4> phase;
  std::atomic<int> current{kWarmup};
  std::array<Slice, kSlices> slices;
  std::atomic<int> slice{-1};  // current slice of window A; -1 outside
  // Phase boundaries (absolute NowNs); window B is empty unless tracing.
  int64_t warm_start = 0, a_start = 0, b_start = 0, end = 0;
  // Serving epoch once each batch's Flush() returned; sized up front,
  // the first feed_sent entries are valid.
  std::vector<uint64_t> feed_epochs;
  std::atomic<size_t> feed_sent{0};
  uint64_t initial_epoch = 0;
  std::array<std::atomic<int64_t>, kOutstanding> submit_ns{};
  Tracer* tracer = nullptr;  // non-null in trace mode

  int PhaseAt(int64_t t) const {
    if (t < a_start) return kWarmup;
    if (t < b_start) return kWindowA;
    if (t < end) return kWindowB;
    return kDrain;
  }
  int SliceAt(int64_t t) const {
    if (t < a_start || t >= b_start) return -1;
    return static_cast<int>((t - a_start) * kSlices / (b_start - a_start));
  }
  int64_t SliceStart(int i) const {
    return a_start + (b_start - a_start) * i / kSlices;
  }
  double slice_seconds() const { return (b_start - a_start) / 1e9 / kSlices; }
  bool tracing() const { return tracer != nullptr && tracer->enabled(); }
};

/// Moves the run to the phase and slice the clock says, recording CPU
/// time at each slice boundary and switching tracing on for window B.
/// Called from one thread only (the one that paces the client).
void AdvancePhase(RunState& st, int64_t now) {
  const int want = st.PhaseAt(now);
  int cur = st.current.load(std::memory_order_relaxed);
  while (cur < want) {
    ++cur;
    if (cur == kWindowB && st.tracer != nullptr) st.tracer->on.store(true);
    if (cur == kDrain && st.tracer != nullptr) st.tracer->on.store(false);
    st.current.store(cur, std::memory_order_relaxed);
  }
  const int want_slice = st.SliceAt(now);
  const int cur_slice = st.slice.load(std::memory_order_relaxed);
  if (want_slice != cur_slice) {
    const double cpu = ProcessCpuSeconds();
    if (cur_slice >= 0) st.slices[cur_slice].cpu_end = cpu;
    if (want_slice >= 0) st.slices[want_slice].cpu_start = cpu;
    st.slice.store(want_slice, std::memory_order_relaxed);
  }
}

/// The open-loop feed: batch k is due at a_start + k * period whatever
/// happened to batch k-1, and its visibility runs from that due time to
/// Flush() returning, so a writer that falls behind shows as growing
/// visibility rather than as a slower feed.
template <class Engine>
void RunFeed(Engine& e, RunState& st) {
  for (size_t k = 0; k < st.feed_epochs.size(); ++k) {
    const int64_t due = st.a_start + static_cast<int64_t>(k) * kFeedPeriodNs;
    if (due >= st.end) break;
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
    const int64_t sent = NowNs();
    e.EnqueueUpdates(st.plan.Batch(st.base, k));
    const int64_t enqueued = NowNs();
    e.Flush();
    const int64_t visible = NowNs();
    st.feed_epochs[k] = e.CurrentEpoch();
    st.feed_sent.store(k + 1, std::memory_order_release);
    PhaseStats& ps = st.phase[st.PhaseAt(due)];
    ps.visible.Record(visible - due);
    ps.late.Record(sent - due);
    if (st.tracing()) {
      st.tracer->spans.Add("feed.batch", kBatchKey | k, 0, due, visible);
      st.tracer->spans.Add("feed.enqueue", kBatchKey | k, kBatchKey | k, sent,
                           enqueued);
      st.tracer->spans.Add("feed.flush", kBatchKey | k, kBatchKey | k,
                           enqueued, visible);
    }
  }
}

/// The point workloads' closed-loop client, written as a completion
/// sink: each completion is stamped and recorded (latency, failures,
/// audit samples) and its slot is resubmitted from the delivering
/// thread, so kOutstanding queries stay in flight without a client
/// thread competing with the reader for a CPU. Needs the result cache
/// off (the default), since a cache hit would deliver inside Submit.
template <class Engine>
class PointClient final : public CompletionSink {
 public:
  PointClient(Engine* e, RunState* st) : e_(e), st_(st) {}

  /// Runs the loop through every phase; returns once all are drained.
  void Run() {
    for (uint32_t slot = 0; slot < kOutstanding; ++slot) Submit(slot);
    std::vector<int64_t> boundaries;
    for (int i = 0; i < kSlices; ++i) boundaries.push_back(st_->SliceStart(i));
    boundaries.push_back(st_->b_start);
    boundaries.push_back(st_->end);
    for (int64_t boundary : boundaries) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(boundary)));
      AdvancePhase(*st_, NowNs());
    }
    while (outstanding_.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void Deliver(const Completion& c) override {
    const int64_t now = NowNs();
    const uint64_t q = c.tag >> 8;
    const uint32_t slot = c.tag & 0xff;
    const int64_t sent = st_->submit_ns[slot].load(std::memory_order_relaxed);
    const int phase = st_->current.load(std::memory_order_relaxed);
    PhaseStats& ps = st_->phase[phase];
    ps.requests.fetch_add(1, std::memory_order_relaxed);
    ps.attempted.fetch_add(1, std::memory_order_relaxed);
    if (c.code == StatusCode::kOk) {
      ps.latency.Record(now - sent);
      ps.distances.fetch_add(1, std::memory_order_relaxed);
      const int slice = st_->slice.load(std::memory_order_relaxed);
      if (slice >= 0) {
        st_->slices[slice].latency.Record(now - sent);
        st_->slices[slice].distances.fetch_add(1, std::memory_order_relaxed);
      }
      if ((q & kAuditMask) == 0) {
        const QueryPair& p = st_->pairs[q & (kPairs - 1)];
        st_->audit.Offer({p.first, p.second, c.epoch, c.distance});
      }
    } else {
      ps.failed.fetch_add(1, std::memory_order_relaxed);
    }
    if (st_->tracing() && (q & kSpanSampleMask) == 0) {
      st_->tracer->spans.Add("request", kRequestKey | c.tag, 0, sent, now);
    }
    if (phase == kDrain) {
      outstanding_.fetch_sub(1);
    } else {
      Submit(slot);
    }
  }

 private:
  void Submit(uint32_t slot) {
    const uint64_t q = next_q_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t tag = (q << 8) | slot;
    const int64_t t0 = NowNs();
    st_->submit_ns[slot].store(t0, std::memory_order_relaxed);
    const bool tracing = st_->tracing();
    e_->SubmitTagged(st_->pairs[q & (kPairs - 1)], tag, this);
    if (!tracing) return;
    const int64_t t1 = NowNs();
    st_->tracer->submit.Record(t1 - t0);
    if ((q & kSpanSampleMask) == 0) {
      st_->tracer->spans.Add("submit", kRequestKey | tag, kRequestKey | tag,
                             t0, t1);
    }
  }

  Engine* const e_;
  RunState* const st_;
  std::atomic<uint64_t> next_q_{0};
  std::atomic<uint32_t> outstanding_{kOutstanding};
};

/// One 16x16 matrix (SubmitBatch, 256 pairs) outstanding at a time.
template <class Engine>
void RunMatrixClient(Engine& e, RunState& st) {
  std::vector<QueryPair> queries(kMatrixSide * kMatrixSide);
  for (uint64_t r = 0;; ++r) {
    AdvancePhase(st, NowNs());
    if (st.current.load(std::memory_order_relaxed) == kDrain) break;
    const uint64_t base = r * kMatrixSide;
    for (uint32_t i = 0; i < kMatrixSide; ++i) {
      for (uint32_t j = 0; j < kMatrixSide; ++j) {
        queries[i * kMatrixSide + j] = {
            st.pairs[(base + i) & (kPairs - 1)].first,
            st.pairs[(base + j) & (kPairs - 1)].second};
      }
    }
    const int64_t t0 = NowNs();
    auto ticket = e.SubmitBatch(queries);
    const int64_t t1 = NowNs();
    ticket.Wait();
    const int64_t t2 = NowNs();
    const bool tracing = st.tracing();
    AdvancePhase(st, t2);
    PhaseStats& ps = st.phase[st.current.load(std::memory_order_relaxed)];
    uint64_t failed = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      failed += ticket.code(i) != StatusCode::kOk;
    }
    ps.requests.fetch_add(1, std::memory_order_relaxed);
    ps.attempted.fetch_add(queries.size(), std::memory_order_relaxed);
    ps.failed.fetch_add(failed, std::memory_order_relaxed);
    ps.distances.fetch_add(queries.size() - failed, std::memory_order_relaxed);
    if (failed == 0) ps.latency.Record(t2 - t0);
    const int slice = st.slice.load(std::memory_order_relaxed);
    if (slice >= 0) {
      if (failed == 0) st.slices[slice].latency.Record(t2 - t0);
      st.slices[slice].distances.fetch_add(queries.size() - failed,
                                           std::memory_order_relaxed);
    }
    for (size_t cell : {(r * 7) % queries.size(), (r * 13 + 5) % queries.size()}) {
      if (ticket.code(cell) != StatusCode::kOk) continue;
      st.audit.Offer({queries[cell].first, queries[cell].second,
                      ticket.epoch(), ticket.distance(cell)});
    }
    if (tracing) {
      st.tracer->submit.Record(t1 - t0);
      st.tracer->spans.Add("request", kRequestKey | r, 0, t0, t2);
      st.tracer->spans.Add("submit", kRequestKey | r, kRequestKey | r, t0, t1);
    }
  }
}

// ------------------------------------------------------------ audit

/// Checks every sampled answer against bidirectional Dijkstra on the
/// weights of the sample's epoch. Epochs are mapped to feed batches
/// through the epoch each Flush() returned; an epoch the feed never
/// produced counts as a mismatch. Returns the number of mismatches.
uint64_t Audit(const RunState& st, const std::vector<AuditSample>& samples) {
  // state -1 = base weights; p >= 0 = base + pair p congested.
  std::unordered_map<uint64_t, int64_t> state_of{{st.initial_epoch, -1}};
  const size_t sent = st.feed_sent.load(std::memory_order_acquire);
  for (size_t k = 0; k < sent; ++k) {
    state_of[st.feed_epochs[k]] = (k % 2 == 0) ? static_cast<int64_t>(k / 2) : -1;
  }
  std::map<int64_t, std::vector<const AuditSample*>> by_state;
  uint64_t bad = 0;
  for (const AuditSample& s : samples) {
    auto it = state_of.find(s.epoch);
    if (it == state_of.end()) {
      ++bad;
      continue;
    }
    by_state[it->second].push_back(&s);
  }
  Graph g = st.base;
  BidirectionalDijkstra oracle(g);
  for (const auto& [state, group] : by_state) {
    std::vector<WeightUpdate> batch;
    if (state >= 0) {
      batch = st.plan.Batch(st.base, 2 * static_cast<size_t>(state));
      for (const WeightUpdate& u : batch) g.SetEdgeWeight(u.edge, u.new_weight);
    }
    for (const AuditSample* s : group) {
      if (oracle.Distance(s->s, s->t) != s->distance) ++bad;
    }
    for (const WeightUpdate& u : batch) g.SetEdgeWeight(u.edge, u.old_weight);
  }
  return bad;
}

// ------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/// Mean of the middle half of `v` (the lowest and highest quarter
/// dropped). Where a median of values drawn from a host that flips
/// between a fast and a slow phase jumps to whichever phase holds the
/// majority, this moves smoothly with the share of time in each, and
/// like the median it ignores a stall.
double InterquartileMean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  if (lo >= hi) return Median(std::move(v));
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

// ------------------------------------------------------------ replays

/// The paper's index alone: build split and STL-P repair of the same
/// feed on a standalone StlIndex (one thread, no serving stack).
struct CoreReplay {
  double hierarchy_s = 0, labelling_s = 0;
  double apply_ms_p50 = 0, apply_ms_p90 = 0;
  double label_writes_per_update = 0, affected_pairs_per_update = 0;
  double apply_busy_s = 0;  // total repair time of the replayed feed
};

CoreReplay ReplayCore(const RunState& st, size_t batches) {
  Graph g = st.base;
  StlIndex index = StlIndex::Build(&g, HierarchyOptions{});
  CoreReplay r;
  r.hierarchy_s = index.build_info().hierarchy_seconds;
  r.labelling_s = index.build_info().labelling_seconds;
  const MaintenanceStats before = index.MaintenanceStatsTotal();
  Histogram apply;
  for (size_t k = 0; k < batches; ++k) {
    UpdateBatch batch = st.plan.Batch(st.base, k);
    for (WeightUpdate& u : batch) u.old_weight = g.EdgeWeight(u.edge);
    const int64_t t0 = NowNs();
    index.ApplyBatch(batch, MaintenanceStrategy::kParetoSearch);
    const int64_t took = NowNs() - t0;
    apply.Record(took);
    r.apply_busy_s += took / 1e9;
  }
  const MaintenanceStats after = index.MaintenanceStatsTotal();
  const double updates = static_cast<double>(std::max<size_t>(1, batches) * kEdgesPerBatch);
  r.apply_ms_p50 = apply.Quantile(0.5) / 1e6;
  r.apply_ms_p90 = apply.Quantile(0.9) / 1e6;
  r.label_writes_per_update =
      static_cast<double>(after.label_writes - before.label_writes) / updates;
  r.affected_pairs_per_update =
      static_cast<double>(after.affected_pairs - before.affected_pairs) / updates;
  return r;
}

/// Median time of `fn` over `n` calls (7 passes), in ns per call.
template <class Fn>
double TimePerCall(size_t n, Fn&& fn) {
  std::vector<double> per_call;
  for (int rep = 0; rep < 7; ++rep) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) fn(i);
    per_call.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(n));
  }
  return Median(per_call);
}

/// The DistanceIndex layer alone: the same feed through ApplyBatch +
/// PublishView, with a published graph copy held between epochs as the
/// engine does, so CoW clones are what serving pays. Also times the
/// bare label scan on the final published view.
struct IndexReplay {
  double publish_us = 0;
  double cow_kb_per_epoch = 0;
  double query_ns = 0;
};

IndexReplay ReplayIndex(const RunState& st, size_t batches) {
  Graph g = st.base;
  std::unique_ptr<DistanceIndex> index =
      MakeDistanceIndex(BackendKind::kStl, &g, HierarchyOptions{});
  PublishInfo info;
  std::shared_ptr<const IndexView> view = index->PublishView(false, &info);
  Graph published = g;
  const uint64_t graph_bytes0 = g.cow_stats().bytes_cloned;
  uint64_t label_bytes = 0;
  Histogram publish;
  for (size_t k = 0; k < batches; ++k) {
    UpdateBatch batch = st.plan.Batch(st.base, k);
    for (WeightUpdate& u : batch) u.old_weight = g.EdgeWeight(u.edge);
    index->ApplyBatch(batch, MaintenanceStrategy::kParetoSearch);
    const int64_t t0 = NowNs();
    view = index->PublishView(false, &info);
    publish.Record(NowNs() - t0);
    published = g;
    label_bytes += info.label_bytes_cloned;
  }
  IndexReplay r;
  const double epochs = static_cast<double>(std::max<size_t>(1, batches));
  r.publish_us = publish.Quantile(0.5) / 1e3;
  r.cow_kb_per_epoch =
      static_cast<double>(label_bytes + g.cow_stats().bytes_cloned - graph_bytes0) /
      1024.0 / epochs;
  // Bare label scans on the served view, one thread.
  r.query_ns = TimePerCall(4096, [&](size_t i) {
    volatile Weight w = view->Query(st.pairs[i].first, st.pairs[i].second);
    (void)w;
  });
  return r;
}

/// Wire codec cost per query RPC (request + response), encoding and
/// decoding the payloads captured by the transport wrapper.
std::pair<double, double> TimeWire(Tracer* tracer) {
  std::lock_guard<std::mutex> lock(tracer->wire_mu);
  const auto& reqs = tracer->wire_requests;
  const auto& resps = tracer->wire_responses;
  if (reqs.empty() || resps.empty()) return {0, 0};
  std::vector<ShardRequest> req_msgs(reqs.size());
  std::vector<ShardResponse> resp_msgs(resps.size());
  uint64_t sink = 0;
  const double req_decode = TimePerCall(reqs.size(), [&](size_t i) {
    sink += ShardRequest::Decode(reqs[i].data(), reqs[i].size(), &req_msgs[i]).ok();
  });
  const double resp_decode = TimePerCall(resps.size(), [&](size_t i) {
    sink += ShardResponse::Decode(resps[i].data(), resps[i].size(), &resp_msgs[i]).ok();
  });
  const double req_encode = TimePerCall(
      req_msgs.size(), [&](size_t i) { sink += req_msgs[i].Encode().size(); });
  const double resp_encode = TimePerCall(
      resp_msgs.size(), [&](size_t i) { sink += resp_msgs[i].Encode().size(); });
  asm volatile("" : : "r"(sink) : "memory");
  return {req_encode + resp_encode, req_decode + resp_decode};
}

/// Links spans whose cause cannot be named from outside (RPCs, replica
/// handler calls) to the latest-starting candidate parent that covers
/// them in time, then writes every span as one JSON line.
void WriteSpans(Tracer* tracer, int64_t origin_ns, const std::string& path) {
  Span* spans = tracer->spans.data();
  const size_t n = tracer->spans.size();
  std::vector<const Span*> requests, batches, rpcs;
  for (size_t i = 0; i < n; ++i) {
    const std::string name = spans[i].name;
    if (name == "request") requests.push_back(&spans[i]);
    if (name == "feed.batch") batches.push_back(&spans[i]);
    if (name == "rpc.query" || name == "rpc.install") rpcs.push_back(&spans[i]);
  }
  auto by_start = [](const Span* a, const Span* b) { return a->start_ns < b->start_ns; };
  std::sort(requests.begin(), requests.end(), by_start);
  std::sort(batches.begin(), batches.end(), by_start);
  std::sort(rpcs.begin(), rpcs.end(), by_start);
  auto link = [&](Span& child, const std::vector<const Span*>& parents) {
    auto it = std::upper_bound(
        parents.begin(), parents.end(), child.start_ns,
        [](int64_t t, const Span* p) { return t < p->start_ns; });
    for (int scanned = 0; it != parents.begin() && scanned < 64; ++scanned) {
      --it;
      if ((*it)->end_ns >= child.end_ns) {
        child.parent = (*it)->key;
        return;
      }
    }
  };
  for (size_t i = 0; i < n; ++i) {
    const std::string name = spans[i].name;
    if (name == "rpc.query") link(spans[i], requests);
    if (name == "rpc.install") link(spans[i], batches);
    if (name == "replica.query" || name == "replica.install") link(spans[i], rpcs);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"key\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 spans[i].name, spans[i].key, spans[i].parent,
                 (spans[i].start_ns - origin_ns) / 1e3,
                 (spans[i].end_ns - origin_ns) / 1e3);
  }
  std::fclose(f);
}

// ------------------------------------------------------------ runs

double ElapsedSeconds(int64_t t0) { return (NowNs() - t0) / 1e9; }

/// Counter deltas over the traced window (Stats() before and after).
struct StatsDelta {
  TierStats a, b;
  double d(uint64_t EngineStats::*f) const {
    return static_cast<double>(b.serving.*f - a.serving.*f);
  }
  double d(double EngineStats::*f) const { return b.serving.*f - a.serving.*f; }
  double d(uint64_t TierStats::*f) const {
    return static_cast<double>(b.*f - a.*f);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Drives one tier instance through warm-up, the window(s) and the
/// drain: the feed on its own thread, the closed-loop client on this
/// one. With a tracer the window is split into an untraced half (A) and
/// a traced half (B), and `delta` gets Stats() at B's start and end.
template <class Tier>
void Measure(Tier& tier, RunState& st, StatsDelta* delta) {
  auto& e = tier.serving();
  st.initial_epoch = e.CurrentEpoch();
  st.warm_start = NowNs();
  st.a_start = st.warm_start + kWarmupNs;
  st.end = st.a_start + st.window_ns;
  st.b_start = st.tracer != nullptr ? st.a_start + st.window_ns / 2 : st.end;
  std::thread feed([&] { RunFeed(e, st); });
  std::thread stats_reader;
  if (delta != nullptr) {
    stats_reader = std::thread([&] {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(st.b_start)));
      delta->a = tier.Stats();
    });
  }
  if constexpr (std::is_same_v<Tier, ShardedTier>) {
    RunMatrixClient(e, st);
  } else {
    PointClient<std::remove_reference_t<decltype(e)>>(&e, &st).Run();
  }
  feed.join();
  if (stats_reader.joinable()) stats_reader.join();
  if (delta != nullptr) delta->b = tier.Stats();
}

/// Window A's end-to-end figures, one value per slice, pooled over the
/// instances of a run.
struct EndToEnd {
  std::vector<double> capacity, p50_us, p90_us, cpu_us;

  /// Appends the instance's slices; returns the instance's medians
  /// over them for its human-readable line.
  EndToEnd Add(const RunState& st) {
    EndToEnd one;
    for (const Slice& sl : st.slices) {
      const double n = static_cast<double>(sl.distances.load());
      one.capacity.push_back(n / st.slice_seconds());
      one.p50_us.push_back(sl.latency.Quantile(0.5) / 1e3);
      one.p90_us.push_back(sl.latency.Quantile(0.9) / 1e3);
      one.cpu_us.push_back((sl.cpu_end - sl.cpu_start) * 1e6 / std::max(1.0, n));
    }
    capacity.insert(capacity.end(), one.capacity.begin(), one.capacity.end());
    p50_us.insert(p50_us.end(), one.p50_us.begin(), one.p50_us.end());
    p90_us.insert(p90_us.end(), one.p90_us.begin(), one.p90_us.end());
    cpu_us.insert(cpu_us.end(), one.cpu_us.begin(), one.cpu_us.end());
    return one;
  }
};

/// Audits the instance's samples and prints its human-readable lines.
/// Returns the number of wrong answers (a run with no sample is wrong).
uint64_t Report(RunState& st, const char* label) {
  const std::vector<AuditSample> samples = st.audit.Take();
  const uint64_t mismatches = Audit(st, samples) + (samples.empty() ? 1 : 0);
  const PhaseStats& A = st.phase[kWindowA];
  std::printf("# %s: %" PRIu64 " requests (%" PRIu64 " latency samples), %" PRIu64
              " distances, %" PRIu64 " failed; %zu feed batches, late p50 %.3f "
              "ms max %.3f ms; audit %zu answers, %" PRIu64 " wrong\n",
              label, A.requests.load(), A.latency.Count(), A.distances.load(),
              A.failed.load(), st.feed_sent.load(), A.late.Quantile(0.5) / 1e6,
              A.late.Max() / 1e6, samples.size(), mismatches);
  return mismatches;
}

/// Hands the pages a torn-down tier freed back to the system, off the
/// clock. Without it each instance's writer and reader threads leave
/// their malloc arenas' free memory resident, peak RSS climbs instance
/// by instance (on flat-point from 50 MB to 67-75 MB over 5 instances)
/// and measures how the allocator reused earlier tiers' memory rather
/// than one tier's footprint.
void ReleaseFreedMemory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void PrintHeader(const Args& args) {
  std::printf("# workload=%s seed=%" PRIu64 " network=%s seconds=%.1f trace=%d\n",
              args.workload.c_str(), args.seed, kNetwork, args.seconds,
              args.trace ? 1 : 0);
  std::printf("# envelope: git_sha=%s nproc=%u compiler=\"g++ %s\" seed=%" PRIu64
              "\n", args.git_sha.c_str(), std::thread::hardware_concurrency(),
              __VERSION__, args.seed);
}

/// The end-to-end run: kInstances fresh tier instances one after the
/// other, each built (timed), measured for seconds / kInstances with its
/// own seed-derived inputs, torn down and audited. The request, capacity
/// and CPU figures are interquartile means over all kInstances *
/// kSlices window slices, so neither a stall nor an instance with an
/// unlucky thread placement sets a figure; visibility is the p50 of
/// every instance's feed batches pooled; setup_s is the median build
/// time, after one untimed warm-up build.
template <class Tier>
int RunEndToEnd(const Args& args, const Graph& g) {
  PrintHeader(args);
  Tier::Build(g, nullptr).reset();
  ReleaseFreedMemory();
  const auto window_ns =
      static_cast<int64_t>(args.seconds * 1e9 / kInstances);
  std::vector<double> setup;
  EndToEnd slices;
  auto visible = std::make_unique<Histogram>();
  uint64_t attempted = 0, failed = 0, wrong = 0;
  for (int i = 0; i < kInstances; ++i) {
    const int64_t t0 = NowNs();
    std::unique_ptr<Tier> tier = Tier::Build(g, nullptr);
    setup.push_back(ElapsedSeconds(t0));
    auto st = std::make_unique<RunState>(g, args.seed * kInstances + i, window_ns);
    Measure(*tier, *st, nullptr);
    tier.reset();
    ReleaseFreedMemory();
    const std::string label = "instance " + std::to_string(i);
    wrong += Report(*st, label.c_str());
    const EndToEnd r = slices.Add(*st);
    visible->Merge(st->phase[kWindowA].visible);
    std::printf("#   capacity %.0f/s, request p50 %.2f us p90 %.2f us, visible "
                "p50 %.3f ms, cpu %.3f us/dist (medians over slices)\n",
                Median(r.capacity), Median(r.p50_us), Median(r.p90_us),
                st->phase[kWindowA].visible.Quantile(0.5) / 1e6,
                Median(r.cpu_us));
    attempted += st->phase[kWindowA].attempted;
    failed += st->phase[kWindowA].failed;
  }
  const std::vector<Metric> metrics = {
      {"setup_s", Median(setup), "s"},
      {"capacity_dist_per_s", InterquartileMean(slices.capacity), "1/s"},
      {"request_p50_us", InterquartileMean(slices.p50_us), "us"},
      {"request_p90_us", InterquartileMean(slices.p90_us), "us"},
      {"update_visible_p50_ms", visible->Quantile(0.5) / 1e6, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"cpu_us_per_dist", InterquartileMean(slices.cpu_us), "us"},
  };
  std::printf("# setup builds (s):");
  for (double t : setup) std::printf(" %.3f", t);
  std::printf("\n# failed_ratio %.6f over %" PRIu64 " attempted distances\n",
              Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              attempted);
  for (const Metric& m : metrics) {
    std::printf("# %-24s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(wrong == 0, attempted, failed, metrics);
  return wrong == 0 ? 0 : 1;
}

/// The distributed tier's per-layer figures. The sharded workload's
/// traced run also stands up ShardRouter over SocketTransport to 2
/// in-process ReplicaNodes on FrameServers (localhost TCP, kInstall
/// applied inline on the replica loop thread) and serves the point
/// client and the same feed through it, timing the RPCs through the
/// Transport wrapper and the replica work through the handler wrapper.
struct RouterProbe {
  double request_p50_us = 0, rtt_p50_us = 0, rtt_p99_us = 0;
  double replica_query_p50_us = 0, install_rtt_p50_ms = 0;
  double replica_install_p50_ms = 0, replica_install_max_ms = 0;
  double rpcs_per_query = 0, retry_ratio = 0, bytes_per_rpc = 0;
  double wire_encode_ns = 0, wire_decode_ns = 0, reconnects = 0;
  uint64_t wrong = 0, attempted = 0, failed = 0;
};

RouterProbe ProbeRouter(const Args& args, const Graph& g) {
  auto tracer = std::make_unique<Tracer>();
  Tracer& T = *tracer;
  std::unique_ptr<RouterTier> tier = RouterTier::Build(g, tracer.get());
  auto st = std::make_unique<RunState>(
      g, args.seed, static_cast<int64_t>(args.seconds * 1e9 / 2));
  st->tracer = tracer.get();
  StatsDelta delta;
  Measure(*tier, *st, &delta);
  RouterProbe r;
  r.reconnects = static_cast<double>(tier->socket->reconnects());
  tier.reset();
  r.wrong = Report(*st, "router probe");
  const PhaseStats& A = st->phase[kWindowA];
  const PhaseStats& B = st->phase[kWindowB];
  r.attempted = A.attempted + B.attempted;
  r.failed = A.failed + B.failed;
  const double rpcs = static_cast<double>(T.query_rpcs.load());
  r.request_p50_us = A.latency.Quantile(0.5) / 1e3;
  r.rtt_p50_us = T.rpc_rtt_query.Quantile(0.5) / 1e3;
  r.rtt_p99_us = T.rpc_rtt_query.Quantile(0.99) / 1e3;
  r.replica_query_p50_us = T.replica_query.Quantile(0.5) / 1e3;
  r.install_rtt_p50_ms = T.rpc_rtt_install.Quantile(0.5) / 1e6;
  r.replica_install_p50_ms = T.replica_install.Quantile(0.5) / 1e6;
  r.replica_install_max_ms = T.replica_install.Max() / 1e6;
  r.rpcs_per_query = Ratio(rpcs, static_cast<double>(B.requests));
  r.retry_ratio =
      Ratio(delta.d(&TierStats::rpc_retries), delta.d(&TierStats::rpcs_sent));
  r.bytes_per_rpc =
      Ratio(static_cast<double>(T.query_rpc_bytes.load()) + 2 * 12 * rpcs, rpcs);
  std::tie(r.wire_encode_ns, r.wire_decode_ns) = TimeWire(&T);
  if (!args.spans_path.empty()) {
    const std::string path = args.spans_path + ".router.jsonl";
    WriteSpans(&T, st->warm_start, path);
    std::printf("# router probe spans: %zu written to %s (%" PRIu64 " dropped)\n",
                T.spans.size(), path.c_str(), T.spans.dropped());
  }
  const double hop = r.rtt_p50_us - r.replica_query_p50_us;
  std::printf("# router probe: request_p50 %.2f us, %.2f RPCs per query; RPC "
              "p50 %.2f us = replica handler %.2f us + network/loop hop %.2f us; "
              "router-side rest %.2f us; install p50 %.3f ms of RPC %.3f ms\n",
              r.request_p50_us, r.rpcs_per_query, r.rtt_p50_us,
              r.replica_query_p50_us, hop, r.request_p50_us - r.rtt_p50_us,
              r.replica_install_p50_ms, r.install_rtt_p50_ms);
  return r;
}

/// The traced run: one instance whose window is split into an untraced
/// half (A) and a traced half (B); then replays and snapshot probes off
/// the clock, the per-layer metrics, the self-time summary, the tracing
/// overhead (B against A) and the span file. The sharded workload adds
/// the router probe for the dist and net layers.
template <class Tier>
int RunTraced(const Args& args, const Graph& g) {
  PrintHeader(args);
  constexpr bool matrix = std::is_same_v<Tier, ShardedTier>;
  auto tracer = std::make_unique<Tracer>();
  Tracer& T = *tracer;
  std::unique_ptr<Tier> tier = Tier::Build(g, tracer.get());
  auto st_owner = std::make_unique<RunState>(
      g, args.seed, static_cast<int64_t>(args.seconds * 1e9));
  RunState& st = *st_owner;
  st.tracer = tracer.get();
  StatsDelta delta;
  Measure(*tier, st, &delta);

  const PhaseStats& A = st.phase[kWindowA];
  const PhaseStats& B = st.phase[kWindowB];
  const double a_seconds = (st.b_start - st.a_start) / 1e9;
  const double b_seconds = (st.end - st.b_start) / 1e9;
  const size_t batches_sent = st.feed_sent.load();
  const double pairs_per_request = matrix ? kMatrixSide * kMatrixSide : 1;

  // The bare per-pair route on the final snapshot needs the live tier;
  // clients and feed are idle now.
  double matrix_route_us = 0;
  if constexpr (matrix) {
    auto snap = tier->serving().CurrentSnapshot();
    const double ns = TimePerCall(1024, [&](size_t i) {
      const QueryPair& p = st.pairs[i];
      volatile Weight w = snap->Query(p.first, p.second);
      (void)w;
    });
    matrix_route_us = ns * pairs_per_request / 1e3;
  }
  tier.reset();
  uint64_t wrong = Report(st, "traced instance");
  uint64_t attempted = A.attempted + B.attempted;
  uint64_t failed = A.failed + B.failed;

  const CoreReplay core = ReplayCore(st, batches_sent);
  const IndexReplay index = ReplayIndex(st, batches_sent);
  RouterProbe probe;
  if (matrix) {
    probe = ProbeRouter(args, g);
    wrong += probe.wrong;
    attempted += probe.attempted;
    failed += probe.failed;
  }
  const bool correct = wrong == 0;

  const double request_p50_us = A.latency.Quantile(0.5) / 1e3;
  const double visible_p50_ms = A.visible.Quantile(0.5) / 1e6;
  const double core_request_us = pairs_per_request * index.query_ns / 1e3;
  const double route_us = matrix ? matrix_route_us : core_request_us;
  const double overlay_repair_us =
      Ratio(delta.d(&EngineStats::overlay_repair_micros),
            delta.d(&EngineStats::overlay_republishes));
  const double writer_lag_ms =
      visible_p50_ms - core.apply_ms_p50 - index.publish_us / 1e3;
  const double trace_p50_us = B.latency.Quantile(0.5) / 1e3;
  const double cap_a = A.distances / a_seconds;
  const double cap_b = B.distances / b_seconds;

  const std::vector<Metric> metrics = {
      {"core.query_ns", index.query_ns, "ns"},
      {"core.hierarchy_s", core.hierarchy_s, "s"},
      {"core.labelling_s", core.labelling_s, "s"},
      {"core.apply_ms_p50", core.apply_ms_p50, "ms"},
      {"core.apply_ms_p90", core.apply_ms_p90, "ms"},
      {"core.label_writes_per_update", core.label_writes_per_update, "count"},
      {"core.affected_pairs_per_update", core.affected_pairs_per_update, "count"},
      {"index.publish_us", index.publish_us, "us"},
      {"index.cow_kb_per_epoch", index.cow_kb_per_epoch, "kB"},
      {"index.overlay_repair_us_per_epoch", overlay_repair_us, "us"},
      {"index.overlay_full_rebuild_ratio",
       Ratio(delta.d(&EngineStats::overlay_full_rebuilds),
             delta.d(&EngineStats::overlay_republishes)), "ratio"},
      {"index.overlay_rows_repaired_ratio",
       Ratio(delta.d(&EngineStats::overlay_rows_repaired),
             delta.d(&EngineStats::overlay_rows_total)), "ratio"},
      {"index.row_cache_hit_rate",
       Ratio(delta.d(&EngineStats::boundary_row_cache_hits),
             delta.d(&EngineStats::boundary_row_cache_lookups)), "ratio"},
      {"index.matrix_route_us", matrix_route_us, "us"},
      {"engine.submit_ns", T.submit.Quantile(0.5), "ns"},
      {"engine.overhead_us_p50", request_p50_us - route_us, "us"},
      {"engine.publish_us_per_epoch",
       Ratio(delta.d(&EngineStats::publish_total_micros),
             delta.d(&EngineStats::epochs_published)), "us"},
      {"engine.writer_lag_ms", writer_lag_ms, "ms"},
      {"engine.coalesced_ratio",
       Ratio(delta.d(&EngineStats::updates_coalesced),
             delta.d(&EngineStats::updates_enqueued)), "ratio"},
      {"engine.feed_late_ms_p90", A.late.Quantile(0.9) / 1e6, "ms"},
      {"dist.rpcs_per_query", probe.rpcs_per_query, "count"},
      {"dist.rpc_retry_ratio", probe.retry_ratio, "ratio"},
      {"dist.rpc_rtt_us_p50", probe.rtt_p50_us, "us"},
      {"dist.rpc_rtt_us_p99", probe.rtt_p99_us, "us"},
      {"dist.replica_query_us_p50", probe.replica_query_p50_us, "us"},
      {"dist.replica_install_ms_p50", probe.replica_install_p50_ms, "ms"},
      {"dist.replica_install_ms_max", probe.replica_install_max_ms, "ms"},
      {"dist.wire_encode_ns", probe.wire_encode_ns, "ns"},
      {"dist.wire_decode_ns", probe.wire_decode_ns, "ns"},
      {"net.hop_us_p50", matrix ? probe.rtt_p50_us - probe.replica_query_p50_us : 0,
       "us"},
      {"net.bytes_per_rpc", probe.bytes_per_rpc, "B"},
      {"net.reconnects", probe.reconnects, "count"},
      {"trace.overhead_request_p50_pct",
       100.0 * Ratio(trace_p50_us - request_p50_us, request_p50_us), "%"},
      {"trace.overhead_capacity_pct", 100.0 * Ratio(cap_a - cap_b, cap_a), "%"},
  };
  for (const Metric& m : metrics) {
    std::printf("# %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("# core replay: %zu batches repaired in %.3f s, %.0f%% of the "
              "feed's %.3f s schedule\n",
              batches_sent, core.apply_busy_s,
              100.0 * Ratio(core.apply_busy_s, batches_sent * kFeedPeriodNs / 1e9),
              batches_sent * kFeedPeriodNs / 1e9);

  // Self-time summary: each layer's share of request p50 and of
  // update_visible p50, from the medians above (see perfbench/README.md
  // for the decomposition). The last share is what remains once the
  // measured parts are subtracted.
  struct Share { const char* layer; double value; };
  const double submit_us = T.submit.Quantile(0.5) / 1e3;
  const std::array<Share, 3> req = {{
      {"core", core_request_us}, {"engine.submit", submit_us},
      {matrix ? "index+engine (grouping, row fetches, pool)" : "engine (pool queue, wake-ups)",
       request_p50_us - core_request_us - submit_us}}};
  const double vis_index = index.publish_us / 1e3 + overlay_repair_us / 1e3;
  const std::array<Share, 3> vis = {{
      {"core", core.apply_ms_p50}, {"index", vis_index},
      {"engine (queue, wake-ups, contention)",
       visible_p50_ms - core.apply_ms_p50 - vis_index}}};
  std::printf("# self-time of request_p50 = %.2f us:", request_p50_us);
  for (const Share& s : req) {
    std::printf(" %s %.1f%%", s.layer, 100.0 * Ratio(s.value, request_p50_us));
  }
  std::printf("\n# self-time of update_visible_p50 = %.3f ms:", visible_p50_ms);
  for (const Share& s : vis) {
    std::printf(" %s %.1f%%", s.layer, 100.0 * Ratio(s.value, visible_p50_ms));
  }
  std::printf("\n# tracing overhead: request_p50 %.2f -> %.2f us, capacity %.0f -> %.0f dist/s\n",
              request_p50_us, trace_p50_us, cap_a, cap_b);
  if (!args.spans_path.empty()) {
    WriteSpans(&T, st.warm_start, args.spans_path);
    std::printf("# spans: %zu written to %s (%" PRIu64 " dropped)\n",
                T.spans.size(), args.spans_path.c_str(), T.spans.dropped());
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace stl::perfbench

int main(int argc, char** argv) {
  using namespace stl::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload flat-point|sharded-matrix "
                 "--seed N --seconds S --trace 0|1 "
                 "[--spans PATH] [--git-sha SHA]\n");
    return 2;
  }
  const stl::DatasetSpec* spec = nullptr;
  for (const stl::DatasetSpec& d : stl::AllDatasets()) {
    if (d.name == kNetwork) spec = &d;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "dataset %s missing from the registry\n", kNetwork);
    return 2;
  }
  const stl::Graph g = stl::LoadDataset(*spec);
  if (args.workload == "flat-point") {
    return args.trace ? RunTraced<FlatTier>(args, g) : RunEndToEnd<FlatTier>(args, g);
  }
  return args.trace ? RunTraced<ShardedTier>(args, g)
                    : RunEndToEnd<ShardedTier>(args, g);
}
