#include "dist/shard_router.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "engine/cell_route.h"
#include "util/logging.h"

namespace stl {

namespace {

ServingCoreOptions RouterCoreOptions(const ShardRouterOptions& options) {
  ServingCoreOptions core;
  core.num_query_threads = options.num_query_threads;
  core.max_batch_size = options.max_batch_size;
  core.result_cache_entries = options.result_cache_entries;
  core.serving = options.serving;
  return core;
}

/// Key of a fetched boundary row: which vertex's row, on which shard.
inline uint64_t RowKey(uint32_t shard, Vertex v) {
  return (static_cast<uint64_t>(v) << 32) | shard;
}

/// Key of a fetched same-cell point distance (the owning shard is a
/// function of s, so (s, t) identifies the fetch).
inline uint64_t PointKey(Vertex s, Vertex t) {
  return (static_cast<uint64_t>(s) << 32) | t;
}

}  // namespace

// ------------------------------------------------------------ SpanFanout

// The scatter-gather state of one routed span (a batch chunk or a
// burst of point queries). It is also the row source CellRouter
// (engine/cell_route.h) reads, in two phases:
//
//   scatter — run the span's decomposition over the still-empty slots:
//     every Row/Point request pre-creates its slot (so the maps never
//     rehash under concurrent arrivals) and reads as unavailable, so
//     the span's UNIQUE fetch set falls out of the same case analysis
//     that later consumes it. Then issue them all through
//     CallReplicaAsync. Each arrival writes only its own slot; no lock.
//
//   gather — the LAST arrival (pending counter, acq_rel so every
//     slot write happens-before the read side) runs Compute(): the
//     same decomposition, sequentially over the span in submission-
//     sorted order, now reading the filled slots. One thread,
//     deterministic order, bit-identical answers.
//
// Kept alive by the shared_ptr each in-flight callback captures; the
// issuing reader thread returns as soon as the scatter loop finishes.
// `snap` (and the span arrays) are pinned by `done` until it runs.
struct ShardRouter::SpanFanout
    : public std::enable_shared_from_this<ShardRouter::SpanFanout> {
  ShardRouter* router = nullptr;
  const ShardedSnapshot* snap = nullptr;
  const QueryPair* queries = nullptr;
  const uint32_t* idx = nullptr;
  size_t count = 0;
  Weight* out = nullptr;
  StatusCode* codes = nullptr;
  std::function<void()> done;

  // (vertex << 32 | shard) -> fetched row; nullopt = not yet fetched,
  // replica-exhausted, or malformed width.
  std::unordered_map<uint64_t, std::optional<std::vector<Weight>>> rows;
  // (s << 32 | t) -> same-cell distance; nullopt = not yet fetched or
  // replica-exhausted.
  std::unordered_map<uint64_t, std::optional<Weight>> points;
  // False during the scatter's enumeration; a slot first requested
  // during the gather would be a fetch the enumeration missed.
  bool gathering = false;

  // Outstanding fetches + 1 (the scatter loop's own guard, dropped
  // after the last issue so an all-inline transport cannot fire the
  // gather before enumeration finishes).
  std::atomic<size_t> pending{1};

  std::vector<Weight> route;  // CellRouter's column and inner scratch

  /// CellRouter row source: the fetched row of (shard, v), or null.
  const std::vector<Weight>* Row(uint32_t shard, Vertex v) {
    auto [it, fresh] = rows.try_emplace(RowKey(shard, v));
    STL_DCHECK(!(fresh && gathering)) << "row not enumerated";
    return it->second ? &*it->second : nullptr;
  }

  /// CellRouter point source: the fetched same-cell distance, or false.
  bool Point(Vertex s, Vertex t, Weight* d) {
    auto [it, fresh] = points.try_emplace(PointKey(s, t));
    STL_DCHECK(!(fresh && gathering)) << "point not enumerated";
    if (!it->second) return false;
    *d = *it->second;
    return true;
  }

  void Start() {
    const ShardLayout& lay = *snap->layout;
    // Pass 1: enumerate every unique slot the span's routes request.
    {
      CellRouter<SpanFanout> enumerate(*snap, this, &route);
      for (size_t j = 0; j < count; ++j) {
        const QueryPair& q = queries[idx[j]];
        StatusCode unused = StatusCode::kOk;
        enumerate.Route(q.first, q.second, &unused);
      }
    }
    gathering = true;
    // Pass 2: issue everything. From here on arrivals may run (inline
    // for a synchronous transport) on any thread; they only write
    // their own pre-created slot and decrement pending.
    pending.store(rows.size() + points.size() + 1,
                  std::memory_order_relaxed);
    auto self = shared_from_this();
    for (auto& [key, slot] : rows) {
      const uint32_t shard = static_cast<uint32_t>(key & 0xffffffffu);
      const Vertex v = static_cast<Vertex>(key >> 32);
      ShardRequest req;
      req.kind = WireKind::kBoundaryRow;
      req.shard = shard;
      req.shard_epoch = snap->shards[shard]->shard_epoch;  // pinned
      req.u = v;
      auto* slot_ptr = &slot;
      router->CallReplicaAsync(
          req, [self, slot_ptr, shard](bool ok, ShardResponse resp) {
            if (ok) {
              // Width guard: a malformed |S_i| row is as unusable as no
              // row (and is not retried on siblings — CallReplicaAsync
              // already settled).
              const size_t width = self->snap->layout->shards[shard]
                                       .boundary_local.size();
              if (resp.row.size() == width) *slot_ptr = std::move(resp.row);
            }
            self->Arrive();
          });
    }
    for (auto& [key, slot] : points) {
      const Vertex s = static_cast<Vertex>(key >> 32);
      const Vertex t = static_cast<Vertex>(key & 0xffffffffu);
      ShardRequest req;
      req.kind = WireKind::kPointQuery;
      req.shard = lay.shard_of_vertex[s];
      req.shard_epoch = snap->shards[req.shard]->shard_epoch;  // pinned
      req.u = s;
      req.v = t;
      auto* slot_ptr = &slot;
      router->CallReplicaAsync(req,
                               [self, slot_ptr](bool ok, ShardResponse resp) {
                                 if (ok) *slot_ptr = resp.distance;
                                 self->Arrive();
                               });
    }
    Arrive();  // drop the scatter guard
  }

  /// One fetch landed (or the scatter loop finished): the last arrival
  /// runs the gather phase and the caller's continuation.
  void Arrive() {
    if (pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    Compute();
    // Run-and-release: `fn` captures the ticket or point burst that
    // owns the span arrays. Nothing here touches `snap` once `fn` has
    // run: it may release the last pin.
    std::function<void()> fn = std::move(done);
    done = nullptr;
    fn();
  }

  /// The sequential compute phase: the decomposition per query over
  /// the filled slots. Chunks touch disjoint out/codes slots.
  void Compute() {
    CellRouter<SpanFanout> compute(*snap, this, &route);
    for (size_t j = 0; j < count; ++j) {
      const QueryPair& q = queries[idx[j]];
      out[idx[j]] = compute.Route(q.first, q.second, &codes[idx[j]]);
    }
  }
};

// ----------------------------------------------------------- PendingCall

// One RPC's failover chain: attempt k targets endpoint (start + k) % n
// with a fresh tag; a usable answer settles `done`, anything else
// chains to attempt k + 1 from whatever thread delivered the verdict.
// The encoded request is shared (encode once) across all attempts.
// Depth is bounded by n even with an inline-delivering transport.
struct ShardRouter::PendingCall
    : public std::enable_shared_from_this<ShardRouter::PendingCall> {
  ShardRouter* router = nullptr;
  std::shared_ptr<const std::vector<uint8_t>> encoded;
  uint32_t shard = 0;
  uint64_t shard_epoch = 0;
  uint32_t start = 0;
  uint32_t n = 0;
  std::function<void(bool, ShardResponse)> done;

  void TryNext(uint32_t k) {
    if (k == n) {
      // Replica exhaustion: the caller completes the query with a
      // typed kUnavailable.
      std::function<void(bool, ShardResponse)> fn = std::move(done);
      fn(false, ShardResponse{});
      return;
    }
    router->rpcs_sent_.fetch_add(1, std::memory_order_relaxed);
    if (k > 0) router->rpc_retries_.fetch_add(1, std::memory_order_relaxed);
    auto self = shared_from_this();
    const uint64_t tag = router->mailbox_.Register(
        [self, k](Status st, std::vector<uint8_t> payload) {
          self->OnReply(k, std::move(st), std::move(payload));
        });
    router->transport_->Send((start + k) % n, tag, encoded,
                             &router->mailbox_);
  }

  void OnReply(uint32_t k, Status st, std::vector<uint8_t> payload) {
    if (st.ok()) {
      ShardResponse r;
      const Status decoded =
          ShardResponse::Decode(payload.data(), payload.size(), &r);
      // Only a kOk answer at the EXACT pinned (shard, shard_epoch) is
      // usable — anything else (stale replica, malformed bytes) fails
      // over to the next sibling.
      if (decoded.ok() && r.code == StatusCode::kOk && r.shard == shard &&
          r.shard_epoch == shard_epoch) {
        if (k > 0) {
          router->rpc_failovers_.fetch_add(1, std::memory_order_relaxed);
        }
        std::function<void(bool, ShardResponse)> fn = std::move(done);
        fn(true, std::move(r));
        return;
      }
    }
    router->rpc_stale_.fetch_add(1, std::memory_order_relaxed);
    TryNext(k + 1);
  }
};

// -------------------------------------------------------------- Mailbox

uint64_t ShardRouter::Mailbox::Register(Callback callback) {
  const uint64_t tag = next_tag_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  calls_.emplace(tag, std::move(callback));
  return tag;
}

void ShardRouter::Mailbox::OnResponse(uint64_t tag, Status transport_status,
                                      std::vector<uint8_t> payload) {
  Callback callback;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = calls_.find(tag);
    if (it == calls_.end()) {
      // The tag was already settled: a transport duplicate. The
      // one-shot claim (erase-on-first-delivery) absorbs it here, so
      // it can never double-complete a user query.
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    callback = std::move(it->second);
    calls_.erase(it);
  }
  // Outside the lock: the callback may register the next failover
  // attempt (which takes mu_ again) or run the whole gather phase.
  callback(std::move(transport_status), std::move(payload));
}

// ---------------------------------------------------------- ShardRouter

ShardRouter::ShardRouter(Graph graph,
                         const HierarchyOptions& hierarchy_options,
                         const ShardRouterOptions& options,
                         Transport* transport,
                         std::vector<ShardReplica*> replicas)
    : options_(options),
      transport_(transport),
      replicas_(std::move(replicas)),
      engine_(std::move(graph), hierarchy_options, options.engine),
      core_(&policy_, RouterCoreOptions(options)) {
  STL_CHECK(transport_ != nullptr);
  core_.Start();  // installs + publishes the inner epoch 0
}

ShardRouter::~ShardRouter() = default;  // core_ drains first, then engine_

std::future<ShardedQueryResult> ShardRouter::Submit(QueryPair query,
                                                    Deadline deadline) {
  return core_.Submit(query, deadline);
}

ShardRouter::Ticket ShardRouter::SubmitBatch(
    const std::vector<QueryPair>& queries, Deadline deadline) {
  return core_.SubmitBatch(queries, deadline);
}

void ShardRouter::SubmitTagged(QueryPair query, uint64_t tag,
                               CompletionSink* sink, Deadline deadline) {
  core_.SubmitTagged(query, tag, sink, deadline);
}

ShardRouter::Ticket ShardRouter::SubmitBatchTagged(
    const std::vector<QueryPair>& queries,
    const std::vector<uint64_t>& tags, CompletionSink* sink,
    Deadline deadline) {
  return core_.SubmitBatchTagged(queries, tags, sink, deadline);
}

void ShardRouter::EnqueueUpdate(EdgeId edge, Weight new_weight) {
  core_.EnqueueUpdate(edge, new_weight);
}

void ShardRouter::EnqueueUpdates(const std::vector<WeightUpdate>& updates) {
  core_.EnqueueUpdates(updates);
}

void ShardRouter::Flush() { core_.Flush(); }

std::shared_ptr<const ShardedSnapshot> ShardRouter::CurrentSnapshot()
    const {
  return core_.CurrentSnapshot();
}

RouterStats ShardRouter::Stats() const {
  RouterStats s;
  s.serving = core_.Stats();
  s.replicas = transport_->NumEndpoints();
  s.rpcs_sent = rpcs_sent_.load(std::memory_order_relaxed);
  s.rpc_retries = rpc_retries_.load(std::memory_order_relaxed);
  s.rpc_stale_responses = rpc_stale_.load(std::memory_order_relaxed);
  s.rpc_failovers = rpc_failovers_.load(std::memory_order_relaxed);
  s.rpc_duplicates_dropped = mailbox_.duplicates_dropped();
  s.wire_installs = wire_installs_.load(std::memory_order_relaxed);
  s.install_failures = install_failures_.load(std::memory_order_relaxed);
  return s;
}

void ShardRouter::ResetStats() {
  core_.ResetStats();
  rpcs_sent_.store(0, std::memory_order_relaxed);
  rpc_retries_.store(0, std::memory_order_relaxed);
  rpc_stale_.store(0, std::memory_order_relaxed);
  rpc_failovers_.store(0, std::memory_order_relaxed);
  mailbox_.ResetCounters();
}

void ShardRouter::InstallAndPublish(
    std::shared_ptr<const ShardedSnapshot> snap,
    const UpdateBatch& updates) {
  // Install BEFORE publish: once a reader can pin this epoch, every
  // replica already holds it, so a fresh query never fails on a
  // version that merely hasn't propagated yet.
  if (!replicas_.empty()) {
    for (ShardReplica* r : replicas_) r->Install(snap);
  } else if (transport_->NumEndpoints() > 0) {
    // Wire replication: ship the coalesced batch as the next kInstall
    // sequence; every ReplicaNode applies it to its own (identical)
    // engine and must arrive at these exact epochs before acking.
    InstallRequest req;
    req.seq = next_install_seq_++;
    req.expected_engine_epoch = snap->epoch;
    req.expected_shard_epochs.reserve(snap->shards.size());
    for (const auto& sh : snap->shards) {
      req.expected_shard_epochs.push_back(sh->shard_epoch);
    }
    req.updates = updates;
    install_log_.push_back(InstallLogEntry{
        req.seq,
        std::make_shared<const std::vector<uint8_t>>(req.Encode())});
    while (install_log_.size() > options_.install_log_entries) {
      install_log_.pop_front();
      ++install_log_base_;
    }
    wire_installs_.fetch_add(1, std::memory_order_relaxed);
    bool all_ok = true;
    for (uint32_t e = 0; e < transport_->NumEndpoints(); ++e) {
      if (!WireInstallEndpoint(e)) all_ok = false;
    }
    if (!all_ok) {
      // Publish anyway: the lagging replica answers the new epochs
      // with typed kUnavailable (never wrong bytes) and the NEXT
      // install's replay catches it up.
      install_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  core_.Publish(std::move(snap));
}

bool ShardRouter::WireInstallEndpoint(uint32_t endpoint) {
  if (install_log_.empty()) return true;
  const uint64_t target = next_install_seq_;
  int attempts = options_.install_attempts;
  uint64_t need = target - 1;  // newest first; nacks say where to replay
  while (attempts > 0) {
    if (need < install_log_base_) return false;  // evicted: can't catch up
    const InstallLogEntry& entry =
        install_log_[static_cast<size_t>(need - install_log_base_)];
    std::vector<uint8_t> payload;
    if (!BlockingRpc(endpoint, entry.encoded, &payload)) {
      --attempts;
      continue;
    }
    InstallAck ack;
    if (!InstallAck::Decode(payload.data(), payload.size(), &ack).ok()) {
      --attempts;
      continue;
    }
    if (ack.ok) {
      if (ack.next_seq >= target) return true;  // fully caught up
      need = ack.next_seq;  // keep replaying forward
      continue;
    }
    if (ack.next_seq >= entry.seq) {
      // The replica refused the very seq it expects (decode failure or
      // sticky divergence) — replay cannot help.
      return false;
    }
    need = ack.next_seq;  // sequence gap: replay from what it needs
    --attempts;
  }
  return false;
}

bool ShardRouter::BlockingRpc(
    uint32_t endpoint, std::shared_ptr<const std::vector<uint8_t>> bytes,
    std::vector<uint8_t>* payload) {
  struct Cell {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;  // guarded by mu
    Status status;
    std::vector<uint8_t> payload;
  };
  auto cell = std::make_shared<Cell>();
  const uint64_t tag = mailbox_.Register(
      [cell](Status st, std::vector<uint8_t> p) {
        std::lock_guard<std::mutex> lock(cell->mu);
        cell->status = std::move(st);
        cell->payload = std::move(p);
        cell->done = true;
        cell->cv.notify_all();
      });
  rpcs_sent_.fetch_add(1, std::memory_order_relaxed);
  transport_->Send(endpoint, tag, std::move(bytes), &mailbox_);
  std::unique_lock<std::mutex> lock(cell->mu);
  // The transports guarantee exactly-once delivery per Send (a socket
  // request that outlives its request_timeout fails kUnavailable), so
  // this local deadline only guards a misconfigured install_timeout <
  // transport timeout; a late delivery writes a cell nobody reads.
  if (!cell->cv.wait_for(lock, options_.install_timeout,
                         [&] { return cell->done; })) {
    return false;
  }
  if (!cell->status.ok()) return false;
  *payload = std::move(cell->payload);
  return true;
}

void ShardRouter::CallReplicaAsync(
    const ShardRequest& req, std::function<void(bool, ShardResponse)> done) {
  const uint32_t n = transport_->NumEndpoints();
  if (n == 0) {
    done(false, ShardResponse{});
    return;
  }
  auto call = std::make_shared<PendingCall>();
  call->router = this;
  // Encode ONCE; the buffer is shared by every sibling attempt instead
  // of being re-encoded per retry.
  call->encoded =
      std::make_shared<const std::vector<uint8_t>>(req.Encode());
  call->shard = req.shard;
  call->shard_epoch = req.shard_epoch;
  // Round-robin fan-out start spreads load across siblings; every
  // replica still gets tried before the query gives up.
  call->start = next_replica_.fetch_add(1, std::memory_order_relaxed) % n;
  call->n = n;
  call->done = std::move(done);
  call->TryNext(0);
}

// ----------------------------------------------------- the router policy

void ShardRouter::Policy::PublishInitial() {
  auto snap = router->engine_.CurrentSnapshot();
  router->last_published_epoch_ = snap->epoch;
  // Seq 0 carries no updates: it only verifies the replicas built the
  // identical epoch-0 state from the identical graph.
  router->InstallAndPublish(std::move(snap), UpdateBatch{});
}

Weight ShardRouter::Policy::ResolveOldWeight(EdgeId e) const {
  // The router is the inner engine's only update source and ApplyBatch
  // flushes synchronously, so the inner snapshot's weights are current
  // as of every batch already routed through us.
  return router->engine_.CurrentSnapshot()->graph.EdgeWeight(e);
}

void ShardRouter::Policy::ApplyBatch(const UpdateBatch& batch) {
  ShardRouter* r = router;
  r->engine_.EnqueueUpdates(batch);
  r->engine_.Flush();
  auto snap = r->engine_.CurrentSnapshot();
  if (snap->epoch == r->last_published_epoch_) return;  // coalesced no-op
  r->last_published_epoch_ = snap->epoch;
  // Router-tier publish accounting (the inner engine allocated the
  // epoch id; this counter is the router's own publish count).
  r->core_.counters().epochs_published.fetch_add(
      1, std::memory_order_relaxed);
  r->InstallAndPublish(std::move(snap), batch);
}

uint32_t ShardRouter::Policy::NumEdges() const {
  return router->engine_.CurrentSnapshot()->graph.NumEdges();
}

void ShardRouter::Policy::RouteSpanAsync(
    const ShardedSnapshot& snap, const QueryPair* queries,
    const uint32_t* idx, size_t count, Weight* out, StatusCode* codes,
    std::function<void()> done) const {
  auto fan = std::make_shared<SpanFanout>();
  fan->router = router;
  fan->snap = &snap;
  fan->queries = queries;
  fan->idx = idx;
  fan->count = count;
  fan->out = out;
  fan->codes = codes;
  fan->done = std::move(done);  // the core's continuation (no cycle)
  fan->Start();
}

void ShardRouter::Policy::AugmentStats(EngineStats* s) const {
  s->backend = router->engine_.backend();
  s->num_shards = router->engine_.num_shards();
  s->boundary_vertices = router->engine_.layout().num_boundary();
}

// ------------------------------------------------------ LoopbackCluster

std::vector<ShardReplica*> LoopbackCluster::replica_ptrs() const {
  std::vector<ShardReplica*> ptrs;
  ptrs.reserve(replicas.size());
  for (const auto& r : replicas) ptrs.push_back(r.get());
  return ptrs;
}

LoopbackCluster MakeLoopbackCluster(
    uint32_t num_replicas, const ShardReplicaOptions& replica_options,
    FaultInjector* faults) {
  LoopbackCluster cluster;
  cluster.transport = std::make_unique<LoopbackTransport>(faults);
  cluster.replicas.reserve(num_replicas);
  for (uint32_t i = 0; i < num_replicas; ++i) {
    cluster.replicas.push_back(
        std::make_unique<ShardReplica>(replica_options));
    ShardReplica* replica = cluster.replicas.back().get();
    cluster.transport->AddEndpoint(
        [replica](const uint8_t* data, size_t size) {
          return replica->Handle(data, size);
        });
  }
  return cluster;
}

}  // namespace stl
