// Shared helpers for the test suites.
#ifndef STL_TESTS_TEST_UTIL_H_
#define STL_TESTS_TEST_UTIL_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/labelling.h"
#include "core/tree_hierarchy.h"
#include "engine/fault_injector.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/updates.h"
#include "util/rng.h"

namespace stl {
namespace testing_util {

/// Small connected road-like graph (~n vertices), deterministic in seed.
inline Graph SmallRoadNetwork(uint32_t side, uint64_t seed) {
  RoadNetworkOptions opt;
  opt.width = side;
  opt.height = side;
  opt.seed = seed;
  return GenerateRoadNetwork(opt);
}

/// Hand-built graph from an edge list; dies on invalid input.
inline Graph MakeGraph(uint32_t n, std::vector<Edge> edges) {
  Result<Graph> g = Graph::FromEdges(n, std::move(edges));
  STL_CHECK(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

/// A graph with two components: a triangle {0,1,2} and an edge {3,4}.
inline Graph TwoComponentGraph() {
  return MakeGraph(5, {{0, 1, 4}, {1, 2, 5}, {0, 2, 10}, {3, 4, 7}});
}

/// The number of differing label entries between two labellings of the
/// same shape (UINT64_MAX if shapes differ).
inline uint64_t LabelDiffCount(const Labelling& a, const Labelling& b) {
  if (a.NumVertices() != b.NumVertices()) return UINT64_MAX;
  uint64_t diff = 0;
  for (Vertex v = 0; v < a.NumVertices(); ++v) {
    if (a.LabelSize(v) != b.LabelSize(v)) return UINT64_MAX;
    for (uint32_t i = 0; i < a.LabelSize(v); ++i) {
      if (a.At(v, i) != b.At(v, i)) ++diff;
    }
  }
  return diff;
}

/// Per-epoch Dijkstra ground truth, built lazily per distinct epoch —
/// the audit helper the engine/sharded/overlay/router suites share.
/// Each epoch's oracle is constructed from that epoch's snapshot graph
/// the first time the epoch is seen and reused for every later audit of
/// the same epoch.
class EpochOracle {
 public:
  /// The oracle for `epoch`, built from `graph` on first use (`graph`
  /// must be that epoch's full-network weights). The oracle keeps its
  /// own copy of the graph (CoW-cheap), so the caller's snapshot need
  /// not outlive it.
  Dijkstra& For(uint64_t epoch, const Graph& graph) {
    auto [it, fresh] = oracles_.try_emplace(epoch);
    if (fresh) {
      it->second.graph = graph;  // structural chunk share
      it->second.dijkstra = std::make_unique<Dijkstra>(it->second.graph);
    }
    return *it->second.dijkstra;
  }

  /// Exact distance under `epoch`'s weights.
  Weight Distance(uint64_t epoch, const Graph& graph, Vertex s, Vertex t) {
    return For(epoch, graph).Distance(s, t);
  }

  /// The already-built oracle for `epoch` (dies if the epoch was never
  /// seen by For/Distance).
  Dijkstra& At(uint64_t epoch) { return *oracles_.at(epoch).dijkstra; }

 private:
  /// One epoch's ground truth; the map node owns the graph the Dijkstra
  /// references (std::map nodes are address-stable).
  struct Entry {
    Graph graph;
    std::unique_ptr<Dijkstra> dijkstra;
  };
  std::map<uint64_t, Entry> oracles_;
};

/// A FaultInjector that parks a reader at FaultSite::kReaderDelay: once
/// Arm()ed, the next visit blocks inside Fire() until Release(). The
/// point jobs of a reader's burst are off the queue by then, so a test
/// can queue work behind a burst a reader has already taken. Never
/// asks for a sleep, ignores every other site, and counts every visit
/// (one per routed query).
class ReaderGate final : public FaultInjector {
 public:
  bool Fire(FaultSite site) override {
    if (site != FaultSite::kReaderDelay) return false;
    std::unique_lock<std::mutex> lock(mu_);
    ++visits_;
    if (!armed_) return false;
    armed_ = false;
    held_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !held_; });
    return false;
  }
  uint64_t DelayMicros(FaultSite /*site*/) override { return 0; }

  /// Holds the next kReaderDelay visit.
  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  /// Blocks until a reader is held.
  void WaitHeld() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return held_; });
  }
  /// Lets the held reader go.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    cv_.notify_all();
  }
  /// kReaderDelay visits so far.
  uint64_t visits() {
    std::lock_guard<std::mutex> lock(mu_);
    return visits_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool held_ = false;
  uint64_t visits_ = 0;
};

/// Random weight update on a random edge (never a no-op); flips a coin
/// between increase and decrease.
inline WeightUpdate RandomUpdate(const Graph& g, Rng* rng) {
  EdgeId e = static_cast<EdgeId>(rng->NextBounded(g.NumEdges()));
  Weight w = g.EdgeWeight(e);
  bool inc = rng->NextBounded(2) == 0;
  Weight nw;
  if (inc || w <= 1) {
    nw = w + 1 + static_cast<Weight>(rng->NextBounded(2 * w + 2));
  } else {
    nw = 1 + static_cast<Weight>(rng->NextBounded(w - 1));
  }
  return WeightUpdate{e, w, nw};
}

}  // namespace testing_util
}  // namespace stl

#endif  // STL_TESTS_TEST_UTIL_H_
