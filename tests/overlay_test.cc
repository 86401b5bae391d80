// Incremental overlay repair audit (index/overlay.h): a persistent
// BoundaryOverlay fed batches of weight changes must publish tables
// bitwise-identical to a from-scratch overlay built on the same
// weights — increases, decreases, direct S–S updates, kInfDistance
// disconnect/reconnect transitions, and multi-cell batches — while
// pointer-sharing the rows the batch left clean. The engine-level
// section replays the same contract through ShardedEngine on all four
// backends under concurrent batch load (the TSan target). The last
// section checks the STL boundary-row block against the per-entry
// label scans it replaces.
#include "index/overlay.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "engine/sharded_engine.h"
#include "graph/dijkstra.h"
#include "index/boundary_rows.h"
#include "partition/cells.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace stl {
namespace {

// Drives one layout with two overlays: `inc` lives across rounds and
// publishes incrementally; Scratch() builds a throwaway overlay from
// the current weights and publishes with repair disabled. Exact
// distances are unique, so the two tables must match byte for byte.
class OverlayHarness {
 public:
  OverlayHarness(uint32_t side, uint64_t seed, uint32_t cells)
      : master_(testing_util::SmallRoadNetwork(side, seed)) {
    CellPartition partition =
        PartitionCells(master_, cells, HierarchyOptions{});
    plan_ = BuildShardPlan(master_, partition);
    inc_ = std::make_unique<BoundaryOverlay>(&plan_.layout, master_);
    for (uint32_t s = 0; s < plan_.layout.num_shards(); ++s) {
      inc_->RebuildClique(s, plan_.shard_graphs[s]);
    }
  }

  const ShardLayout& layout() const { return plan_.layout; }
  const Graph& master() const { return master_; }

  // Applies one weight change to the master graph and routes it to the
  // owning shard graph (marking its clique dirty) or the overlay's
  // direct edge set — the same plumbing ShardedEngine's writer runs.
  void ApplyWeight(EdgeId e, Weight w) {
    master_.SetEdgeWeight(e, w);
    const uint32_t s = plan_.layout.shard_of_edge[e];
    if (s == ShardLayout::kOverlayShard) {
      inc_->SetDirectWeight(plan_.layout.local_of_edge[e], w);
    } else {
      plan_.shard_graphs[s].SetEdgeWeight(plan_.layout.local_of_edge[e],
                                          w);
      touched_.insert(s);
    }
  }

  // Forces clique entry (i, j) of shard s to `w` on both the
  // incremental overlay and every future Scratch() build — the only
  // way a weight-only stream can be made to exercise kInfDistance
  // transitions inside a connected test graph.
  void OverrideCliqueEntry(uint32_t s, uint32_t i, uint32_t j, Weight w) {
    inc_->OverrideCliqueEntryForTest(s, i, j, w);
    overrides_.emplace_back(s, i, j, w);
  }

  void ClearOverrides(uint32_t s) {
    std::vector<std::tuple<uint32_t, uint32_t, uint32_t, Weight>> keep;
    for (const auto& o : overrides_) {
      if (std::get<0>(o) != s) keep.push_back(o);
    }
    overrides_ = std::move(keep);
    touched_.insert(s);  // rebuild recomputes the true entries
  }

  std::shared_ptr<const OverlayTable> PublishIncremental(
      OverlayPublishStats* stats = nullptr, bool allow_repair = true) {
    for (uint32_t s : touched_) {
      inc_->RebuildClique(s, plan_.shard_graphs[s]);
      for (const auto& [os, i, j, w] : overrides_) {
        if (os == s) inc_->OverrideCliqueEntryForTest(os, i, j, w);
      }
    }
    touched_.clear();
    return inc_->Publish(allow_repair, stats);
  }

  std::shared_ptr<const OverlayTable> Scratch() {
    BoundaryOverlay fresh(&plan_.layout, master_);
    for (uint32_t s = 0; s < plan_.layout.num_shards(); ++s) {
      fresh.RebuildClique(s, plan_.shard_graphs[s]);
    }
    for (const auto& [s, i, j, w] : overrides_) {
      fresh.OverrideCliqueEntryForTest(s, i, j, w);
    }
    return fresh.Publish(/*allow_repair=*/false);
  }

  // Picks an edge owned by a shard (never the overlay), deterministic
  // in rng state.
  EdgeId ShardOwnedEdge(Rng* rng) const {
    for (;;) {
      EdgeId e = static_cast<EdgeId>(rng->NextBounded(master_.NumEdges()));
      if (plan_.layout.shard_of_edge[e] != ShardLayout::kOverlayShard) {
        return e;
      }
    }
  }

 private:
  Graph master_;
  ShardPlan plan_;
  std::unique_ptr<BoundaryOverlay> inc_;
  std::set<uint32_t> touched_;
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t, Weight>> overrides_;
};

void ExpectSameTable(const OverlayTable& got, const OverlayTable& want,
                     const ShardLayout& layout, const char* context) {
  ASSERT_EQ(got.num_boundary(), want.num_boundary()) << context;
  const uint32_t n = got.num_boundary();
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      ASSERT_EQ(got.At(a, b), want.At(a, b))
          << context << " a=" << a << " b=" << b;
    }
  }
  for (uint32_t s = 0; s < layout.num_shards(); ++s) {
    const uint32_t w =
        static_cast<uint32_t>(layout.shards[s].boundary_local.size());
    for (uint32_t a = 0; a < n; ++a) {
      const Weight* gp = got.PackedRow(s, a);
      const Weight* wp = want.PackedRow(s, a);
      for (uint32_t j = 0; j < w; ++j) {
        ASSERT_EQ(gp[j], wp[j])
            << context << " packed s=" << s << " a=" << a << " j=" << j;
      }
    }
  }
}

TEST(OverlayRepairTest, FirstPublishMatchesScratch) {
  OverlayHarness h(9, 101, 4);
  OverlayPublishStats st;
  auto table = h.PublishIncremental(&st);
  EXPECT_TRUE(st.full_rebuild);  // nothing to diff against yet
  EXPECT_EQ(st.rows_repaired, st.rows_total);
  ExpectSameTable(*table, *h.Scratch(), h.layout(), "first publish");
}

TEST(OverlayRepairTest, RandomMixedBatchesMatchScratch) {
  OverlayHarness h(9, 102, 4);
  h.PublishIncremental();
  Rng rng(102);
  uint64_t repaired_publishes = 0;
  for (int round = 0; round < 24; ++round) {
    // Multi-cell batches: edges drawn across the whole network, sizes
    // 1..6, mixed increases and decreases (RandomUpdate flips a coin).
    const int batch = 1 + static_cast<int>(rng.NextBounded(6));
    for (int i = 0; i < batch; ++i) {
      WeightUpdate u = testing_util::RandomUpdate(h.master(), &rng);
      h.ApplyWeight(u.edge, u.new_weight);
    }
    OverlayPublishStats st;
    auto table = h.PublishIncremental(&st);
    // A repaired row whose re-run reproduced identical bytes counts in
    // both rows_repaired and rows_shared, so the partition is bounded,
    // not exact.
    ASSERT_LE(st.rows_shared + st.rows_patched, st.rows_total)
        << "round " << round;
    ASSERT_GE(st.rows_repaired + st.rows_patched + st.rows_shared,
              st.rows_total)
        << "round " << round;
    if (!st.full_rebuild) ++repaired_publishes;
    ExpectSameTable(*table, *h.Scratch(), h.layout(),
                    ("mixed round " + std::to_string(round)).c_str());
  }
  // The stream must actually exercise the incremental path, not ride
  // the fallback the whole way.
  EXPECT_GT(repaired_publishes, 0u);
}

TEST(OverlayRepairTest, PureIncreaseBatchesShareCleanRows) {
  OverlayHarness h(10, 103, 4);
  auto prev = h.PublishIncremental();
  Rng rng(103);
  bool saw_shared_row = false;
  for (int round = 0; round < 12; ++round) {
    EdgeId e = h.ShardOwnedEdge(&rng);
    Weight w = h.master().EdgeWeight(e);
    h.ApplyWeight(e, std::min<Weight>(kMaxEdgeWeight, w * 2 + 1));
    OverlayPublishStats st;
    auto table = h.PublishIncremental(&st);
    ExpectSameTable(*table, *h.Scratch(), h.layout(), "pure increase");
    if (!st.full_rebuild) {
      // Increases produce no anchors, so nothing is patched: every row
      // is either re-run (tightness-tagged) or pointer-shared.
      EXPECT_EQ(st.rows_patched, 0u) << "round " << round;
      EXPECT_GE(st.rows_repaired + st.rows_shared, st.rows_total);
      for (uint32_t r = 0; r < table->num_boundary(); ++r) {
        if (table->Row(r) == prev->Row(r)) {
          saw_shared_row = true;
          break;
        }
      }
    }
    prev = table;
  }
  EXPECT_TRUE(saw_shared_row)
      << "no single-edge increase ever pointer-shared a row";
}

TEST(OverlayRepairTest, PureDecreaseBatchesMatchScratch) {
  OverlayHarness h(10, 104, 4);
  h.PublishIncremental();
  Rng rng(104);
  // Congest a pool of edges first so every later decrease is real.
  std::vector<EdgeId> pool;
  for (int i = 0; i < 10; ++i) pool.push_back(h.ShardOwnedEdge(&rng));
  for (EdgeId e : pool) {
    h.ApplyWeight(e, std::min<Weight>(kMaxEdgeWeight,
                                      h.master().EdgeWeight(e) * 4));
  }
  h.PublishIncremental();
  for (size_t i = 0; i < pool.size(); i += 2) {
    h.ApplyWeight(pool[i], std::max<Weight>(1u, h.master().EdgeWeight(
                                                    pool[i]) /
                                                    4));
    if (i + 1 < pool.size()) {
      h.ApplyWeight(pool[i + 1],
                    std::max<Weight>(
                        1u, h.master().EdgeWeight(pool[i + 1]) / 4));
    }
    OverlayPublishStats st;
    auto table = h.PublishIncremental(&st);
    ASSERT_GE(st.rows_repaired + st.rows_patched + st.rows_shared,
              st.rows_total);
    ExpectSameTable(*table, *h.Scratch(), h.layout(), "pure decrease");
  }
}

TEST(OverlayRepairTest, DirectEdgeUpdatesMatchScratch) {
  // A fine partition of a small grid owns S-S edges directly.
  OverlayHarness h(8, 105, 8);
  if (h.layout().direct_edges.empty()) {
    GTEST_SKIP() << "layout produced no direct overlay edges";
  }
  h.PublishIncremental();
  Rng rng(105);
  for (int round = 0; round < 10; ++round) {
    const uint32_t slot = static_cast<uint32_t>(
        rng.NextBounded(h.layout().direct_edges.size()));
    const EdgeId e = h.layout().direct_edges[slot].global_edge;
    const Weight w = h.master().EdgeWeight(e);
    const Weight nw = (round % 2 == 0)
                          ? std::min<Weight>(kMaxEdgeWeight, w * 3)
                          : std::max<Weight>(1u, w / 3);
    if (nw == w) continue;
    h.ApplyWeight(e, nw);
    auto table = h.PublishIncremental();
    ExpectSameTable(*table, *h.Scratch(), h.layout(), "direct edge");
  }
}

TEST(OverlayRepairTest, InfinityTransitionsMatchScratch) {
  OverlayHarness h(9, 106, 4);
  h.PublishIncremental();
  // Disconnect: force a finite clique entry to kInfDistance (an
  // increase whose new weight never enters the search graph), publish,
  // compare. Reconnect: drop the override and rebuild the clique (a
  // kInf -> finite decrease), publish, compare.
  const ShardLayout& layout = h.layout();
  for (uint32_t s = 0; s < layout.num_shards(); ++s) {
    const uint32_t w =
        static_cast<uint32_t>(layout.shards[s].boundary_local.size());
    if (w < 2) continue;
    h.OverrideCliqueEntry(s, 0, w - 1, kInfDistance);
    auto cut = h.PublishIncremental();
    ExpectSameTable(*cut, *h.Scratch(), layout, "disconnect");
    h.ClearOverrides(s);
    auto back = h.PublishIncremental();
    ExpectSameTable(*back, *h.Scratch(), layout, "reconnect");
  }
}

TEST(OverlayRepairTest, EmptyPublishSharesEveryRow) {
  OverlayHarness h(9, 107, 4);
  auto first = h.PublishIncremental();
  OverlayPublishStats st;
  auto second = h.PublishIncremental(&st);
  EXPECT_FALSE(st.full_rebuild);
  EXPECT_EQ(st.rows_repaired, 0u);
  EXPECT_EQ(st.rows_shared, st.rows_total);
  EXPECT_GT(st.bytes_shared, 0u);
  for (uint32_t r = 0; r < first->num_boundary(); ++r) {
    ASSERT_EQ(first->Row(r), second->Row(r)) << "row " << r;
  }
}

TEST(OverlayRepairTest, RepairDisallowedFallsBackExactly) {
  OverlayHarness h(9, 108, 4);
  h.PublishIncremental();
  Rng rng(108);
  for (int i = 0; i < 4; ++i) {
    WeightUpdate u = testing_util::RandomUpdate(h.master(), &rng);
    h.ApplyWeight(u.edge, u.new_weight);
  }
  OverlayPublishStats st;
  auto table =
      h.PublishIncremental(&st, /*allow_repair=*/false);
  EXPECT_TRUE(st.full_rebuild);
  EXPECT_EQ(st.rows_repaired, st.rows_total);
  ExpectSameTable(*table, *h.Scratch(), h.layout(), "repair disallowed");
}

// ---------------------------------------------------------------------
// Engine level: the repair path serving live traffic on all four
// backends, audited against per-epoch Dijkstra ground truth while
// batched readers race the writer (the TSan workload).

class OverlayEngineTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(OverlayEngineTest, IncrementalEpochsStayExactUnderLoad) {
  Graph g = testing_util::SmallRoadNetwork(7, 109);
  const uint32_t n = g.NumVertices();
  const uint32_t m = g.NumEdges();
  ShardedEngineOptions opt;
  opt.backend = GetParam();
  opt.target_shards = 4;
  opt.num_query_threads = 4;
  opt.max_batch_size = 4;
  ShardedEngine engine(std::move(g), HierarchyOptions{}, opt);
  Rng rng(109);
  testing_util::EpochOracle oracle;
  for (int round = 0; round < 6; ++round) {
    std::vector<WeightUpdate> updates;
    for (int i = 0; i < 3; ++i) {
      updates.push_back(
          WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                       1 + static_cast<Weight>(rng.NextBounded(500))});
    }
    engine.EnqueueUpdates(updates);
    // Readers race the repair-and-republish writer.
    std::vector<QueryPair> batch;
    for (int i = 0; i < 32; ++i) {
      batch.push_back({static_cast<Vertex>(rng.NextBounded(n)),
                       static_cast<Vertex>(rng.NextBounded(n))});
    }
    ShardedEngine::Ticket ticket = engine.SubmitBatch(batch);
    engine.Flush();
    ticket.Wait();
    Dijkstra& batch_audit =
        oracle.For(ticket.epoch(), ticket.snapshot()->graph);
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(ticket.code(i), StatusCode::kOk);
      ASSERT_EQ(ticket.distance(i),
                batch_audit.Distance(batch[i].first, batch[i].second))
          << BackendName(GetParam()) << " round=" << round << " i=" << i;
    }
    auto snap = engine.CurrentSnapshot();
    Dijkstra& audit = oracle.For(snap->epoch, snap->graph);
    for (int i = 0; i < 40; ++i) {
      Vertex s = static_cast<Vertex>(rng.NextBounded(n));
      Vertex t = static_cast<Vertex>(rng.NextBounded(n));
      ASSERT_EQ(snap->Query(s, t), audit.Distance(s, t))
          << BackendName(GetParam()) << " round=" << round;
    }
  }
  EngineStats stats = engine.Stats();
  EXPECT_GT(stats.overlay_rows_total, 0u);
  EXPECT_LE(stats.overlay_rows_repaired, stats.overlay_rows_total);
  EXPECT_GT(stats.clique_entries_recomputed, 0u);
  EXPECT_GT(stats.boundary_row_cache_lookups, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, OverlayEngineTest,
                         ::testing::Values(BackendKind::kStl,
                                           BackendKind::kCh,
                                           BackendKind::kH2h,
                                           BackendKind::kHc2l),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

// ---------------------------------------------------------------------
// Boundary-row block (index/boundary_rows.h): every row the block
// serves must equal the per-entry label scans of FillShardBoundaryRow,
// for both kernels, on every STL shard and epoch.

// Two disjoint road networks in one graph: label entries across the
// components are kInfDistance.
Graph DisjointRoadNetworks(uint32_t side, uint64_t seed) {
  const Graph a = testing_util::SmallRoadNetwork(side, seed);
  const Graph b = testing_util::SmallRoadNetwork(side, seed + 1);
  const uint32_t na = a.NumVertices();
  std::vector<Edge> edges(a.edges().begin(), a.edges().end());
  for (const Edge& e : b.edges()) edges.push_back({e.u + na, e.v + na, e.w});
  return testing_util::MakeGraph(na + b.NumVertices(), std::move(edges));
}

// Checks every row of every shard of `snap` from every shard vertex
// (cell vertices, and boundary vertices for the s == b entries): the
// scalar kernel, the AVX2 kernel where the CPU has it, and the served
// ShardServing::FillBoundaryRow against the per-entry view queries.
// Returns the number of rows checked.
uint64_t ExpectBlockRowsMatchScans(const ShardedSnapshot& snap,
                                   const std::string& context) {
  const ShardLayout& lay = *snap.layout;
  const bool avx2 = MinPlusReduceUsesAvx2();
  uint64_t rows = 0;
  for (uint32_t c = 0; c < lay.num_shards(); ++c) {
    const ShardServing& serving = *snap.shards[c];
    const ShardLayout::Shard& sh = lay.shards[c];
    const uint32_t width = static_cast<uint32_t>(sh.boundary_local.size());
    EXPECT_NE(serving.row_shape, nullptr) << context << " shard " << c;
    if (serving.row_shape == nullptr) continue;
    const BoundaryRowBlock block(serving.row_shape.get(),
                                 serving.view->StlHierarchy(),
                                 serving.view->StlLabels());
    std::vector<Weight> want(width);
    std::vector<Weight> scalar(width);
    std::vector<Weight> vec(width);
    std::vector<Weight> served;
    for (Vertex local = 0; local < sh.to_global.size(); ++local) {
      for (uint32_t i = 0; i < width; ++i) {
        want[i] = serving.view->Query(local, sh.boundary_local[i]);
      }
      block.RowWithKernel(local, /*avx2=*/false, scalar.data());
      EXPECT_EQ(scalar, want) << context << " scalar, shard " << c
                              << " local " << local;
      if (avx2) {
        block.RowWithKernel(local, /*avx2=*/true, vec.data());
        EXPECT_EQ(vec, want) << context << " avx2, shard " << c
                             << " local " << local;
      }
      if (local < sh.num_cell_vertices) {
        const Vertex global = sh.to_global[local];
        std::vector<Weight> scan;
        FillShardBoundaryRow(lay, c, *serving.view, global, &scan);
        EXPECT_EQ(scan, want);
        serving.FillBoundaryRow(lay, global, &served);
        EXPECT_EQ(served, want) << context << " served, shard " << c
                                << " local " << local;
      }
      ++rows;
    }
  }
  return rows;
}

// Epoch 0, then random STL-P or STL-L epochs, for one engine.
void CheckBlockRowsAcrossEpochs(Graph g, uint32_t shards,
                                StrategyMode strategy, uint64_t seed) {
  const uint32_t m = g.NumEdges();
  ShardedEngineOptions opt;
  opt.backend = BackendKind::kStl;
  opt.target_shards = shards;
  opt.num_query_threads = 1;
  opt.strategy = strategy;
  ShardedEngine engine(std::move(g), HierarchyOptions{}, opt);
  if (shards > 1) {
    ASSERT_GE(engine.num_shards(), 2u);
    ASSERT_GT(engine.layout().num_boundary(), 0u);
  }
  const std::string mode =
      strategy == StrategyMode::kAlwaysParetoSearch ? "STL-P" : "STL-L";
  Rng rng(seed);
  uint64_t rows = ExpectBlockRowsMatchScans(*engine.CurrentSnapshot(),
                                            mode + " epoch 0");
  for (int round = 0; round < 4; ++round) {
    std::vector<WeightUpdate> updates;
    const int count = 1 + static_cast<int>(rng.NextBounded(12));
    for (int i = 0; i < count; ++i) {
      updates.push_back(
          WeightUpdate{static_cast<EdgeId>(rng.NextBounded(m)), 0,
                       1 + static_cast<Weight>(rng.NextBounded(500))});
    }
    engine.EnqueueUpdates(updates);
    engine.Flush();
    const auto snap = engine.CurrentSnapshot();
    rows += ExpectBlockRowsMatchScans(
        *snap, mode + " epoch " + std::to_string(snap->epoch));
  }
  EXPECT_GT(rows, 0u);
}

class BoundaryRowBlockTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BoundaryRowBlockTest, RowsMatchPerEntryScansAcrossEpochs) {
  const uint32_t k = GetParam();
  for (StrategyMode strategy : {StrategyMode::kAlwaysParetoSearch,
                                StrategyMode::kAlwaysLabelSearch}) {
    CheckBlockRowsAcrossEpochs(testing_util::SmallRoadNetwork(14, 300 + k),
                               k, strategy, 300 + k);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, BoundaryRowBlockTest,
                         ::testing::Values(2u, 4u, 8u));

TEST(BoundaryRowBlockTest, RowsMatchOnADisconnectedGraph) {
  for (StrategyMode strategy : {StrategyMode::kAlwaysParetoSearch,
                                StrategyMode::kAlwaysLabelSearch}) {
    CheckBlockRowsAcrossEpochs(DisjointRoadNetworks(9, 310), 4, strategy,
                               310);
  }
}

TEST(BoundaryRowBlockTest, ShardWithoutBoundaryServesEmptyRows) {
  ShardedEngineOptions opt;
  opt.target_shards = 1;
  opt.num_query_threads = 1;
  ShardedEngine engine(testing_util::SmallRoadNetwork(8, 320),
                       HierarchyOptions{}, opt);
  const auto snap = engine.CurrentSnapshot();
  ASSERT_EQ(snap->layout->num_boundary(), 0u);
  EXPECT_GT(ExpectBlockRowsMatchScans(*snap, "k=1"), 0u);
  std::vector<Weight> row(3, 7);
  snap->shards[0]->FillBoundaryRow(*snap->layout, 0, &row);
  EXPECT_TRUE(row.empty());
  EXPECT_EQ(engine.Submit({0, 5}).get().distance, snap->Query(0, 5));
}

// The kernel alone on a disconnected graph's labels, with an arbitrary
// vertex set standing in for S: rows mix finite distances with
// kInfDistance, and both kernels must clamp exactly as QueryDistance.
TEST(BoundaryRowBlockTest, UnreachableBoundaryReadsInfinity) {
  const Graph g = DisjointRoadNetworks(8, 330);
  const TreeHierarchy h = TreeHierarchy::Build(g, HierarchyOptions{});
  const Labelling labels = BuildLabelling(g, h);
  std::vector<Vertex> boundary;
  for (Vertex v = 0; v < g.NumVertices(); v += 5) boundary.push_back(v);
  const BoundaryRowShape shape(h, boundary);
  ASSERT_EQ(shape.width(), boundary.size());
  ASSERT_EQ(shape.stride() % BoundaryRowShape::kLaneBlock, 0u);
  const BoundaryRowBlock block(&shape, &h, &labels);
  std::vector<Weight> row(boundary.size());
  uint64_t inf = 0;
  uint64_t finite = 0;
  for (Vertex s = 0; s < g.NumVertices(); ++s) {
    for (const bool avx2 : {false, true}) {
      if (avx2 && !MinPlusReduceUsesAvx2()) continue;
      block.RowWithKernel(s, avx2, row.data());
      for (size_t i = 0; i < boundary.size(); ++i) {
        ASSERT_EQ(row[i], QueryDistance(h, labels, s, boundary[i]))
            << "s=" << s << " b=" << boundary[i] << " avx2=" << avx2;
        (row[i] == kInfDistance ? inf : finite) += 1;
      }
    }
  }
  EXPECT_GT(inf, 0u);
  EXPECT_GT(finite, 0u);
}

}  // namespace
}  // namespace stl
