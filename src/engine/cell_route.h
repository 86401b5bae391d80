// The one routing decomposition of the sharded tier. Both the
// in-process ShardedEngine and the replicated ShardRouter answer a
// query on a pinned ShardedSnapshot through CellRouter; they differ
// only in where the shard-local inputs come from (the row source):
//
//   ShardedEngine   rows computed on the pinned shard views, behind the
//                   engine-lifetime boundary-row cache and a per-span
//                   memo; same-cell points from the shard view
//   ShardRouter     rows and points prefetched from shard replicas by
//                   the span's fan-out; its enumeration pass runs this
//                   same decomposition over the not-yet-filled slots to
//                   learn the fetch set
//
// The four cases (s == t answers 0):
//   * both endpoints boundary -> D[s][t]
//   * s boundary              -> min_{b2 in S_ct} D[s][b2] + dt[b2]
//   * t boundary              -> min_{b1 in S_cs} ds[b1] + D[b1][t]
//   * otherwise               -> min_{b1} ds[b1] + inner[b1], with
//                                inner[b1] = min_{b2} D[b1][b2] + dt[b2]
//                                (and, for a same-cell pair, also the
//                                shard-local distance)
// where ds/dt are the shard-local distances from each endpoint to its
// cell's boundary set. The inner vector is memoised per (cs, ct, t)
// group, so a span routed in BatchSortKey order computes it once per
// group. ShardedSnapshot::Query (engine/sharded_engine.cc) keeps an
// independent, uncached formulation of the same minima as the
// reference the bit-identity suites compare against.
#ifndef STL_ENGINE_CELL_ROUTE_H_
#define STL_ENGINE_CELL_ROUTE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/sharded_engine.h"
#include "partition/cells.h"
#include "util/logging.h"
#include "util/simd.h"

namespace stl {

/// The grouping key of batched sharded routing: (source cell, target
/// cell, target). Same-key queries share the inner vector and the dt
/// row; same-source runs share ds. Boundary endpoints truncate
/// kBoundaryCell to 0xffff — still a stable group of their own.
inline uint64_t BatchSortKey(const ShardedSnapshot& snap,
                             const QueryPair& q) {
  const ShardLayout& lay = *snap.layout;
  const uint64_t cs = lay.shard_of_vertex[q.first] & 0xffff;
  const uint64_t ct = lay.shard_of_vertex[q.second] & 0xffff;
  return (cs << 48) | (ct << 32) | q.second;
}

/// Saturates a three-term routing sum back into the Weight range.
inline Weight ClampInf(uint64_t d) {
  return d >= kInfDistance ? kInfDistance : static_cast<Weight>(d);
}

/// Routes queries on one pinned snapshot through the four-case cell
/// decomposition. `Source` supplies the shard-local inputs:
///   const std::vector<Weight>* Row(uint32_t shard, Vertex v) — v's
///       |S_shard|-wide shard-to-boundary row; null when unavailable.
///   bool Point(Vertex s, Vertex t, Weight* d) — the shard-local
///       distance of a same-cell pair; false when unavailable.
/// Row pointers must stay valid for the router's lifetime; a row may be
/// empty (a shard with no boundary). Every input a case needs is
/// requested before any is checked, so a source that answers
/// "unavailable" to everything sees the query's whole fetch set. A
/// query with an unavailable input completes kUnavailable; every other
/// answer is exact for the snapshot. Not thread-safe: one router per
/// span.
template <typename Source>
class CellRouter {
 public:
  /// Binds to `snap` and `source` (neither owned; both must outlive the
  /// router). `inner` is scratch for the memoised inner vector; its
  /// contents are ignored on entry.
  CellRouter(const ShardedSnapshot& snap, Source* source,
             std::vector<Weight>* inner)
      : snap_(snap), source_(source), inner_(inner) {}

  /// Exact distance from s to t on the snapshot, or kInfDistance with
  /// *code = kUnavailable when the source lacks an input the query's
  /// case needs (*code is left untouched otherwise).
  Weight Route(Vertex s, Vertex t, StatusCode* code) {
    const ShardLayout& lay = *snap_.layout;
    STL_DCHECK(s < lay.shard_of_vertex.size());
    STL_DCHECK(t < lay.shard_of_vertex.size());
    if (s == t) return 0;
    const uint32_t cs = lay.shard_of_vertex[s];
    const uint32_t ct = lay.shard_of_vertex[t];
    const bool s_boundary = cs == CellPartition::kBoundaryCell;
    const bool t_boundary = ct == CellPartition::kBoundaryCell;
    if (s_boundary && t_boundary) {
      // The overlay table is already the exact full-graph distance.
      return snap_.overlay->At(lay.boundary_pos_of_vertex[s],
                               lay.boundary_pos_of_vertex[t]);
    }

    uint64_t best = kInfDistance;
    bool available = true;
    if (!s_boundary && !t_boundary && cs == ct) {
      // Same cell: the path may stay inside the shard entirely, or
      // leave through the boundary and come back (the general case
      // below; D[b][b] = 0 makes touch-and-return a special case of it).
      Weight d = kInfDistance;
      available = source_->Point(s, t, &d);
      best = d;
    }
    const std::vector<Weight>* ds =
        s_boundary ? nullptr : source_->Row(cs, s);
    const std::vector<Weight>* dt =
        t_boundary ? nullptr : source_->Row(ct, t);
    if (!available || (!s_boundary && ds == nullptr) ||
        (!t_boundary && dt == nullptr)) {
      *code = StatusCode::kUnavailable;
      return kInfDistance;
    }

    if (s_boundary) {
      // First boundary vertex of any path from s is s itself.
      const uint32_t pos = lay.boundary_pos_of_vertex[s];
      best = std::min<uint64_t>(
          best, MinPlusReduce(snap_.overlay->PackedRow(ct, pos),
                              dt->data(), Width(*dt)));
    } else if (t_boundary) {
      // Mirror image (distances are symmetric on an undirected graph).
      const uint32_t pos = lay.boundary_pos_of_vertex[t];
      best = std::min<uint64_t>(
          best, MinPlusReduce(snap_.overlay->PackedRow(cs, pos),
                              ds->data(), Width(*ds)));
    } else {
      // General case: decompose at the first and last boundary
      // vertices. All terms are <= 3 * kInfDistance, so the uint32
      // min-plus cannot wrap.
      best = std::min<uint64_t>(
          best,
          MinPlusReduce(ds->data(), Inner(cs, ct, t, *dt), Width(*ds)));
    }
    return ClampInf(best);
  }

 private:
  static uint32_t Width(const std::vector<Weight>& row) {
    return static_cast<uint32_t>(row.size());
  }

  /// inner[b1] = min_{b2 in S_ct} D[b1][b2] + dt[b2] for every b1 in
  /// S_cs, memoised for the current (cs, ct, t) group: one SIMD
  /// min-plus per b1 row of shard ct's packed block (index/overlay.h).
  const Weight* Inner(uint32_t cs, uint32_t ct, Vertex t,
                      const std::vector<Weight>& dt) {
    if (!inner_valid_ || cs != inner_cs_ || ct != inner_ct_ ||
        t != inner_t_) {
      inner_valid_ = true;
      inner_cs_ = cs;
      inner_ct_ = ct;
      inner_t_ = t;
      const ShardLayout::Shard& sshard = snap_.layout->shards[cs];
      inner_->resize(sshard.boundary_pos.size());
      snap_.overlay->MinPlusRowsInto(
          ct, sshard.boundary_pos.data(),
          static_cast<uint32_t>(sshard.boundary_pos.size()), dt.data(),
          inner_->data());
    }
    return inner_->data();
  }

  const ShardedSnapshot& snap_;
  Source* const source_;
  std::vector<Weight>* const inner_;
  bool inner_valid_ = false;
  uint32_t inner_cs_ = 0;
  uint32_t inner_ct_ = 0;
  Vertex inner_t_ = 0;
};

}  // namespace stl

#endif  // STL_ENGINE_CELL_ROUTE_H_
