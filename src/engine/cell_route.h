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
//                                (= col[s], the column below)
//   * t boundary              -> min_{b1 in S_cs} ds[b1] + D[b1][t]
//   * otherwise               -> min_{b1} ds[b1] + inner[b1], with
//                                inner[b1] = min_{b2} D[b1][b2] + dt[b2]
//                                (= col[b1])
//                                (and, for a same-cell pair, also the
//                                shard-local distance)
// where ds/dt are the shard-local distances from each endpoint to its
// cell's boundary set. The router keeps one overlay column per target,
// col[p] = min_{b2 in S_ct} D[p][b2] + dt[b2] over global boundary
// positions p, filled only at the positions a query of that target
// needs: a source cell's S_cs for the general case, s itself for a
// boundary source. Source cells largely share their boundary (on a
// two-cell partition S_0 and S_1 are nearly all of S), so a target
// costs |union of S_cs| x |S_ct| adds instead of sum |S_cs| x |S_ct|.
// A span routed in BatchSortKey order (target-major) builds each
// column once. ShardedSnapshot::Query (engine/sharded_engine.cc) keeps
// an independent, uncached formulation of the same minima as the
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

/// The grouping key of batched sharded routing: (target cell, target,
/// source cell). Same-target queries share the dt row and the overlay
/// column; same-key queries also share the gathered inner vector.
/// Boundary endpoints truncate kBoundaryCell to 0xffff — still a stable
/// group of their own.
inline uint64_t BatchSortKey(const ShardedSnapshot& snap,
                             const QueryPair& q) {
  const ShardLayout& lay = *snap.layout;
  const uint64_t cs = lay.shard_of_vertex[q.first] & 0xffff;
  const uint64_t ct = lay.shard_of_vertex[q.second] & 0xffff;
  return (ct << 48) | (static_cast<uint64_t>(q.second) << 16) | cs;
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
  /// router). `scratch` holds the per-target overlay column and the
  /// gathered inner vector; its contents are ignored on entry.
  CellRouter(const ShardedSnapshot& snap, Source* source,
             std::vector<Weight>* scratch)
      : snap_(snap), source_(source), scratch_(scratch) {}

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
      best = std::min<uint64_t>(
          best, ColumnAt(ct, *dt, Column(t), &lay.boundary_pos_of_vertex[s]));
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

  /// Marks a column position not computed yet. Real entries are at
  /// most 2 * kInfDistance (unclamped min-plus of two finite-or-inf
  /// terms), so the sentinel never collides with one.
  static constexpr Weight kUnfilled = UINT32_MAX;

  /// Binds the column to target t: scratch[0, n) becomes all kUnfilled
  /// unless it already belongs to t. The scratch is sized once per
  /// router (n plus the widest S_cs for the gathered inner vector), so
  /// pointers into it stay valid.
  Weight* Column(Vertex t) {
    if (!col_bound_ || t != col_t_) {
      const uint32_t n = snap_.overlay->num_boundary();
      if (!col_bound_) {
        size_t widest = 0;
        for (const ShardLayout::Shard& sh : snap_.layout->shards) {
          widest = std::max(widest, sh.boundary_pos.size());
        }
        scratch_->resize(n + widest);
      }
      col_bound_ = true;
      col_t_ = t;
      inner_cs_ = kNoCell;
      std::fill(scratch_->begin(), scratch_->begin() + n, kUnfilled);
    }
    return scratch_->data();
  }

  /// col[p] for target t (cell ct, shard-local row dt), computed on
  /// first use: min_{b2 in S_ct} D[p][b2] + dt[b2], one SIMD min-plus
  /// over row p of shard ct's packed block (index/overlay.h).
  Weight ColumnAt(uint32_t ct, const std::vector<Weight>& dt, Weight* col,
                  const uint32_t* p) const {
    if (col[*p] == kUnfilled) {
      snap_.overlay->MinPlusRowsInto(ct, p, 1, dt.data(), &col[*p]);
    }
    return col[*p];
  }

  /// inner[b1] = col[b1] for every b1 in S_cs, filling the positions
  /// the column lacks; regathered only when cs or the target changes.
  /// The inner vector is scratch[n, n + |S_cs|).
  const Weight* Inner(uint32_t cs, uint32_t ct, Vertex t,
                      const std::vector<Weight>& dt) {
    Weight* col = Column(t);
    Weight* inner = col + snap_.overlay->num_boundary();
    if (cs != inner_cs_) {
      inner_cs_ = cs;
      const std::vector<uint32_t>& pos =
          snap_.layout->shards[cs].boundary_pos;
      for (size_t i = 0; i < pos.size(); ++i) {
        inner[i] = ColumnAt(ct, dt, col, &pos[i]);
      }
    }
    return inner;
  }

  static constexpr uint32_t kNoCell = UINT32_MAX;

  const ShardedSnapshot& snap_;
  Source* const source_;
  std::vector<Weight>* const scratch_;
  bool col_bound_ = false;        // scratch holds a column at all
  Vertex col_t_ = 0;              // the column's target
  uint32_t inner_cs_ = kNoCell;   // source cell of the gathered inner
};

}  // namespace stl

#endif  // STL_ENGINE_CELL_ROUTE_H_
