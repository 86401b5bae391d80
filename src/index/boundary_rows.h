// Vectorised shard-to-boundary rows for STL shards: one row — the
// shard-local distances from a cell vertex s to every boundary vertex
// of its shard — as one broadcast min-plus over a transposed block of
// the boundary labels, instead of |S_i| separate label scans
// (FillShardBoundaryRow in index/overlay.h).
//
// Why it is exact. An STL query d(s, b) is the min over the first
// CommonAncestorCount(s, b) label positions of L_s[j] + L_b[j]
// (Equation 3, QueryDistance in core/labelling.h). Position j belongs
// to one tree node n on s's root path, and it is a common position of
// s and b exactly when b lies in n's subtree and j <= tau(b). The
// stable tree hierarchy does not change under weight updates, so:
//
//   shape   (once per shard) orders S_i by the DFS pre-order of the
//           tree node holding each boundary vertex, then by tau. Every
//           node's boundary descendants are then one contiguous column
//           range [lo, hi).
//   block   (once per shard epoch) stores B[j][k] = L_{b_k}[j] for
//           j <= tau(b_k), kInfDistance above it, as a W x stride
//           matrix (W = max tau(b) + 1, stride padded to whole
//           register blocks, padding columns kInfDistance).
//   row     walks s's root path and, per label position j of each
//           node, takes acc[k] = min(acc[k], L_s[j] + B[j][k]) over
//           that node's range, then clamps to kInfDistance as
//           QueryDistance does.
//
// The answers are bit-identical to FillShardBoundaryRow on the same
// view (equivalence-tested for both kernels in tests/overlay_test.cc).
// Non-STL views have no labels to transpose; they keep the per-entry
// loop.
#ifndef STL_INDEX_BOUNDARY_ROWS_H_
#define STL_INDEX_BOUNDARY_ROWS_H_

#include <cstdint>
#include <vector>

#include "core/labelling.h"
#include "core/tree_hierarchy.h"
#include "graph/graph.h"

namespace stl {

/// The weight-independent half of a shard's boundary-row block: S_i in
/// hierarchy order and, per tree node, the column range of its boundary
/// descendants. Computed once per shard; immutable and shared by every
/// epoch's block.
class BoundaryRowShape {
 public:
  /// Columns per register block of the AVX2 kernel; the block stride is
  /// a multiple of it, so every vector load stays inside the block.
  static constexpr uint32_t kLaneBlock = 32;

  /// Orders `boundary` (shard-local vertex ids, in
  /// ShardLayout::Shard::boundary_local order) under hierarchy `h`.
  BoundaryRowShape(const TreeHierarchy& h, const std::vector<Vertex>& boundary);

  /// |S_i|: the row width.
  uint32_t width() const { return static_cast<uint32_t>(order_.size()); }
  /// Columns per block row: width() rounded up to kLaneBlock.
  uint32_t stride() const { return stride_; }
  /// W = max tau(b) + 1 over S_i: block rows (0 for an empty S_i).
  uint32_t depth() const { return depth_; }
  /// Block column k -> index into boundary_local (the output slot).
  const std::vector<uint32_t>& order() const { return order_; }
  /// Boundary vertex (local id) of block column k.
  Vertex ColumnVertex(uint32_t k) const { return column_vertex_[k]; }
  /// First block column of tree node `node`'s boundary descendants.
  uint32_t lo(uint32_t node) const { return lo_[node]; }
  /// One past the last block column of `node`'s boundary descendants.
  uint32_t hi(uint32_t node) const { return hi_[node]; }

  /// Resident bytes of the shape tables.
  uint64_t MemoryBytes() const;

 private:
  std::vector<uint32_t> order_;
  std::vector<Vertex> column_vertex_;
  std::vector<uint32_t> lo_;
  std::vector<uint32_t> hi_;
  uint32_t stride_ = 0;
  uint32_t depth_ = 0;
};

/// One shard epoch's boundary labels, transposed into the W x stride
/// block of the file comment, and the row kernel over it. Immutable
/// after construction; safe for any number of concurrent readers. Holds
/// plain pointers into the shape and the view's hierarchy and labels,
/// which must outlive it (ShardServing owns all of them together).
class BoundaryRowBlock {
 public:
  /// Transposes the labels of `shape`'s boundary vertices.
  BoundaryRowBlock(const BoundaryRowShape* shape, const TreeHierarchy* h,
                   const Labelling* labels);

  /// Writes shape().width() entries: out[i] = the STL distance from
  /// local vertex s to boundary_local[i], kInfDistance when
  /// unreachable — bit-identical to FillShardBoundaryRow on the view
  /// the block was built from. Dispatches to the AVX2 kernel when
  /// MinPlusReduceUsesAvx2().
  void Row(Vertex s, Weight* out) const;

  /// Row() with the kernel forced: the scalar reference, or the AVX2
  /// kernel (`avx2` requires MinPlusReduceUsesAvx2()). For the
  /// kernel-equivalence tests.
  void RowWithKernel(Vertex s, bool avx2, Weight* out) const;

  /// The static half this block was built on.
  const BoundaryRowShape& shape() const { return *shape_; }

  /// Resident bytes of the block (the shape is counted separately).
  uint64_t MemoryBytes() const;

 private:
  const BoundaryRowShape* shape_;
  const TreeHierarchy* h_;
  const Labelling* labels_;
  std::vector<Weight> block_;  // depth x stride, row-major
};

}  // namespace stl

#endif  // STL_INDEX_BOUNDARY_ROWS_H_
