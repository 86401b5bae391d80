#include "index/boundary_rows.h"

#include <algorithm>
#include <span>
#include <tuple>

#include "util/logging.h"
#include "util/simd.h"

namespace stl {

// ----------------------------------------------------- BoundaryRowShape

BoundaryRowShape::BoundaryRowShape(const TreeHierarchy& h,
                                   const std::vector<Vertex>& boundary) {
  const uint32_t num_nodes = h.NumNodes();
  // DFS pre-order number and subtree size of every tree node.
  std::vector<uint32_t> pre(num_nodes, 0);
  std::vector<uint32_t> subtree(num_nodes, 1);
  std::vector<uint32_t> by_pre;
  by_pre.reserve(num_nodes);
  if (num_nodes > 0) {
    std::vector<uint32_t> stack{h.root()};
    while (!stack.empty()) {
      const uint32_t id = stack.back();
      stack.pop_back();
      pre[id] = static_cast<uint32_t>(by_pre.size());
      by_pre.push_back(id);
      const TreeHierarchy::Node& node = h.GetNode(id);
      if (node.right != TreeHierarchy::kNoNode) stack.push_back(node.right);
      if (node.left != TreeHierarchy::kNoNode) stack.push_back(node.left);
    }
    STL_CHECK_EQ(by_pre.size(), num_nodes);
    for (uint32_t p = num_nodes; p-- > 1;) {  // children before parents
      subtree[h.GetNode(by_pre[p]).parent] += subtree[by_pre[p]];
    }
  }

  // Columns sorted by (pre-order of the holding node, tau).
  const uint32_t width = static_cast<uint32_t>(boundary.size());
  std::vector<std::tuple<uint32_t, uint32_t, uint32_t>> keyed(width);
  for (uint32_t i = 0; i < width; ++i) {
    const Vertex b = boundary[i];
    keyed[i] = {pre[h.NodeOf(b)], h.Tau(b), i};
    depth_ = std::max(depth_, h.Tau(b) + 1);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint32_t> column_pre(width);
  order_.resize(width);
  column_vertex_.resize(width);
  for (uint32_t k = 0; k < width; ++k) {
    column_pre[k] = std::get<0>(keyed[k]);
    order_[k] = std::get<2>(keyed[k]);
    column_vertex_[k] = boundary[order_[k]];
  }
  stride_ = (width + kLaneBlock - 1) / kLaneBlock * kLaneBlock;

  // A subtree is the pre-order interval [pre, pre + size), so its
  // boundary descendants are the columns whose node falls inside it.
  lo_.resize(num_nodes);
  hi_.resize(num_nodes);
  for (uint32_t id = 0; id < num_nodes; ++id) {
    lo_[id] = static_cast<uint32_t>(
        std::lower_bound(column_pre.begin(), column_pre.end(), pre[id]) -
        column_pre.begin());
    hi_[id] = static_cast<uint32_t>(
        std::lower_bound(column_pre.begin(), column_pre.end(),
                         pre[id] + subtree[id]) -
        column_pre.begin());
  }
}

uint64_t BoundaryRowShape::MemoryBytes() const {
  return sizeof(*this) + order_.capacity() * sizeof(uint32_t) +
         column_vertex_.capacity() * sizeof(Vertex) +
         (lo_.capacity() + hi_.capacity()) * sizeof(uint32_t);
}

// ----------------------------------------------------- BoundaryRowBlock

BoundaryRowBlock::BoundaryRowBlock(const BoundaryRowShape* shape,
                                   const TreeHierarchy* h,
                                   const Labelling* labels)
    : shape_(shape), h_(h), labels_(labels) {
  const uint32_t stride = shape_->stride();
  block_.assign(static_cast<size_t>(shape_->depth()) * stride, kInfDistance);
  for (uint32_t k = 0; k < shape_->width(); ++k) {
    const Vertex b = shape_->ColumnVertex(k);
    const Weight* label = labels_->Data(b);
    for (uint32_t j = 0; j <= h_->Tau(b); ++j) {
      block_[static_cast<size_t>(j) * stride + k] = label[j];
    }
  }
}

uint64_t BoundaryRowBlock::MemoryBytes() const {
  return sizeof(*this) + block_.capacity() * sizeof(Weight);
}

namespace {

// Everything a row kernel reads: s's label and root path, the block,
// and the shape's column ranges. Positions at or past `last` (beyond
// tau(s), or past every boundary label) contribute nothing.
struct RowInput {
  const TreeHierarchy& h;
  const BoundaryRowShape& shape;
  const Weight* block;
  const Weight* ls;
  std::span<const uint32_t> path;
  uint32_t last;
};

// The reference kernel: per root-path node, per label position j of
// that node, acc[k] = min(acc[k], L_s[j] + B[j][k]) over the node's
// column range. Ranges nest down the path, so the walk stops at the
// first node without boundary descendants.
void RowScalar(const RowInput& in, Weight* acc) {
  const uint32_t stride = in.shape.stride();
  std::fill(acc, acc + in.shape.width(), kInfDistance + kInfDistance);
  uint32_t begin = 0;
  for (const uint32_t node : in.path) {
    const uint32_t lo = in.shape.lo(node);
    const uint32_t hi = in.shape.hi(node);
    if (lo == hi) break;
    const uint32_t end = std::min(in.h.GetNode(node).cum_vertices, in.last);
    for (uint32_t j = begin; j < end; ++j) {
      const Weight l = in.ls[j];
      const Weight* row = in.block + static_cast<size_t>(j) * stride;
      for (uint32_t k = lo; k < hi; ++k) {
        acc[k] = std::min(acc[k], l + row[k]);
      }
    }
    begin = in.h.GetNode(node).cum_vertices;
    if (begin >= in.last) break;
  }
}

#ifdef STL_HAVE_AVX2_KERNEL

// +kInfDistance in the lanes of `idx` outside [lo, hi), 0 inside.
// Signed compares are safe: a block has far fewer than 2^31 columns.
__attribute__((target("avx2"))) inline __m256i OutsideMask(
    __m256i idx, __m256i lo_minus_1, __m256i hi, __m256i inf) {
  const __m256i in_range = _mm256_and_si256(
      _mm256_cmpgt_epi32(idx, lo_minus_1), _mm256_cmpgt_epi32(hi, idx));
  return _mm256_andnot_si256(in_range, inf);
}

// min(acc, l + B + mask) over eight columns.
__attribute__((target("avx2"))) inline __m256i MinPlusStep(
    __m256i acc, __m256i l, const Weight* b, __m256i mask) {
  const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
  return _mm256_min_epu32(acc,
                          _mm256_add_epi32(_mm256_add_epi32(l, vb), mask));
}

// The register-blocked kernel: 32 columns (four accumulators) at a
// time, each block walking the root-path prefix whose ranges reach it.
// Lanes outside a node's range get +kInfDistance added, so their
// candidates are >= kInfDistance and vanish under the final clamp —
// the clamped results equal RowScalar's on every input. Every load is
// inside the stride-padded block; terms stay below 3 * kInfDistance,
// so the uint32 adds cannot wrap.
__attribute__((target("avx2"))) void RowAvx2(const RowInput& in,
                                             Weight* acc) {
  const uint32_t stride = in.shape.stride();
  const __m256i inf = _mm256_set1_epi32(static_cast<int>(kInfDistance));
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (uint32_t c = 0; c < stride; c += BoundaryRowShape::kLaneBlock) {
    __m256i acc0 = _mm256_add_epi32(inf, inf);
    __m256i acc1 = acc0;
    __m256i acc2 = acc0;
    __m256i acc3 = acc0;
    const __m256i idx0 =
        _mm256_add_epi32(lane, _mm256_set1_epi32(static_cast<int>(c)));
    const __m256i idx1 = _mm256_add_epi32(idx0, _mm256_set1_epi32(8));
    const __m256i idx2 = _mm256_add_epi32(idx0, _mm256_set1_epi32(16));
    const __m256i idx3 = _mm256_add_epi32(idx0, _mm256_set1_epi32(24));
    uint32_t begin = 0;
    for (const uint32_t node : in.path) {
      const uint32_t lo = in.shape.lo(node);
      const uint32_t hi = in.shape.hi(node);
      if (hi <= c || lo >= c + BoundaryRowShape::kLaneBlock) break;
      const uint32_t end =
          std::min(in.h.GetNode(node).cum_vertices, in.last);
      const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo) - 1);
      const __m256i vhi = _mm256_set1_epi32(static_cast<int>(hi));
      const __m256i m0 = OutsideMask(idx0, vlo, vhi, inf);
      const __m256i m1 = OutsideMask(idx1, vlo, vhi, inf);
      const __m256i m2 = OutsideMask(idx2, vlo, vhi, inf);
      const __m256i m3 = OutsideMask(idx3, vlo, vhi, inf);
      for (uint32_t j = begin; j < end; ++j) {
        const __m256i l = _mm256_set1_epi32(static_cast<int>(in.ls[j]));
        const Weight* row = in.block + static_cast<size_t>(j) * stride + c;
        acc0 = MinPlusStep(acc0, l, row, m0);
        acc1 = MinPlusStep(acc1, l, row + 8, m1);
        acc2 = MinPlusStep(acc2, l, row + 16, m2);
        acc3 = MinPlusStep(acc3, l, row + 24, m3);
      }
      begin = in.h.GetNode(node).cum_vertices;
      if (begin >= in.last) break;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c), acc0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c + 8), acc1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c + 16), acc2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + c + 24), acc3);
  }
}

#endif  // STL_HAVE_AVX2_KERNEL

}  // namespace

void BoundaryRowBlock::Row(Vertex s, Weight* out) const {
  RowWithKernel(s, MinPlusReduceUsesAvx2(), out);
}

void BoundaryRowBlock::RowWithKernel(Vertex s, bool avx2, Weight* out) const {
  const uint32_t width = shape_->width();
  if (width == 0) return;
  const RowInput in{*h_,
                    *shape_,
                    block_.data(),
                    labels_->Data(s),
                    h_->PathOf(h_->NodeOf(s)),
                    std::min(h_->Tau(s) + 1, shape_->depth())};
  // Block-ordered accumulators, padded to the stride for the vector
  // stores; reused per thread.
  thread_local std::vector<Weight> acc;
  acc.resize(shape_->stride());
#ifdef STL_HAVE_AVX2_KERNEL
  if (avx2) {
    STL_DCHECK(MinPlusReduceUsesAvx2());
    RowAvx2(in, acc.data());
  } else {
    RowScalar(in, acc.data());
  }
#else
  STL_CHECK(!avx2) << "no AVX2 kernel in this build";
  RowScalar(in, acc.data());
#endif
  const std::vector<uint32_t>& order = shape_->order();
  for (uint32_t k = 0; k < width; ++k) {
    out[order[k]] = std::min(acc[k], kInfDistance);  // as QueryDistance
  }
}

}  // namespace stl
