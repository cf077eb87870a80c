/// \file seed_block.hpp
/// \brief Internal helpers of the structure-of-arrays RB seed engine shared
///        by standard/interleaved RB (rb.cpp) and leakage RB
///        (leakage_rb.cpp): block sizing, block initialization and one
///        Clifford step over a whole seed block.  Not part of the public API.

#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

#include "linalg/matrix.hpp"
#include "quantum/superop_structured.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::rb::detail {

using linalg::Mat;

/// Width of the SoA seed blocks.  Per-seed results are invariant under the
/// partition (the simd kernel family computes each output element with the
/// same accumulation order on the batched, mixed and single-vector paths
/// -- see simd_kernels.hpp), so the auto policy (`requested == 0`) is free
/// to spread seeds evenly over the task pool without breaking 1-vs-N-thread
/// bitwise reproducibility.
inline std::size_t seed_block_width(std::size_t seeds, std::size_t requested) {
    if (seeds == 0) return 1;
    if (requested > 0) return std::min(requested, seeds);
    const std::size_t threads = runtime::TaskPool::global().size();
    const std::size_t even = (seeds + threads - 1) / threads;
    return std::min<std::size_t>(std::max<std::size_t>(even, 1), 32);
}

/// Fills every column of the d^2 x bw block `x` with `vec_rho0`.
inline void fill_block(const Mat& vec_rho0, std::size_t bw, Mat& x) {
    const std::size_t d2 = vec_rho0.rows();
    x.resize(d2, bw);
    for (std::size_t r = 0; r < d2; ++r) {
        for (std::size_t j = 0; j < bw; ++j) x(r, j) = vec_rho0(r, 0);
    }
}

/// One Clifford step over a whole seed block: column j advances by
/// `structured_of(idx[j])`.  When every seed drew the same element (always
/// true for IRB interleave steps, often for short blocks) this is ONE
/// batched d^2 x B apply; otherwise the mixed-operator kernel advances up to
/// `kMaxMixedCols` columns per call, each by its own operator.  Both paths
/// produce bitwise-identical columns, so the branch is purely a throughput
/// decision.
template <typename StructuredOf>
void apply_block_step(const StructuredOf& structured_of, const std::size_t* idx,
                      std::size_t bw, Mat& x, Mat& x_next) {
    bool same = true;
    for (std::size_t j = 1; j < bw; ++j) {
        if (idx[j] != idx[0]) {
            same = false;
            break;
        }
    }
    if (same) {
        structured_of(idx[0]).apply_batch_into(x, x_next);
    } else {
        using quantum::StructuredSuperOp;
        x_next.resize(x.rows(), x.cols());
        const StructuredSuperOp* ops[StructuredSuperOp::kMaxMixedCols];
        for (std::size_t j0 = 0; j0 < bw; j0 += StructuredSuperOp::kMaxMixedCols) {
            const std::size_t cols = std::min(StructuredSuperOp::kMaxMixedCols, bw - j0);
            for (std::size_t c = 0; c < cols; ++c) ops[c] = &structured_of(idx[j0 + c]);
            StructuredSuperOp::apply_mixed_cols(ops, cols, x.data().data() + j0,
                                                x_next.data().data() + j0, bw);
        }
    }
    std::swap(x, x_next);
}

}  // namespace qoc::rb::detail
