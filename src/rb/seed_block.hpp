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
#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::rb::detail {

using linalg::Mat;
using linalg::cplx;

/// Width of the SoA seed blocks: seeds spread evenly over the task pool,
/// capped at 32.  Per-seed results are invariant under the partition (the
/// simd kernel family computes each output element with the same
/// accumulation order on the broadcast and mixed paths -- see
/// simd_kernels.hpp), so following the pool size keeps 1-vs-N-thread runs
/// bitwise identical.
inline std::size_t seed_block_width(std::size_t seeds) {
    if (seeds == 0) return 1;
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

/// Broadcast step: `out = s * batch` for the d^2 x d^2 superoperator `s`
/// against a row-major d^2 x B seed block, ONE zero-skipping `gemm_raw`
/// sweep for the whole block.  `out` resized in place; no alias.
inline void apply_broadcast(const Mat& s, const Mat& batch, Mat& out) {
    out.resize(s.rows(), batch.cols());
    obs::count(obs::Cnt::kSuperopBatchApplies);
    linalg::simd::gemm_raw(s.data().data(), batch.data().data(), out.data().data(), s.rows(),
                           s.cols(), batch.cols(), /*accumulate=*/false);
}

/// Most columns one `gemv_mixed` call of the mixed step takes.
inline constexpr std::size_t kMaxMixedCols = 8;

/// One Clifford step over a whole seed block: column j advances by the
/// superoperator `superop_of(idx[j])`.  When every seed drew the same
/// element (always true for one-seed blocks, often for short ones) this is
/// one `apply_broadcast`; otherwise `gemv_mixed` advances up to
/// `kMaxMixedCols` columns per call, each by its own operator, counting one
/// superop apply per column.  For finite input both paths commit the same
/// bits (a skipped zero changes no sum), so the branch is purely a
/// throughput decision.
template <typename SuperopOf>
void apply_block_step(const SuperopOf& superop_of, const std::size_t* idx, std::size_t bw,
                      Mat& x, Mat& x_next) {
    bool same = true;
    for (std::size_t j = 1; j < bw; ++j) {
        if (idx[j] != idx[0]) {
            same = false;
            break;
        }
    }
    if (same) {
        apply_broadcast(superop_of(idx[0]), x, x_next);
    } else {
        x_next.resize(x.rows(), x.cols());
        const cplx* ops[kMaxMixedCols];
        for (std::size_t j0 = 0; j0 < bw; j0 += kMaxMixedCols) {
            const std::size_t cols = std::min(kMaxMixedCols, bw - j0);
            for (std::size_t c = 0; c < cols; ++c) {
                obs::count(obs::Cnt::kSuperopApplies);
                ops[c] = superop_of(idx[j0 + c]).data().data();
            }
            linalg::simd::gemv_mixed(ops, cols, x.rows(), x.data().data() + j0,
                                     x_next.data().data() + j0, bw);
        }
    }
    std::swap(x, x_next);
}

}  // namespace qoc::rb::detail
