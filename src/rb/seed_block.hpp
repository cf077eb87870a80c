/// \file seed_block.hpp
/// \brief The structure-of-arrays RB seed engine shared by standard and
///        interleaved RB (1Q and 2Q, rb.cpp) and leakage RB
///        (leakage_rb.cpp).  Not part of the public API.
///
/// One driver, `run_seed_blocks`, owns everything the protocols have in
/// common: the leased workspace, the seed-block split, the per-(length,
/// seed) random stream, the block propagation (m Clifford steps, each
/// followed by the optional interleaved superoperator, then the recovery
/// step) and the per-seed output slots.  A protocol passes only its
/// sequence `draw` and its per-seed `read`.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"
#include "rb/clifford1q.hpp"
#include "rb/rb.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/workspace_pool.hpp"

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

/// Per-lease scratch of the seed engine, sized on first use: the sequence
/// loop allocates nothing after warm-up.
struct SeedBlockWorkspace {
    Mat x;                              ///< d^2 x B block: column j is seed s0+j's vec(rho)
    Mat x_next;                         ///< step output, swapped into `x`
    Mat v;                              ///< d^2 x 1 column handed to `read`
    Mat net, net_next;                  ///< 2Q draw: ideal net unitary and product target
    std::vector<std::size_t> seq;       ///< [step * B + seed] Clifford indices
    std::vector<std::size_t> rec;       ///< recovery index per seed
    std::vector<std::mt19937_64> rngs;  ///< per-seed stream after its sequence draws
};

/// The 1Q sequence draw of RB, IRB and leakage RB: `m` uniform Clifford
/// indices written to `seq[k * stride]`, tracked in the group table (the
/// interleaved element after each when `interleaved` is set), and the
/// recovery index returned.
struct Draw1Q {
    const Clifford1Q& group;
    const std::size_t* interleaved;  ///< nullptr: standard RB

    std::size_t operator()(std::mt19937_64& rng, std::size_t m, std::size_t* seq,
                           std::size_t stride, SeedBlockWorkspace& /*w*/) const {
        std::uniform_int_distribution<std::size_t> dist(0, Clifford1Q::kSize - 1);
        std::size_t net = group.identity_index();
        for (std::size_t k = 0; k < m; ++k) {
            const std::size_t c = dist(rng);
            seq[k * stride] = c;
            net = group.multiply(c, net);
            if (interleaved != nullptr) net = group.multiply(*interleaved, net);
        }
        return group.inverse(net);
    }
};

/// Runs one RB protocol and returns its per-seed values, [length index][seed].
///
/// Seed s at length index li owns the stream
/// `mt19937_64(opts.rng_seed + stream * (li * 1000 + s))`.  From it
/// `draw(rng, m, seq, stride, w)` first writes the seed's m Clifford indices
/// to `seq[k * stride]` and returns the recovery index.  The block then
/// takes the m steps (each followed by `*interleave_super` when set) and the
/// recovery step from `vec_rho0`, and `read(v, rng, m, s)` turns the seed's
/// final vec(rho) `v` into its value, continuing the same stream for any
/// shot sample.  So an interleaved run replays its reference run's
/// sequences, and paired sequences cancel most sampling noise in the IRB
/// alpha ratio.  Each seed depends only on its own stream and column, so
/// the values do not depend on the block partition or the pool size.  Each
/// block is one `parallel_for` index under the span `span_name` (a string
/// literal).  Throws `std::invalid_argument` before any block starts unless
/// `*interleave_super` is d^2 x d^2.
template <typename GateSet, typename Draw, typename Read>
std::vector<std::vector<double>> run_seed_blocks(const GateSet& gates, const RbOptions& opts,
                                                 std::uint64_t stream, const char* span_name,
                                                 const Mat& vec_rho0,
                                                 const Mat* interleave_super, const Draw& draw,
                                                 const Read& read) {
    const std::size_t d2 = vec_rho0.rows();
    if (interleave_super != nullptr &&
        (interleave_super->rows() != d2 || interleave_super->cols() != d2)) {
        throw std::invalid_argument("RB: interleaved superoperator is not d^2 x d^2");
    }
    const auto superop_of = [&gates](std::size_t i) -> const Mat& {
        return gates.clifford_superop(i);
    };
    const std::size_t seeds = opts.seeds_per_length;
    runtime::WorkspacePool<SeedBlockWorkspace> workspaces;
    const std::size_t bw_max = seed_block_width(seeds);
    const std::size_t n_blocks = (seeds + bw_max - 1) / bw_max;

    std::vector<std::vector<double>> values(opts.lengths.size(), std::vector<double>(seeds));
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::size_t m = opts.lengths[li];
        std::vector<double>& out = values[li];

        runtime::TaskPool::global().parallel_for(0, n_blocks, [&](std::size_t blk) {
            obs::Span span(span_name);
            const std::size_t s0 = blk * bw_max;
            const std::size_t bw = std::min(bw_max, seeds - s0);
            auto lease = workspaces.acquire();
            SeedBlockWorkspace& w = *lease;

            // At least one row, so every seed's column start is in range.
            w.seq.resize(std::max<std::size_t>(m, 1) * bw);
            w.rec.resize(bw);
            w.rngs.clear();
            for (std::size_t j = 0; j < bw; ++j) {
                std::mt19937_64 rng(opts.rng_seed + stream * (li * 1000 + (s0 + j)));
                w.rec[j] = draw(rng, m, w.seq.data() + j, bw, w);
                w.rngs.push_back(rng);
            }

            fill_block(vec_rho0, bw, w.x);
            for (std::size_t k = 0; k < m; ++k) {
                apply_block_step(superop_of, &w.seq[k * bw], bw, w.x, w.x_next);
                if (interleave_super != nullptr) {
                    apply_broadcast(*interleave_super, w.x, w.x_next);
                    std::swap(w.x, w.x_next);
                }
            }
            apply_block_step(superop_of, w.rec.data(), bw, w.x, w.x_next);

            w.v.resize(d2, 1);
            for (std::size_t j = 0; j < bw; ++j) {
                for (std::size_t r = 0; r < d2; ++r) w.v(r, 0) = w.x(r, j);
                out[s0 + j] = read(w.v, w.rngs[j], m, s0 + j);
            }
        });
    }
    return values;
}

}  // namespace qoc::rb::detail
