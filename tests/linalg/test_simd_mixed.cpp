/// Oracle tests for the mixed-operator column step `simd::gemv_mixed`: every
/// output element must equal, bit for bit, a naive scalar replay of the
/// simd_kernels.hpp contract written out below (ascending p, the
/// fma-contracted complex product, a separate add), on the CPU-dispatched
/// path and under `force_scalar`.

#include "linalg/simd_kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

namespace qoc::linalg {
namespace {

/// The contract, one element at a time, with no zero skipping.
std::vector<cplx> contract_replay(const std::vector<std::vector<cplx>>& ops, std::size_t n,
                                  const std::vector<cplx>& x, std::size_t stride) {
    std::vector<cplx> out(n * stride, cplx{-7.0, -7.0});
    for (std::size_t j = 0; j < ops.size(); ++j) {
        for (std::size_t i = 0; i < n; ++i) {
            double re = 0.0, im = 0.0;
            for (std::size_t p = 0; p < n; ++p) {
                const cplx a = ops[j][i * n + p];
                const cplx b = x[p * stride + j];
                const double pr = std::fma(b.real(), a.real(), -(a.imag() * b.imag()));
                const double pi = std::fma(b.imag(), a.real(), a.imag() * b.real());
                re = re + pr;
                im = im + pi;
            }
            out[i * stride + j] = cplx{re, im};
        }
    }
    return out;
}

/// `cols` random n x n operators; every third entry of operator j is an
/// exact zero (offset by j, so the zeros differ between the columns that
/// share one vector), and operator 0 also has a whole zero row.
std::vector<std::vector<cplx>> random_ops(std::size_t n, std::size_t cols,
                                          std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    std::vector<std::vector<cplx>> ops(cols, std::vector<cplx>(n * n));
    for (std::size_t j = 0; j < cols; ++j) {
        for (std::size_t e = 0; e < n * n; ++e) {
            ops[j][e] = (e + j) % 3 == 0 ? cplx{0.0, 0.0} : cplx{dist(rng), dist(rng)};
        }
    }
    for (std::size_t p = 0; p < n; ++p) ops[0][(n / 2) * n + p] = cplx{0.0, 0.0};
    return ops;
}

std::vector<cplx> run_kernel(const std::vector<std::vector<cplx>>& ops, std::size_t n,
                             const std::vector<cplx>& x, std::size_t stride) {
    std::vector<const cplx*> ptrs;
    for (const auto& op : ops) ptrs.push_back(op.data());
    std::vector<cplx> out(n * stride, cplx{-7.0, -7.0});
    simd::gemv_mixed(ptrs.data(), ops.size(), n, x.data(), out.data(), stride);
    return out;
}

void expect_bitwise(const std::vector<cplx>& got, const std::vector<cplx>& want,
                    const char* what, std::size_t n, std::size_t stride) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].real(), want[e].real())
            << what << " n=" << n << " stride=" << stride << " element " << e;
        EXPECT_EQ(got[e].imag(), want[e].imag())
            << what << " n=" << n << " stride=" << stride << " element " << e;
    }
}

TEST(SimdMixedStep, MatchesContractReplayAndForceScalarBitwise) {
    for (const std::size_t n : {4u, 9u, 16u, 81u}) {
        // Stride 1 is a lone column; stride 4 is a 4-seed block with every
        // column driven by its own operator; 3 of 4 leaves an odd column.
        for (const auto& [stride, cols] :
             std::vector<std::pair<std::size_t, std::size_t>>{{1, 1}, {4, 4}, {4, 3}}) {
            const auto ops = random_ops(n, cols, 100 + n + cols);
            std::mt19937_64 rng(7 * n + stride);
            std::uniform_real_distribution<double> dist(-1.0, 1.0);
            std::vector<cplx> x(n * stride);
            for (cplx& v : x) v = {dist(rng), dist(rng)};

            const auto want = contract_replay(ops, n, x, stride);
            expect_bitwise(run_kernel(ops, n, x, stride), want, "dispatched", n, stride);
            simd::force_scalar(true);
            const auto scalar = run_kernel(ops, n, x, stride);
            simd::force_scalar(false);
            expect_bitwise(scalar, want, "force_scalar", n, stride);
        }
    }
}

TEST(SimdMixedStep, EqualsZeroSkippingGemmBitwise) {
    // With every column driven by the same operator the mixed step must
    // commit the batched gemm's bits, although only the gemm skips the
    // operator's exact zeros.
    for (const std::size_t n : {4u, 9u, 16u, 81u}) {
        const std::size_t stride = 4;
        const auto one = random_ops(n, 1, 300 + n);
        const std::vector<std::vector<cplx>> ops(stride, one[0]);
        std::mt19937_64 rng(11 * n);
        std::uniform_real_distribution<double> dist(-1.0, 1.0);
        std::vector<cplx> x(n * stride);
        for (cplx& v : x) v = {dist(rng), dist(rng)};
        std::vector<cplx> gemm(n * stride);
        simd::gemm_raw(one[0].data(), x.data(), gemm.data(), n, n, stride,
                       /*accumulate=*/false);
        expect_bitwise(run_kernel(ops, n, x, stride), gemm, "vs gemm_raw", n, stride);
    }
}

}  // namespace
}  // namespace qoc::linalg
