/// Allocation guards for the superoperator kernels: the RB seed engine's
/// two steps (mixed-column and d^2 x B broadcast) and the SIMD gemm must all
/// perform EXACTLY ZERO heap allocations once their output buffers have seen
/// the shape -- they sit inside the RB per-step hot loop.

#include "analysis/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "linalg/kron.hpp"
#include "linalg/matrix.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"
#include "rb/seed_block.hpp"
#include "runtime/task_pool.hpp"

namespace qoc {
namespace {

using linalg::cplx;
using linalg::Mat;
using testing::AllocMeter;

class SuperopAllocGuardTest : public ::testing::Test {
protected:
    void SetUp() override { serial_.emplace(1); }
    void TearDown() override { serial_.reset(); }

private:
    std::optional<runtime::ScopedPoolSize> serial_;
};

Mat deterministic_hermitian(std::size_t n, std::uint64_t seed) {
    Mat m(n, n);
    std::uint64_t s = seed;
    auto next = [&s] {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return static_cast<double>(s >> 40) * 1e-7;
    };
    for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = {next(), 0.0};
        for (std::size_t j = i + 1; j < n; ++j) {
            m(i, j) = {next(), next()};
            m(j, i) = std::conj(m(i, j));
        }
    }
    return m;
}

TEST_F(SuperopAllocGuardTest, StructuredDispatchIsAllocationFreeAfterWarmup) {
    const Mat s = quantum::liouvillian(deterministic_hermitian(4, 11),
                                       {0.1 * quantum::annihilation(4)});
    const std::size_t d2 = s.rows();
    const std::size_t batch = 8;
    Mat x(d2, batch);
    for (std::size_t i = 0; i < d2 * batch; ++i) {
        x.data()[i] = {1.0 / static_cast<double>(i + 2), -0.3};
    }
    const auto superop_of = [&s](std::size_t) -> const Mat& { return s; };
    const std::size_t mixed[batch] = {0, 1, 0, 1, 0, 1, 0, 1};
    Mat x_next;
    rb::detail::apply_broadcast(s, x, x_next);  // warmup
    AllocMeter m;
    for (int i = 0; i < 16; ++i) {
        rb::detail::apply_block_step(superop_of, mixed, batch, x, x_next);
        rb::detail::apply_broadcast(s, x, x_next);
    }
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(SuperopAllocGuardTest, SimdGemmRawIsAllocationFree) {
    const Mat a = deterministic_hermitian(16, 13);
    const Mat b = deterministic_hermitian(16, 17);
    Mat out;
    linalg::gemm_into(a, b, out);  // warmup
    AllocMeter m;
    for (int i = 0; i < 16; ++i) {
        linalg::gemm_into(a, b, out);
        linalg::gemm_acc(a, b, out);
    }
    EXPECT_EQ(m.delta(), 0u);
}

}  // namespace
}  // namespace qoc
