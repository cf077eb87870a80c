/// Allocation guards for the structured superoperator kernels: the CSR
/// batch apply and the StructuredSuperOp entry points (mixed-column step and
/// d^2 x B batch) must all perform EXACTLY ZERO heap allocations once their
/// output buffers have seen the shape -- they sit inside the RB per-step
/// hot loop.

#include "analysis/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "linalg/kron.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"
#include "quantum/superop_structured.hpp"
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

TEST_F(SuperopAllocGuardTest, CsrSpmvIsAllocationFreeAfterWarmup) {
    const Mat dense = quantum::liouvillian(deterministic_hermitian(3, 7),
                                           {0.1 * quantum::annihilation(3)});
    const linalg::CsrMat csr = linalg::CsrMat::from_dense(dense);
    ASSERT_GT(csr.nnz(), 0u);
    Mat x(dense.cols(), 1);
    for (std::size_t i = 0; i < x.rows(); ++i) x(i, 0) = {1.0 / static_cast<double>(i + 1), 0.1};
    Mat out;
    csr.apply_batch_into(x, out);  // warmup
    AllocMeter m;
    for (int i = 0; i < 16; ++i) csr.apply_batch_into(x, out);
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(SuperopAllocGuardTest, StructuredDispatchIsAllocationFreeAfterWarmup) {
    const Mat dense = quantum::liouvillian(deterministic_hermitian(4, 11),
                                           {0.1 * quantum::annihilation(4)});
    const quantum::StructuredSuperOp s = quantum::StructuredSuperOp::from_dense(dense);
    const std::size_t d2 = s.dim();
    const std::size_t batch = 8;
    Mat x(d2, batch);
    for (std::size_t i = 0; i < d2 * batch; ++i) {
        x.data()[i] = {1.0 / static_cast<double>(i + 2), -0.3};
    }
    const quantum::StructuredSuperOp* ops[] = {&s, &s, &s};
    Mat batch_out;
    s.apply_batch_into(x, batch_out);  // warmup
    AllocMeter m;
    for (int i = 0; i < 16; ++i) {
        quantum::StructuredSuperOp::apply_mixed_cols(ops, 3, x.data().data(),
                                                     batch_out.data().data(), batch);
        s.apply_batch_into(x, batch_out);
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
