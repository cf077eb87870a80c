/// Allocation guards for the structured superoperator kernels: the factored
/// Kronecker apply, the CSR SpMV and the StructuredSuperOp dispatch (single
/// column, strided column and d^2 x B batch) must all perform EXACTLY ZERO
/// heap allocations once their output/scratch buffers have seen the shape --
/// they sit inside the RB per-step and GRAPE per-slot hot loops.

#include "analysis/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "linalg/kron.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"
#include "quantum/superop_kron.hpp"
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

TEST_F(SuperopAllocGuardTest, KronApplyIsAllocationFreeAfterWarmup) {
    const std::size_t d = 9;
    const quantum::KronSuperOp kron = quantum::KronSuperOp::liouvillian(
        deterministic_hermitian(d, 3), {0.1 * quantum::annihilation(d)});
    Mat rho = deterministic_hermitian(d, 5);
    Mat v = linalg::vec(rho);
    Mat out, scratch, vout, vscratch;
    kron.apply_rho_into(rho, out, scratch);  // warmup sizes all buffers
    kron.apply_vec_into(v, vout, vscratch);
    AllocMeter m;
    for (int i = 0; i < 16; ++i) {
        kron.apply_rho_into(rho, out, scratch);
        kron.apply_vec_into(v, vout, vscratch);
    }
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(SuperopAllocGuardTest, CsrSpmvIsAllocationFreeAfterWarmup) {
    const Mat dense = quantum::liouvillian(deterministic_hermitian(3, 7),
                                           {0.1 * quantum::annihilation(3)});
    const linalg::CsrMat csr = linalg::CsrMat::from_dense(dense);
    ASSERT_GT(csr.nnz(), 0u);
    Mat x(dense.cols(), 1);
    for (std::size_t i = 0; i < x.rows(); ++i) x(i, 0) = {1.0 / static_cast<double>(i + 1), 0.1};
    Mat out;
    csr.spmv_into(x, out);  // warmup
    AllocMeter m;
    for (int i = 0; i < 16; ++i) {
        csr.spmv_into(x, out);
        csr.apply_col(x.data().data(), out.data().data(), 1);
    }
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
    Mat col(d2, 1), col_out, batch_out;
    for (std::size_t i = 0; i < d2; ++i) col(i, 0) = x(i, 0);
    s.apply_into(col, col_out);        // warmup all three entry points
    s.apply_batch_into(x, batch_out);
    AllocMeter m;
    for (int i = 0; i < 16; ++i) {
        s.apply_into(col, col_out);
        s.apply_col(x.data().data(), batch_out.data().data(), batch);
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
