/// Oracle tests for the structured superoperator kernels: the CSR batch
/// apply against the dense product, plus the bitwise contracts the simd
/// kernel family guarantees (scalar-vs-vector, dense-vs-CSR,
/// batched-vs-mixed-column-vs-single) and the apply counters.

#include "quantum/superop_structured.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/sparse.hpp"
#include "obs/obs.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"

namespace qoc::quantum {
namespace {

using linalg::cplx;
using linalg::Mat;

Mat random_hermitian(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = {dist(rng), 0.0};
        for (std::size_t j = i + 1; j < n; ++j) {
            m(i, j) = {dist(rng), dist(rng)};
            m(j, i) = std::conj(m(i, j));
        }
    }
    return m;
}

Mat random_density(std::size_t n, unsigned seed) {
    // A A^dag / tr normalizes to a valid density matrix.
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat a(n, n);
    for (std::size_t i = 0; i < n * n; ++i) a.data()[i] = {dist(rng), dist(rng)};
    Mat rho = a * a.adjoint();
    return (1.0 / rho.trace().real()) * rho;
}

std::vector<Mat> test_collapse_ops(std::size_t d) {
    return {0.3 * annihilation(d), 0.15 * number_op(d)};
}

double max_abs_diff(const Mat& a, const Mat& b) {
    double worst = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            worst = std::max(worst, std::abs(a(i, j) - b(i, j)));
        }
    }
    return worst;
}

Mat random_batch(std::size_t rows, std::size_t cols, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat x(rows, cols);
    for (std::size_t i = 0; i < rows * cols; ++i) x.data()[i] = {dist(rng), dist(rng)};
    return x;
}

/// Column j of every operator's apply through the mixed-column step (each
/// column alone, row stride `x.cols()`).
Mat mixed_step(const StructuredSuperOp& s, const Mat& x) {
    Mat out(x.rows(), x.cols());
    const StructuredSuperOp* op = &s;
    for (std::size_t j = 0; j < x.cols(); ++j) {
        StructuredSuperOp::apply_mixed_cols(&op, 1, x.data().data() + j, out.data().data() + j,
                                            x.cols());
    }
    return out;
}

/// A CSR-kind operator (a 4-level Liouvillian: fill below the cutoff) and a
/// dense-kind one (its propagator).
StructuredSuperOp csr_kind_op() {
    return StructuredSuperOp::from_dense(
        liouvillian(random_hermitian(4, 7), {0.2 * annihilation(4)}));
}
StructuredSuperOp dense_kind_op() {
    return StructuredSuperOp::from_dense(
        linalg::expm(liouvillian(random_hermitian(4, 7), {0.2 * annihilation(4)})));
}

void expect_bitwise(const Mat& a, const Mat& b, const char* what) {
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            EXPECT_EQ(a(i, j), b(i, j)) << what << " row " << i << " col " << j;
        }
    }
}

// --- CSR sparse form -------------------------------------------------------

TEST(CsrMat, SpmvMatchesDenseApplyBitwise) {
    // Threshold 0.0 keeps exactly the entries the dense SIMD kernel's
    // zero-skip visits, in the same ascending-column order: bitwise equal,
    // for one column (SpMV) and for a batch.
    for (std::size_t d : {2ul, 3ul, 4ul, 9ul}) {
        const Mat dense = liouvillian(random_hermitian(d, 101 + static_cast<unsigned>(d)),
                                      {0.2 * annihilation(d)});
        const linalg::CsrMat csr = linalg::CsrMat::from_dense(dense);
        EXPECT_EQ(csr.nnz(), [&] {
            std::size_t n = 0;
            for (const cplx& v : dense.data()) n += (v != cplx{0.0, 0.0}) ? 1 : 0;
            return n;
        }());
        EXPECT_EQ(max_abs_diff(dense, csr.to_dense()), 0.0);  // exact round trip

        const Mat x = linalg::vec(random_density(d, 111 + static_cast<unsigned>(d)));
        Mat want, got;
        linalg::gemm_into(dense, x, want);
        csr.apply_batch_into(x, got);
        expect_bitwise(want, got, "spmv");

        const Mat xb = random_batch(d * d, 5, 113 + static_cast<unsigned>(d));
        linalg::gemm_into(dense, xb, want);
        csr.apply_batch_into(xb, got);
        expect_bitwise(want, got, "batch");
    }
}

TEST(CsrMat, ThresholdDropsSmallEntries) {
    Mat m(2, 2);
    m(0, 0) = 1.0;
    m(0, 1) = cplx{1e-15, 0.0};
    m(1, 1) = cplx{0.0, 0.5};
    const linalg::CsrMat csr = linalg::CsrMat::from_dense(m, 1e-12);
    EXPECT_EQ(csr.nnz(), 2u);
    EXPECT_EQ(csr.to_dense()(0, 1), (cplx{0.0, 0.0}));
}

// --- StructuredSuperOp dispatch + bitwise contracts ------------------------

TEST(StructuredSuperop, DispatchFollowsFillFraction) {
    // rz-only Clifford-style diagonal superop: sparse, must pick CSR.
    Mat diag(9, 9);
    for (std::size_t i = 0; i < 9; ++i) diag(i, i) = cplx{0.5, 0.5};
    EXPECT_EQ(StructuredSuperOp::from_dense(diag).kind(), StructuredSuperOp::Kind::kCsr);

    // Generic Lindblad propagator superop: dense.
    const Mat dense = linalg::expm(liouvillian(random_hermitian(3, 7), test_collapse_ops(3)));
    EXPECT_EQ(StructuredSuperOp::from_dense(dense).kind(), StructuredSuperOp::Kind::kDense);
}

TEST(StructuredSuperop, CsrAndDenseKindsAgreeBitwise) {
    // Either kind's batch apply and the mixed step all equal the dense
    // product of the operator's dense form.
    for (const StructuredSuperOp& s : {csr_kind_op(), dense_kind_op()}) {
        SCOPED_TRACE(s.kind() == StructuredSuperOp::Kind::kCsr ? "csr" : "dense");
        const Mat x = random_batch(s.dim(), 3, 8);
        Mat want, got;
        linalg::gemm_into(s.dense(), x, want);
        s.apply_batch_into(x, got);
        expect_bitwise(want, got, "batch");
        expect_bitwise(want, mixed_step(s, x), "mixed");
    }
    EXPECT_EQ(csr_kind_op().kind(), StructuredSuperOp::Kind::kCsr);
    EXPECT_EQ(dense_kind_op().kind(), StructuredSuperOp::Kind::kDense);
}

TEST(StructuredSuperop, BatchColumnAndSingleApplyAgreeBitwise) {
    // The partition-invariance contract the RB seed engine relies on: one
    // batched sweep, per-column mixed steps, and single-column applies all
    // commit identical bits.
    const Mat dense = liouvillian(random_hermitian(3, 17), test_collapse_ops(3));
    const StructuredSuperOp s = StructuredSuperOp::from_dense(dense);
    const std::size_t d2 = s.dim();
    const std::size_t batch = 5;
    const Mat x = random_batch(d2, batch, 23);

    Mat batched;
    s.apply_batch_into(x, batched);
    expect_bitwise(batched, mixed_step(s, x), "mixed");

    for (std::size_t j = 0; j < batch; ++j) {
        Mat xj(d2, 1), single;
        for (std::size_t i = 0; i < d2; ++i) xj(i, 0) = x(i, j);
        s.apply_batch_into(xj, single);
        for (std::size_t i = 0; i < d2; ++i) {
            EXPECT_EQ(batched(i, j), single(i, 0)) << "col " << j << " row " << i;
        }
    }
}

TEST(StructuredSuperop, ScalarAndVectorKernelsAgreeBitwise) {
    if (!linalg::simd::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
    for (const StructuredSuperOp& s : {csr_kind_op(), dense_kind_op()}) {
        SCOPED_TRACE(s.kind() == StructuredSuperOp::Kind::kCsr ? "csr" : "dense");
        const Mat x = random_batch(s.dim(), 7, 30);
        Mat vec_batch;
        s.apply_batch_into(x, vec_batch);
        const Mat vec_mixed = mixed_step(s, x);

        linalg::simd::force_scalar(true);
        Mat sc_batch;
        s.apply_batch_into(x, sc_batch);
        const Mat sc_mixed = mixed_step(s, x);
        linalg::simd::force_scalar(false);

        expect_bitwise(vec_batch, sc_batch, "batch");
        expect_bitwise(vec_mixed, sc_mixed, "mixed");
    }
}

TEST(StructuredSuperop, MixedStepCountsDenseAppliesForCsrKind) {
    // The mixed step runs the dense kernel whatever the operator's kind, so
    // a CSR-kind column counts as a dense apply, never as a CSR one.
    const StructuredSuperOp s = csr_kind_op();
    ASSERT_EQ(s.kind(), StructuredSuperOp::Kind::kCsr);
    const Mat x = random_batch(s.dim(), 3, 41);
    obs::reset_for_testing();
    obs::enable_metrics("");  // memory-only counters
    const Mat out = mixed_step(s, x);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSuperopApplies), 3u);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSuperopCsrApplies), 0u);
    obs::reset_for_testing();
}

}  // namespace
}  // namespace qoc::quantum
