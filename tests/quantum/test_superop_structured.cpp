/// Oracle tests for the structured superoperator kernels: the
/// Kronecker-factored apply and the CSR SpMV against the dense d^2 x d^2
/// matvec, plus the bitwise contracts the simd kernel family guarantees
/// (scalar-vs-vector, dense-vs-CSR, batched-vs-strided-vs-single).

#include "quantum/superop_kron.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/sparse.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"
#include "quantum/superop_structured.hpp"

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

// --- KronSuperOp vs the dense oracle ---------------------------------------

TEST(KronSuperOp, LiouvillianVecApplyMatchesDense) {
    for (std::size_t d : {2ul, 3ul, 4ul, 9ul}) {
        const Mat h = random_hermitian(d, 11 + static_cast<unsigned>(d));
        const auto c_ops = test_collapse_ops(d);
        const Mat dense = liouvillian(h, c_ops);
        const KronSuperOp kron = KronSuperOp::liouvillian(h, c_ops);
        ASSERT_EQ(kron.term_count(), 2 + c_ops.size());

        const Mat v = linalg::vec(random_density(d, 21 + static_cast<unsigned>(d)));
        const Mat want = dense * v;
        Mat got, scratch;
        kron.apply_vec_into(v, got, scratch);
        EXPECT_LT(max_abs_diff(want, got), 1e-13) << "d=" << d;
    }
}

TEST(KronSuperOp, LiouvillianRhoApplyMatchesDirectForm) {
    for (std::size_t d : {2ul, 3ul, 4ul, 9ul}) {
        const Mat h = random_hermitian(d, 31 + static_cast<unsigned>(d));
        const auto c_ops = test_collapse_ops(d);
        const KronSuperOp kron = KronSuperOp::liouvillian(h, c_ops);
        const Mat rho = random_density(d, 41 + static_cast<unsigned>(d));

        constexpr cplx kI{0.0, 1.0};
        Mat want = (-kI) * linalg::commutator(h, rho);
        for (const Mat& c : c_ops) {
            const Mat cdc = c.adjoint() * c;
            want += c * rho * c.adjoint() - 0.5 * linalg::anticommutator(cdc, rho);
        }
        Mat got, scratch;
        kron.apply_rho_into(rho, got, scratch);
        EXPECT_LT(max_abs_diff(want, got), 1e-13) << "d=" << d;
    }
}

TEST(KronSuperOp, HamiltonianApplyMatchesDense) {
    for (std::size_t d : {2ul, 3ul, 9ul}) {
        const Mat h = random_hermitian(d, 51 + static_cast<unsigned>(d));
        const Mat dense = liouvillian_hamiltonian(h);
        const KronSuperOp kron = KronSuperOp::hamiltonian(h);
        const Mat v = linalg::vec(random_density(d, 61 + static_cast<unsigned>(d)));
        const Mat want = dense * v;
        Mat got, scratch;
        kron.apply_vec_into(v, got, scratch);
        EXPECT_LT(max_abs_diff(want, got), 1e-13) << "d=" << d;
    }
}

TEST(KronSuperOp, UnitaryApplyMatchesConjugation) {
    const Mat u = gates::h();
    const KronSuperOp kron = KronSuperOp::unitary(u);
    const Mat rho = random_density(2, 5);
    Mat got, scratch;
    kron.apply_rho_into(rho, got, scratch);
    EXPECT_LT(max_abs_diff(u * rho * u.adjoint(), got), 1e-14);
}

TEST(KronSuperOp, ToDenseMatchesDenseConstruction) {
    const std::size_t d = 3;
    const Mat h = random_hermitian(d, 71);
    const auto c_ops = test_collapse_ops(d);
    EXPECT_LT(max_abs_diff(liouvillian(h, c_ops),
                           KronSuperOp::liouvillian(h, c_ops).to_dense()),
              1e-13);
    EXPECT_LT(max_abs_diff(unitary_superop(gates::x()),
                           KronSuperOp::unitary(gates::x()).to_dense()),
              1e-14);
}

TEST(KronSuperOp, TraceActionDistinguishesGeneratorsFromChannels) {
    const Mat h = random_hermitian(3, 81);
    const KronSuperOp gen = KronSuperOp::liouvillian(h, test_collapse_ops(3));
    EXPECT_LT(gen.trace_action().max_abs(), 1e-12);  // tr(L rho) = 0

    const KronSuperOp chan = KronSuperOp::unitary(gates::sx());
    const Mat t = chan.trace_action();  // tr(U rho U^dag) = tr(rho)
    EXPECT_LT(max_abs_diff(t, Mat::identity(2)), 1e-14);
}

TEST(KronSuperOp, ApplyIsAllocationFreeOnShapeReuse) {
    const std::size_t d = 9;
    const KronSuperOp kron =
        KronSuperOp::liouvillian(random_hermitian(d, 91), test_collapse_ops(d));
    const Mat v = linalg::vec(random_density(d, 92));
    Mat out, scratch;
    kron.apply_vec_into(v, out, scratch);  // warm the shapes
    const Mat warm = out;
    kron.apply_vec_into(v, out, scratch);
    EXPECT_EQ(max_abs_diff(warm, out), 0.0);  // deterministic repeat
}

// --- CSR sparse form -------------------------------------------------------

TEST(CsrMat, SpmvMatchesDenseApplyBitwise) {
    // Threshold 0.0 keeps exactly the entries the dense SIMD kernel's
    // zero-skip visits, in the same ascending-column order: bitwise equal.
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
        csr.spmv_into(x, got);
        for (std::size_t i = 0; i < want.rows(); ++i) {
            EXPECT_EQ(want(i, 0), got(i, 0)) << "d=" << d << " row " << i;
        }
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
    const Mat dense = liouvillian(random_hermitian(4, 7), {0.2 * annihilation(4)});
    const StructuredSuperOp as_dense = StructuredSuperOp::from_dense(dense, /*fill_cutoff=*/0.0);
    const StructuredSuperOp as_csr = StructuredSuperOp::from_dense(dense, /*fill_cutoff=*/1.0);
    ASSERT_EQ(as_dense.kind(), StructuredSuperOp::Kind::kDense);
    ASSERT_EQ(as_csr.kind(), StructuredSuperOp::Kind::kCsr);

    const Mat x = linalg::vec(random_density(4, 8));
    Mat a, b;
    as_dense.apply_into(x, a);
    as_csr.apply_into(x, b);
    for (std::size_t i = 0; i < a.rows(); ++i) EXPECT_EQ(a(i, 0), b(i, 0)) << i;
}

TEST(StructuredSuperop, BatchColumnAndSingleApplyAgreeBitwise) {
    // The partition-invariance contract the RB seed engine relies on: one
    // batched sweep, per-column strided applies, and single-column applies
    // all commit identical bits.
    const Mat dense = liouvillian(random_hermitian(3, 17), test_collapse_ops(3));
    const StructuredSuperOp s = StructuredSuperOp::from_dense(dense);
    const std::size_t d2 = s.dim();
    const std::size_t batch = 5;

    Mat x(d2, batch);
    std::mt19937 rng(23);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (std::size_t i = 0; i < d2 * batch; ++i) x.data()[i] = {dist(rng), dist(rng)};

    Mat batched;
    s.apply_batch_into(x, batched);

    Mat strided(d2, batch);
    for (std::size_t j = 0; j < batch; ++j) {
        s.apply_col(x.data().data() + j, strided.data().data() + j, batch);
    }

    for (std::size_t j = 0; j < batch; ++j) {
        Mat xj(d2, 1), single;
        for (std::size_t i = 0; i < d2; ++i) xj(i, 0) = x(i, j);
        s.apply_into(xj, single);
        for (std::size_t i = 0; i < d2; ++i) {
            EXPECT_EQ(batched(i, j), strided(i, j)) << "col " << j << " row " << i;
            EXPECT_EQ(batched(i, j), single(i, 0)) << "col " << j << " row " << i;
        }
    }
}

TEST(StructuredSuperop, ScalarAndVectorKernelsAgreeBitwise) {
    if (!linalg::simd::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
    const Mat dense = liouvillian(random_hermitian(9, 29), test_collapse_ops(9));
    const KronSuperOp kron = KronSuperOp::liouvillian(random_hermitian(9, 29),
                                                      test_collapse_ops(9));
    const StructuredSuperOp s = StructuredSuperOp::from_dense(dense);
    const Mat v = linalg::vec(random_density(9, 30));

    Mat vec_out, vec_kron, scratch;
    s.apply_into(v, vec_out);
    kron.apply_vec_into(v, vec_kron, scratch);

    linalg::simd::force_scalar(true);
    Mat sc_out, sc_kron, sc_scratch;
    s.apply_into(v, sc_out);
    kron.apply_vec_into(v, sc_kron, sc_scratch);
    linalg::simd::force_scalar(false);

    for (std::size_t i = 0; i < vec_out.rows(); ++i) {
        EXPECT_EQ(vec_out(i, 0), sc_out(i, 0)) << "structured row " << i;
        EXPECT_EQ(vec_kron(i, 0), sc_kron(i, 0)) << "kron row " << i;
    }
}

}  // namespace
}  // namespace qoc::quantum
