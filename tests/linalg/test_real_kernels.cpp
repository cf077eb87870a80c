/// Oracle tests for the real kernels behind the real-basis Pade engine:
/// `simd::dgemm_raw` against a naive fma triple loop (bit for bit), `RLu`
/// against a naive Gaussian elimination, both on the CPU-dispatched path
/// and under `force_scalar` (bit for bit), and the real Pade engine against
/// the complex one on a real generator.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

#include "linalg/expm.hpp"
#include "linalg/lu.hpp"
#include "linalg/real_matrix.hpp"
#include "linalg/simd_kernels.hpp"

namespace qoc::linalg {
namespace {

RMat random_rmat(std::size_t rows, std::size_t cols, unsigned seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    RMat m(rows, cols);
    for (double& v : m.data()) v = dist(rng);
    return m;
}

/// The contract, one element at a time: c_ij = fma(a_ip, b_pj, c_ij) over
/// ascending p.
RMat naive_gemm(const RMat& a, const RMat& b, const RMat* acc) {
    RMat c = acc ? *acc : RMat(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            for (std::size_t p = 0; p < a.cols(); ++p) {
                c(i, j) = std::fma(a(i, p), b(p, j), c(i, j));
            }
    return c;
}

/// Textbook Gaussian elimination with partial pivoting on [A | B], plain
/// multiply-subtract arithmetic (no fma), then back substitution.
RMat naive_solve(RMat a, RMat b) {
    const std::size_t n = a.rows(), m = b.cols();
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t p = k;
        for (std::size_t i = k + 1; i < n; ++i)
            if (std::abs(a(i, k)) > std::abs(a(p, k))) p = i;
        for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(p, j));
        for (std::size_t j = 0; j < m; ++j) std::swap(b(k, j), b(p, j));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double l = a(i, k) / a(k, k);
            for (std::size_t j = k; j < n; ++j) a(i, j) -= l * a(k, j);
            for (std::size_t j = 0; j < m; ++j) b(i, j) -= l * b(k, j);
        }
    }
    RMat x(n, m);
    for (std::size_t i = n; i-- > 0;)
        for (std::size_t j = 0; j < m; ++j) {
            double s = b(i, j);
            for (std::size_t k = i + 1; k < n; ++k) s -= a(i, k) * x(k, j);
            x(i, j) = s / a(i, i);
        }
    return x;
}

void expect_bitwise(const RMat& got, const RMat& want, const char* what) {
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (std::size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got.data()[e], want.data()[e]) << what << " element " << e;
    }
}

TEST(RealKernels, GemmMatchesNaiveFmaLoopAndForceScalarBitwise) {
    for (const std::size_t n : {4u, 9u}) {
        // Square, a single column, and a ragged shape that leaves a row
        // remainder and a masked last vector.
        for (const auto& [m, k, c] : std::vector<std::array<std::size_t, 3>>{
                 {n, n, n}, {n, n, 1}, {n - 1, n + 2, n + 3}}) {
            const RMat a = random_rmat(m, k, static_cast<unsigned>(10 * n + m));
            const RMat b = random_rmat(k, c, static_cast<unsigned>(20 * n + c));
            const RMat c0 = random_rmat(m, c, static_cast<unsigned>(30 * n + k));
            const RMat want = naive_gemm(a, b, nullptr);
            const RMat want_acc = naive_gemm(a, b, &c0);

            RMat got;
            gemm_into(a, b, got);
            expect_bitwise(got, want, "dispatched gemm_into");
            RMat got_acc = c0;
            gemm_acc(a, b, got_acc);
            expect_bitwise(got_acc, want_acc, "dispatched gemm_acc");

            simd::force_scalar(true);
            RMat scalar;
            gemm_into(a, b, scalar);
            RMat scalar_acc = c0;
            gemm_acc(a, b, scalar_acc);
            simd::force_scalar(false);
            expect_bitwise(scalar, want, "force_scalar gemm_into");
            expect_bitwise(scalar_acc, want_acc, "force_scalar gemm_acc");
        }
    }
}

TEST(RealKernels, LuSolveMatchesNaiveEliminationAndForceScalarBitwise) {
    for (const std::size_t n : {4u, 9u}) {
        RMat a = random_rmat(n, n, static_cast<unsigned>(50 + n));
        for (std::size_t i = 0; i < n; ++i) a(i, i) += 0.5;  // keep it well conditioned
        a(0, 0) = 0.0;  // forces a row swap at the first column
        for (const std::size_t m : {std::size_t{1}, n}) {
            const RMat b = random_rmat(n, m, static_cast<unsigned>(70 + n + m));
            RLu f;
            f.factor(a);
            ASSERT_FALSE(f.singular());
            RMat x(n, m);
            x(0, 0) = 7.0;  // dirty destination must not leak
            f.solve_into(b, x);

            const RMat want = naive_solve(a, b);
            double diff = 0.0, scale = 0.0;
            for (std::size_t e = 0; e < x.size(); ++e) {
                diff = std::max(diff, std::abs(x.data()[e] - want.data()[e]));
                scale = std::max(scale, std::abs(want.data()[e]));
            }
            EXPECT_LE(diff, 1e-12 * scale) << "n=" << n << " m=" << m;

            simd::force_scalar(true);
            RLu fs;
            fs.factor(a);
            RMat xs;
            fs.solve_into(b, xs);
            simd::force_scalar(false);
            expect_bitwise(xs, x, "force_scalar LU");
        }
    }
}

TEST(RealKernels, LuFlagsSingularMatrix) {
    RLu f;
    f.factor(RMat(4, 4));
    EXPECT_TRUE(f.singular());
    RMat x;
    EXPECT_THROW(f.solve_into(RMat(4, 1), x), std::runtime_error);
    EXPECT_THROW(f.factor(RMat(3, 4)), std::invalid_argument);
}

TEST(RealPade, MatchesComplexEngineOnRealGenerator) {
    // A real generator and direction are exactly representable in both
    // engines, so e^A and L(A, E) must agree to rounding at every order.
    for (const double norm : {0.01, 0.2, 0.9, 2.0, 5.0, 40.0}) {
        RMat a = random_rmat(9, 9, 91);
        a *= norm / a.norm_1();
        const RMat e = random_rmat(9, 9, 92);
        Mat ac(9, 9), ec(9, 9);
        for (std::size_t i = 0; i < a.size(); ++i) {
            ac.data()[i] = a.data()[i];
            ec.data()[i] = e.data()[i];
        }

        PadeWorkspace<RMat> rws;
        RMat rexp, rl;
        pade_prepare(a, rexp, rws);
        pade_direction(rws, e, rl);
        PadeWorkspace<Mat> cws;
        Mat cexp, cl;
        pade_prepare(ac, cexp, cws);
        pade_direction(cws, ec, cl);
        EXPECT_EQ(rws.order, cws.order) << "norm=" << norm;
        EXPECT_EQ(rws.squarings, cws.squarings) << "norm=" << norm;

        const double escale = cexp.max_abs(), lscale = cl.max_abs();
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_NEAR(rexp.data()[i], cexp.data()[i].real(), 1e-13 * escale) << "norm=" << norm;
            EXPECT_EQ(cexp.data()[i].imag(), 0.0);
            EXPECT_NEAR(rl.data()[i], cl.data()[i].real(), 1e-13 * lscale) << "norm=" << norm;
        }
    }
}

TEST(RealPade, UnpreparedMismatchedOrNonSquareInputThrows) {
    PadeWorkspace<RMat> rws;
    RMat out;
    EXPECT_THROW(pade_direction(rws, RMat(0, 0), out), std::logic_error);
    EXPECT_THROW(pade_direction(rws, RMat(3, 3), out), std::logic_error);
    EXPECT_THROW(pade_prepare(RMat(3, 4), out, rws), std::invalid_argument);
    pade_prepare(random_rmat(3, 3, 7), out, rws);
    EXPECT_THROW(pade_direction(rws, RMat(4, 4), out), std::invalid_argument);
    EXPECT_THROW(pade_direction(rws, RMat(3, 4), out), std::invalid_argument);

    PadeWorkspace<Mat> cws;
    Mat cexp;
    EXPECT_THROW(pade_direction(cws, Mat(0, 0), cexp), std::logic_error);
    EXPECT_THROW(pade_prepare(Mat(2, 3), cexp, cws), std::invalid_argument);
    pade_prepare(Mat::identity(2), cexp, cws);
    EXPECT_THROW(pade_direction(cws, Mat(3, 3), cexp), std::invalid_argument);
}

}  // namespace
}  // namespace qoc::linalg
