#include "linalg/eig_hermitian.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "oracles/propagators.hpp"

namespace qoc::linalg {
namespace {

constexpr cplx kI{0.0, 1.0};

Mat random_hermitian(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = cplx{dist(rng), 0.0};
        for (std::size_t j = i + 1; j < n; ++j) {
            const cplx v{dist(rng), dist(rng)};
            m(i, j) = v;
            m(j, i) = std::conj(v);
        }
    }
    return m;
}

TEST(EigHermitian, DiagonalMatrix) {
    const Mat d = Mat::diag({cplx{3.0}, cplx{1.0}, cplx{2.0}});
    const EigH e = eig_hermitian(d);
    EXPECT_NEAR(e.eigenvalues[0], 1.0, 1e-12);
    EXPECT_NEAR(e.eigenvalues[1], 2.0, 1e-12);
    EXPECT_NEAR(e.eigenvalues[2], 3.0, 1e-12);
}

TEST(EigHermitian, PauliX) {
    Mat sx{{0.0, 1.0}, {1.0, 0.0}};
    const EigH e = eig_hermitian(sx);
    EXPECT_NEAR(e.eigenvalues[0], -1.0, 1e-12);
    EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-12);
}

TEST(EigHermitian, PauliY) {
    Mat sy{{0.0, -kI}, {kI, 0.0}};
    const EigH e = eig_hermitian(sy);
    EXPECT_NEAR(e.eigenvalues[0], -1.0, 1e-12);
    EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-12);
    // Reconstruction check.
    Mat d = Mat::diag({cplx{e.eigenvalues[0]}, cplx{e.eigenvalues[1]}});
    EXPECT_TRUE((e.eigenvectors * d * e.eigenvectors.adjoint()).approx_equal(sy, 1e-10));
}

TEST(EigHermitian, RandomReconstruction) {
    for (unsigned seed : {5u, 6u, 7u}) {
        for (std::size_t n : {3u, 8u, 16u}) {
            const Mat a = random_hermitian(n, seed * 10 + static_cast<unsigned>(n));
            const EigH e = eig_hermitian(a);
            Mat d(n, n);
            for (std::size_t i = 0; i < n; ++i) d(i, i) = cplx{e.eigenvalues[i], 0.0};
            const Mat rec = e.eigenvectors * d * e.eigenvectors.adjoint();
            EXPECT_LT((rec - a).max_abs(), 1e-9) << "n=" << n << " seed=" << seed;
            EXPECT_TRUE(e.eigenvectors.is_unitary(1e-9));
        }
    }
}

TEST(EigHermitian, EigenvaluesSortedAscending) {
    const Mat a = random_hermitian(12, 42);
    const EigH e = eig_hermitian(a);
    for (std::size_t i = 1; i < e.eigenvalues.size(); ++i) {
        EXPECT_LE(e.eigenvalues[i - 1], e.eigenvalues[i]);
    }
}

TEST(EigHermitian, TraceEqualsEigenvalueSum) {
    const Mat a = random_hermitian(9, 13);
    const EigH e = eig_hermitian(a);
    double sum = 0.0;
    for (double v : e.eigenvalues) sum += v;
    EXPECT_NEAR(sum, a.trace().real(), 1e-10);
}

TEST(EigHermitian, RejectsNonHermitian) {
    Mat a{{0.0, 1.0}, {2.0, 0.0}};
    EXPECT_THROW(eig_hermitian(a), std::invalid_argument);
    EXPECT_THROW(eig_hermitian(Mat(2, 3)), std::invalid_argument);
}

TEST(EigHermitian, HermitianFunctionSquareRoot) {
    // f(A) with f = sqrt on a positive matrix: f(A)^2 = A.
    Mat a{{2.0, 1.0}, {1.0, 2.0}};  // eigenvalues 1, 3 (positive)
    const Mat r = oracle::hermitian_function(a, [](double x) { return std::sqrt(x); });
    EXPECT_TRUE((r * r).approx_equal(a, 1e-10));
}

TEST(EigHermitian, DegenerateSpectrum) {
    // 2*I has a fully degenerate spectrum; any orthonormal basis works.
    const Mat a = 2.0 * Mat::identity(4);
    const EigH e = eig_hermitian(a);
    for (double v : e.eigenvalues) EXPECT_NEAR(v, 2.0, 1e-12);
    EXPECT_TRUE(e.eigenvectors.is_unitary(1e-10));
}

}  // namespace
}  // namespace qoc::linalg
