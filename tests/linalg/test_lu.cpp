#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "linalg/simd_kernels.hpp"

namespace qoc::linalg {
namespace {

constexpr cplx kI{0.0, 1.0};

Mat random_matrix(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat m(n, n);
    for (auto& v : m.data()) v = cplx{dist(rng), dist(rng)};
    return m;
}

TEST(Lu, SolveHandComputed) {
    Mat a{{2.0, 1.0}, {1.0, 3.0}};
    const Mat b{{5.0}, {10.0}};
    const Mat x = solve(a, b);
    EXPECT_NEAR(std::abs(x(0, 0) - cplx{1.0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x(1, 0) - cplx{3.0}), 0.0, 1e-12);
}

TEST(Lu, SolveResidualSmallRandom) {
    for (unsigned seed : {1u, 2u, 3u, 4u}) {
        const Mat a = random_matrix(8, seed);
        const Mat b = random_matrix(8, seed + 100).col(0);
        const Mat x = solve(a, b);
        EXPECT_LT((a * x - b).max_abs(), 1e-10) << "seed " << seed;
    }
}

TEST(Lu, SolveIntoResidualAcrossSizes) {
    // Normwise backward error of the substitutions at the transmon (3),
    // pair (9) and doubled-pair (18) sizes, with odd and even right-hand-side
    // counts.  Forcing the scalar gemm kernels must not change the solve:
    // the LU row updates never dispatch.
    const double eps = std::numeric_limits<double>::epsilon();
    for (const std::size_t n : {3u, 9u, 18u}) {
        const Mat a = random_matrix(n, static_cast<unsigned>(40 + n));
        const Lu f(a);
        for (const std::size_t m : {std::size_t{1}, std::size_t{3}, n}) {
            const Mat b = random_matrix(n, static_cast<unsigned>(90 + n)).block(0, 0, n, m);
            Mat x(n, m);
            x(0, 0) = cplx{7.0, 7.0};  // dirty destination must not leak
            f.solve_into(b, x);
            const double scale = a.norm_1() * x.max_abs() + b.max_abs();
            EXPECT_LE((a * x - b).max_abs(), 64.0 * static_cast<double>(n) * eps * scale)
                << "n=" << n << " m=" << m;

            simd::force_scalar(true);
            Mat x_scalar;
            f.solve_into(b, x_scalar);
            simd::force_scalar(false);
            EXPECT_EQ(x.data(), x_scalar.data()) << "n=" << n << " m=" << m;
        }
    }
}

TEST(Lu, MultipleRightHandSides) {
    const Mat a = random_matrix(6, 7);
    const Mat b = random_matrix(6, 8);
    const Mat x = solve(a, b);
    EXPECT_LT((a * x - b).max_abs(), 1e-10);
}

TEST(Lu, InverseTimesSelfIsIdentity) {
    const Mat a = random_matrix(7, 11);
    const Mat ainv = inverse(a);
    EXPECT_LT((a * ainv - Mat::identity(7)).max_abs(), 1e-10);
    EXPECT_LT((ainv * a - Mat::identity(7)).max_abs(), 1e-10);
}

TEST(Lu, DeterminantDiagonal) {
    const Mat d = Mat::diag({cplx{2.0}, cplx{3.0}, kI});
    EXPECT_NEAR(std::abs(det(d) - cplx{0.0, 6.0}), 0.0, 1e-12);
}

TEST(Lu, DeterminantPermutationSign) {
    Mat p{{0.0, 1.0}, {1.0, 0.0}};  // swap -> det = -1
    EXPECT_NEAR(std::abs(det(p) - cplx{-1.0}), 0.0, 1e-12);
}

TEST(Lu, DeterminantProductRule) {
    const Mat a = random_matrix(5, 21);
    const Mat b = random_matrix(5, 22);
    const cplx dab = det(a * b);
    const cplx dadb = det(a) * det(b);
    EXPECT_NEAR(std::abs(dab - dadb) / std::abs(dadb), 0.0, 1e-9);
}

TEST(Lu, SingularDetected) {
    Mat a{{1.0, 2.0}, {2.0, 4.0}};  // rank 1
    Lu f(a);
    EXPECT_TRUE(f.singular());
    EXPECT_THROW(f.solve(Mat::identity(2)), std::runtime_error);
}

TEST(Lu, NonSquareThrows) { EXPECT_THROW(Lu(Mat(2, 3)), std::invalid_argument); }

TEST(Lu, RhsShapeMismatchThrows) {
    Lu f(Mat::identity(3));
    EXPECT_THROW(f.solve(Mat(2, 1)), std::invalid_argument);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
    Mat a{{0.0, 1.0}, {1.0, 0.0}};
    const Mat x = solve(a, Mat{{3.0}, {4.0}});
    EXPECT_NEAR(std::abs(x(0, 0) - cplx{4.0}), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(x(1, 0) - cplx{3.0}), 0.0, 1e-12);
}

TEST(Lu, ResidualAtExtremeScales) {
    // The |re| + |im| pivot search and the reciprocal-pivot multiply must
    // neither overflow nor underflow where the entries' squares would: the
    // same well-conditioned system at entry scales 1e-200, 1 and 1e200
    // factors as nonsingular and solves to a scale-free residual.
    for (const std::size_t n : {4u, 9u}) {
        for (const double scale : {1e-200, 1.0, 1e200}) {
            Mat a = random_matrix(n, static_cast<unsigned>(60 + n));
            for (std::size_t i = 0; i < n; ++i) a(i, i) += cplx{2.0, -1.0};
            Mat b = random_matrix(n, static_cast<unsigned>(70 + n));
            a *= scale;
            b *= scale;
            const Lu f(a);
            ASSERT_FALSE(f.singular()) << "n=" << n << " scale=" << scale;
            const Mat x = f.solve(b);
            const double rel = (a * x - b).max_abs() / (a.norm_1() * x.max_abs() + b.max_abs());
            EXPECT_LE(rel, 1e-12) << "n=" << n << " scale=" << scale;
            const Mat x1 = Lu(a * (1.0 / scale)).solve(b * (1.0 / scale));
            EXPECT_LE((x - x1).max_abs(), 1e-12 * x1.max_abs()) << "n=" << n << " scale=" << scale;
        }
    }
}

}  // namespace
}  // namespace qoc::linalg
