#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <sstream>
#include <vector>

#include "linalg/simd_kernels.hpp"

namespace qoc::linalg {
namespace {

constexpr cplx kI{0.0, 1.0};

TEST(Matrix, DefaultIsEmpty) {
    Mat m;
    EXPECT_EQ(m.rows(), 0u);
    EXPECT_EQ(m.cols(), 0u);
    EXPECT_TRUE(m.empty());
}

TEST(Matrix, SizeConstructorZeroFills) {
    Mat m(3, 2);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(m(i, j), cplx(0.0, 0.0));
}

TEST(Matrix, InitializerList) {
    Mat m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m(0, 1), cplx(2.0, 0.0));
    EXPECT_EQ(m(1, 0), cplx(3.0, 0.0));
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((Mat{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, VectorConstructorChecksSize) {
    EXPECT_THROW(Mat(2, 2, {cplx{1.0}, cplx{2.0}}), std::invalid_argument);
    Mat m(1, 2, {cplx{1.0}, cplx{2.0}});
    EXPECT_EQ(m(0, 1), cplx(2.0, 0.0));
}

TEST(Matrix, Identity) {
    const Mat ident = Mat::identity(4);
    EXPECT_EQ(ident.trace(), cplx(4.0, 0.0));
    EXPECT_TRUE(ident.is_unitary());
    EXPECT_TRUE(ident.is_hermitian());
}

TEST(Matrix, Diag) {
    const Mat d = Mat::diag({cplx{1.0}, cplx{2.0}});
    EXPECT_EQ(d(1, 1), cplx(2.0, 0.0));
    EXPECT_EQ(d(0, 1), cplx(0.0, 0.0));
}

TEST(Matrix, AtThrowsOutOfRange) {
    Mat m(2, 2);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    EXPECT_THROW(m.at(0, 2), std::out_of_range);
    EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, AddSubtract) {
    Mat a{{1.0, 2.0}, {3.0, 4.0}};
    Mat b{{4.0, 3.0}, {2.0, 1.0}};
    const Mat s = a + b;
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(s(i, j), cplx(5.0, 0.0));
    const Mat d = a - a;
    EXPECT_NEAR(d.max_abs(), 0.0, 1e-15);
}

TEST(Matrix, ShapeMismatchThrows) {
    Mat a(2, 2), b(2, 3);
    EXPECT_THROW(a += b, std::invalid_argument);
    EXPECT_THROW(a -= b, std::invalid_argument);
    EXPECT_THROW(b * a, std::invalid_argument);
}

TEST(Matrix, ScalarMultiply) {
    Mat a{{1.0, 0.0}, {0.0, 1.0}};
    const Mat b = a * kI;
    EXPECT_EQ(b(0, 0), kI);
    const Mat c = 2.0 * a;
    EXPECT_EQ(c(1, 1), cplx(2.0, 0.0));
}

TEST(Matrix, ProductAgainstHandComputed) {
    Mat a{{1.0, 2.0}, {3.0, 4.0}};
    Mat b{{5.0, 6.0}, {7.0, 8.0}};
    const Mat c = a * b;
    EXPECT_EQ(c(0, 0), cplx(19.0, 0.0));
    EXPECT_EQ(c(0, 1), cplx(22.0, 0.0));
    EXPECT_EQ(c(1, 0), cplx(43.0, 0.0));
    EXPECT_EQ(c(1, 1), cplx(50.0, 0.0));
}

TEST(Matrix, ProductComplexEntries) {
    Mat a{{kI}};
    Mat b{{kI}};
    EXPECT_EQ((a * b)(0, 0), cplx(-1.0, 0.0));
}

TEST(Matrix, AdjointConjugatesAndTransposes) {
    Mat a{{cplx{1.0, 2.0}, cplx{3.0, 4.0}}, {cplx{5.0, 6.0}, cplx{7.0, 8.0}}};
    const Mat ad = a.adjoint();
    EXPECT_EQ(ad(0, 1), cplx(5.0, -6.0));
    EXPECT_EQ(ad(1, 0), cplx(3.0, -4.0));
    EXPECT_TRUE(a.transpose().conj().approx_equal(ad));
}

TEST(Matrix, AdjointTimesMatchesExplicit) {
    Mat a{{cplx{1.0, 1.0}, 2.0}, {0.0, cplx{0.0, -3.0}}};
    Mat b{{1.0, cplx{0.0, 1.0}}, {2.0, 3.0}};
    EXPECT_TRUE(adjoint_times(a, b).approx_equal(a.adjoint() * b, 1e-14));
}

TEST(Matrix, HsInnerMatchesTraceForm) {
    Mat a{{cplx{1.0, 1.0}, 2.0}, {0.5, cplx{0.0, -3.0}}};
    Mat b{{1.0, cplx{0.0, 1.0}}, {2.0, 3.0}};
    const cplx direct = hs_inner(a, b);
    const cplx via_trace = (a.adjoint() * b).trace();
    EXPECT_NEAR(std::abs(direct - via_trace), 0.0, 1e-13);
}

TEST(Matrix, TraceRequiresSquare) {
    Mat m(2, 3);
    EXPECT_THROW(m.trace(), std::invalid_argument);
}

TEST(Matrix, FrobeniusAndMaxNorms) {
    Mat m{{3.0, 0.0}, {0.0, 4.0}};
    EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
    EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(Matrix, OneNormIsMaxColumnSum) {
    Mat m{{1.0, -2.0}, {3.0, 4.0}};
    EXPECT_DOUBLE_EQ(m.norm_1(), 6.0);
}

TEST(Matrix, HermitianDetection) {
    Mat h{{2.0, cplx{1.0, 1.0}}, {cplx{1.0, -1.0}, 3.0}};
    EXPECT_TRUE(h.is_hermitian());
    Mat nh{{2.0, cplx{1.0, 1.0}}, {cplx{1.0, 1.0}, 3.0}};
    EXPECT_FALSE(nh.is_hermitian());
}

TEST(Matrix, UnitaryDetection) {
    const double r = 1.0 / std::sqrt(2.0);
    Mat h{{r, r}, {r, -r}};
    EXPECT_TRUE(h.is_unitary());
    Mat not_u{{1.0, 0.0}, {0.0, 2.0}};
    EXPECT_FALSE(not_u.is_unitary());
}

TEST(Matrix, BlockExtractAndSet) {
    Mat m(3, 3);
    Mat b{{1.0, 2.0}, {3.0, 4.0}};
    m.set_block(1, 1, b);
    EXPECT_EQ(m(2, 2), cplx(4.0, 0.0));
    EXPECT_TRUE(m.block(1, 1, 2, 2).approx_equal(b));
    EXPECT_THROW(m.block(2, 2, 2, 2), std::out_of_range);
    EXPECT_THROW(m.set_block(2, 2, b), std::out_of_range);
}

TEST(Matrix, RowAndColViews) {
    Mat m{{1.0, 2.0}, {3.0, 4.0}};
    EXPECT_EQ(m.col(1)(0, 0), cplx(2.0, 0.0));
    EXPECT_EQ(m.row(1)(0, 1), cplx(4.0, 0.0));
}

TEST(Matrix, CommutatorOfCommutingIsZero) {
    Mat a = Mat::diag({cplx{1.0}, cplx{2.0}});
    Mat b = Mat::diag({cplx{3.0}, cplx{4.0}});
    EXPECT_NEAR(commutator(a, b).max_abs(), 0.0, 1e-15);
}

TEST(Matrix, EqualUpToPhase) {
    Mat a{{0.0, 1.0}, {1.0, 0.0}};
    const Mat b = a * kI;
    EXPECT_TRUE(equal_up_to_phase(a, b));
    EXPECT_TRUE(equal_up_to_phase(b, a));
    Mat c{{0.0, 1.0}, {-1.0, 0.0}};
    EXPECT_FALSE(equal_up_to_phase(a, c));
}

TEST(Matrix, EqualUpToPhaseRejectsNonUnitPhase) {
    Mat a{{1.0, 0.0}, {0.0, 1.0}};
    const Mat b = 2.0 * a;
    EXPECT_FALSE(equal_up_to_phase(b, a));
}

TEST(Matrix, StreamOutputContainsEntries) {
    Mat m{{1.0, 0.0}, {0.0, 1.0}};
    std::ostringstream os;
    os << m;
    EXPECT_NE(os.str().find("1"), std::string::npos);
}

/// Deterministic m x n fill with roughly one exact zero in seven entries, so
/// the kernels' zero-skip branch is exercised alongside the dense path.
Mat oracle_fill(std::size_t m, std::size_t n, double seed) {
    Mat a(m, n);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const double t = seed + static_cast<double>(i * n + j);
            if ((i * 5 + j * 3) % 7 == 6) continue;
            a(i, j) = cplx(std::sin(1.3 * t), std::cos(0.7 * t + seed));
        }
    }
    return a;
}

/// Naive triple-loop reference in long double: `c0 + a * b` per element,
/// plus the magnitude sum |c0| + sum_p |a_ip| |b_pj| that scales the
/// componentwise rounding bound.
struct NaiveRef {
    std::vector<std::complex<long double>> c;
    std::vector<long double> mag;
};

NaiveRef naive_gemm(const Mat& a, const Mat& b, const Mat* c0) {
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    NaiveRef r{std::vector<std::complex<long double>>(m * n), std::vector<long double>(m * n)};
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            std::complex<long double> acc{0.0L, 0.0L};
            long double mag = 0.0L;
            if (c0 != nullptr) {
                acc = std::complex<long double>((*c0)(i, j).real(), (*c0)(i, j).imag());
                mag = std::abs(acc);
            }
            for (std::size_t p = 0; p < k; ++p) {
                const std::complex<long double> x(a(i, p).real(), a(i, p).imag());
                const std::complex<long double> y(b(p, j).real(), b(p, j).imag());
                acc += x * y;
                mag += std::abs(x) * std::abs(y);
            }
            r.c[i * n + j] = acc;
            r.mag[i * n + j] = mag;
        }
    }
    return r;
}

void expect_within_gemm_bound(const Mat& got, const NaiveRef& ref, std::size_t k,
                              const char* what) {
    const long double eps = std::numeric_limits<double>::epsilon();
    for (std::size_t e = 0; e < got.data().size(); ++e) {
        const std::complex<long double> g(got.data()[e].real(), got.data()[e].imag());
        const long double err = std::abs(g - ref.c[e]);
        const long double bound = 8.0L * static_cast<long double>(k + 1) * eps * ref.mag[e];
        ASSERT_LE(err, bound) << what << " element " << e;
    }
}

constexpr std::size_t kOracleDims[] = {1, 2, 3, 4, 9, 16, 17, 33};

TEST(Matrix, GemmKernelsMatchNaiveTripleLoop) {
    // gemm_into / gemm_acc / operator* against a long-double triple loop on
    // square and rectangular shapes: odd tails, the 16-column register-chunk
    // edge (16, 17, 33) and single rows/columns.  Componentwise bound
    // |C - C_ref| <= 8 (k + 1) eps (|C0| + |A| |B|).
    for (const std::size_t m : kOracleDims) {
        for (const std::size_t k : kOracleDims) {
            for (const std::size_t n : kOracleDims) {
                SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n);
                const Mat a = oracle_fill(m, k, 0.25);
                const Mat b = oracle_fill(k, n, 1.75);
                const Mat c0 = oracle_fill(m, n, 3.5);

                const NaiveRef prod = naive_gemm(a, b, nullptr);
                Mat out(m, n);
                out(0, 0) = cplx(99.0, -99.0);  // dirty destination must not leak
                gemm_into(a, b, out);
                ASSERT_EQ(out.rows(), m);
                ASSERT_EQ(out.cols(), n);
                expect_within_gemm_bound(out, prod, k, "gemm_into");
                expect_within_gemm_bound(a * b, prod, k, "operator*");

                Mat acc = c0;
                gemm_acc(a, b, acc);
                expect_within_gemm_bound(acc, naive_gemm(a, b, &c0), k, "gemm_acc");
            }
        }
    }
}

TEST(Matrix, GemmAvx2AndScalarReplayAgreeBitwise) {
    // The AVX2 lanes and the scalar std::fma replay commit every partial
    // product identically (simd_kernels.hpp), so all three entry points are
    // bitwise independent of the dispatch.  Without AVX2 both runs take the
    // scalar path and the comparison holds trivially.
    for (const std::size_t m : kOracleDims) {
        for (const std::size_t k : kOracleDims) {
            for (const std::size_t n : kOracleDims) {
                SCOPED_TRACE(::testing::Message() << "m=" << m << " k=" << k << " n=" << n);
                const Mat a = oracle_fill(m, k, 0.5);
                const Mat b = oracle_fill(k, n, 2.5);
                const Mat c0 = oracle_fill(m, n, 4.5);
                Mat vec_into, vec_acc = c0;
                gemm_into(a, b, vec_into);
                gemm_acc(a, b, vec_acc);
                const Mat vec_prod = a * b;

                simd::force_scalar(true);
                Mat sc_into, sc_acc = c0;
                gemm_into(a, b, sc_into);
                gemm_acc(a, b, sc_acc);
                const Mat sc_prod = a * b;
                simd::force_scalar(false);

                ASSERT_EQ(vec_into.data(), sc_into.data());
                ASSERT_EQ(vec_acc.data(), sc_acc.data());
                ASSERT_EQ(vec_prod.data(), sc_prod.data());
            }
        }
    }
}

TEST(Matrix, GemmRejectsBadShapes) {
    const Mat a(3, 2), b_bad(3, 4), b(2, 4);
    Mat out;
    EXPECT_THROW(gemm_into(a, b_bad, out), std::invalid_argument);
    EXPECT_THROW(static_cast<void>(a * b_bad), std::invalid_argument);
    Mat acc_bad(3, 3);
    EXPECT_THROW(gemm_acc(a, b, acc_bad), std::invalid_argument);
    EXPECT_THROW(gemm_acc(a, b_bad, out), std::invalid_argument);
}

TEST(Matrix, AddScaledRealMatchesComplexPromotionBitwise) {
    std::mt19937 rng(2024);
    std::uniform_real_distribution<double> dist(-3.0, 3.0);
    for (const std::size_t n : {1u, 3u, 9u, 16u}) {
        Mat x(n, n + 1), y(n, n + 1);
        for (auto& v : x.data()) v = cplx{dist(rng), dist(rng)};
        for (auto& v : y.data()) v = cplx{dist(rng), dist(rng)};
        for (const double alpha : {dist(rng), 182.0, -1.0e-7, 64764752532480000.0}) {
            Mat via_real = y, via_cplx = y;
            add_scaled(via_real, alpha, x);
            add_scaled(via_cplx, cplx{alpha, 0.0}, x);
            ASSERT_EQ(0, std::memcmp(via_real.data().data(), via_cplx.data().data(),
                                     via_real.size() * sizeof(cplx)))
                << "n=" << n << " alpha=" << alpha;
        }
    }
    Mat y(2, 2);
    EXPECT_THROW(add_scaled(y, 1.0, Mat(2, 3)), std::invalid_argument);
}

TEST(Matrix, TraceOfProductMatchesNaiveSum) {
    std::mt19937 rng(99);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (const auto& [n, k] : {std::pair<std::size_t, std::size_t>{1, 1}, {3, 3}, {9, 9},
                               {4, 7}, {7, 4}}) {
        Mat a(n, k), b(k, n);
        for (auto& v : a.data()) v = cplx{dist(rng), dist(rng)};
        for (auto& v : b.data()) v = cplx{dist(rng), dist(rng)};
        cplx naive{0.0, 0.0};
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < k; ++j) naive += a(i, j) * b(j, i);
        EXPECT_LE(std::abs(trace_of_product(a, b) - naive), 1e-14) << n << "x" << k;
    }
    EXPECT_THROW(trace_of_product(Mat(2, 3), Mat(2, 3)), std::invalid_argument);
}

TEST(Matrix, NormsMatchHypotAtExtremeScales) {
    // Entry magnitudes whose squares overflow (1e200), underflow (1e-200,
    // subnormal) or are exact zeros must still come out as std::abs does.
    const double tiny = std::numeric_limits<double>::denorm_min();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double scale : {1e-200, 1e-160, 1.0, 1e160, 1e200}) {
        Mat m{{cplx{3.0, 4.0} * scale, cplx{0.0, 0.0}},
              {cplx{-1.0, 1.0} * scale, cplx{tiny, -tiny}}};
        double ref_max = 0.0, ref_n1 = 0.0;
        for (std::size_t j = 0; j < 2; ++j) {
            double col = 0.0;
            for (std::size_t i = 0; i < 2; ++i) {
                ref_max = std::max(ref_max, std::abs(m(i, j)));
                col += std::abs(m(i, j));
            }
            ref_n1 = std::max(ref_n1, col);
        }
        EXPECT_NEAR(m.max_abs(), ref_max, 4e-16 * ref_max) << "scale=" << scale;
        EXPECT_NEAR(m.norm_1(), ref_n1, 4e-16 * ref_n1) << "scale=" << scale;
        EXPECT_GT(m.max_abs(), 0.0);
    }
    Mat z(2, 2);
    EXPECT_EQ(z.max_abs(), 0.0);
    EXPECT_EQ(z.norm_1(), 0.0);
    Mat with_inf{{cplx{inf, 0.0}, cplx{1.0, 0.0}}, {cplx{0.0, 0.0}, cplx{0.0, 1.0}}};
    EXPECT_EQ(with_inf.max_abs(), inf);
    EXPECT_EQ(with_inf.norm_1(), inf);
}

}  // namespace
}  // namespace qoc::linalg
