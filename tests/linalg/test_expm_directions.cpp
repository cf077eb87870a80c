/// Factor-once Frechet engine (`pade_prepare` + one `pade_direction` per
/// direction) checked against finite differences, against the augmented-
/// block oracle `expm_frechet` across every Pade order (3..13) and the
/// scaling-and-squaring branch, and against the spectral Daleckii-Krein
/// oracle on closed-system (anti-Hermitian) generators, plus the
/// trace-pairing identity the adjoint GRAPE gradient rests on.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "linalg/expm.hpp"
#include "oracles/propagators.hpp"

namespace qoc::linalg {
namespace {

using oracle::expm_frechet;

constexpr cplx kI{0.0, 1.0};

Mat random_matrix(std::size_t n, unsigned seed, double scale) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-scale, scale);
    Mat m(n, n);
    for (auto& v : m.data()) v = cplx{dist(rng), dist(rng)};
    return m;
}

Mat random_hermitian(std::size_t n, unsigned seed, double scale) {
    Mat m = random_matrix(n, seed, scale);
    return 0.5 * (m + m.adjoint());
}

/// Rescales `m` so that its 1-norm is exactly `nrm` (to steer the Pade
/// order selection into a chosen theta band).
Mat with_norm(Mat m, double nrm) {
    m *= nrm / m.norm_1();
    return m;
}

/// Max-abs difference relative to the scale of the reference.
double rel_diff(const Mat& got, const Mat& ref) {
    return (got - ref).max_abs() / std::max(1.0, ref.max_abs());
}

/// `e^A` and `L(A, E_j)` for every direction: one `pade_prepare` on `ws`,
/// then one `pade_direction` per direction against the kept factors.
std::pair<Mat, std::vector<Mat>> prepare_then_directions(const Mat& a,
                                                         const std::vector<Mat>& dirs,
                                                         PadeWorkspace<Mat>& ws) {
    std::pair<Mat, std::vector<Mat>> out;
    pade_prepare(a, out.first, ws);
    out.second.resize(dirs.size());
    for (std::size_t j = 0; j < dirs.size(); ++j) pade_direction(ws, dirs[j], out.second[j]);
    return out;
}

/// The same on a fresh workspace.
std::pair<Mat, std::vector<Mat>> prepare_then_directions(const Mat& a,
                                                         const std::vector<Mat>& dirs) {
    PadeWorkspace<Mat> ws;
    return prepare_then_directions(a, dirs, ws);
}

TEST(ExpmFrechetMulti, MatchesAugmentedAcrossPadeOrders) {
    // One norm per theta band: orders 3, 5, 7, 9, 13, and 13 with s > 0
    // squarings.  The engine must agree with the Van Loan reference on both
    // the exponential and every direction.
    const double norms[] = {0.01, 0.2, 0.8, 1.8, 4.5, 20.0};
    for (double nrm : norms) {
        const Mat a = with_norm(random_matrix(5, 11, 1.0), nrm);
        const std::vector<Mat> dirs = {random_matrix(5, 21, 0.7), random_matrix(5, 22, 0.7),
                                       random_matrix(5, 23, 0.7)};
        const auto [ea, ls] = prepare_then_directions(a, dirs);
        EXPECT_LT(rel_diff(ea, expm(a)), 1e-11) << "norm=" << nrm;
        for (std::size_t j = 0; j < dirs.size(); ++j) {
            const auto [ea_ref, l_ref] = expm_frechet(a, dirs[j]);
            EXPECT_LT(rel_diff(ea, ea_ref), 1e-10) << "norm=" << nrm;
            EXPECT_LT(rel_diff(ls[j], l_ref), 1e-9) << "norm=" << nrm << " dir=" << j;
        }
    }
}

TEST(ExpmFrechetMulti, MatchesFiniteDifferenceEveryOrder) {
    const double norms[] = {0.01, 0.2, 0.8, 1.8, 4.5, 12.0};
    for (double nrm : norms) {
        const Mat a = with_norm(random_matrix(4, 31, 1.0), nrm);
        const std::vector<Mat> dirs = {random_matrix(4, 41, 0.5), random_matrix(4, 42, 0.5)};
        const auto [ea, ls] = prepare_then_directions(a, dirs);
        const double h = 1e-6;
        for (std::size_t j = 0; j < dirs.size(); ++j) {
            const Mat fd = (0.5 / h) * (expm(a + h * dirs[j]) - expm(a - h * dirs[j]));
            EXPECT_LT(rel_diff(ls[j], fd), 1e-6) << "norm=" << nrm << " dir=" << j;
        }
    }
}

TEST(ExpmFrechetMulti, SpectralMatchesPadeOnAntiHermitian) {
    // Closed-system GRAPE shape: A = -i dt H, directions -i dt H_j.  The
    // Daleckii-Krein oracle gets the same derivatives from the spectrum of
    // dt H, with no Pade approximant involved.
    for (double dt : {0.05, 0.8, 3.0}) {
        const Mat h = dt * random_hermitian(6, 51, 1.0);
        const Mat a = -kI * h;
        const std::vector<Mat> dirs = {(-kI * dt) * random_hermitian(6, 52, 1.0),
                                       (-kI * dt) * random_hermitian(6, 53, 1.0)};
        const auto [ea_p, ls_p] = prepare_then_directions(a, dirs);
        EXPECT_TRUE(ea_p.is_unitary(1e-11));
        for (std::size_t j = 0; j < dirs.size(); ++j) {
            const auto [ea_s, l_s] = oracle::expm_frechet_spectral(h, dirs[j]);
            EXPECT_LT(rel_diff(ea_s, ea_p), 1e-11) << "dt=" << dt;
            EXPECT_LT(rel_diff(l_s, ls_p[j]), 1e-10) << "dt=" << dt << " dir=" << j;
        }
    }
}

TEST(ExpmFrechetMulti, ManyDirectionsMatchSingleDirectionCalls) {
    const Mat a = random_matrix(4, 71, 0.8);
    std::vector<Mat> dirs;
    for (unsigned j = 0; j < 4; ++j) dirs.push_back(random_matrix(4, 80 + j, 0.6));
    const auto [ea, ls] = prepare_then_directions(a, dirs);
    for (std::size_t j = 0; j < dirs.size(); ++j) {
        const auto [ea1, l1] = prepare_then_directions(a, {dirs[j]});
        EXPECT_TRUE(ea.approx_equal(ea1, 0.0));  // bitwise: shared intermediates
        EXPECT_TRUE(ls[j].approx_equal(l1[0], 0.0));
    }
}

TEST(ExpmFrechetMulti, WorkspaceReuseAcrossSizesAndOrdersIsStateless) {
    // One workspace driven through different sizes and Pade orders must give
    // bitwise the same results as a fresh workspace each call.
    PadeWorkspace<Mat> shared;
    const double norms[] = {20.0, 0.01, 1.8, 0.2, 4.5, 0.8};
    std::size_t sizes[] = {5, 2, 7, 3, 4, 6};
    for (int rep = 0; rep < 2; ++rep) {
        for (std::size_t c = 0; c < 6; ++c) {
            const Mat a = with_norm(random_matrix(sizes[c], 90 + static_cast<unsigned>(c), 1.0),
                                    norms[c]);
            const std::vector<Mat> dirs = {
                random_matrix(sizes[c], 100 + static_cast<unsigned>(c), 0.5)};
            const auto [ea_shared, l_shared] =
                prepare_then_directions(a, dirs, shared);
            const auto [ea_fresh, l_fresh] = prepare_then_directions(a, dirs);
            EXPECT_TRUE(ea_shared.approx_equal(ea_fresh, 0.0)) << "case=" << c;
            EXPECT_TRUE(l_shared[0].approx_equal(l_fresh[0], 0.0)) << "case=" << c;
        }
    }
}

TEST(ExpmFrechetMulti, LinearInDirection) {
    const Mat a = random_matrix(3, 111, 0.5);
    const Mat e1 = random_matrix(3, 112, 0.5);
    const Mat e2 = random_matrix(3, 113, 0.5);
    const auto [ea, ls] = prepare_then_directions(a, {e1, e2, e1 + e2});
    (void)ea;
    EXPECT_LT((ls[2] - (ls[0] + ls[1])).max_abs(), 1e-10);
}

TEST(ExpmInto, MatchesExpmAndReusesWorkspace) {
    // One workspace exponentiating slot after slot, as the executor and
    // Krotov use it.
    PadeWorkspace<Mat> ws;
    Mat out;
    for (double nrm : {0.01, 0.8, 4.5, 20.0}) {
        const Mat a = with_norm(random_matrix(5, 121, 1.0), nrm);
        pade_prepare(a, out, ws);
        EXPECT_LT(rel_diff(out, expm(a)), 1e-11) << "norm=" << nrm;
    }
    // Anti-Hermitian input: a unitary result.
    const Mat a = (-kI * 1.3) * random_hermitian(5, 131, 1.0);
    pade_prepare(a, out, ws);
    EXPECT_TRUE(out.is_unitary(1e-11));
    EXPECT_LT(rel_diff(out, expm(a)), 1e-11);
}

/// Random matrix with a strong strictly-upper part: far from normal, so
/// L(A, E) and L(A, R) genuinely differ from any commuting shortcut.
Mat random_non_normal(std::size_t n, unsigned seed) {
    Mat m = random_matrix(n, seed, 1.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) m(i, j) *= 4.0;
    return m;
}

/// One norm per Pade band plus Pade 13 with s = 0, 1, 2, 3 squarings.
struct PadeCase {
    double norm;
    int order;
    int squarings;
};
constexpr PadeCase kPadeCases[] = {{0.01, 3, 0}, {0.2, 5, 0},  {0.8, 7, 0},  {1.8, 9, 0},
                                   {4.5, 13, 0}, {9.0, 13, 1}, {18.0, 13, 2}, {36.0, 13, 3}};

TEST(ExpmPrepareDirection, MatchesAugmentedOnNonNormalAcrossPadeOrders) {
    for (const PadeCase& c : kPadeCases) {
        const Mat a = with_norm(random_non_normal(5, 141), c.norm);
        PadeWorkspace<Mat> ws;
        Mat ea;
        pade_prepare(a, ea, ws);
        ASSERT_EQ(ws.order, c.order) << "norm=" << c.norm;
        ASSERT_EQ(ws.squarings, c.squarings) << "norm=" << c.norm;
        // Several directions off ONE prepare: a direction must not disturb
        // the kept factors.
        for (unsigned j = 0; j < 3; ++j) {
            const Mat e = random_non_normal(5, 150 + j);
            Mat l;
            pade_direction(ws, e, l);
            const auto [ea_ref, l_ref] = expm_frechet(a, e);
            EXPECT_LT(rel_diff(ea, ea_ref), 1e-12) << "norm=" << c.norm;
            EXPECT_LT(rel_diff(l, l_ref), 1e-12) << "norm=" << c.norm << " dir=" << j;
        }
    }
}

TEST(ExpmPrepareDirection, MatchesAugmentedOnSpectralPath) {
    // Closed-system slot exponents A = -i dt H, which a spectral path once
    // took, on the Pade engine.
    for (double dt : {0.05, 0.8, 3.0}) {
        const Mat a = (-kI * dt) * random_hermitian(5, 161, 1.0);
        PadeWorkspace<Mat> ws;
        Mat ea;
        pade_prepare(a, ea, ws);
        for (unsigned j = 0; j < 3; ++j) {
            // Non-Hermitian directions too: the adjoint direction R is general.
            const Mat e = random_non_normal(5, 170 + j);
            Mat l;
            pade_direction(ws, e, l);
            const auto [ea_ref, l_ref] = expm_frechet(a, e);
            EXPECT_LT(rel_diff(ea, ea_ref), 1e-12) << "dt=" << dt;
            EXPECT_LT(rel_diff(l, l_ref), 1e-12) << "dt=" << dt << " dir=" << j;
        }
    }
}

/// |Tr(R L(A,E)) - Tr(L(A,R) E)| relative to the Cauchy-Schwarz scale of
/// the two traces.
double trace_pairing_gap(PadeWorkspace<Mat>& ws, const Mat& r, const Mat& e) {
    Mat l_e, l_r;
    pade_direction(ws, e, l_e);
    pade_direction(ws, r, l_r);
    const cplx lhs = trace_of_product(r, l_e);
    const cplx rhs = trace_of_product(l_r, e);
    const double scale = std::max(r.frobenius_norm() * l_e.frobenius_norm(),
                                  l_r.frobenius_norm() * e.frobenius_norm());
    return std::abs(lhs - rhs) / scale;
}

TEST(ExpmPrepareDirection, TracePairingIdentityHolds) {
    for (const PadeCase& c : kPadeCases) {
        const Mat a = with_norm(random_non_normal(5, 181), c.norm);
        PadeWorkspace<Mat> ws;
        Mat ea;
        pade_prepare(a, ea, ws);
        for (unsigned j = 0; j < 3; ++j) {
            const Mat r = random_non_normal(5, 190 + j);
            const Mat e = random_non_normal(5, 200 + j);
            EXPECT_LT(trace_pairing_gap(ws, r, e), 1e-12) << "norm=" << c.norm << " pair=" << j;
        }
    }
    for (double dt : {0.05, 0.8, 3.0}) {
        const Mat a = (-kI * dt) * random_hermitian(5, 211, 1.0);
        PadeWorkspace<Mat> ws;
        Mat ea;
        pade_prepare(a, ea, ws);
        for (unsigned j = 0; j < 3; ++j) {
            const Mat r = random_non_normal(5, 220 + j);
            const Mat e = (-kI * dt) * random_hermitian(5, 230 + j, 1.0);
            EXPECT_LT(trace_pairing_gap(ws, r, e), 1e-12) << "dt=" << dt << " pair=" << j;
        }
    }
}

TEST(ExpmPrepareDirection, MultiIsPrepareThenDirectionsBitwise) {
    // Directions taken in reverse order off a second prepare match the
    // forward pass bit for bit: a direction reads the factors, never writes.
    const Mat a = with_norm(random_non_normal(4, 241), 18.0);
    const std::vector<Mat> dirs = {random_matrix(4, 242, 0.5), random_matrix(4, 243, 0.5)};
    const auto [ea, ls] = prepare_then_directions(a, dirs);
    PadeWorkspace<Mat> ws;
    Mat ea2, l;
    pade_prepare(a, ea2, ws);
    EXPECT_TRUE(ea.approx_equal(ea2, 0.0));
    for (std::size_t j = dirs.size(); j-- > 0;) {  // order must not matter
        pade_direction(ws, dirs[j], l);
        EXPECT_TRUE(ls[j].approx_equal(l, 0.0)) << "dir=" << j;
    }
}

TEST(ExpmPrepareDirection, UnpreparedOrMismatchedDirectionThrows) {
    PadeWorkspace<Mat> ws;
    Mat l;
    EXPECT_THROW(pade_direction(ws, Mat(2, 2), l), std::logic_error);
    Mat ea;
    pade_prepare(random_matrix(3, 251, 0.5), ea, ws);
    EXPECT_THROW(pade_direction(ws, Mat(2, 2), l), std::invalid_argument);
}

TEST(ExpmFrechetMulti, ShapeMismatchThrows) {
    EXPECT_THROW(prepare_then_directions(Mat(2, 2), {Mat(3, 3)}),
                 std::invalid_argument);
    EXPECT_THROW(prepare_then_directions(Mat(2, 3), {}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace qoc::linalg
