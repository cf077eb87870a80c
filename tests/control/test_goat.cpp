#include "control/goat.hpp"

#include <gtest/gtest.h>

#include "quantum/fidelity.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"

namespace qoc::control {
namespace {

using quantum::sigma_x;
using quantum::sigma_y;
namespace g = quantum::gates;

GrapeProblem x_problem() {
    GrapeProblem p;
    p.system.drift = linalg::Mat(2, 2);
    p.system.ctrls = {0.5 * sigma_x(), 0.5 * sigma_y()};
    p.target = g::x();
    p.evo_time = 40.0;
    return p;
}

TEST(Goat, ConvergesToXGate) {
    const auto res = goat_optimize(x_problem(), {}, {.n_harmonics = 3, .n_fine = 96});
    EXPECT_LT(res.final_fid_err, 1e-8);
    EXPECT_LT(res.final_fid_err, res.initial_fid_err);
    EXPECT_EQ(res.params.size(), 2u * 2u * 3u);
}

TEST(Goat, ControlsAreSmoothAndZeroEnded) {
    GoatOptions opts;
    opts.n_harmonics = 3;
    opts.n_fine = 200;
    const auto res = goat_optimize(x_problem(), {}, opts);
    const auto& amps = res.final_amps;
    ASSERT_EQ(amps.size(), 200u);
    // Envelope forces the ends toward zero.
    EXPECT_LT(std::abs(amps.front()[0]), 0.05);
    EXPECT_LT(std::abs(amps.back()[0]), 0.05);
    // Smoothness: neighboring samples differ by much less than the range.
    double max_jump = 0.0, max_abs = 0.0;
    for (std::size_t k = 1; k < amps.size(); ++k) {
        max_jump = std::max(max_jump, std::abs(amps[k][0] - amps[k - 1][0]));
        max_abs = std::max(max_abs, std::abs(amps[k][0]));
    }
    EXPECT_LT(max_jump, 0.15 * max_abs);
}

TEST(Goat, SquashRespectsAmplitudeBound) {
    GoatOptions opts;
    opts.n_harmonics = 4;
    opts.n_fine = 96;
    opts.amp_bound = 0.08;
    // The bound caps the rotation rate; give the pulse enough time for pi.
    GrapeProblem p = x_problem();
    p.evo_time = 120.0;
    const auto res = goat_optimize(p, {}, opts);
    for (const auto& slot : res.final_amps) {
        for (double a : slot) EXPECT_LE(std::abs(a), 0.08 + 1e-12);
    }
    EXPECT_LT(res.final_fid_err, 1e-6);
}

TEST(Goat, HadamardTarget) {
    GrapeProblem p = x_problem();
    p.target = g::h();
    const auto res = goat_optimize(p, {}, {.n_harmonics = 4, .n_fine = 96});
    EXPECT_LT(res.final_fid_err, 1e-7);
    EXPECT_NEAR(quantum::fidelity_psu(g::h(), evaluate_evolution(
                                                  [&] {
                                                      GrapeProblem q = p;
                                                      q.n_timeslots = 96;
                                                      q.amp_lower = -1e30;
                                                      q.amp_upper = 1e30;
                                                      return q;
                                                  }(),
                                                  res.final_amps)),
                1.0, 1e-6);
}

TEST(Goat, WarmStartReproducible) {
    GoatOptions opts;
    opts.n_harmonics = 2;
    opts.n_fine = 64;
    const auto first = goat_optimize(x_problem(), {}, opts);
    opts.initial_params = first.params;
    const auto second = goat_optimize(x_problem(), {}, opts);
    EXPECT_LE(second.final_fid_err, first.final_fid_err + 1e-12);
    EXPECT_LE(second.iterations, 3);
}

TEST(Goat, GoatControlsMatchesOptimizeOutput) {
    GoatOptions opts;
    opts.n_harmonics = 2;
    opts.n_fine = 64;
    const auto res = goat_optimize(x_problem(), {}, opts);
    const auto resampled = goat_controls(res.params, 2, 40.0, opts);
    for (std::size_t k = 0; k < resampled.size(); ++k) {
        EXPECT_NEAR(resampled[k][0], res.final_amps[k][0], 1e-12);
        EXPECT_NEAR(resampled[k][1], res.final_amps[k][1], 1e-12);
    }
}

TEST(Goat, Validation) {
    GrapeProblem p = x_problem();
    EXPECT_THROW(goat_optimize(p, {}, {.n_harmonics = 0}), std::invalid_argument);
    GoatOptions opts;
    opts.initial_params = {1.0};
    EXPECT_THROW(goat_optimize(p, {}, opts), std::invalid_argument);
    EXPECT_THROW(goat_controls({1.0}, 2, 40.0, GoatOptions{}), std::invalid_argument);
}

}  // namespace
}  // namespace qoc::control
