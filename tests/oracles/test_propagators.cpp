/// The PWC unitary-propagator oracle against closed-form rotations, before
/// other tests compare the library's Pade engine against it.

#include "oracles/propagators.hpp"

#include <gtest/gtest.h>

#include <numbers>
#include <stdexcept>

#include "quantum/gates.hpp"
#include "quantum/operators.hpp"

namespace qoc::oracle {
namespace {

using quantum::sigma_x;
using quantum::sigma_y;
using quantum::sigma_z;
using Amplitudes = std::vector<std::vector<double>>;

TEST(PwcUnitary, ConstantPulseImplementsRotation) {
    // Drive sigma_x/2 at amplitude Omega for time t: RX(Omega * t).
    const double omega = 0.8, dt = 0.1;
    const std::size_t n = 20;
    const Amplitudes amps(n, {omega});
    const auto props = pwc_unitary_propagators(Mat(2, 2), {0.5 * sigma_x()}, amps, dt);
    const Mat total = chain_product(props);
    const Mat expect = quantum::gates::rx(omega * dt * static_cast<double>(n));
    EXPECT_TRUE(total.approx_equal(expect, 1e-11));
}

TEST(PwcUnitary, PiPulseMakesX) {
    const std::size_t n = 16;
    const double total_t = 1.0;
    const Amplitudes amps(n, {std::numbers::pi / total_t});
    const auto props = pwc_unitary_propagators(Mat(2, 2), {0.5 * sigma_x()}, amps, total_t / n);
    EXPECT_TRUE(linalg::equal_up_to_phase(chain_product(props), quantum::gates::x(), 1e-10));
}

TEST(PwcUnitary, PropagatorsAreUnitary) {
    const Amplitudes amps{{0.5, 0.1}, {-0.4, 0.9}, {0.0, 0.0}};
    for (const Mat& p : pwc_unitary_propagators(0.2 * sigma_z(), {sigma_x(), sigma_y()}, amps,
                                                0.37)) {
        EXPECT_TRUE(p.is_unitary(1e-12));
    }
}

TEST(PwcUnitary, AmplitudeCountValidated) {
    const Amplitudes bad{{0.1}};
    EXPECT_THROW(pwc_unitary_propagators(Mat(2, 2), {sigma_x(), sigma_y()}, bad, 0.1),
                 std::invalid_argument);
}

TEST(Products, EmptyChainThrows) {
    EXPECT_THROW(chain_product({}), std::invalid_argument);
}

}  // namespace
}  // namespace qoc::oracle
