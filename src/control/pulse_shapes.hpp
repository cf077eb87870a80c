/// \file pulse_shapes.hpp
/// \brief Seed / initial pulse envelopes for the optimizers and the default
///        device calibrations (DRAG, Gaussian, Gaussian-square, sine, ...).
///
/// All generators sample the envelope at `n` uniformly spaced points covering
/// the pulse duration and return unit-peak amplitudes (scale afterwards).

#pragma once

#include <cstdint>
#include <vector>

namespace qoc::control {

/// Gaussian envelope exp(-(t - T/2)^2 / (2 sigma^2)), peak 1 at the center.
/// `sigma_fraction` is sigma as a fraction of the total duration.
std::vector<double> gaussian_pulse(std::size_t n, double sigma_fraction = 0.25);

/// Derivative of the Gaussian (the DRAG quadrature component), normalized to
/// unit peak magnitude.
std::vector<double> gaussian_derivative_pulse(std::size_t n, double sigma_fraction = 0.25);

/// DRAG pair: in-phase Gaussian and the scaled derivative quadrature
/// (Derivative Removal by Adiabatic Gate).  `beta` multiplies the
/// derivative component (units of the returned samples; physically
/// -1/anharmonicity).
struct DragPulse {
    std::vector<double> in_phase;    ///< I component (Gaussian)
    std::vector<double> quadrature;  ///< Q component (beta * dGaussian/dt)
};
DragPulse drag_pulse(std::size_t n, double sigma_fraction = 0.25, double beta = 0.2);

/// Flat-top Gaussian-square: unit plateau of `width_fraction` of the
/// duration with Gaussian rise/fall of `sigma_fraction`.
std::vector<double> gaussian_square_pulse(std::size_t n, double width_fraction = 0.6,
                                          double sigma_fraction = 0.1);

/// Half-period sine arch sin(pi t / T) (the paper's "SINE" seed for CX).
std::vector<double> sine_pulse(std::size_t n);

/// Constant (square) pulse of unit amplitude.
std::vector<double> square_pulse(std::size_t n);

/// Deterministic pseudo-random pulse in [-1, 1] (QuTiP's RND initial type).
std::vector<double> random_pulse(std::size_t n, std::uint64_t seed);

/// Zero pulse.
std::vector<double> zero_pulse(std::size_t n);

/// Multiplies every sample by `scale`.
std::vector<double> scaled(std::vector<double> pulse, double scale);

/// Total area (sum * dt) of a sampled pulse.
double pulse_area(const std::vector<double>& pulse, double dt);

/// Resamples a PWC pulse defined on `n_src` slots onto `n_dst` samples
/// (nearest-slot / zero-order hold, how optimized slots map to device dt).
std::vector<double> resample_zoh(const std::vector<double>& pulse, std::size_t n_dst);

}  // namespace qoc::control
