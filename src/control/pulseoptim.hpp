/// \file pulseoptim.hpp
/// \brief High-level `pulse_optim` front end mirroring QuTiP's
///        `qutip.control.pulseoptim.optimize_pulse_unitary`: build the
///        problem from Hamiltonians, collapse operators and a seed-pulse
///        type, pick the optimizer, and return the optimized PWC amplitudes.
///
/// This is the entry point the paper's workflow uses: define the transmon
/// drift + control Hamiltonians, import decoherence rates from the backend,
/// choose a DRAG/sine/Gaussian-square seed, bound amplitudes to +-1, and run
/// L-BFGS-B.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "control/grape.hpp"

namespace qoc::control {

/// Seed pulse families (QuTiP `init_pulse_type` analogues).
enum class InitialPulseType {
    kDrag,           ///< Gaussian I + derivative Q (pairs controls as I/Q)
    kGaussian,       ///< Gaussian on every control
    kGaussianSquare, ///< flat-top Gaussian on every control
    kSine,           ///< half-period sine arch on every control
    kSquare,         ///< constant on every control
    kRandom,         ///< uniform random in the amplitude bounds
    kZero,           ///< all zeros
};

/// Which numerical optimizer drives the pulse search.  All methods run on
/// the same `control::ControlProblem` evaluator with the same budget and
/// return the same `GrapeResult`.
enum class OptimMethod {
    kLbfgsB,           ///< second-order GRAPE (the paper's choice)
    kGradientDescent,  ///< first-order GRAPE baseline
    kCrab,             ///< CRAB + Nelder-Mead baseline
    kKrotov,           ///< Krotov's sequential monotone update (closed only)
};

/// Stable key of a method ("lbfgsb", "gradient_descent", "crab", "krotov").  `CalibrationService::key_for` hashes it into `PulseStore`
/// keys, so these strings must never change.
const char* method_name(OptimMethod method);

struct PulseOptimSpec {
    Mat h_drift;                ///< drift Hamiltonian
    std::vector<Mat> h_ctrls;   ///< control Hamiltonians
    Mat u_target;               ///< target unitary (system dim, or subspace dim
                                ///< when `subspace_isometry` is set)
    std::size_t n_timeslots = 32;
    double evo_time = 1.0;      ///< total pulse duration

    /// Collapse operators; when non-empty the optimization runs in Liouville
    /// space with the TRACEDIFF cost (open-system GRAPE), exactly as the
    /// paper does for the X gate (and disables for sqrt(X)).
    std::vector<Mat> collapse_ops;

    std::optional<Mat> subspace_isometry;  ///< optimize on an embedded qubit

    InitialPulseType initial_pulse = InitialPulseType::kDrag;
    double initial_scale = 0.5;   ///< seed peak amplitude
    /// Explicit seed amplitudes [slot][ctrl]; overrides `initial_pulse`
    /// when set (for physically structured seeds).
    std::optional<ControlAmplitudes> explicit_initial_amps;
    std::uint64_t random_seed = 1234;

    double amp_lower = -1.0;
    double amp_upper = 1.0;
    /// Optional per-control bounds (see GrapeProblem); every method honors
    /// them.
    std::vector<double> amp_lower_per_ctrl;
    std::vector<double> amp_upper_per_ctrl;
    double energy_penalty = 0.0;  ///< see GrapeProblem::energy_penalty

    OptimMethod method = OptimMethod::kLbfgsB;
    FidelityType closed_fidelity = FidelityType::kPsu;

    /// The budget every method gets (as one `optim::SolverOptions`).
    double target_fid_err = 1e-10;  ///< stop once the error is this small
    int max_iterations = 500;
    int max_evaluations = 10000;
};

/// Builds the seed amplitude table for a spec (exposed for plotting the
/// "initial pulse" panels of the paper's figures).
ControlAmplitudes build_initial_amps(const PulseOptimSpec& spec);

/// Runs the full pipeline.  Throws `std::invalid_argument` on malformed
/// specs (dimension mismatches, empty controls, non-unitary target, a
/// `closed_fidelity` of kTraceDiff), and when Krotov gets collapse
/// operators (closed-system only).
/// `final_evolution` is the achieved unitary (closed) or superoperator
/// (open, i.e. when `collapse_ops` is non-empty).
GrapeResult pulse_optim(const PulseOptimSpec& spec);

}  // namespace qoc::control
