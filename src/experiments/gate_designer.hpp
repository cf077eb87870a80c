/// \file gate_designer.hpp
/// \brief End-to-end pulse design for the paper's gates: run GRAPE /
///        pulse_optim against the *nominal* model of a backend and cast the
///        optimized amplitudes into custom calibration schedules that the
///        device executor (the IBM-Q stand-in) can run.
///
/// This is the paper's workflow: "implement the transmon qubit Hamiltonian
/// ..., import the frequencies, decoherence from the Qiskit backend",
/// optimize in QuTiP, then build a pulse gate via qiskit-pulse and swap it
/// for the default in the circuit.

#pragma once

#include <cstdint>

#include "control/pulseoptim.hpp"
#include "device/backend_config.hpp"
#include "pulse/schedule.hpp"

namespace qoc::experiments {

using device::BackendConfig;
using linalg::Mat;

/// Which physical model the optimizer assumes for a single qubit.  The
/// paper uses the Duffing-oscillator Hamiltonian; the three-level models are
/// therefore the faithful ones.  The two-level variants are kept for the
/// model-mismatch ablation: pulses designed against them acquire a large
/// AC-Stark phase error on the (three-level) device.
enum class DesignModel {
    kTwoLevelClosed,    ///< Pauli model, no decoherence (ablation)
    kTwoLevelOpen,      ///< Pauli model + T1 collapse (ablation)
    kThreeLevelClosed,  ///< Duffing transmon, subspace fidelity (leakage aware)
    kThreeLevelOpen,    ///< Duffing transmon + T1/T2 Lindblad (paper's X setup)
};

struct GateDesignSpec {
    Mat target;                       ///< 2x2 target unitary
    std::size_t duration_dt = 480;    ///< total pulse length in device dt
    std::size_t n_timeslots = 64;     ///< GRAPE slots (resampled onto dt grid)
    bool use_y_control = true;        ///< paper: X+Y for X/H, X only for sqrt(X)
    DesignModel model = DesignModel::kThreeLevelOpen;
    control::InitialPulseType seed = control::InitialPulseType::kDrag;
    double initial_scale = 0.2;
    /// Per-quadrature amplitude cap.  The hardware constraint is
    /// |I + iQ| <= 1, so two-control designs are additionally capped at
    /// 1/sqrt(2) per quadrature; keeping the default well below that also
    /// steers the optimizer away from fast, leakage-prone solutions the
    /// two-level design model cannot see.
    double amp_bound = 0.15;
    /// Energy regularizer weight (GrapeProblem::energy_penalty): favors the
    /// low-amplitude solutions the noisy drive chain rewards.
    double energy_penalty = 0.02;
    std::uint64_t random_seed = 99;
    int max_iterations = 400;
    double target_fid_err = 1e-9;
    /// Which optimizer drives the design (any OptimMethod; Krotov is
    /// closed-system only, so pair it with a *Closed design model).
    control::OptimMethod method = control::OptimMethod::kLbfgsB;
};

struct DesignedGate {
    std::string gate_name;
    pulse::Schedule schedule;          ///< custom calibration (drive channel)
    control::GrapeResult optim;        ///< full optimizer output
    double model_fid_err = 1.0;        ///< final infidelity on the design model
    std::size_t duration_dt = 0;
};

/// Designs a single-qubit gate pulse for `qubit` of the backend's nominal
/// model and returns the calibration schedule on that qubit's drive channel.
DesignedGate design_1q_gate(const BackendConfig& nominal, std::size_t qubit,
                            const std::string& gate_name, const GateDesignSpec& spec);

struct CxDesignSpec {
    std::size_t duration_dt = 960;  ///< ZX90 at zx_rate 0.03 needs >~170 ns
    std::size_t n_timeslots = 48;
    control::InitialPulseType seed = control::InitialPulseType::kGaussianSquare;
    double initial_scale = 0.3;
    double amp_bound = 0.55;  ///< per quadrature; capped at 1/sqrt(2)
    double energy_penalty = 0.05;  ///< see GrapeProblem::energy_penalty
    std::uint64_t random_seed = 7;
    int max_iterations = 600;
    double target_fid_err = 1e-8;
    /// Which optimizer drives the design (see GateDesignSpec::method).
    control::OptimMethod method = control::OptimMethod::kLbfgsB;
    /// When true, optimize the paper's idealized three-term control set
    /// (XI, IX, ZX as independent knobs); otherwise the channel-faithful set
    /// (D0, D1, U0 with the device's CR mixing).
    bool idealized_controls = false;
};

struct DesignedCx {
    pulse::Schedule schedule;          ///< D0 + D1 + U0 calibration
    control::GrapeResult optim;
    double model_fid_err = 1.0;
    std::size_t duration_dt = 0;
};

/// Designs a CX pulse against the nominal effective-CR model (paper Eq. 3).
DesignedCx design_cx_gate(const BackendConfig& nominal, const CxDesignSpec& spec);

/// Converts two real PWC control streams (I on `ctrl_i`, Q on `ctrl_q`) of
/// the optimizer output into a dt-sampled waveform schedule on `channel`.
/// Pass SIZE_MAX for `ctrl_q` when there is no quadrature control.
pulse::Schedule amps_to_schedule(const control::ControlAmplitudes& amps, std::size_t ctrl_i,
                                 std::size_t ctrl_q, std::size_t duration_dt,
                                 const pulse::Channel& channel, const std::string& name);

}  // namespace qoc::experiments
