/// \file executor.hpp
/// \brief Pulse-level noisy execution: integrates the Lindblad master
///        equation (paper Eq. 1) sample-by-sample for schedules played on a
///        simulated transmon backend.  This is the stand-in for running jobs
///        on IBM Q hardware through OpenPulse.
///
/// Single-qubit execution uses a `levels`-dimensional Duffing transmon in
/// the drive rotating frame:
///   H(t) = delta n + (alpha/2) n (n - 1)
///        + (Omega_max * amp_scale / 2) (s(t) a^dag + s*(t) a)
/// with T1 (collapse `a/sqrt(T1)`) and pure dephasing from T2.  Two-qubit
/// execution models the pair with the effective cross-resonance Hamiltonian
/// (paper Eq. 3): drive channels give local X/Y terms; the control channel
/// U0 produces ZX + IX (+ classical-crosstalk XI) terms; a static ZZ runs
/// throughout.

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "device/backend_config.hpp"
#include "linalg/expm.hpp"
#include "linalg/matrix.hpp"
#include "pulse/circuit.hpp"
#include "pulse/schedule.hpp"

namespace qoc::device {

using linalg::Mat;

/// Measurement outcome histogram.
struct Counts {
    std::map<std::string, int> histogram;  ///< bitstring -> shots
    int shots = 0;

    /// Probability of a bitstring (0 when absent).
    double probability(const std::string& bitstring) const;
};

class PulseExecutor {
public:
    explicit PulseExecutor(BackendConfig config);

    const BackendConfig& config() const { return config_; }

    /// Superoperator (dim^2 x dim^2, dim = config.levels) of a complex
    /// sample stream played on `qubit`'s drive channel.  The propagators of
    /// the distinct samples are computed on the task pool; the result is
    /// bitwise the same at any pool size.
    Mat waveform_superop_1q(const std::vector<std::complex<double>>& samples,
                            std::size_t qubit) const;

    /// Superoperator of a single-qubit gate schedule (reads the qubit's
    /// drive-channel samples; internal ShiftPhases are resolved).
    Mat schedule_superop_1q(const pulse::Schedule& sched, std::size_t qubit) const;

    /// Free evolution (decoherence only) for `duration_dt` samples.
    Mat idle_superop_1q(std::size_t duration_dt, std::size_t qubit) const;

    /// Exact virtual-Z superoperator e^{+i theta n} on the transmon
    /// (equals RZ(theta) on the qubit subspace up to global phase).
    Mat rz_superop_1q(double theta) const;

    /// Two-qubit (2x2 levels) superoperator of simultaneous sample streams
    /// on D0, D1 and U0.  Streams are zero-padded to a common length.
    /// Parallel and pool-size independent like `waveform_superop_1q`.
    Mat layer_superop_2q(const std::vector<std::complex<double>>& d0,
                         const std::vector<std::complex<double>>& d1,
                         const std::vector<std::complex<double>>& u0) const;

    /// Superoperator of a two-qubit gate schedule (channels D0, D1, U0).
    Mat schedule_superop_2q(const pulse::Schedule& sched) const;

    Mat idle_superop_2q(std::size_t duration_dt) const;

    /// Virtual Z on one qubit of the pair.
    Mat rz_superop_2q(double theta, std::size_t qubit) const;

    /// Readout of a 1-qubit (levels-dim) density matrix: collapses the
    /// populations to {0, 1} (level >= 2 reads as 1), applies the confusion
    /// matrix, samples `shots` outcomes.  Throws std::domain_error when the
    /// populations are not finite.
    Counts measure_1q(const Mat& rho, std::size_t qubit, int shots, std::uint64_t seed) const;

    /// Readout of a 2-qubit density matrix (4x4), bitstring "q0q1".  Throws
    /// std::domain_error when the populations are not finite.
    Counts measure_2q(const Mat& rho, int shots, std::uint64_t seed) const;

    /// `measure_2q` on a vectorized (16x1, column-stacking) density matrix,
    /// reading the populations straight off the vec diagonal -- the readout
    /// companion of the RB engine's matvec propagation (no unvec round trip).
    Counts measure_2q_vec(const Mat& vec_rho, int shots, std::uint64_t seed) const;

    /// Ideal readout probabilities P(read 1) for a 1-qubit state (confusion
    /// applied, no shot noise) -- used by deterministic tests.
    double p1_after_readout(const Mat& rho, std::size_t qubit) const;

    /// `p1_after_readout` on a vectorized (levels^2 x 1) density matrix.
    double p1_after_readout_vec(const Mat& vec_rho, std::size_t qubit) const;

    /// Ground state (levels-dim density matrix).
    Mat ground_state_1q() const;
    /// |00><00| on the pair.
    Mat ground_state_2q() const;

private:
    Mat lindblad_generator_1q(std::complex<double> sample, std::size_t qubit) const;
    Mat lindblad_generator_2q(std::complex<double> d0, std::complex<double> d1,
                              std::complex<double> u0) const;

    /// exp(dt L) of one drive sample on `qubit`, written into `out`.
    void sample_propagator_1q(std::complex<double> sample, std::size_t qubit, Mat& out,
                              linalg::PadeWorkspace<Mat>& ws) const;
    /// Two-qubit analogue for a (d0, d1, u0) sample triple.
    void sample_propagator_2q(std::complex<double> d0, std::complex<double> d1,
                              std::complex<double> u0, Mat& out,
                              linalg::PadeWorkspace<Mat>& ws) const;

    /// Readout of true populations |q0 q1> (clamped to [0, 1], then
    /// normalized): confusion, then one multinomial draw of `shots`.
    /// Throws std::domain_error on a non-finite population.
    Counts measure_2q_populations(std::array<double, 4> true_p, int shots,
                                  std::uint64_t seed) const;

    BackendConfig config_;
    // Cached operator blocks (built once per executor).
    Mat h_drift_1q_base_;       // anharmonic part without detuning (per qubit added later)
    Mat drive_op_a_;            // annihilation (levels)
    Mat number_op_;
    std::vector<Mat> collapse_template_1q_;
    Mat h_static_2q_;           // detunings + ZZ
    std::vector<Mat> collapse_2q_;
};

/// Runs a single-qubit circuit on the executor: lowers gates to superops
/// (calibrations first, then `defaults`, rz virtual) in order, applies the
/// final frame correction, measures.
Counts run_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                      const pulse::InstructionScheduleMap& defaults, std::size_t qubit,
                      int shots, std::uint64_t seed);

/// Final density matrix of a single-qubit circuit (before readout).
Mat simulate_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                        const pulse::InstructionScheduleMap& defaults, std::size_t qubit);

/// Runs a two-qubit circuit (gates on qubits {0}, {1} or {0,1}).
Counts run_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                      const pulse::InstructionScheduleMap& defaults, int shots,
                      std::uint64_t seed);

/// Final density matrix of a two-qubit circuit.
Mat simulate_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                        const pulse::InstructionScheduleMap& defaults);

}  // namespace qoc::device
