/// \file rb.hpp
/// \brief Randomized benchmarking and interleaved RB (Magesan et al. 2012),
///        executed at pulse level on the device simulator.
///
/// The experiment: for each sequence length m, sample random Cliffords
/// C_1..C_m, append the recovery Clifford C_inv = (C_m ... C_1)^{-1},
/// execute on the device and record the probability of returning to |0...0>
/// (including readout error and shot noise).  The survival curve is fit to
/// A alpha^m + B; EPC = (d-1)/d (1 - alpha).  Interleaved RB repeats the
/// experiment with the gate of interest inserted after every Clifford; the
/// interleaved gate error is (d-1)/d (1 - alpha_c / alpha).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "device/executor.hpp"
#include "rb/clifford1q.hpp"
#include "rb/clifford2q.hpp"

namespace qoc::rb {

using device::PulseExecutor;
using linalg::Mat;

struct RbOptions {
    /// Sequence lengths.  1Q gate errors on these devices are ~1e-4, so the
    /// decay only becomes well-conditioned for m into the thousands (the
    /// paper's IRB plots likewise extend to thousands of Cliffords).
    std::vector<std::size_t> lengths{1, 100, 300, 600, 1000, 1500, 2000, 3000};
    std::size_t seeds_per_length = 8;   ///< independent random sequences
    int shots = 1024;
    std::uint64_t rng_seed = 2022;
};

struct RbPoint {
    std::size_t length = 0;
    double mean_survival = 0.0;
    double sem = 0.0;  ///< standard error over seeds
};

struct RbCurve {
    std::vector<RbPoint> points;
    double a = 0.0, alpha = 0.0, b = 0.0;          ///< fit A alpha^m + B
    double alpha_err = 0.0;
    double epc = 0.0;       ///< (d-1)/d (1 - alpha)
    double epc_err = 0.0;
};

struct IrbResult {
    RbCurve reference;      ///< standard RB
    RbCurve interleaved;    ///< with the gate of interest interleaved
    double gate_error = 0.0;      ///< (d-1)/d (1 - alpha_c/alpha)
    double gate_error_err = 0.0;  ///< propagated 1-sigma
};

/// Superoperator provider for the gates appearing in Clifford
/// decompositions.  The RB engines consume gate superops so that default
/// and custom (optimized-pulse) calibrations plug in uniformly.
class GateSet1Q {
public:
    /// Builds the per-Clifford superoperators for `qubit` from the schedule
    /// map: "x"/"sx" looked up in `gates` (custom calibrations already
    /// merged by the caller), "rz" exact.
    GateSet1Q(const PulseExecutor& exec, const pulse::InstructionScheduleMap& gates,
              std::size_t qubit, const Clifford1Q& group);

    /// Superoperator implementing Clifford `i` at pulse level.
    const Mat& clifford_superop(std::size_t i) const { return cliff_super_.at(i); }

    const Clifford1Q& group() const { return group_; }
    std::size_t dim() const { return dim_; }

private:
    const Clifford1Q& group_;
    std::vector<Mat> cliff_super_;
    std::size_t dim_ = 0;
};

/// Runs standard 1-qubit RB.
RbCurve run_rb_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                  const RbOptions& options);

/// Runs interleaved RB of `interleaved_superop`, whose ideal action must be
/// the Clifford with index `interleaved_clifford` (e.g. X or SX; H is also a
/// Clifford).  The recovery accounts for the interleaved gates.  Throws
/// `std::invalid_argument` unless `interleaved_superop` is d^2 x d^2 for
/// the gate set's level count d.
IrbResult run_irb_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                     const Mat& interleaved_superop, std::size_t interleaved_clifford,
                     const RbOptions& options);

/// Interleaved RB against an already-measured reference curve.  With
/// identical (executor, gate set, qubit, options) the reference curve is
/// the same experiment for every interleaved gate, so batch callers (the
/// design pipeline) measure it once and share it; `run_irb_1q` is this with
/// a freshly measured reference.
IrbResult run_irb_1q_with_reference(const PulseExecutor& exec, const GateSet1Q& gates,
                                    std::size_t qubit, const RbCurve& reference,
                                    const Mat& interleaved_superop,
                                    std::size_t interleaved_clifford,
                                    const RbOptions& options);

/// Two-qubit gate set: builds superops for the 1Q basis gates on each qubit
/// and for cx(0,1).  Clifford superops are composed from those shared
/// basis-gate superops into a lazily-memoized, thread-safe cache over the
/// full 11520-element group (the value of entry `i` depends only on `i`, so
/// any thread may build it and results are independent of thread count).
class GateSet2Q {
public:
    GateSet2Q(const PulseExecutor& exec, const pulse::InstructionScheduleMap& gates,
              const Clifford2Q& group);

    /// Superoperator (16x16) implementing 2Q Clifford `i` at pulse level;
    /// composed on first use, cached afterwards.  Counts one memo hit or
    /// miss per call.
    const Mat& clifford_superop(std::size_t i) const;

    const Clifford2Q& group() const { return group_; }

private:
    /// The cache-miss path: element `i` as C_b . C_a . E_cls . S_j . S_i
    /// from the memoized layer superops, at most 4 products.
    Mat compose_superop(std::size_t i) const;

    /// Gate-by-gate superop of a gate list (the layers' build path).
    Mat compose_gates(const std::vector<TwoQubitGate>& gates) const;

    /// Memoized superop of 1Q Clifford `c1_index` on `qubit`, built on
    /// first use.
    const Mat& layer_1q(std::size_t c1_index, std::size_t qubit) const;

    /// Memoized superop of entangling class `cls` (1..3), built on first use.
    const Mat& entangler(std::size_t cls) const;

    const Clifford2Q& group_;
    Mat x_super_[2], sx_super_[2], cx_super_;
    const PulseExecutor& exec_;
    mutable std::vector<Mat> cliff_cache_;
    mutable std::unique_ptr<std::once_flag[]> cliff_once_;
    /// 2 x 24 one-qubit layers (qubit-major), then entangler classes 1..3.
    /// Lazy: a GateSet2Q that touches few elements builds few layers.
    mutable std::vector<Mat> layer_cache_;
    mutable std::unique_ptr<std::once_flag[]> layer_once_;
};

RbCurve run_rb_2q(const PulseExecutor& exec, const GateSet2Q& gates, const RbOptions& options);

/// 2Q analogue of `run_irb_1q_with_reference`; `reference` is a `run_rb_2q`
/// curve measured with the same options.
IrbResult run_irb_2q_with_reference(const PulseExecutor& exec, const GateSet2Q& gates,
                                    const RbCurve& reference, const Mat& interleaved_superop,
                                    std::size_t interleaved_clifford,
                                    const RbOptions& options);

/// Fits A alpha^m + B to the points and fills the fit/EPC fields.
void fit_rb_curve(RbCurve& curve, double dimension);

}  // namespace qoc::rb
