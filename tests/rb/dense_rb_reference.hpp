/// Dense per-seed reference for the RB seed-block engine.
///
/// An oracle that shares none of the engine's kernels: one seed at a time,
/// one naive dense matvec per Clifford (plain `std::complex` row sums over
/// the d^2 x d^2 superoperator, no zero-skip, no SIMD), an optional
/// interleaved superop after every Clifford, then the recovery element.
/// It draws from the same per-(length, seed) RNG streams as the engine, so
/// 1Q RB/IRB, 2Q IRB and leakage-RB results must agree with it up to
/// floating-point association: 1e-12 on the survival / leakage points, 1e-9
/// on the fits.

#pragma once

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "linalg/kron.hpp"
#include "optim/levmar.hpp"
#include "rb/leakage_rb.hpp"
#include "rb/rb.hpp"

namespace qoc::rb::reference {

/// `out = s * v` for a column vector `v`: naive row-dot products.
inline void dense_matvec(const Mat& s, const Mat& v, Mat& out) {
    out.resize(s.rows(), 1);
    for (std::size_t i = 0; i < s.rows(); ++i) {
        linalg::cplx acc{0.0, 0.0};
        for (std::size_t p = 0; p < s.cols(); ++p) acc += s(i, p) * v(p, 0);
        out(i, 0) = acc;
    }
}

/// Propagates the ground state through `m` Cliffords drawn from `rng`
/// (each followed by `interleave_super` when given) plus the recovery
/// element, returning the final vec(rho).
inline Mat propagate_seed_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t m,
                             std::mt19937_64& rng, const Mat* interleave_super,
                             std::size_t interleave_index) {
    const Clifford1Q& group = gates.group();
    std::uniform_int_distribution<std::size_t> dist(0, Clifford1Q::kSize - 1);
    Mat v = linalg::vec(exec.ground_state_1q());
    Mat next;
    std::size_t net = group.identity_index();
    for (std::size_t k = 0; k < m; ++k) {
        const std::size_t c = dist(rng);
        dense_matvec(gates.clifford_superop(c), v, next);
        std::swap(v, next);
        net = group.multiply(c, net);
        if (interleave_super != nullptr) {
            dense_matvec(*interleave_super, v, next);
            std::swap(v, next);
            net = group.multiply(interleave_index, net);
        }
    }
    dense_matvec(gates.clifford_superop(group.inverse(net)), v, next);
    return next;
}

/// 2Q analogue of `propagate_seed_1q`: the ideal net unitary (with the
/// interleaved element's unitary after every Clifford when given) is tracked
/// by plain products and phase normalization, and the recovery element is
/// the group element of its adjoint.
inline Mat propagate_seed_2q(const PulseExecutor& exec, const GateSet2Q& gates, std::size_t m,
                             std::mt19937_64& rng, const Mat* interleave_super,
                             std::size_t interleave_index) {
    const Clifford2Q& group = gates.group();
    Mat v = linalg::vec(exec.ground_state_2q());
    Mat next;
    Mat net = Mat::identity(4);
    for (std::size_t k = 0; k < m; ++k) {
        const std::size_t c = group.sample(rng);
        dense_matvec(gates.clifford_superop(c), v, next);
        std::swap(v, next);
        net = phase_normalize(group.unitary(c) * net);
        if (interleave_super != nullptr) {
            dense_matvec(*interleave_super, v, next);
            std::swap(v, next);
            net = phase_normalize(group.unitary(interleave_index) * net);
        }
    }
    dense_matvec(gates.clifford_superop(group.find(net.adjoint())), v, next);
    return next;
}

inline double serial_mean(const std::vector<double>& vals) {
    double s = 0.0;
    for (double v : vals) s += v;
    return s / static_cast<double>(vals.size());
}

/// One curve point: the serial mean of the per-seed survivals and its
/// standard error over seeds.
inline RbPoint point_of(std::size_t m, const std::vector<double>& survivals) {
    RbPoint pt;
    pt.length = m;
    pt.mean_survival = serial_mean(survivals);
    if (survivals.size() > 1) {
        double ss = 0.0;
        for (double v : survivals) ss += (v - pt.mean_survival) * (v - pt.mean_survival);
        const auto n = static_cast<double>(survivals.size());
        pt.sem = std::sqrt(ss / (n - 1.0) / n);
    }
    return pt;
}

/// Standard (or, with `interleave_super`, interleaved) 1Q RB curve.
inline RbCurve rb_curve_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                           const RbOptions& opts, const Mat* interleave_super = nullptr,
                           std::size_t interleave_index = 0) {
    RbCurve curve;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::size_t m = opts.lengths[li];
        std::vector<double> survivals(opts.seeds_per_length);
        for (std::size_t s = 0; s < opts.seeds_per_length; ++s) {
            std::mt19937_64 rng(opts.rng_seed + 7919 * (li * 1000 + s));
            const Mat v =
                propagate_seed_1q(exec, gates, m, rng, interleave_super, interleave_index);
            const double p0 = 1.0 - exec.p1_after_readout_vec(v, qubit);
            std::binomial_distribution<int> shots(opts.shots, std::clamp(p0, 0.0, 1.0));
            survivals[s] = static_cast<double>(shots(rng)) / static_cast<double>(opts.shots);
        }
        curve.points.push_back(point_of(m, survivals));
    }
    fit_rb_curve(curve, 2.0);
    return curve;
}

/// Standard (or, with `interleave_super`, interleaved) 2Q RB curve: the
/// survival is P("00") of `measure_2q_vec`, seeded from the seed's stream
/// after its sequence draws.
inline RbCurve rb_curve_2q(const PulseExecutor& exec, const GateSet2Q& gates,
                           const RbOptions& opts, const Mat* interleave_super = nullptr,
                           std::size_t interleave_index = 0) {
    RbCurve curve;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::size_t m = opts.lengths[li];
        std::vector<double> survivals(opts.seeds_per_length);
        for (std::size_t s = 0; s < opts.seeds_per_length; ++s) {
            std::mt19937_64 rng(opts.rng_seed + 6271 * (li * 1000 + s));
            const Mat v =
                propagate_seed_2q(exec, gates, m, rng, interleave_super, interleave_index);
            survivals[s] = exec.measure_2q_vec(v, opts.shots, rng()).probability("00");
        }
        curve.points.push_back(point_of(m, survivals));
    }
    fit_rb_curve(curve, 4.0);
    return curve;
}

/// IRB from a reference and an interleaved reference curve.
inline IrbResult irb_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                        const Mat& interleaved_superop, std::size_t interleaved_clifford,
                        const RbOptions& opts) {
    IrbResult res;
    res.reference = rb_curve_1q(exec, gates, qubit, opts);
    res.interleaved =
        rb_curve_1q(exec, gates, qubit, opts, &interleaved_superop, interleaved_clifford);
    res.gate_error = 0.5 * (1.0 - res.interleaved.alpha / res.reference.alpha);
    return res;
}

/// 2Q IRB from a reference and an interleaved reference curve.
inline IrbResult irb_2q(const PulseExecutor& exec, const GateSet2Q& gates,
                        const Mat& interleaved_superop, std::size_t interleaved_clifford,
                        const RbOptions& opts) {
    IrbResult res;
    res.reference = rb_curve_2q(exec, gates, opts);
    res.interleaved = rb_curve_2q(exec, gates, opts, &interleaved_superop, interleaved_clifford);
    res.gate_error = 0.75 * (1.0 - res.interleaved.alpha / res.reference.alpha);
    return res;
}

/// Leakage RB: mean population outside {|0>, |1>} per length, and the
/// subspace-decay fit p_comp(m) = A lambda^m + (1 - p_inf).
inline LeakageRbResult leakage_rb_1q(const PulseExecutor& exec, const GateSet1Q& gates,
                                     const RbOptions& opts) {
    const std::size_t d = gates.dim();
    LeakageRbResult res;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::size_t m = opts.lengths[li];
        std::vector<double> leaks(opts.seeds_per_length);
        for (std::size_t s = 0; s < opts.seeds_per_length; ++s) {
            std::mt19937_64 rng(opts.rng_seed + 104729 * (li * 1000 + s));
            const Mat v = propagate_seed_1q(exec, gates, m, rng, nullptr, 0);
            // rho(lvl, lvl) sits at vec index lvl * (d + 1) (column stacking).
            for (std::size_t lvl = 2; lvl < d; ++lvl) leaks[s] += v(lvl * (d + 1), 0).real();
        }
        res.lengths.push_back(m);
        res.leakage_population.push_back(serial_mean(leaks));
    }
    std::vector<double> p_comp(res.lengths.size());
    for (std::size_t i = 0; i < p_comp.size(); ++i) p_comp[i] = 1.0 - res.leakage_population[i];
    auto model = [&](std::size_t i, const std::vector<double>& p) {
        return p[0] * std::pow(p[1], static_cast<double>(res.lengths[i])) + p[2];
    };
    const auto fit = optim::levmar_fit(model, p_comp.size(), p_comp, {0.01, 0.999, 0.99});
    res.lambda = fit.params[1];
    res.p_leak_inf = 1.0 - fit.params[2];
    res.leakage_rate_per_clifford = (1.0 - res.lambda) * res.p_leak_inf;
    return res;
}

}  // namespace qoc::rb::reference
