#include "rb/rb.hpp"

#include "contracts/matrix_checks.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "linalg/kron.hpp"
#include "obs/obs.hpp"
#include "optim/levmar.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"
#include "rb/seed_block.hpp"
#include "runtime/ordered.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::rb {

void fit_rb_curve(RbCurve& curve, double dimension) {
    const std::size_t n = curve.points.size();
    if (n < 3) throw std::invalid_argument("fit_rb_curve: need at least 3 lengths");
    std::vector<double> y(n), sigma(n);
    for (std::size_t i = 0; i < n; ++i) {
        y[i] = curve.points[i].mean_survival;
        sigma[i] = std::max(curve.points[i].sem, 1e-4);
    }
    auto model = [&](std::size_t i, const std::vector<double>& p) {
        return p[0] * std::pow(p[1], static_cast<double>(curve.points[i].length)) + p[2];
    };
    // Seed alpha from the first/last points.
    const double y0 = y.front(), y1 = y.back();
    const double m0 = static_cast<double>(curve.points.front().length);
    const double m1 = static_cast<double>(curve.points.back().length);
    const double b_guess = 1.0 / dimension;
    double alpha_guess = 0.999;
    if (y0 > b_guess && y1 > b_guess && m1 > m0) {
        alpha_guess = std::pow((y1 - b_guess) / (y0 - b_guess), 1.0 / (m1 - m0));
        alpha_guess = std::clamp(alpha_guess, 0.5, 0.999999);
    }
    const auto fit = optim::levmar_fit(model, n, y, {1.0 - b_guess, alpha_guess, b_guess}, sigma);
    curve.a = fit.params[0];
    curve.alpha = fit.params[1];
    curve.b = fit.params[2];
    curve.alpha_err = fit.stderrs[1];
    const double scale = (dimension - 1.0) / dimension;
    curve.epc = scale * (1.0 - curve.alpha);
    curve.epc_err = scale * curve.alpha_err;
}

// --- 1Q -----------------------------------------------------------------

GateSet1Q::GateSet1Q(const PulseExecutor& exec, const pulse::InstructionScheduleMap& gates,
                     std::size_t qubit, const Clifford1Q& group)
    : group_(group) {
    const std::size_t d = exec.config().levels;
    dim_ = d;
    const Mat x_super = exec.schedule_superop_1q(gates.get("x", {qubit}), qubit);
    const Mat sx_super = exec.schedule_superop_1q(gates.get("sx", {qubit}), qubit);

    cliff_super_.reserve(Clifford1Q::kSize);
    for (std::size_t i = 0; i < Clifford1Q::kSize; ++i) {
        Mat total = Mat::identity(d * d);
        for (const BasisGate& g : group_.decomposition(i)) {
            if (g.name == "rz") {
                total = exec.rz_superop_1q(*g.param) * total;
            } else if (g.name == "sx") {
                total = sx_super * total;
            } else if (g.name == "x") {
                total = x_super * total;
            } else {
                throw std::logic_error("GateSet1Q: unknown basis gate " + g.name);
            }
        }
        contracts::check_trace_preserving(total, "GateSet1Q: Clifford superop", 1e-7);
        cliff_super_.push_back(std::move(total));
    }
}

namespace {

/// The RB curve of per-seed survivals ([length index][seed]): per length
/// the ordered mean and its standard error over seeds, then the decay fit.
RbCurve curve_of(const RbOptions& opts, const std::vector<std::vector<double>>& survivals,
                 double dimension) {
    RbCurve curve;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::vector<double>& vals = survivals[li];
        RbPoint pt;
        pt.length = opts.lengths[li];
        pt.mean_survival = runtime::ordered_mean(vals);
        if (vals.size() > 1) {
            double s = 0.0;
            for (double v : vals) s += (v - pt.mean_survival) * (v - pt.mean_survival);
            pt.sem = std::sqrt(s / static_cast<double>(vals.size() - 1) /
                               static_cast<double>(vals.size()));
        }
        curve.points.push_back(pt);
    }
    fit_rb_curve(curve, dimension);
    return curve;
}

/// Interleaved RB's gate error (d-1)/d (1 - alpha_c/alpha) and its 1-sigma,
/// propagated from both curves' alpha uncertainties.
IrbResult irb_of(const RbCurve& reference, RbCurve interleaved, double dimension) {
    IrbResult res;
    res.reference = reference;
    res.interleaved = std::move(interleaved);
    const double scale = (dimension - 1.0) / dimension;
    const double ratio = res.interleaved.alpha / res.reference.alpha;
    res.gate_error = scale * (1.0 - ratio);
    const double rel = std::sqrt(std::pow(res.interleaved.alpha_err / res.interleaved.alpha, 2) +
                                 std::pow(res.reference.alpha_err / res.reference.alpha, 2));
    res.gate_error_err = scale * ratio * rel;
    return res;
}

/// 1Q RB (IRB when `interleave_super` is set): the shared 1Q draw on stream
/// 7919, read out as a binomial shot sample of the readout-confused P(0).
RbCurve rb_curve_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                    const RbOptions& opts, const Mat* interleave_super,
                    std::size_t interleave_index) {
    const char* label = interleave_super ? "irb1q" : "rb1q";
    const auto read = [&](const Mat& v, std::mt19937_64& rng, std::size_t m, std::size_t seed) {
        contracts::check_density_vec(v, "RB 1Q: state after recovery", 1e-6);
        const double p0 = 1.0 - exec.p1_after_readout_vec(v, qubit);
        contracts::check_probability(p0, "RB 1Q: survival probability", 1e-6);
        std::binomial_distribution<int> shots_dist(opts.shots, std::clamp(p0, 0.0, 1.0));
        const double survival =
            static_cast<double>(shots_dist(rng)) / static_cast<double>(opts.shots);
        obs::emit_rb_seed(label, m, static_cast<std::int64_t>(seed), survival);
        return survival;
    };
    const detail::Draw1Q draw{gates.group(), interleave_super ? &interleave_index : nullptr};
    return curve_of(opts,
                    detail::run_seed_blocks(gates, opts, 7919, "rb.seq_block_1q",
                                            linalg::vec(exec.ground_state_1q()),
                                            interleave_super, draw, read),
                    2.0);
}

}  // namespace

RbCurve run_rb_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                  const RbOptions& options) {
    return rb_curve_1q(exec, gates, qubit, options, nullptr, 0);
}

IrbResult run_irb_1q_with_reference(const PulseExecutor& exec, const GateSet1Q& gates,
                                    std::size_t qubit, const RbCurve& reference,
                                    const Mat& interleaved_superop,
                                    std::size_t interleaved_clifford,
                                    const RbOptions& options) {
    return irb_of(reference,
                  rb_curve_1q(exec, gates, qubit, options, &interleaved_superop,
                              interleaved_clifford),
                  2.0);
}

IrbResult run_irb_1q(const PulseExecutor& exec, const GateSet1Q& gates, std::size_t qubit,
                     const Mat& interleaved_superop, std::size_t interleaved_clifford,
                     const RbOptions& options) {
    return run_irb_1q_with_reference(exec, gates, qubit,
                                     rb_curve_1q(exec, gates, qubit, options, nullptr, 0),
                                     interleaved_superop, interleaved_clifford, options);
}

// --- 2Q -----------------------------------------------------------------

namespace {
constexpr std::size_t kLayers1q = 2 * Clifford1Q::kSize;  // per-qubit 1Q layers
constexpr std::size_t kLayers = kLayers1q + 3;            // + entangler classes 1..3
}  // namespace

GateSet2Q::GateSet2Q(const PulseExecutor& exec, const pulse::InstructionScheduleMap& gates,
                     const Clifford2Q& group)
    : group_(group),
      exec_(exec),
      cliff_cache_(Clifford2Q::kSize),
      cliff_once_(std::make_unique<std::once_flag[]>(Clifford2Q::kSize)),
      layer_cache_(kLayers),
      layer_once_(std::make_unique<std::once_flag[]>(kLayers)) {
    for (std::size_t q = 0; q < 2; ++q) {
        const pulse::Schedule& xs = gates.get("x", {q});
        const pulse::Schedule& sxs = gates.get("sx", {q});
        const std::size_t nx = xs.total_duration();
        const std::size_t nsx = sxs.total_duration();
        const std::vector<std::complex<double>> zx(nx), zsx(nsx);
        const auto x_samples = xs.channel_samples(pulse::drive_channel(q), nx);
        const auto sx_samples = sxs.channel_samples(pulse::drive_channel(q), nsx);
        if (q == 0) {
            x_super_[0] = exec.layer_superop_2q(x_samples, zx, zx);
            sx_super_[0] = exec.layer_superop_2q(sx_samples, zsx, zsx);
        } else {
            x_super_[1] = exec.layer_superop_2q(zx, x_samples, zx);
            sx_super_[1] = exec.layer_superop_2q(zsx, sx_samples, zsx);
        }
    }
    cx_super_ = exec.schedule_superop_2q(gates.get("cx", {0, 1}));
}

Mat GateSet2Q::compose_gates(const std::vector<TwoQubitGate>& gates) const {
    Mat total = Mat::identity(16);
    for (const TwoQubitGate& g : gates) {
        if (g.name == "rz") {
            total = exec_.rz_superop_2q(*g.param, g.qubits[0]) * total;
        } else if (g.name == "sx") {
            total = sx_super_[g.qubits[0]] * total;
        } else if (g.name == "x") {
            total = x_super_[g.qubits[0]] * total;
        } else if (g.name == "cx") {
            total = cx_super_ * total;
        } else {
            throw std::logic_error("GateSet2Q: unknown gate " + g.name);
        }
    }
    return total;
}

const Mat& GateSet2Q::layer_1q(std::size_t c1_index, std::size_t qubit) const {
    const std::size_t k = qubit * Clifford1Q::kSize + c1_index;
    std::call_once(layer_once_[k], [&] {
        layer_cache_[k] = compose_gates(group_.layer_gates(c1_index, qubit));
    });
    return layer_cache_[k];
}

const Mat& GateSet2Q::entangler(std::size_t cls) const {
    const std::size_t k = kLayers1q + cls - 1;
    std::call_once(layer_once_[k], [&] {
        layer_cache_[k] = compose_gates(Clifford2Q::entangler_gates(cls));
    });
    return layer_cache_[k];
}

Mat GateSet2Q::compose_superop(std::size_t i) const {
    // Execution order: S_i, S_j (classes 1, 2), E_cls (classes 1..3), C_a, C_b.
    const Clifford2Q::Parts p = group_.split(i);
    const Mat* factors[5];
    std::size_t n = 0;
    if (p.cls == 1 || p.cls == 2) {
        factors[n++] = &layer_1q(group_.axis_cycle(p.s_i), 0);
        factors[n++] = &layer_1q(group_.axis_cycle(p.s_j), 1);
    }
    if (p.cls != 0) factors[n++] = &entangler(p.cls);
    factors[n++] = &layer_1q(p.c_a, 0);
    factors[n++] = &layer_1q(p.c_b, 1);
    Mat total = *factors[0];
    Mat next;
    for (std::size_t k = 1; k < n; ++k) {
        linalg::gemm_into(*factors[k], total, next);
        std::swap(total, next);
    }
    contracts::check_trace_preserving(total, "GateSet2Q: Clifford superop", 1e-7);
    return total;
}

const Mat& GateSet2Q::clifford_superop(std::size_t i) const {
    bool miss = false;
    std::call_once(cliff_once_[i], [&] {
        miss = true;
        cliff_cache_[i] = compose_superop(i);
    });
    if (miss) {
        obs::count(obs::Cnt::kCliffMemoMisses);
    } else {
        obs::count(obs::Cnt::kCliffMemoHits);
    }
    return cliff_cache_[i];
}

namespace {

/// 2Q RB (IRB when `interleave_super` is set) on stream 6271.  The draw
/// tracks the ideal net unitary (the interleaved element's unitary after
/// every Clifford) in the workspace and looks the recovery up with
/// `group.find`, per seed, so recovery indices do not depend on the block
/// partition.  The read is P("00") of one `measure_2q_vec` sample.
RbCurve rb_curve_2q(const PulseExecutor& exec, const GateSet2Q& gates, const RbOptions& opts,
                    const Mat* interleave_super, std::size_t interleave_index) {
    const Clifford2Q& group = gates.group();
    const Mat* interleave_ideal = interleave_super ? &group.unitary(interleave_index) : nullptr;

    // Long runs revisit most of the 11520-element group; filling the superop
    // cache eagerly (in parallel) beats lazy misses inside the sequence loop.
    std::size_t total_steps = 0;
    for (std::size_t m : opts.lengths) total_steps += m * opts.seeds_per_length;
    if (total_steps >= 2 * Clifford2Q::kSize) {
        runtime::TaskPool::global().parallel_for(
            0, Clifford2Q::kSize, [&](std::size_t i) { gates.clifford_superop(i); });
    }

    const auto draw = [&](std::mt19937_64& rng, std::size_t m, std::size_t* seq,
                          std::size_t stride, detail::SeedBlockWorkspace& w) {
        w.net.resize(4, 4);
        for (std::size_t i = 0; i < 4; ++i) w.net(i, i) = 1.0;
        for (std::size_t k = 0; k < m; ++k) {
            const std::size_t c = group.sample(rng);
            seq[k * stride] = c;
            linalg::gemm_into(group.unitary(c), w.net, w.net_next);
            phase_normalize_inplace(w.net_next);
            std::swap(w.net, w.net_next);
            if (interleave_ideal != nullptr) {
                linalg::gemm_into(*interleave_ideal, w.net, w.net_next);
                phase_normalize_inplace(w.net_next);
                std::swap(w.net, w.net_next);
            }
        }
        // The recovery is the element of net^dagger, formed in place.
        w.net_next.resize(4, 4);
        for (std::size_t i = 0; i < 4; ++i) {
            for (std::size_t j = 0; j < 4; ++j) w.net_next(i, j) = std::conj(w.net(j, i));
        }
        return group.find(w.net_next);
    };
    const char* label = interleave_super ? "irb2q" : "rb2q";
    const auto read = [&](const Mat& v, std::mt19937_64& rng, std::size_t m, std::size_t seed) {
        contracts::check_density_vec(v, "RB 2Q: state after recovery", 1e-6);
        const double survival = exec.measure_2q_vec(v, opts.shots, rng()).probability("00");
        obs::emit_rb_seed(label, m, static_cast<std::int64_t>(seed), survival);
        return survival;
    };
    return curve_of(opts,
                    detail::run_seed_blocks(gates, opts, 6271, "rb.seq_block_2q",
                                            linalg::vec(exec.ground_state_2q()),
                                            interleave_super, draw, read),
                    4.0);
}

}  // namespace

RbCurve run_rb_2q(const PulseExecutor& exec, const GateSet2Q& gates, const RbOptions& options) {
    return rb_curve_2q(exec, gates, options, nullptr, 0);
}

IrbResult run_irb_2q_with_reference(const PulseExecutor& exec, const GateSet2Q& gates,
                                    const RbCurve& reference, const Mat& interleaved_superop,
                                    std::size_t interleaved_clifford,
                                    const RbOptions& options) {
    return irb_of(reference,
                  rb_curve_2q(exec, gates, options, &interleaved_superop, interleaved_clifford),
                  4.0);
}

}  // namespace qoc::rb
