#include "device/executor.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <numbers>
#include <random>
#include <stdexcept>

#include "contracts/matrix_checks.hpp"
#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "obs/obs.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/workspace_pool.hpp"

namespace qoc::device {

namespace {
using linalg::cplx;
using quantum::annihilation;
using quantum::number_op;
constexpr cplx kI{0.0, 1.0};

/// Pure-dephasing rate from T1/T2: 1/T2 = 1/(2 T1) + Gamma_phi.
double dephasing_rate(double t1, double t2) {
    return std::max(0.0, 1.0 / t2 - 0.5 / t1);
}

std::uint64_t sample_bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Superoperator of a stream of `n` steps of K simultaneous drive samples
/// (`at(k)` returns step k's samples).  Each distinct sample tuple -- keyed
/// on its exact bit patterns, so repeats anywhere in the stream, such as the
/// two X pulses of a CR echo, count once -- gets its propagator from
/// `propagator(tuple, out, ws)`; the distinct tuples fan out over the task
/// pool with leased workspaces.  The propagators are then multiplied
/// serially in stream order.  Neither the expm inputs nor the product order
/// depend on the pool size, so the result is bitwise identical at any size.
template <std::size_t K, class At, class Propagator>
Mat compose_sample_stream(std::size_t n, std::size_t dim, At&& at, Propagator&& propagator) {
    using Tuple = std::array<cplx, K>;
    std::map<std::array<std::uint64_t, 2 * K>, std::size_t> slot_of;
    std::vector<Tuple> distinct;
    std::vector<std::size_t> slot(n);
    for (std::size_t k = 0; k < n; ++k) {
        const Tuple s = at(k);
        std::array<std::uint64_t, 2 * K> key{};
        for (std::size_t c = 0; c < K; ++c) {
            key[2 * c] = sample_bits(s[c].real());
            key[2 * c + 1] = sample_bits(s[c].imag());
        }
        const auto [it, fresh] = slot_of.try_emplace(key, distinct.size());
        if (fresh) distinct.push_back(s);
        slot[k] = it->second;
    }

    std::vector<Mat> props(distinct.size());
    runtime::WorkspacePool<linalg::PadeWorkspace<Mat>> workspaces;
    runtime::TaskPool::global().parallel_for(0, distinct.size(), [&](std::size_t i) {
        const auto ws = workspaces.acquire();
        propagator(distinct[i], props[i], *ws);
    });

    Mat total = Mat::identity(dim);
    Mat tmp;
    for (const std::size_t s : slot) {
        linalg::gemm_into(props[s], total, tmp);
        std::swap(total, tmp);
    }
    return total;
}
}  // namespace

double Counts::probability(const std::string& bitstring) const {
    const auto it = histogram.find(bitstring);
    if (it == histogram.end() || shots == 0) return 0.0;
    return static_cast<double>(it->second) / static_cast<double>(shots);
}

PulseExecutor::PulseExecutor(BackendConfig config) : config_(std::move(config)) {
    if (config_.qubits.empty()) throw std::invalid_argument("PulseExecutor: no qubits");
    const std::size_t d = config_.levels;
    drive_op_a_ = annihilation(d);
    number_op_ = number_op(d);
    h_drift_1q_base_ = Mat(d, d);
    for (std::size_t k = 0; k < d; ++k) {
        const double n = static_cast<double>(k);
        h_drift_1q_base_(k, k) = cplx{0.5 * n * (n - 1.0), 0.0};  // x anharmonicity later
    }

    // Two-qubit static parts (2-level pair model).
    if (config_.qubits.size() >= 2) {
        const Mat n1 = quantum::op_on_qubit(Mat{{0.0, 0.0}, {0.0, 1.0}}, 0, 2);
        const Mat n2 = quantum::op_on_qubit(Mat{{0.0, 0.0}, {0.0, 1.0}}, 1, 2);
        h_static_2q_ = config_.qubit(0).detuning * n1 + config_.qubit(1).detuning * n2 +
                       config_.cr.zz_static * (n1 * n2);
        const Mat sm = quantum::sigma_minus();
        collapse_2q_.clear();
        for (std::size_t q = 0; q < 2; ++q) {
            const auto& p = config_.qubit(q);
            collapse_2q_.push_back(std::sqrt(1.0 / p.t1) *
                                   quantum::op_on_qubit(sm, q, 2));
            const double gphi = dephasing_rate(p.t1, p.t2);
            if (gphi > 0.0) {
                collapse_2q_.push_back(std::sqrt(2.0 * gphi) *
                                       quantum::op_on_qubit(Mat{{0.0, 0.0}, {0.0, 1.0}}, q, 2));
            }
        }
    }
}

Mat PulseExecutor::lindblad_generator_1q(std::complex<double> sample, std::size_t qubit) const {
    const auto& p = config_.qubit(qubit);
    const std::size_t d = config_.levels;
    Mat h = p.anharmonicity * h_drift_1q_base_ + p.detuning * number_op_;
    const cplx amp = 0.5 * p.omega_max * p.amp_scale * sample;
    // H_drive = (Omega/2)(s a^dag + s* a)
    Mat h_drive(d, d);
    for (std::size_t n = 1; n < d; ++n) {
        const double ladder = std::sqrt(static_cast<double>(n));
        h_drive(n, n - 1) = amp * ladder;
        h_drive(n - 1, n) = std::conj(amp) * ladder;
    }
    h += h_drive;
    std::vector<Mat> collapse;
    collapse.push_back(std::sqrt(1.0 / p.t1) * drive_op_a_);
    const double gphi = dephasing_rate(p.t1, p.t2);
    if (gphi > 0.0) collapse.push_back(std::sqrt(2.0 * gphi) * number_op_);
    // Multiplicative drive-amplitude noise: dephasing along the drive axis
    // with rate proportional to the instantaneous drive power.
    if (p.drive_amp_noise > 0.0 && sample != std::complex<double>{0.0, 0.0}) {
        collapse.push_back(std::sqrt(p.drive_amp_noise) * h_drive);
    }
    return quantum::liouvillian(h, collapse);
}

void PulseExecutor::sample_propagator_1q(std::complex<double> sample, std::size_t qubit,
                                         Mat& out, linalg::PadeWorkspace<Mat>& ws) const {
    linalg::pade_prepare(config_.dt * lindblad_generator_1q(sample, qubit), out, ws);
}

Mat PulseExecutor::waveform_superop_1q(const std::vector<std::complex<double>>& samples,
                                       std::size_t qubit) const {
    return compose_sample_stream<1>(
        samples.size(), config_.levels * config_.levels,
        [&](std::size_t k) { return std::array<cplx, 1>{samples[k]}; },
        [&](const std::array<cplx, 1>& s, Mat& out, linalg::PadeWorkspace<Mat>& ws) {
            sample_propagator_1q(s[0], qubit, out, ws);
        });
}

namespace {
/// Net ShiftPhase accumulated on a channel over a whole schedule.
double net_frame_phase(const pulse::Schedule& sched, const pulse::Channel& ch) {
    double phase = 0.0;
    for (const auto& [t0, inst] : sched.instructions()) {
        if (const auto* sp = std::get_if<pulse::ShiftPhase>(&inst)) {
            if (sp->channel == ch) phase += sp->phase;
        }
    }
    return phase;
}
}  // namespace

Mat PulseExecutor::schedule_superop_1q(const pulse::Schedule& sched, std::size_t qubit) const {
    obs::Span span("executor.schedule_superop_1q");
    const std::size_t n_dt = sched.total_duration();
    const auto samples = sched.channel_samples(pulse::drive_channel(qubit), n_dt);
    Mat total = waveform_superop_1q(samples, qubit);
    // Virtual-Z bookkeeping: a net frame shift phi is equivalent to the gate
    // F(phi) U F(-phi) followed by carrying phi forward; closing the frame
    // makes the schedule's action equal the intended circuit unitary:
    // U_circuit = F(phi)^dag U_sched, with F(phi) = e^{i phi n}.
    const double phi = net_frame_phase(sched, pulse::drive_channel(qubit));
    if (phi != 0.0) total = rz_superop_1q(-phi) * total;
    // Lindblad propagation (Eq. 1) composed over the waveform must stay a
    // trace-preserving channel; tolerance absorbs the per-sample roundoff
    // accumulated across long schedules.
    contracts::check_trace_preserving(total, "schedule_superop_1q", 1e-7);
    return total;
}

Mat PulseExecutor::idle_superop_1q(std::size_t duration_dt, std::size_t qubit) const {
    const Mat gen = lindblad_generator_1q({0.0, 0.0}, qubit);
    return linalg::expm((config_.dt * static_cast<double>(duration_dt)) * gen);
}

Mat PulseExecutor::rz_superop_1q(double theta) const {
    const std::size_t d = config_.levels;
    Mat u(d, d);
    for (std::size_t k = 0; k < d; ++k) {
        u(k, k) = std::exp(kI * (theta * static_cast<double>(k)));
    }
    return quantum::unitary_superop(u);
}

Mat PulseExecutor::lindblad_generator_2q(std::complex<double> d0, std::complex<double> d1,
                                         std::complex<double> u0) const {
    using quantum::op_on_qubit;
    using quantum::sigma_x;
    using quantum::sigma_y;
    using quantum::sigma_z;
    Mat h = h_static_2q_;

    std::vector<Mat> collapse = collapse_2q_;
    auto add_drive = [&](std::complex<double> s, std::size_t q) {
        const auto& p = config_.qubit(q);
        const double rate = p.omega_max * p.amp_scale;
        if (s == std::complex<double>{0.0, 0.0} || rate == 0.0) return;
        const Mat h_drive = (0.5 * rate * s.real()) * op_on_qubit(sigma_x(), q, 2) +
                            (0.5 * rate * s.imag()) * op_on_qubit(sigma_y(), q, 2);
        h += h_drive;
        if (p.drive_amp_noise > 0.0) {
            collapse.push_back(std::sqrt(p.drive_amp_noise) * h_drive);
        }
    };
    add_drive(d0, 0);
    add_drive(d1, 1);

    if (u0 != std::complex<double>{0.0, 0.0}) {
        // Cross-resonance drive (paper Eq. 3): ZX + IX on the target plus
        // classical crosstalk on the control.  The drive phase rotates the
        // target axis X -> Y.
        const Mat zx_part = linalg::kron(sigma_z(), sigma_x());
        const Mat zy_part = linalg::kron(sigma_z(), sigma_y());
        h += (0.5 * config_.cr.zx_rate) * (u0.real() * zx_part + u0.imag() * zy_part);
        h += (0.5 * config_.cr.ix_rate) *
             (u0.real() * op_on_qubit(sigma_x(), 1, 2) + u0.imag() * op_on_qubit(sigma_y(), 1, 2));
        h += (0.5 * config_.cr.classical_crosstalk) *
             (u0.real() * op_on_qubit(sigma_x(), 0, 2) + u0.imag() * op_on_qubit(sigma_y(), 0, 2));
    }
    return quantum::liouvillian(h, collapse);
}

void PulseExecutor::sample_propagator_2q(std::complex<double> d0, std::complex<double> d1,
                                         std::complex<double> u0, Mat& out,
                                         linalg::PadeWorkspace<Mat>& ws) const {
    linalg::pade_prepare(config_.dt * lindblad_generator_2q(d0, d1, u0), out, ws);
}

Mat PulseExecutor::layer_superop_2q(const std::vector<std::complex<double>>& d0,
                                    const std::vector<std::complex<double>>& d1,
                                    const std::vector<std::complex<double>>& u0) const {
    const auto padded = [](const std::vector<cplx>& v, std::size_t k) {
        return k < v.size() ? v[k] : cplx{};
    };
    return compose_sample_stream<3>(
        std::max({d0.size(), d1.size(), u0.size()}), 16,
        [&](std::size_t k) {
            return std::array<cplx, 3>{padded(d0, k), padded(d1, k), padded(u0, k)};
        },
        [&](const std::array<cplx, 3>& s, Mat& out, linalg::PadeWorkspace<Mat>& ws) {
            sample_propagator_2q(s[0], s[1], s[2], out, ws);
        });
}

Mat PulseExecutor::schedule_superop_2q(const pulse::Schedule& sched) const {
    obs::Span span("executor.schedule_superop_2q");
    const std::size_t n_dt = sched.total_duration();
    Mat total = layer_superop_2q(sched.channel_samples(pulse::drive_channel(0), n_dt),
                                 sched.channel_samples(pulse::drive_channel(1), n_dt),
                                 sched.channel_samples(pulse::control_channel(0), n_dt));
    // Close the virtual-Z frames of both qubits (see schedule_superop_1q).
    for (std::size_t q = 0; q < 2; ++q) {
        const double phi = net_frame_phase(sched, pulse::drive_channel(q));
        if (phi != 0.0) total = rz_superop_2q(-phi, q) * total;
    }
    contracts::check_trace_preserving(total, "schedule_superop_2q", 1e-7);
    return total;
}

Mat PulseExecutor::idle_superop_2q(std::size_t duration_dt) const {
    const Mat gen = lindblad_generator_2q({}, {}, {});
    return linalg::expm((config_.dt * static_cast<double>(duration_dt)) * gen);
}

Mat PulseExecutor::rz_superop_2q(double theta, std::size_t qubit) const {
    Mat u(2, 2);
    u(0, 0) = 1.0;
    u(1, 1) = std::exp(kI * theta);
    return quantum::unitary_superop(quantum::op_on_qubit(u, qubit, 2));
}

Mat PulseExecutor::ground_state_1q() const {
    return quantum::ket_to_dm(quantum::basis_ket(config_.levels, 0));
}

Mat PulseExecutor::ground_state_2q() const {
    return quantum::ket_to_dm(quantum::basis_ket(4, 0));
}

double PulseExecutor::p1_after_readout(const Mat& rho, std::size_t qubit) const {
    const auto& p = config_.qubit(qubit);
    double p1 = 0.0;
    for (std::size_t k = 1; k < rho.rows(); ++k) p1 += rho(k, k).real();  // leakage reads "1"
    const double p0 = 1.0 - p1;
    return p1 * (1.0 - p.readout_p01) + p0 * p.readout_p10;
}

double PulseExecutor::p1_after_readout_vec(const Mat& vec_rho, std::size_t qubit) const {
    // Column-stacking vec puts rho(k, k) at index k * (d + 1); same summation
    // order as p1_after_readout, so the result is bitwise identical.
    const std::size_t d = config_.levels;
    if (vec_rho.cols() != 1 || vec_rho.rows() != d * d) {
        throw std::invalid_argument("p1_after_readout_vec: expected levels^2 x 1 vector");
    }
    const auto& p = config_.qubit(qubit);
    double p1 = 0.0;
    for (std::size_t k = 1; k < d; ++k) p1 += vec_rho(k * (d + 1), 0).real();
    const double p0 = 1.0 - p1;
    return p1 * (1.0 - p.readout_p01) + p0 * p.readout_p10;
}

Counts PulseExecutor::measure_1q(const Mat& rho, std::size_t qubit, int shots,
                                 std::uint64_t seed) const {
    const double p1 = p1_after_readout(rho, qubit);
    if (!std::isfinite(p1)) throw std::domain_error("measure_1q: non-finite populations");
    std::mt19937_64 rng(seed);
    std::binomial_distribution<int> binom(shots, std::clamp(p1, 0.0, 1.0));
    const int ones = binom(rng);
    Counts c;
    c.shots = shots;
    if (ones > 0) c.histogram["1"] = ones;
    if (shots - ones > 0) c.histogram["0"] = shots - ones;
    return c;
}

Counts PulseExecutor::measure_2q(const Mat& rho, int shots, std::uint64_t seed) const {
    // True populations over |q0 q1>.
    std::array<double, 4> true_p{};
    for (std::size_t k = 0; k < 4; ++k) true_p[k] = rho(k, k).real();
    return measure_2q_populations(true_p, shots, seed);
}

Counts PulseExecutor::measure_2q_vec(const Mat& vec_rho, int shots, std::uint64_t seed) const {
    if (vec_rho.cols() != 1 || vec_rho.rows() != 16) {
        throw std::invalid_argument("measure_2q_vec: expected 16 x 1 vector");
    }
    std::array<double, 4> true_p{};
    for (std::size_t k = 0; k < 4; ++k) true_p[k] = vec_rho(k * 5, 0).real();  // vec diagonal
    return measure_2q_populations(true_p, shots, seed);
}

Counts PulseExecutor::measure_2q_populations(std::array<double, 4> true_p, int shots,
                                             std::uint64_t seed) const {
    for (double& p : true_p) {
        if (!std::isfinite(p)) throw std::domain_error("measure_2q: non-finite populations");
        p = std::clamp(p, 0.0, 1.0);
    }
    double norm = true_p[0] + true_p[1] + true_p[2] + true_p[3];
    if (norm <= 0.0) norm = 1.0;

    // Per-qubit confusion applied independently.
    auto flip = [&](std::size_t q, int read, int truth) {
        const auto& p = config_.qubit(q);
        if (truth == 0) return read == 1 ? p.readout_p10 : 1.0 - p.readout_p10;
        return read == 0 ? p.readout_p01 : 1.0 - p.readout_p01;
    };
    std::array<double, 4> read_p{};
    for (int r0 = 0; r0 < 2; ++r0)
        for (int r1 = 0; r1 < 2; ++r1)
            for (int t0 = 0; t0 < 2; ++t0)
                for (int t1 = 0; t1 < 2; ++t1)
                    read_p[r0 * 2 + r1] +=
                        (true_p[t0 * 2 + t1] / norm) * flip(0, r0, t0) * flip(1, r1, t1);

    // One multinomial draw as a chain of conditional binomials: label k
    // takes Bin(shots left, p_k / (p_k + ... + p_3)).  The last label with
    // nonzero probability takes the remainder, so a zero-probability label
    // never appears.
    std::size_t last = 0;
    for (std::size_t k = 0; k < 4; ++k) {
        if (read_p[k] > 0.0) last = k;
    }
    std::array<int, 4> counts{};
    std::mt19937_64 rng(seed);
    int left = shots;
    for (std::size_t k = 0; k < last && left > 0; ++k) {
        double tail = 0.0;
        for (std::size_t t = k; t < 4; ++t) tail += read_p[t];
        const double q = std::clamp(read_p[k] / tail, 0.0, 1.0);
        if (q <= 0.0) continue;
        counts[k] = q >= 1.0 ? left : std::binomial_distribution<int>(left, q)(rng);
        left -= counts[k];
    }
    counts[last] = left;

    Counts c;
    c.shots = shots;
    static const char* labels[4] = {"00", "01", "10", "11"};
    for (std::size_t k = 0; k < 4; ++k) {
        if (counts[k] > 0) c.histogram[labels[k]] = counts[k];
    }
    return c;
}

namespace {

/// Gate-level composition of a 1-qubit circuit into a total superoperator.
Mat compose_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                       const pulse::InstructionScheduleMap& defaults, std::size_t qubit) {
    const std::size_t d2 = exec.config().levels * exec.config().levels;
    Mat total = Mat::identity(d2);
    std::map<std::string, Mat> cache;

    auto apply_gate = [&](const pulse::GateOp& op, auto&& self) -> void {
        if (op.name == "rz") {
            total = exec.rz_superop_1q(*op.param) * total;
            return;
        }
        const std::string key = op.name;
        if (circuit.calibrations().has(op.name, op.qubits)) {
            auto it = cache.find("cal:" + key);
            if (it == cache.end()) {
                it = cache.emplace("cal:" + key,
                                   exec.schedule_superop_1q(
                                       circuit.calibrations().get(op.name, op.qubits), qubit))
                         .first;
            }
            total = it->second * total;
            return;
        }
        if (defaults.has(op.name, op.qubits)) {
            auto it = cache.find("def:" + key);
            if (it == cache.end()) {
                it = cache.emplace("def:" + key,
                                   exec.schedule_superop_1q(defaults.get(op.name, op.qubits),
                                                            qubit))
                         .first;
            }
            total = it->second * total;
            return;
        }
        if (op.name == "h") {
            self(pulse::GateOp{"rz", op.qubits, std::numbers::pi / 2.0}, self);
            self(pulse::GateOp{"sx", op.qubits, std::nullopt}, self);
            self(pulse::GateOp{"rz", op.qubits, std::numbers::pi / 2.0}, self);
            return;
        }
        throw std::runtime_error("run_circuit_1q: no schedule for gate '" + op.name + "'");
    };

    for (const auto& op : circuit.ops()) apply_gate(op, apply_gate);
    return total;
}

Mat compose_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                       const pulse::InstructionScheduleMap& defaults) {
    Mat total = Mat::identity(16);
    std::map<std::string, Mat> cache;

    auto schedule_for = [&](const pulse::GateOp& op) -> const pulse::Schedule& {
        if (circuit.calibrations().has(op.name, op.qubits)) {
            return circuit.calibrations().get(op.name, op.qubits);
        }
        return defaults.get(op.name, op.qubits);
    };

    auto apply_gate = [&](const pulse::GateOp& op, auto&& self) -> void {
        if (op.name == "rz") {
            total = exec.rz_superop_2q(*op.param, op.qubits[0]) * total;
            return;
        }
        const bool is_cal = circuit.calibrations().has(op.name, op.qubits);
        if (!is_cal && !defaults.has(op.name, op.qubits)) {
            if (op.name == "h") {
                self(pulse::GateOp{"rz", op.qubits, std::numbers::pi / 2.0}, self);
                self(pulse::GateOp{"sx", op.qubits, std::nullopt}, self);
                self(pulse::GateOp{"rz", op.qubits, std::numbers::pi / 2.0}, self);
                return;
            }
            throw std::runtime_error("run_circuit_2q: no schedule for gate '" + op.name + "'");
        }
        std::string key = (is_cal ? "cal:" : "def:") + op.name + ":q";
        for (auto q : op.qubits) key += std::to_string(q);
        auto it = cache.find(key);
        if (it == cache.end()) {
            const pulse::Schedule& sched = schedule_for(op);
            Mat sup(16, 16);
            if (op.qubits.size() == 2) {
                sup = exec.schedule_superop_2q(sched);
            } else {
                // Single-qubit gate on one side of the pair: drive that
                // qubit's channel; the other qubit idles (decoheres).
                const std::size_t n_dt = sched.total_duration();
                const std::vector<std::complex<double>> zeros(n_dt, {0.0, 0.0});
                const auto samples =
                    sched.channel_samples(pulse::drive_channel(op.qubits[0]), n_dt);
                sup = (op.qubits[0] == 0) ? exec.layer_superop_2q(samples, zeros, zeros)
                                          : exec.layer_superop_2q(zeros, samples, zeros);
            }
            it = cache.emplace(std::move(key), std::move(sup)).first;
        }
        total = it->second * total;
    };

    for (const auto& op : circuit.ops()) apply_gate(op, apply_gate);
    return total;
}

}  // namespace

Mat simulate_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                        const pulse::InstructionScheduleMap& defaults, std::size_t qubit) {
    const Mat total = compose_circuit_1q(exec, circuit, defaults, qubit);
    return quantum::apply_superop(total, exec.ground_state_1q());
}

Counts run_circuit_1q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                      const pulse::InstructionScheduleMap& defaults, std::size_t qubit,
                      int shots, std::uint64_t seed) {
    const Mat rho = simulate_circuit_1q(exec, circuit, defaults, qubit);
    return exec.measure_1q(rho, qubit, shots, seed);
}

Mat simulate_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                        const pulse::InstructionScheduleMap& defaults) {
    const Mat total = compose_circuit_2q(exec, circuit, defaults);
    return quantum::apply_superop(total, exec.ground_state_2q());
}

Counts run_circuit_2q(const PulseExecutor& exec, const pulse::QuantumCircuit& circuit,
                      const pulse::InstructionScheduleMap& defaults, int shots,
                      std::uint64_t seed) {
    const Mat rho = simulate_circuit_2q(exec, circuit, defaults);
    return exec.measure_2q(rho, shots, seed);
}

}  // namespace qoc::device
