/// Google-benchmark microbenchmarks of the numerical kernels underpinning
/// every reproduction: matrix exponentials, GRAPE objective evaluations,
/// RB sequence simulation and Clifford bookkeeping.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "control/grape.hpp"
#include "device/calibration.hpp"
#include "experiments/design_pipeline.hpp"
#include "experiments/gate_designer.hpp"
#include "experiments/irb_experiment.hpp"
#include "linalg/expm.hpp"
#include "obs/obs.hpp"
#include "optim/lbfgsb.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"
#include "rb/rb.hpp"
#include "rb/seed_block.hpp"
#include "service/calibration_service.hpp"

namespace {

using namespace qoc;

linalg::Mat random_hermitian(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    linalg::Mat m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = {dist(rng), 0.0};
        for (std::size_t j = i + 1; j < n; ++j) {
            m(i, j) = {dist(rng), dist(rng)};
            m(j, i) = std::conj(m(i, j));
        }
    }
    return m;
}

void BM_ExpmBySize(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const linalg::Mat h = random_hermitian(n, 7);
    const linalg::cplx scale{0.0, -0.1};
    for (auto _ : state) {
        benchmark::DoNotOptimize(linalg::expm(scale * h));
    }
}
BENCHMARK(BM_ExpmBySize)->Arg(2)->Arg(4)->Arg(9)->Arg(16)->Arg(32);

// --- multi-direction Frechet: the shared-Pade engine --------------------------
//
// Args are (N, m): matrix size and number of directions (= GRAPE controls).
// The sweep covers the paper's single-qubit (N=3 transmon) and pair (N=9)
// sizes with m = 2 and 4 controls.

std::vector<linalg::Mat> frechet_directions(std::size_t n, std::size_t m) {
    std::vector<linalg::Mat> dirs;
    for (std::size_t j = 0; j < m; ++j) {
        dirs.push_back(linalg::cplx{0.0, -0.1} *
                       random_hermitian(n, 100 + static_cast<unsigned>(j)));
    }
    return dirs;
}

/// e^A plus all m derivatives from one `pade_prepare` and m
/// `pade_direction` calls on its shared intermediates, with the workspace
/// reused across iterations exactly as the GRAPE hot loop reuses it across
/// slots (no allocation after the first iteration).
void BM_ExpmFrechetMulti(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto m = static_cast<std::size_t>(state.range(1));
    const linalg::Mat a = linalg::cplx{0.0, -0.1} * random_hermitian(n, 7);
    const auto dirs = frechet_directions(n, m);
    linalg::PadeWorkspace<linalg::Mat> ws;
    linalg::Mat ea;
    std::vector<linalg::Mat> ls(m);
    for (auto _ : state) {
        linalg::pade_prepare(a, ea, ws);
        for (std::size_t j = 0; j < m; ++j) linalg::pade_direction(ws, dirs[j], ls[j]);
        benchmark::DoNotOptimize(ea);
        benchmark::DoNotOptimize(ls);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_ExpmFrechetMulti)
    ->Args({3, 2})->Args({3, 4})->Args({9, 2})->Args({9, 4});

/// A dense non-normal N x N test matrix: uniform entries in the unit square
/// plus N on the diagonal (well conditioned, pivoting still active).
linalg::Mat random_general(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    linalg::Mat m(n, n);
    for (auto& v : m.data()) v = {dist(rng), dist(rng)};
    for (std::size_t i = 0; i < n; ++i) m(i, i) += static_cast<double>(n);
    return m;
}

/// One LU factorization plus a solve with N right-hand sides: the
/// `(V - U) r = V + U` step every Pade slot pays once in `pade_prepare`
/// and once more per `pade_direction`.
void BM_LuFactorSolve(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const linalg::Mat a = random_general(n, 11);
    const linalg::Mat b = random_general(n, 12);
    linalg::Lu lu;
    linalg::Mat x;
    for (auto _ : state) {
        lu.factor(a);
        lu.solve_into(b, x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_LuFactorSolve)->Arg(4)->Arg(9);

linalg::RMat random_general_real(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    linalg::RMat m(n, n);
    for (double& v : m.data()) v = dist(rng);
    for (std::size_t i = 0; i < n; ++i) m(i, i) += static_cast<double>(n);
    return m;
}

/// `BM_LuFactorSolve` on the real `RLu`: the denominator solve of the
/// open-system slots, which run in the real Hermitian operator basis.
void BM_LuFactorSolveReal(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const linalg::RMat a = random_general_real(n, 11);
    const linalg::RMat b = random_general_real(n, 12);
    linalg::RLu lu;
    linalg::RMat x;
    for (auto _ : state) {
        lu.factor(a);
        lu.solve_into(b, x);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_LuFactorSolveReal)->Arg(4)->Arg(9);

/// One GRAPE open-system slot of the Pade engine: `pade_prepare` at order 13
/// with one squaring (||A||_1 = 1.5 theta_13) plus the single adjoint
/// `pade_direction` the evaluator takes per slot.
void BM_ExpmPrepareDirection(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    linalg::Mat a = random_general(n, 13);
    a *= 1.5 * 5.371920351148152 / a.norm_1();
    const linalg::Mat e = random_general(n, 14);
    linalg::PadeWorkspace<linalg::Mat> ws;
    linalg::Mat ea, l;
    for (auto _ : state) {
        linalg::pade_prepare(a, ea, ws);
        linalg::pade_direction(ws, e, l);
        benchmark::DoNotOptimize(ea);
        benchmark::DoNotOptimize(l);
    }
    if (ws.order != 13 || ws.squarings < 1) state.SkipWithError("not a Pade-13 slot with s >= 1");
}
BENCHMARK(BM_ExpmPrepareDirection)->Arg(9);

/// `BM_ExpmPrepareDirection` on the real Pade engine (`RMat`): one
/// open-system GRAPE slot as the evaluator now runs it.
void BM_ExpmPrepareDirectionReal(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    linalg::RMat a = random_general_real(n, 13);
    a *= 1.5 * 5.371920351148152 / a.norm_1();
    const linalg::RMat e = random_general_real(n, 14);
    linalg::PadeWorkspace<linalg::RMat> ws;
    linalg::RMat ea, l;
    for (auto _ : state) {
        linalg::pade_prepare(a, ea, ws);
        linalg::pade_direction(ws, e, l);
        benchmark::DoNotOptimize(ea);
        benchmark::DoNotOptimize(l);
    }
    if (ws.order != 13 || ws.squarings < 1) state.SkipWithError("not a Pade-13 slot with s >= 1");
}
BENCHMARK(BM_ExpmPrepareDirectionReal)->Arg(9);

void BM_GrapeObjectiveClosed(benchmark::State& state) {
    control::GrapeProblem prob;
    prob.system.drift = quantum::duffing_drift(3, 0.0, -2.0);
    prob.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    prob.target = quantum::gates::x();
    prob.subspace_isometry = quantum::qubit_isometry(3);
    prob.n_timeslots = static_cast<std::size_t>(state.range(0));
    prob.evo_time = 100.0;
    prob.initial_amps.assign(prob.n_timeslots, {0.05, 0.01});
    for (auto _ : state) {
        // One full gradient-descent step = one objective + gradient eval.
        benchmark::DoNotOptimize(
            control::grape_gradient_descent(prob, {.max_iterations = 1, .step = 0.0}));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GrapeObjectiveClosed)->Arg(16)->Arg(48)->Arg(128);

/// Open-system (Lindblad superoperator) objective + gradient on the paper's
/// 3-level transmon: 9x9 generators, kTraceDiff fidelity.  This is the
/// workload the `linalg::simd` kernel routing targets -- the expm/Frechet
/// gemms and LU solves dominate here.
void BM_GrapeObjectiveOpen(benchmark::State& state) {
    control::GrapeProblem prob;
    const linalg::Mat h0 = quantum::duffing_drift(3, 0.0, -2.0);
    const std::vector<linalg::Mat> c_ops = {0.01 * quantum::annihilation(3),
                                            0.01 * quantum::number_op(3)};
    prob.system.drift = quantum::liouvillian(h0, c_ops);
    prob.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * quantum::drive_x(3)),
                         quantum::liouvillian_hamiltonian(0.5 * quantum::drive_y(3))};
    linalg::Mat x3(3, 3);  // X on the qubit subspace, identity on leakage
    x3(0, 1) = 1.0;
    x3(1, 0) = 1.0;
    x3(2, 2) = 1.0;
    prob.target = quantum::unitary_superop(x3);
    prob.fidelity = control::FidelityType::kTraceDiff;
    prob.n_timeslots = static_cast<std::size_t>(state.range(0));
    prob.evo_time = 100.0;
    prob.initial_amps.assign(prob.n_timeslots, {0.05, 0.01});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            control::grape_gradient_descent(prob, {.max_iterations = 1, .step = 0.0}));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GrapeObjectiveOpen)->Arg(16)->Arg(48)->Arg(128);

/// Closed two-qubit CX design shape (`design_cx_gate` on ibmq_montreal,
/// 800 dt): 4x4 generators, four controls with per-control bounds, kPsu.
/// The multi-control shape where one adjoint direction per slot replaces
/// one Frechet derivative per control.
void BM_GrapeObjectiveCx(benchmark::State& state) {
    using quantum::op_on_qubit;
    const device::BackendConfig dev = device::ibmq_montreal();
    const auto& cr = dev.cr;
    const linalg::Mat n_op{{0.0, 0.0}, {0.0, 1.0}};
    const linalg::Mat zx = op_on_qubit(quantum::sigma_z(), 0, 2) *
                           op_on_qubit(quantum::sigma_x(), 1, 2);
    const linalg::Mat zy = op_on_qubit(quantum::sigma_z(), 0, 2) *
                           op_on_qubit(quantum::sigma_y(), 1, 2);
    const double w1 = 0.5 * dev.qubit(1).omega_max;
    control::GrapeProblem prob;
    prob.system.drift = cr.zz_static * (op_on_qubit(n_op, 0, 2) * op_on_qubit(n_op, 1, 2));
    prob.system.ctrls = {
        w1 * op_on_qubit(quantum::sigma_x(), 1, 2),
        w1 * op_on_qubit(quantum::sigma_y(), 1, 2),
        0.5 * (cr.zx_rate * zx + cr.ix_rate * op_on_qubit(quantum::sigma_x(), 1, 2) +
               cr.classical_crosstalk * op_on_qubit(quantum::sigma_x(), 0, 2)),
        0.5 * (cr.zx_rate * zy + cr.ix_rate * op_on_qubit(quantum::sigma_y(), 1, 2) +
               cr.classical_crosstalk * op_on_qubit(quantum::sigma_y(), 0, 2)),
    };
    prob.target = quantum::gates::cx();
    prob.amp_lower_per_ctrl = {-0.06, -0.06, -0.7, -0.7};
    prob.amp_upper_per_ctrl = {0.06, 0.06, 0.7, 0.7};
    prob.n_timeslots = static_cast<std::size_t>(state.range(0));
    prob.evo_time = 800.0 * dev.dt;
    prob.initial_amps.assign(prob.n_timeslots, {0.01, 0.0, 0.3, 0.0});
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            control::grape_gradient_descent(prob, {.max_iterations = 1, .step = 0.0}));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GrapeObjectiveCx)->Arg(16)->Arg(48);

// --- L-BFGS-B bookkeeping ---------------------------------------------------
//
// Solver-only cost of one L-BFGS-B iteration at the design sizes of a
// `DesignPipeline` batch: n = 64 (a 1Q design, 32 slots x 2 controls) and
// n = 192 (a CX design).  The objective is an ill-conditioned chain-coupled
// quadratic on [-1, 1]^n (curvatures 1e-3 .. 1e2): it converges slowly, so a
// solve runs (nearly) all 200 iterations, about a quarter of the variables
// end on the box, and one evaluation is O(n) and allocation-free.  The
// `iter_time` counter (seconds per solver iteration) is therefore almost all
// the solver's own algebra: Cauchy point, subspace step, line-search
// bookkeeping and the correction-pair update.
void BM_LbfgsbIteration(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> curvature(n), center(n);
    for (std::size_t i = 0; i < n; ++i) {
        curvature[i] = std::pow(10.0, -3.0 + 5.0 * static_cast<double>(i % 16) / 15.0);
        center[i] = 1.6 * std::sin(0.37 * static_cast<double>(i) + 0.5);
    }
    const optim::Objective objective = [&](const std::vector<double>& x,
                                           std::vector<double>& g) {
        double f = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double e = x[i] - center[i];
            f += 0.5 * curvature[i] * e * e;
            g[i] = curvature[i] * e;
        }
        for (std::size_t i = 0; i + 1 < n; ++i) {
            const double e = x[i + 1] - x[i];
            f += 0.5 * e * e;
            g[i] -= e;
            g[i + 1] += e;
        }
        return f;
    };
    optim::SolverOptions opts;
    opts.max_iterations = 200;
    opts.tol = 0.0;
    opts.f_tol = 0.0;
    const optim::Bounds box = optim::Bounds::uniform(n, -1.0, 1.0);
    double solver_iterations = 0.0;
    for (auto _ : state) {
        const optim::OptimResult r =
            optim::lbfgsb_minimize(objective, std::vector<double>(n, 0.0), box, opts);
        solver_iterations += r.iterations;
        benchmark::DoNotOptimize(r.f);
    }
    state.counters["iter_time"] = benchmark::Counter(
        solver_iterations, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_LbfgsbIteration)->Arg(64)->Arg(192);

// --- RB seed-block superoperator steps --------------------------------------

/// Batched SoA apply: one d^2 x B sweep of a dense superop, the RB
/// seed-block engine's broadcast step.
void BM_SuperopApplyBatched(benchmark::State& state) {
    const auto d = static_cast<std::size_t>(state.range(0));
    const auto batch = static_cast<std::size_t>(state.range(1));
    const linalg::Mat h = random_hermitian(d, 13);
    const linalg::Mat superop = quantum::liouvillian(h, {});
    linalg::Mat x(d * d, batch);
    for (std::size_t j = 0; j < batch; ++j) x(0, j) = 1.0;
    linalg::Mat out(d * d, batch);
    for (auto _ : state) {
        rb::detail::apply_broadcast(superop, x, out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_SuperopApplyBatched)->Args({3, 8})->Args({3, 32})->Args({9, 8});

/// One mixed Clifford step over a 4-seed block: every seed applies its own
/// dense d^2 x d^2 propagator (arg = d^2), the RB engine's step whenever the
/// seeds of a block drew different Cliffords.  Items are seed columns.
void BM_RbMixedStep(benchmark::State& state) {
    const auto d2 = static_cast<std::size_t>(state.range(0));
    const auto d = static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(d2))));
    constexpr std::size_t kSeeds = 4;
    std::vector<linalg::Mat> ops;
    for (unsigned k = 0; k < kSeeds; ++k) {
        const linalg::Mat l = quantum::liouvillian(random_hermitian(d, 40 + k),
                                                   {0.1 * quantum::annihilation(d)});
        ops.push_back(linalg::expm(0.5 * l));
    }
    const auto superop_of = [&ops](std::size_t i) -> const linalg::Mat& { return ops[i]; };
    const std::size_t idx[kSeeds] = {0, 1, 2, 3};
    linalg::Mat x(d2, kSeeds), x_next;
    for (std::size_t j = 0; j < kSeeds; ++j) x(0, j) = 1.0;
    for (auto _ : state) {
        rb::detail::apply_block_step(superop_of, idx, kSeeds, x, x_next);
        benchmark::DoNotOptimize(x);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSeeds));
}
BENCHMARK(BM_RbMixedStep)->Arg(4)->Arg(9)->Arg(16);

/// 2Q readout of one RB survival point: 8192 shots off a vec(rho) whose
/// populations sit where a mid-length 2Q RB sequence leaves them.
void BM_Measure2q(benchmark::State& state) {
    const device::PulseExecutor exec(device::ibmq_montreal());
    linalg::Mat v(16, 1);
    const double pops[4] = {0.93, 0.03, 0.025, 0.015};
    for (std::size_t k = 0; k < 4; ++k) v(k * 5, 0) = pops[k];
    std::uint64_t seed = 1;
    for (auto _ : state) benchmark::DoNotOptimize(exec.measure_2q_vec(v, 8192, seed++));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Measure2q);

void BM_LindbladPropagator1q(benchmark::State& state) {
    device::PulseExecutor exec(device::ibmq_montreal());
    const auto wf = pulse::drag_waveform(static_cast<std::size_t>(state.range(0)), {0.1, 0.0},
                                         0.03);
    for (auto _ : state) {
        benchmark::DoNotOptimize(exec.waveform_superop_1q(wf.samples(), 0));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LindbladPropagator1q)->Arg(160)->Arg(480)->Arg(1216);

// The calibrated default CX (echoed CR, 1280 samples on D0, D1 and U0) of
// the nominal montreal model: one 2Q schedule build per iteration, the
// per-call generator set-up included.
void BM_ScheduleSuperop2q(benchmark::State& state) {
    static const device::PulseExecutor exec(device::ibmq_montreal());
    static const auto defaults = device::build_default_gates(exec);
    const pulse::Schedule& cx = defaults.get("cx", {0, 1});
    for (auto _ : state) {
        benchmark::DoNotOptimize(exec.schedule_superop_2q(cx));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cx.total_duration()));
}
BENCHMARK(BM_ScheduleSuperop2q)->Unit(benchmark::kMillisecond);

void BM_RbSequence1q(benchmark::State& state) {
    static device::PulseExecutor exec(device::ibmq_montreal());
    static const auto defaults = device::build_default_gates(exec);
    static const rb::Clifford1Q group;
    static const rb::GateSet1Q gates(exec, defaults, 0, group);
    rb::RbOptions opts;
    opts.lengths = {static_cast<std::size_t>(state.range(0))};
    opts.seeds_per_length = 2;
    opts.shots = 1024;
    for (auto _ : state) {
        // fit needs >= 3 points; time the raw sequence simulation through
        // the public API with a 3-point curve instead.
        rb::RbOptions o = opts;
        o.lengths = {1, static_cast<std::size_t>(state.range(0)) / 2,
                     static_cast<std::size_t>(state.range(0))};
        benchmark::DoNotOptimize(rb::run_rb_1q(exec, gates, 0, o));
    }
}
BENCHMARK(BM_RbSequence1q)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RbSequence2q(benchmark::State& state) {
    static device::PulseExecutor exec(device::ibmq_montreal());
    static const auto defaults = device::build_default_gates(exec);
    static const rb::Clifford1Q c1;
    static const rb::Clifford2Q c2(c1);
    static const rb::GateSet2Q gates(exec, defaults, c2);
    const auto m = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        rb::RbOptions o;
        o.lengths = {1, m / 2, m};
        o.seeds_per_length = 2;
        o.shots = 1024;
        benchmark::DoNotOptimize(rb::run_rb_2q(exec, gates, o));
    }
}
BENCHMARK(BM_RbSequence2q)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_IrbPipeline1q(benchmark::State& state) {
    static device::PulseExecutor exec(device::ibmq_montreal());
    static const auto defaults = device::build_default_gates(exec);
    static const rb::Clifford1Q group;
    static const rb::GateSet1Q gates(exec, defaults, 0, group);
    static const linalg::Mat x_super = exec.schedule_superop_1q(defaults.get("x", {0}), 0);
    static const std::size_t x_index = group.find(quantum::gates::x());
    for (auto _ : state) {
        rb::RbOptions o;
        o.lengths = {1, 64, 128};
        o.seeds_per_length = 2;
        o.shots = 1024;
        benchmark::DoNotOptimize(rb::run_irb_1q(exec, gates, 0, x_super, x_index, o));
    }
}
BENCHMARK(BM_IrbPipeline1q)->Unit(benchmark::kMillisecond);

// --- batched design pipeline vs sequential per-call flow --------------------
//
// Same 4-gate x 4-seed design+IRB workload through both front ends.  The
// batch runs it as one DesignPipeline::run, which shares one GateSet1Q and
// one reference RB curve across every characterization on the qubit (1 gate
// set, 1 reference + 8 interleaved curves).  The sequential baseline is
// the pre-pipeline per-call composition -- design_1q_gate per candidate,
// then a fresh GateSet1Q and two run_irb_1q calls per gate, each of which
// re-measures the reference (4 gate sets, 8 reference + 8 interleaved
// curves).  The design work is identical on both sides, so the ratio
// isolates the shared-work dedup.

struct PipelineBenchGate {
    const char* name;
    std::size_t qubit;
};
constexpr PipelineBenchGate kPipelineGates[] = {
    {"x", 0}, {"y", 0}, {"sx", 0}, {"h", 0}};
constexpr std::uint64_t kPipelineSeeds[] = {1, 2, 3, 4};

experiments::GateDesignSpec pipeline_bench_spec(const std::string& gate) {
    experiments::GateDesignSpec s;
    s.target = experiments::ideal_1q_gate(gate);
    s.duration_dt = 48;
    s.n_timeslots = 6;
    s.model = experiments::DesignModel::kTwoLevelClosed;
    s.max_iterations = 3;
    s.target_fid_err = 1e-8;
    return s;
}

rb::RbOptions pipeline_bench_rb() {
    rb::RbOptions o;
    o.lengths = {1, 150, 400};
    o.seeds_per_length = 3;
    o.shots = 512;
    return o;
}

void BM_DesignPipelineBatch(benchmark::State& state) {
    static device::PulseExecutor exec(device::ibmq_montreal());
    static const auto defaults = device::build_default_gates(exec);
    experiments::DesignPipelineOptions po;
    po.rb = pipeline_bench_rb();
    std::vector<experiments::GateJob1Q> jobs;
    for (const PipelineBenchGate& g : kPipelineGates) {
        experiments::GateJob1Q job;
        job.gate_name = g.name;
        job.qubit = g.qubit;
        job.spec = pipeline_bench_spec(g.name);
        job.seeds.assign(std::begin(kPipelineSeeds), std::end(kPipelineSeeds));
        jobs.push_back(std::move(job));
    }
    for (auto _ : state) {
        // A fresh pipeline per iteration so the shared contexts (gate sets,
        // reference curves) are rebuilt -- amortizing them across iterations
        // would overstate the dedup win.
        const experiments::DesignPipeline pipeline(exec, defaults, po);
        benchmark::DoNotOptimize(pipeline.run(jobs));
    }
}
BENCHMARK(BM_DesignPipelineBatch)->Unit(benchmark::kMillisecond);

void BM_DesignPipelineSequential(benchmark::State& state) {
    static device::PulseExecutor exec(device::ibmq_montreal());
    static const auto defaults = device::build_default_gates(exec);
    static const rb::Clifford1Q group;
    const rb::RbOptions opts = pipeline_bench_rb();
    const auto model = device::nominal_model(exec.config());
    for (auto _ : state) {
        for (const PipelineBenchGate& g : kPipelineGates) {
            experiments::DesignedGate best;
            double best_err = 2.0;
            for (const std::uint64_t seed : kPipelineSeeds) {
                experiments::GateDesignSpec sp = pipeline_bench_spec(g.name);
                sp.random_seed = seed;
                experiments::DesignedGate d =
                    experiments::design_1q_gate(model, g.qubit, g.name, sp);
                if (d.model_fid_err < best_err) {
                    best_err = d.model_fid_err;
                    best = std::move(d);
                }
            }
            const rb::GateSet1Q gates(exec, defaults, g.qubit, group);
            const std::size_t cliff = group.find(experiments::ideal_1q_gate(g.name));
            const auto custom_super = exec.schedule_superop_1q(best.schedule, g.qubit);
            const auto default_super =
                experiments::default_gate_superop_1q(exec, defaults, g.name, g.qubit);
            benchmark::DoNotOptimize(
                rb::run_irb_1q(exec, gates, g.qubit, custom_super, cliff, opts));
            benchmark::DoNotOptimize(
                rb::run_irb_1q(exec, gates, g.qubit, default_super, cliff, opts));
        }
    }
}
BENCHMARK(BM_DesignPipelineSequential)->Unit(benchmark::kMillisecond);

// --- observability gate cost ----------------------------------------------
//
// Arg 0: obs fully disabled (the default production state) -- the per-call
// cost must be one relaxed load + branch.  Arg 1: tracing + metrics enabled
// in memory-only mode, bounding the enabled-path cost of a Span + counter
// pair.  State is reset afterwards so the remaining benchmarks always run
// with obs off.
void BM_ObsOverhead(benchmark::State& state) {
    // When QOC_TRACE/QOC_METRICS already activated obs (set in the
    // environment), leave that state alone -- resetting would close the live
    // telemetry file.  Both args then measure the externally-enabled path.
    const bool externally_enabled =
        obs::g_obs_state.load(std::memory_order_relaxed) != 0;
    if (!externally_enabled && state.range(0) == 1) {
        obs::enable_tracing("");
        obs::enable_metrics("");
    }
    constexpr int kOpsPerIter = 1000;
    for (auto _ : state) {
        for (int i = 0; i < kOpsPerIter; ++i) {
            obs::Span span("bench.obs_overhead");
            obs::count(obs::Cnt::kGemmCalls);
        }
    }
    state.SetItemsProcessed(state.iterations() * kOpsPerIter);
    if (!externally_enabled) obs::reset_for_testing();
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1);

// Same two-state shape for the lock-free latency histograms: Arg 0 bounds
// the disabled path (one relaxed load + branch, ~1 ns), Arg 1 the enabled
// log-bucketed record (owner-thread relaxed load+store on a bucket cell,
// mutex-free).
// An LCG varies the value so bucket indexing isn't constant-folded.
void BM_HistObserve(benchmark::State& state) {
    const bool externally_enabled =
        obs::g_obs_state.load(std::memory_order_relaxed) != 0;
    if (!externally_enabled && state.range(0) == 1) obs::enable_metrics("");
    constexpr int kOpsPerIter = 1000;
    std::uint64_t value = 0x9e3779b97f4a7c15ull;
    for (auto _ : state) {
        for (int i = 0; i < kOpsPerIter; ++i) {
            value = value * 6364136223846793005ull + 1442695040888963407ull;
            obs::hist_record(obs::Hist::kPoolQueueWait, value >> 40);
        }
    }
    benchmark::DoNotOptimize(value);
    state.SetItemsProcessed(state.iterations() * kOpsPerIter);
    if (!externally_enabled) obs::reset_for_testing();
}
BENCHMARK(BM_HistObserve)->Arg(0)->Arg(1);

// --- calibration service: cached steady state vs per-request design ---------
//
// The fleet scenario the service exists for: after the first day, almost
// every request repeats a (device-bucket, gate, duration, ...) combination
// already designed, so the steady state is hit-dominated.  The cached
// benchmark measures that steady state (every request served from the
// content-addressed store); the uncached baseline pays the full
// design_1q_gate cost per request, which is what the pre-service per-call
// flow did.  Both sides use the same tiny design spec, so the ratio is the
// cache win, not a workload difference.

service::PulseRequest calib_bench_request(std::size_t i) {
    static constexpr const char* kGates[] = {"x", "sx", "h"};
    static constexpr std::size_t kDurations[] = {48, 64};
    service::PulseRequest r;
    r.gate = kGates[i % 3];
    r.duration_dt = kDurations[(i / 3) % 2];
    r.qubit = 0;
    r.n_timeslots = 6;
    r.max_iterations = 3;
    return r;
}

void BM_CalibServiceHitSteadyState(benchmark::State& state) {
    static service::CalibrationService* svc = [] {
        service::ServiceOptions o;
        o.amp_bound = 0.5;
        auto* s = new service::CalibrationService(o);
        s->register_device(0, device::ibmq_montreal());
        for (std::size_t i = 0; i < 6; ++i) (void)s->request(0, calib_bench_request(i));
        return s;
    }();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(svc->request(0, calib_bench_request(i++)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibServiceHitSteadyState);

void BM_CalibServiceUncachedDesign(benchmark::State& state) {
    static device::PulseExecutor exec(device::ibmq_montreal());
    const auto model = device::nominal_model(exec.config());
    std::size_t i = 0;
    for (auto _ : state) {
        const service::PulseRequest r = calib_bench_request(i++);
        experiments::GateDesignSpec sp;
        sp.target = experiments::ideal_1q_gate(r.gate);
        sp.duration_dt = r.duration_dt;
        sp.n_timeslots = r.n_timeslots;
        sp.model = experiments::DesignModel::kTwoLevelClosed;
        sp.max_iterations = r.max_iterations;
        sp.amp_bound = 0.5;
        benchmark::DoNotOptimize(
            experiments::design_1q_gate(model, r.qubit, r.gate, sp));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibServiceUncachedDesign)->Unit(benchmark::kMillisecond);

void BM_Clifford2qSampling(benchmark::State& state) {
    static const rb::Clifford1Q c1;
    static const rb::Clifford2Q c2(c1);
    std::mt19937_64 rng(3);
    for (auto _ : state) {
        const std::size_t i = c2.sample(rng);
        benchmark::DoNotOptimize(c2.unitary(i));
    }
}
BENCHMARK(BM_Clifford2qSampling);

void BM_Clifford2qInverseLookup(benchmark::State& state) {
    static const rb::Clifford1Q c1;
    static const rb::Clifford2Q c2(c1);
    (void)c2.find(quantum::gates::cx());  // warm the lookup table
    std::mt19937_64 rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(c2.inverse(c2.sample(rng)));
    }
}
BENCHMARK(BM_Clifford2qInverseLookup);

}  // namespace

BENCHMARK_MAIN();
