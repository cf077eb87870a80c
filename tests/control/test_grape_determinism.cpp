/// GRAPE gradients must be bit-identical regardless of the task-pool size:
/// every slot of the objective writes disjoint storage through its own
/// pooled workspace, so parallelism must not change a single ULP.  Guards
/// against anyone "optimizing" the evaluator with a reduction or a shared
/// accumulator that reorders floating-point sums.

#include "control/control_problem.hpp"
#include "control/grape.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::control {
namespace {

using quantum::drive_x;
using quantum::drive_y;
using quantum::duffing_drift;
using quantum::qubit_isometry;

/// Three-level transmon X-gate design, the same shape as the paper's
/// single-qubit benchmarks (subspace isometry + leakage level).
GrapeProblem transmon_problem(std::size_t n_ts) {
    GrapeProblem p;
    p.system.drift = duffing_drift(3, 0.0, -2.0);
    p.system.ctrls = {0.5 * drive_x(3), 0.5 * drive_y(3)};
    p.target = quantum::gates::x();
    p.subspace_isometry = qubit_isometry(3);
    p.n_timeslots = n_ts;
    p.evo_time = static_cast<double>(n_ts) * 0.25;
    p.fidelity = FidelityType::kPsu;
    p.initial_amps.resize(n_ts);
    for (std::size_t k = 0; k < n_ts; ++k) {
        const double t = static_cast<double>(k) / static_cast<double>(n_ts);
        p.initial_amps[k] = {0.3 * t, 0.2 * (1.0 - t)};
    }
    return p;
}

/// Open-system (Lindblad, kTraceDiff) variant exercising the Pade path.
GrapeProblem open_problem(std::size_t n_ts) {
    GrapeProblem p;
    p.system.drift = quantum::liouvillian(Mat(2, 2), {0.05 * quantum::sigma_minus()});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * quantum::sigma_x())};
    p.target = quantum::unitary_superop(quantum::gates::x());
    p.n_timeslots = n_ts;
    p.evo_time = static_cast<double>(n_ts) * 0.3;
    p.fidelity = FidelityType::kTraceDiff;
    p.initial_amps.assign(n_ts, {0.35});
    return p;
}

/// Evaluates err + grad at a fixed task-pool size, restoring the previous
/// size afterwards.
double eval_with_threads(int n_threads, const GrapeProblem& p, std::vector<double>& grad) {
    runtime::ScopedPoolSize scoped(static_cast<std::size_t>(n_threads));
    const ControlProblem cp(p);
    return cp.objective(cp.flatten(p.initial_amps), grad);
}

TEST(GrapeDeterminism, ClosedGradientBitIdenticalAcrossThreadCounts) {
    const GrapeProblem p = transmon_problem(24);
    std::vector<double> g1, gn;
    const double e1 = eval_with_threads(1, p, g1);
    for (int threads : {2, 4, 8}) {
        const double en = eval_with_threads(threads, p, gn);
        EXPECT_EQ(e1, en) << "threads=" << threads;  // bitwise, not approx
        ASSERT_EQ(g1.size(), gn.size());
        for (std::size_t i = 0; i < g1.size(); ++i) {
            EXPECT_EQ(g1[i], gn[i]) << "threads=" << threads << " i=" << i;
        }
    }
}

TEST(GrapeDeterminism, OpenGradientBitIdenticalAcrossThreadCounts) {
    const GrapeProblem p = open_problem(16);
    std::vector<double> g1, gn;
    const double e1 = eval_with_threads(1, p, g1);
    const double en = eval_with_threads(4, p, gn);
    EXPECT_EQ(e1, en);
    ASSERT_EQ(g1.size(), gn.size());
    for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_EQ(g1[i], gn[i]) << "i=" << i;
}

TEST(GrapeDeterminism, RepeatedEvaluationReusesWorkspaceBitIdentically) {
    // Same evaluator-facing API called twice in a row: workspace reuse must
    // be stateless (second call sees dirty buffers and must not care).
    const GrapeProblem p = transmon_problem(16);
    const ControlProblem cp(p);
    const std::vector<double> x = cp.flatten(p.initial_amps);
    std::vector<double> ga, gb;
    const double ea = cp.objective(x, ga);
    const double eb = cp.objective(x, gb);
    EXPECT_EQ(ea, eb);
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) EXPECT_EQ(ga[i], gb[i]);
}

}  // namespace
}  // namespace qoc::control
