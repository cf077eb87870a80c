/// Allocation-budget regression tests.
///
/// PR 1 made the GRAPE evaluator and the matvec kernels allocation-free on
/// shape reuse; PR 2 did the same for the RB propagation loop.  Nothing
/// enforced it -- a stray temporary in `gemm_into` would silently cost ~30%
/// of GRAPE wall time.  These tests pin the property with a real meter:
///
///  * the `*_into` kernels perform EXACTLY ZERO heap allocations after the
///    one-time shape warmup;
///  * steady-state GRAPE iterations and RB seeds stay within small committed
///    allocation budgets, and their counts are run-to-run deterministic.
///
/// Budgets are measured on the seed machine and include ~2x headroom; if a
/// test trips, a hot path gained an allocation -- find it before raising the
/// budget.  With contracts compiled in, the optimizer-level tests skip: the
/// invariant checks allocate scratch (residual matrices, Choi forms) by
/// design, and perf-facing guarantees only apply to release-style builds.

#include "analysis/alloc_guard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "contracts/contracts.hpp"
#include "control/control_problem.hpp"
#include "control/grape.hpp"
#include "device/calibration.hpp"
#include "linalg/kron.hpp"
#include "linalg/matrix.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"
#include "rb/rb.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/workspace_pool.hpp"

#include <optional>

namespace qoc {
namespace {

using linalg::Mat;
using testing::AllocMeter;

/// Pins the task pool to size 1 so workspace-lease creation and task
/// submission cannot leak into a measured region (counts stay exactly
/// reproducible; size 1 is the pure-inline, zero-allocation fast path).
class AllocGuardTest : public ::testing::Test {
protected:
    void SetUp() override { serial_.emplace(1); }
    void TearDown() override { serial_.reset(); }

private:
    std::optional<runtime::ScopedPoolSize> serial_;
};

Mat random_like(std::size_t rows, std::size_t cols, std::uint64_t seed) {
    Mat m(rows, cols);
    std::uint64_t s = seed;
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            s = s * 6364136223846793005ULL + 1442695040888963407ULL;
            m(i, j) = {static_cast<double>(s >> 40) * 1e-7, static_cast<double>(s >> 44) * 1e-7};
        }
    }
    return m;
}

TEST_F(AllocGuardTest, MeterCatchesInjectedAllocation) {
    // Self-test: the interposer must see an allocation a hot loop sneaks in.
    AllocMeter m;
    double sink = 0.0;
    for (int i = 0; i < 4; ++i) {
        std::vector<double> injected(64, 1.0);  // the "bug"
        sink += injected[0];
    }
    EXPECT_GE(m.delta(), 4u);
    EXPECT_GT(sink, 0.0);
}

TEST_F(AllocGuardTest, GemmIntoIsAllocationFreeAfterWarmup) {
    const Mat a = random_like(24, 24, 1);
    const Mat b = random_like(24, 24, 2);
    Mat out;
    linalg::gemm_into(a, b, out);  // warmup: sizes the output once
    AllocMeter m;
    for (int i = 0; i < 16; ++i) linalg::gemm_into(a, b, out);
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(AllocGuardTest, SuperopBatchApplyIsAllocationFreeAfterWarmup) {
    const auto s =
        quantum::StructuredSuperOp::from_dense(quantum::unitary_superop(quantum::gates::h()));
    const Mat v = random_like(4, 1, 5);
    Mat out;
    s.apply_batch_into(v, out);
    AllocMeter m;
    for (int i = 0; i < 16; ++i) s.apply_batch_into(v, out);
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(AllocGuardTest, WorkspacePoolLeaseReuseAllocationFreeAfterWarmup) {
    // The runtime arena's steady state: acquire pops the LIFO free list,
    // release pushes within reserved capacity -- zero heap traffic after
    // the first lease created (and sized) the single workspace.
    struct Scratch {
        Mat m;
    };
    runtime::WorkspacePool<Scratch> pool;
    {
        auto lease = pool.acquire();  // warmup: creates + sizes the workspace
        lease->m = random_like(16, 16, 7);
    }
    AllocMeter meter;
    for (int i = 0; i < 64; ++i) {
        auto lease = pool.acquire();
        lease->m(0, 0) = {static_cast<double>(i), 0.0};
    }
    EXPECT_EQ(meter.delta(), 0u);
    EXPECT_EQ(pool.created(), 1u) << "sequential leases must reuse one workspace";
}

#if defined(QOC_CONTRACTS_ENABLED)

TEST_F(AllocGuardTest, GrapeSteadyStateIterationBudget) {
    GTEST_SKIP() << "contracts compiled in: invariant checks allocate scratch by design";
}
TEST_F(AllocGuardTest, RbRunAllocDeterministicAndBudgeted) {
    GTEST_SKIP() << "contracts compiled in: invariant checks allocate scratch by design";
}
TEST_F(AllocGuardTest, OpenEvaluatorObjectiveAllocationFree) {
    GTEST_SKIP() << "contracts compiled in: invariant checks allocate scratch by design";
}

#else  // !QOC_CONTRACTS_ENABLED

/// Per-iteration allocation ceiling for steady-state GRAPE (L-BFGS-B
/// bookkeeping + result-history growth; the evaluator itself is zero-alloc).
/// Measured 107 on the seed machine; ~2x headroom.
constexpr std::uint64_t kGrapeIterAllocBudget = 256;

/// Total ceiling for one small run_rb_1q (3 lengths x 2 seeds, warm caches).
/// Dominated by the Levenberg-Marquardt decay fit, whose iteration count --
/// and hence allocation count -- depends on the sampled survivals, so the
/// bound is coarse; the propagation loop itself is pinned to zero below.
/// Measured 3544 on the seed machine; ~2x headroom.
constexpr std::uint64_t kRb1qRunAllocBudget = 8192;

control::GrapeProblem small_transmon_problem() {
    control::GrapeProblem p;
    p.system.drift = quantum::duffing_drift(3, 0.0, -2.0);
    p.system.ctrls = {0.5 * quantum::drive_x(3), 0.5 * quantum::drive_y(3)};
    p.target = quantum::gates::x();
    p.subspace_isometry = quantum::qubit_isometry(3);
    p.n_timeslots = 16;
    p.evo_time = 4.0;
    p.fidelity = control::FidelityType::kPsu;
    p.initial_amps.resize(p.n_timeslots);
    for (std::size_t k = 0; k < p.n_timeslots; ++k) {
        const double t = static_cast<double>(k) / static_cast<double>(p.n_timeslots);
        p.initial_amps[k] = {0.3 * t, 0.2 * (1.0 - t)};
    }
    return p;
}

TEST_F(AllocGuardTest, GrapeSteadyStateIterationBudget) {
    const control::GrapeProblem p = small_transmon_problem();
    optim::SolverOptions opts;
    opts.max_iterations = 12;
    opts.tol = 0.0;  // run all iterations
    opts.f_tol = 0.0;

    std::vector<std::uint64_t> marks;
    marks.reserve(64);  // keep the callback itself allocation-free
    opts.iter_callback = [&](const optim::IterationRecord&) {
        marks.push_back(testing::alloc_count());
    };
    control::grape_lbfgsb(p, opts);
    ASSERT_GE(marks.size(), 8u);

    // Skip the first iterations (workspace setup, history-vector growth);
    // steady state must stay within the committed budget.
    std::uint64_t worst = 0;
    for (std::size_t i = 4; i < marks.size(); ++i) {
        worst = std::max(worst, marks[i] - marks[i - 1]);
    }
    RecordProperty("worst_steady_iter_allocs", static_cast<int>(worst));
    EXPECT_LE(worst, kGrapeIterAllocBudget)
        << "a steady-state GRAPE iteration gained heap allocations";
}

TEST_F(AllocGuardTest, OpenEvaluatorObjectiveAllocationFree) {
    // The open-system evaluator (3-level Lindbladian, kTraceDiff, two
    // controls): once the first call has sized the per-slot workspaces,
    // objective + gradient at a fixed shape must allocate NOTHING --
    // fidelity error included.
    control::GrapeProblem p;
    p.system.drift = quantum::liouvillian(
        quantum::duffing_drift(3, 0.0, -2.0),
        {0.01 * quantum::annihilation(3), 0.01 * quantum::number_op(3)});
    p.system.ctrls = {quantum::liouvillian_hamiltonian(0.5 * quantum::drive_x(3)),
                      quantum::liouvillian_hamiltonian(0.5 * quantum::drive_y(3))};
    Mat x3(3, 3);  // X on the qubit subspace, identity on leakage
    x3(0, 1) = 1.0;
    x3(1, 0) = 1.0;
    x3(2, 2) = 1.0;
    p.target = quantum::unitary_superop(x3);
    p.fidelity = control::FidelityType::kTraceDiff;
    p.n_timeslots = 12;
    p.evo_time = 30.0;
    p.initial_amps.resize(p.n_timeslots);
    for (std::size_t k = 0; k < p.n_timeslots; ++k) {
        const double t = static_cast<double>(k) / static_cast<double>(p.n_timeslots);
        p.initial_amps[k] = {0.3 * t, 0.2 * (1.0 - t)};
    }
    const control::ControlProblem cp(p);
    const std::vector<double> x = cp.flatten(p.initial_amps);
    std::vector<double> grad;
    double sink = cp.objective(x, grad);  // warmup: sizes every workspace

    AllocMeter m;
    for (int i = 0; i < 8; ++i) sink += cp.objective(x, grad);
    EXPECT_EQ(m.delta(), 0u) << "the open-system evaluator allocates in its hot loop";
    EXPECT_GT(sink, 0.0);
}

TEST_F(AllocGuardTest, RbPropagationLoopAllocationFree) {
    // Single-seed propagation through the mixed-column step: one superop
    // apply per Clifford.  After buffer warmup it must allocate NOTHING,
    // whatever the sequence length.
    const device::PulseExecutor exec{device::ibmq_montreal()};
    const pulse::InstructionScheduleMap defaults = device::build_default_gates(exec);
    const rb::Clifford1Q group;
    const rb::GateSet1Q gates(exec, defaults, 0, group);

    Mat v = linalg::vec(exec.ground_state_1q());
    Mat w = v;
    const auto step = [&gates](std::size_t c, const Mat& in, Mat& out) {
        const quantum::StructuredSuperOp* op = &gates.clifford_structured(c);
        quantum::StructuredSuperOp::apply_mixed_cols(&op, 1, in.data().data(),
                                                     out.data().data(), /*stride=*/1);
    };
    step(0, v, w);
    step(1, w, v);

    AllocMeter m;
    for (int rep = 0; rep < 8; ++rep) {
        for (std::size_t c = 0; c < rb::Clifford1Q::kSize; ++c) {
            step(c, v, w);
            std::swap(v, w);  // buffer ping-pong, allocation-free
        }
    }
    EXPECT_EQ(m.delta(), 0u);
}

TEST_F(AllocGuardTest, RbRunAllocDeterministicAndBudgeted) {
    const device::PulseExecutor exec{device::ibmq_montreal()};
    const pulse::InstructionScheduleMap defaults = device::build_default_gates(exec);
    const rb::Clifford1Q group;
    const rb::GateSet1Q gates(exec, defaults, 0, group);

    auto run_once = [&] {
        rb::RbOptions opts;
        opts.lengths = {1, 10, 20};
        opts.seeds_per_length = 2;
        opts.shots = 64;
        AllocMeter m;
        rb::run_rb_1q(exec, gates, 0, opts);
        return m.delta();
    };

    run_once();  // warm static/lazy state before measuring
    const std::uint64_t a = run_once();
    const std::uint64_t a_again = run_once();
    EXPECT_EQ(a, a_again) << "RB allocation count must be run-to-run deterministic";
    RecordProperty("allocs_per_small_rb_run", static_cast<int>(a));
    EXPECT_LE(a, kRb1qRunAllocBudget) << "the RB path gained heap allocations";
}

#endif  // QOC_CONTRACTS_ENABLED

}  // namespace
}  // namespace qoc
