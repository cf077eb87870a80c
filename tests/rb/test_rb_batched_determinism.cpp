/// Determinism contracts of the batched (structure-of-arrays) RB seed
/// engine:
///
///  1. Partition invariance: every seed-block width the pool size selects
///     -- one-seed blocks, a few wide blocks, one block of every seed, and
///     the 32-column cap splitting a length -- commits bitwise-identical
///     curves, because the simd kernel family accumulates each output
///     element in the same order on the broadcast and mixed paths.
///  2. Thread invariance: 1-vs-N task-pool sizes are bitwise identical even
///     though the block width depends on the pool size.
///  3. Dense reference: the naive per-seed dense-matvec loop in
///     dense_rb_reference.hpp reproduces the engine's RB, IRB (1Q and 2Q)
///     and leakage points to 1e-12 and their fits to 1e-9 -- the two differ only in
///     floating-point association.  (The `DenseEscapeHatch*` test names
///     predate the reference; they keep their ids.)

#include "rb/rb.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dense_rb_reference.hpp"
#include "device/calibration.hpp"
#include "quantum/gates.hpp"
#include "rb/leakage_rb.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::rb {
namespace {

device::PulseExecutor& exec() {
    static device::PulseExecutor instance{device::ibmq_montreal()};
    return instance;
}

const pulse::InstructionScheduleMap& defaults() {
    static pulse::InstructionScheduleMap map = device::build_default_gates(exec());
    return map;
}

const Clifford1Q& c1() {
    static Clifford1Q instance;
    return instance;
}

const GateSet1Q& gates1q() {
    static GateSet1Q instance{exec(), defaults(), 0, c1()};
    return instance;
}

const Clifford2Q& c2() {
    static Clifford2Q instance{c1()};
    return instance;
}

RbOptions small_opts() {
    RbOptions opts;
    opts.lengths = {1, 20, 40};
    opts.seeds_per_length = 6;
    opts.shots = 1024;
    return opts;
}

/// With `kSweepSeeds` seeds, pool size 1 (one 12-seed block) is the
/// reference, and pool sizes 2, 4, 6 and 12 give seed-block widths 6, 3, 2
/// and 1.
constexpr std::size_t kSweepSeeds = 12;
constexpr std::size_t kSweepPools[] = {2, 4, 6, 12};

/// `run()` at pool size `pool`.
template <typename Fn>
auto at_pool(std::size_t pool, Fn&& run) {
    runtime::ScopedPoolSize scoped(pool);
    return run();
}

void expect_bitwise(const RbCurve& a, const RbCurve& b, const char* what) {
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].mean_survival, b.points[i].mean_survival) << what << " i=" << i;
        EXPECT_EQ(a.points[i].sem, b.points[i].sem) << what << " i=" << i;
    }
    EXPECT_EQ(a.alpha, b.alpha) << what;
    EXPECT_EQ(a.epc, b.epc) << what;
}

TEST(RbBatchedDeterminism, SeedBlockWidthIsUnobservable1Q) {
    RbOptions opts = small_opts();
    opts.seeds_per_length = kSweepSeeds;
    const auto run = [&] { return run_rb_1q(exec(), gates1q(), 0, opts); };
    const RbCurve ref = at_pool(1, run);
    for (std::size_t pool : kSweepPools) {
        SCOPED_TRACE(pool);
        expect_bitwise(ref, at_pool(pool, run), "pool size");
    }
}

TEST(RbBatchedDeterminism, BatchedVsScalarSeedPropagation1Q) {
    // A pool as wide as the seed count degenerates every block to a single
    // seed (broadcast steps only); pool size 1 puts every seed in one block,
    // which exercises the mixed step.
    const RbOptions opts = small_opts();
    const auto run = [&] { return run_rb_1q(exec(), gates1q(), 0, opts); };
    expect_bitwise(at_pool(opts.seeds_per_length, run), at_pool(1, run), "scalar-vs-batched");
}

TEST(RbBatchedDeterminism, SeedCapSplitsALengthIntoBlocks1Q) {
    // 40 seeds at pool size 1: the 32-column cap splits every length into a
    // 32-seed and an 8-seed block.  Pool size 4 runs four 10-seed blocks.
    RbOptions opts = small_opts();
    opts.seeds_per_length = 40;
    const auto run = [&] { return run_rb_1q(exec(), gates1q(), 0, opts); };
    expect_bitwise(at_pool(1, run), at_pool(4, run), "32-column cap");
}

TEST(RbBatchedDeterminism, ThreadCountIsUnobservableDespiteAutoWidth) {
    // The auto block width DEPENDS on the pool size; bitwise equality across
    // pool sizes is exactly the partition-invariance corollary.
    const RbOptions opts = small_opts();
    auto run = [&] { return run_rb_1q(exec(), gates1q(), 0, opts); };
    RbCurve ref;
    {
        runtime::ScopedPoolSize scoped(1);
        ref = run();
    }
    for (std::size_t threads : {2ul, 4ul}) {
        runtime::ScopedPoolSize scoped(threads);
        expect_bitwise(ref, run(), "threads");
    }
}

TEST(RbBatchedDeterminism, DenseEscapeHatchAgreesToTolerance1Q) {
    const RbOptions opts = small_opts();
    const RbCurve batched = run_rb_1q(exec(), gates1q(), 0, opts);
    const RbCurve dense = reference::rb_curve_1q(exec(), gates1q(), 0, opts);

    ASSERT_EQ(batched.points.size(), dense.points.size());
    for (std::size_t i = 0; i < batched.points.size(); ++i) {
        EXPECT_NEAR(batched.points[i].mean_survival, dense.points[i].mean_survival, 1e-12)
            << "i=" << i;
    }
    EXPECT_NEAR(batched.epc, dense.epc, 1e-9);
}

TEST(RbBatchedDeterminism, DenseEscapeHatchAgreesToToleranceLeakage) {
    RbOptions opts = small_opts();
    opts.lengths = {1, 15, 30};
    const LeakageRbResult batched = run_leakage_rb_1q(exec(), gates1q(), opts);
    const LeakageRbResult dense = reference::leakage_rb_1q(exec(), gates1q(), opts);

    ASSERT_EQ(batched.leakage_population.size(), dense.leakage_population.size());
    for (std::size_t i = 0; i < batched.leakage_population.size(); ++i) {
        EXPECT_NEAR(batched.leakage_population[i], dense.leakage_population[i], 1e-12)
            << "i=" << i;
    }
    EXPECT_NEAR(batched.lambda, dense.lambda, 1e-9);
}

TEST(RbBatchedDeterminism, LeakageSeedBlockWidthIsUnobservable) {
    RbOptions opts = small_opts();
    opts.lengths = {1, 15, 30};
    opts.seeds_per_length = kSweepSeeds;
    const auto run = [&] { return run_leakage_rb_1q(exec(), gates1q(), opts); };
    const LeakageRbResult ref = at_pool(1, run);
    for (std::size_t pool : kSweepPools) {
        SCOPED_TRACE(pool);
        const LeakageRbResult other = at_pool(pool, run);
        ASSERT_EQ(ref.leakage_population.size(), other.leakage_population.size());
        for (std::size_t i = 0; i < ref.leakage_population.size(); ++i) {
            EXPECT_EQ(ref.leakage_population[i], other.leakage_population[i]) << "i=" << i;
        }
        EXPECT_EQ(ref.lambda, other.lambda);
    }
}

TEST(RbBatchedDeterminism, InterleavedBatchAgreesWithDense1Q) {
    // IRB adds the broadcast interleave step (one apply_broadcast per
    // Clifford step for the whole block) on top of the mixed per-seed steps.
    const Mat x_super = exec().schedule_superop_1q(defaults().get("x", {0}), 0);
    const std::size_t x_index = c1().find(quantum::gates::x());
    RbOptions opts = small_opts();
    opts.lengths = {1, 16, 32};
    opts.seeds_per_length = 4;

    const IrbResult batched = run_irb_1q(exec(), gates1q(), 0, x_super, x_index, opts);
    const IrbResult dense = reference::irb_1q(exec(), gates1q(), 0, x_super, x_index, opts);

    for (std::size_t i = 0; i < batched.interleaved.points.size(); ++i) {
        EXPECT_NEAR(batched.interleaved.points[i].mean_survival,
                    dense.interleaved.points[i].mean_survival, 1e-12)
            << "i=" << i;
    }
    EXPECT_NEAR(batched.gate_error, dense.gate_error, 1e-9);
}

TEST(RbBatchedDeterminism, InterleavedBatchAgreesWithDense2Q) {
    // 2Q IRB tracks the ideal net unitary with the interleaved element's
    // unitary after every Clifford, then looks the recovery up by `find`.
    const GateSet2Q gates(exec(), defaults(), c2());
    const Mat cx_super = exec().schedule_superop_2q(defaults().get("cx", {0, 1}));
    const std::size_t cx_index = c2().find(quantum::gates::cx());
    RbOptions opts = small_opts();
    opts.lengths = {1, 6, 12};
    opts.seeds_per_length = 3;

    const IrbResult batched = run_irb_2q_with_reference(
        exec(), gates, run_rb_2q(exec(), gates, opts), cx_super, cx_index, opts);
    const IrbResult dense = reference::irb_2q(exec(), gates, cx_super, cx_index, opts);

    ASSERT_EQ(batched.interleaved.points.size(), dense.interleaved.points.size());
    for (std::size_t i = 0; i < batched.interleaved.points.size(); ++i) {
        EXPECT_NEAR(batched.reference.points[i].mean_survival,
                    dense.reference.points[i].mean_survival, 1e-12)
            << "i=" << i;
        EXPECT_NEAR(batched.interleaved.points[i].mean_survival,
                    dense.interleaved.points[i].mean_survival, 1e-12)
            << "i=" << i;
    }
    EXPECT_NEAR(batched.gate_error, dense.gate_error, 1e-9);
}

}  // namespace
}  // namespace qoc::rb
