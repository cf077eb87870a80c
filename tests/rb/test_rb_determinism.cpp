/// The RB engines propagate vec(rho) by matvec instead of composing
/// superoperator products.  Two guarantees are pinned here:
///
///  1. Equivalence: survivals match the old composition order
///     (total = S_rec S_m ... S_1, then one apply) to ~1e-12 -- the two
///     orders differ only in floating-point association.
///  2. Determinism: results are bit-identical across task-pool sizes; every
///     seed owns a disjoint output slot, pooled workspaces never leak
///     state, and no reduction reorders sums (mirrors
///     test_grape_determinism.cpp).

#include "rb/rb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "device/calibration.hpp"
#include "quantum/gates.hpp"
#include "quantum/superop.hpp"
#include "rb/leakage_rb.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::rb {
namespace {

namespace g = quantum::gates;

const Clifford1Q& c1() {
    static Clifford1Q instance;
    return instance;
}

const Clifford2Q& c2() {
    static Clifford2Q instance{c1()};
    return instance;
}

device::PulseExecutor& exec() {
    static device::PulseExecutor instance{device::ibmq_montreal()};
    return instance;
}

const pulse::InstructionScheduleMap& defaults() {
    static pulse::InstructionScheduleMap map = device::build_default_gates(exec());
    return map;
}

/// Reference implementation of the pre-matvec 1Q engine: compose the whole
/// sequence into one superoperator, apply it once.  RNG consumption matches
/// the production loop draw-for-draw so sequences and shot sampling pair up.
double composed_survival_1q(const GateSet1Q& gates, std::size_t qubit, const RbOptions& opts,
                            std::size_t li, std::size_t s) {
    const Clifford1Q& group = gates.group();
    const std::size_t d2 = gates.dim() * gates.dim();
    std::mt19937_64 rng(opts.rng_seed + 7919 * (li * 1000 + s));
    std::uniform_int_distribution<std::size_t> dist(0, Clifford1Q::kSize - 1);

    Mat total = Mat::identity(d2);
    std::size_t net = group.identity_index();
    for (std::size_t k = 0; k < opts.lengths[li]; ++k) {
        const std::size_t c = dist(rng);
        total = gates.clifford_superop(c) * total;
        net = group.multiply(c, net);
    }
    total = gates.clifford_superop(group.inverse(net)) * total;

    const Mat rho = quantum::apply_superop(total, exec().ground_state_1q());
    const double p0 = 1.0 - exec().p1_after_readout(rho, qubit);
    std::binomial_distribution<int> shots_dist(opts.shots, std::clamp(p0, 0.0, 1.0));
    return static_cast<double>(shots_dist(rng)) / static_cast<double>(opts.shots);
}

/// Reference implementation of the pre-matvec 2Q engine.
double composed_survival_2q(const GateSet2Q& gates, const RbOptions& opts, std::size_t li,
                            std::size_t s) {
    const Clifford2Q& group = gates.group();
    std::mt19937_64 rng(opts.rng_seed + 6271 * (li * 1000 + s));

    Mat total = Mat::identity(16);
    Mat net_ideal = Mat::identity(4);
    for (std::size_t k = 0; k < opts.lengths[li]; ++k) {
        const std::size_t c = group.sample(rng);
        total = gates.clifford_superop(c) * total;
        net_ideal = phase_normalize(group.unitary(c) * net_ideal);
    }
    total = gates.clifford_superop(group.find(net_ideal.adjoint())) * total;

    const Mat rho = quantum::apply_superop(total, exec().ground_state_2q());
    return exec().measure_2q(rho, opts.shots, rng()).probability("00");
}

TEST(RbMatvec, MatchesComposedSuperopProduct1Q) {
    GateSet1Q gates(exec(), defaults(), 0, c1());
    RbOptions opts;
    opts.lengths = {1, 8, 16, 32};
    opts.seeds_per_length = 4;
    opts.shots = 2048;
    const RbCurve curve = run_rb_1q(exec(), gates, 0, opts);

    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        double mean = 0.0;
        for (std::size_t s = 0; s < opts.seeds_per_length; ++s) {
            mean += composed_survival_1q(gates, 0, opts, li, s);
        }
        mean /= static_cast<double>(opts.seeds_per_length);
        EXPECT_NEAR(curve.points[li].mean_survival, mean, 1e-12) << "m=" << opts.lengths[li];
    }
}

TEST(RbMatvec, MatchesComposedSuperopProduct2Q) {
    GateSet2Q gates(exec(), defaults(), c2());
    RbOptions opts;
    opts.lengths = {1, 4, 8};
    opts.seeds_per_length = 3;
    opts.shots = 2048;
    const RbCurve curve = run_rb_2q(exec(), gates, opts);

    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        double mean = 0.0;
        for (std::size_t s = 0; s < opts.seeds_per_length; ++s) {
            mean += composed_survival_2q(gates, opts, li, s);
        }
        mean /= static_cast<double>(opts.seeds_per_length);
        EXPECT_NEAR(curve.points[li].mean_survival, mean, 1e-12) << "m=" << opts.lengths[li];
    }
}

/// Runs `fn` with a fixed task-pool size, restoring the previous one.
template <typename Fn>
auto with_threads(int n_threads, Fn&& fn) {
    runtime::ScopedPoolSize scoped(static_cast<std::size_t>(n_threads));
    return fn();
}

void expect_curves_bitwise_equal(const RbCurve& a, const RbCurve& b, int threads) {
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].mean_survival, b.points[i].mean_survival)
            << "threads=" << threads << " i=" << i;
        EXPECT_EQ(a.points[i].sem, b.points[i].sem) << "threads=" << threads << " i=" << i;
    }
    EXPECT_EQ(a.alpha, b.alpha) << "threads=" << threads;
    EXPECT_EQ(a.epc, b.epc) << "threads=" << threads;
}

TEST(RbDeterminism, Rb1qBitIdenticalAcrossThreadCounts) {
    GateSet1Q gates(exec(), defaults(), 0, c1());
    RbOptions opts;
    opts.lengths = {1, 30, 60};
    opts.seeds_per_length = 6;
    opts.shots = 1024;
    auto run = [&] { return run_rb_1q(exec(), gates, 0, opts); };
    const RbCurve ref = with_threads(1, run);
    for (int threads : {2, 4}) {
        expect_curves_bitwise_equal(ref, with_threads(threads, run), threads);
    }
}

TEST(RbDeterminism, Irb2qBitIdenticalAcrossThreadCounts) {
    GateSet2Q gates(exec(), defaults(), c2());
    const Mat cx_super = exec().schedule_superop_2q(defaults().get("cx", {0, 1}));
    const std::size_t cx_index = c2().find(g::cx());
    RbOptions opts;
    opts.lengths = {1, 4, 8};
    opts.seeds_per_length = 4;
    opts.shots = 1024;
    auto run = [&] {
        return run_irb_2q_with_reference(exec(), gates, run_rb_2q(exec(), gates, opts), cx_super,
                                         cx_index, opts);
    };
    const IrbResult ref = with_threads(1, run);
    for (int threads : {2, 4}) {
        const IrbResult other = with_threads(threads, run);
        expect_curves_bitwise_equal(ref.reference, other.reference, threads);
        expect_curves_bitwise_equal(ref.interleaved, other.interleaved, threads);
        EXPECT_EQ(ref.gate_error, other.gate_error) << "threads=" << threads;
    }
}

TEST(RbDeterminism, Irb2qSeedBlockWidthIsUnobservable) {
    // With 12 seeds, pool sizes 1, 2, 4, 6 and 12 give block widths 12
    // (more seeds than one mixed-step call takes), 6, 3 (a column pair plus
    // an odd column), 2 and 1 (lone columns); all commit the same bits.
    GateSet2Q gates(exec(), defaults(), c2());
    const Mat cx_super = exec().schedule_superop_2q(defaults().get("cx", {0, 1}));
    const std::size_t cx_index = c2().find(g::cx());
    RbOptions opts;
    opts.lengths = {1, 4, 8};
    opts.seeds_per_length = 12;
    opts.shots = 1024;
    auto run = [&] {
        return run_irb_2q_with_reference(exec(), gates, run_rb_2q(exec(), gates, opts), cx_super,
                                         cx_index, opts);
    };
    const IrbResult ref = with_threads(1, run);
    for (int threads : {2, 4, 6, 12}) {
        const IrbResult other = with_threads(threads, run);
        expect_curves_bitwise_equal(ref.reference, other.reference, threads);
        expect_curves_bitwise_equal(ref.interleaved, other.interleaved, threads);
        EXPECT_EQ(ref.gate_error, other.gate_error) << "threads=" << threads;
    }
}

TEST(RbDeterminism, LeakageRbBitIdenticalAcrossThreadCounts) {
    // Guards the removal of the OpenMP reduction (whose summation order
    // depended on the thread count) in favor of per-seed slots.
    GateSet1Q gates(exec(), defaults(), 0, c1());
    RbOptions opts;
    opts.lengths = {1, 25, 50};
    opts.seeds_per_length = 6;
    auto run = [&] { return run_leakage_rb_1q(exec(), gates, opts); };
    const LeakageRbResult ref = with_threads(1, run);
    for (int threads : {2, 4}) {
        const LeakageRbResult other = with_threads(threads, run);
        ASSERT_EQ(ref.leakage_population.size(), other.leakage_population.size());
        for (std::size_t i = 0; i < ref.leakage_population.size(); ++i) {
            EXPECT_EQ(ref.leakage_population[i], other.leakage_population[i])
                << "threads=" << threads << " i=" << i;
        }
        EXPECT_EQ(ref.lambda, other.lambda) << "threads=" << threads;
    }
}

}  // namespace
}  // namespace qoc::rb
