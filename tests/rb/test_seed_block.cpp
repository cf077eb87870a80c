/// Oracle tests for the RB seed engine's two steps (rb/seed_block.hpp): the
/// broadcast step against the vectorize/multiply/unvec oracle, the bitwise
/// contracts the simd kernel family guarantees (broadcast-vs-mixed-vs-
/// single-column, scalar-vs-vector) and the apply counters the e2e layer
/// table reads.

#include "rb/seed_block.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "linalg/simd_kernels.hpp"
#include "obs/obs.hpp"
#include "quantum/operators.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"

namespace qoc::rb {
namespace {

using detail::apply_block_step;
using detail::apply_broadcast;
using linalg::Mat;

Mat random_hermitian(std::size_t n, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat m(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        m(i, i) = {dist(rng), 0.0};
        for (std::size_t j = i + 1; j < n; ++j) {
            m(i, j) = {dist(rng), dist(rng)};
            m(j, i) = std::conj(m(i, j));
        }
    }
    return m;
}

std::vector<Mat> test_collapse_ops(std::size_t d) {
    return {0.3 * quantum::annihilation(d), 0.15 * quantum::number_op(d)};
}

Mat random_batch(std::size_t rows, std::size_t cols, unsigned seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Mat x(rows, cols);
    for (std::size_t i = 0; i < rows * cols; ++i) x.data()[i] = {dist(rng), dist(rng)};
    return x;
}

/// Every column of `x` advanced by `s` through the mixed step: the block's
/// indices alternate 0, 1, 0, ... (so the step never broadcasts) and both
/// map to `s`.
Mat mixed_step(const Mat& s, const Mat& x) {
    std::vector<std::size_t> idx(x.cols());
    for (std::size_t j = 0; j < idx.size(); ++j) idx[j] = j % 2;
    Mat in = x, out;
    apply_block_step([&s](std::size_t) -> const Mat& { return s; }, idx.data(), idx.size(), in,
                     out);
    return in;
}

/// A sparse operator (a 4-level Liouvillian, mostly exact zeros) and a dense
/// one (its propagator).
Mat sparse_op() {
    return quantum::liouvillian(random_hermitian(4, 7), {0.2 * quantum::annihilation(4)});
}
Mat dense_op() { return linalg::expm(sparse_op()); }

void expect_bitwise(const Mat& a, const Mat& b, const char* what) {
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            EXPECT_EQ(a(i, j), b(i, j)) << what << " row " << i << " col " << j;
        }
    }
}

TEST(Superop, BatchApplyMatchesApplySuperop) {
    // The broadcast step against the vectorize/multiply/unvec oracle:
    // identical values (both reduce to the same simd kernel row sums).
    const std::size_t d = 3;
    const Mat h = quantum::duffing_drift(d, 0.1, -2.0) + 0.3 * quantum::drive_x(d);
    const Mat l = quantum::liouvillian(h, {std::sqrt(0.01) * quantum::annihilation(d)});
    const Mat prop = linalg::expm(0.9 * l);
    const Mat rho = quantum::ket_to_dm(std::sqrt(0.5) *
                                       (quantum::basis_ket(d, 0) + quantum::basis_ket(d, 1)));

    const Mat ref = quantum::apply_superop(prop, rho);
    const Mat v = linalg::vec(rho);
    Mat out;
    apply_broadcast(prop, v, out);
    ASSERT_EQ(out.rows(), d * d);
    ASSERT_EQ(out.cols(), 1u);
    for (std::size_t i = 0; i < d; ++i)
        for (std::size_t j = 0; j < d; ++j)
            EXPECT_EQ(out(j + i * d, 0), ref(j, i)) << "i=" << i << " j=" << j;

    // Chained steps on reused buffers (the engine's ping-pong pattern).
    Mat v2 = v, next;
    for (int step = 0; step < 3; ++step) {
        apply_broadcast(prop, v2, next);
        std::swap(v2, next);
    }
    const Mat ref3 = quantum::apply_superop(prop, quantum::apply_superop(prop, ref));
    EXPECT_TRUE(linalg::unvec(v2, d).approx_equal(ref3, 1e-12));
}

TEST(SeedBlock, BatchColumnAndSingleApplyAgreeBitwise) {
    // The partition-invariance contract the RB seed engine relies on: one
    // broadcast sweep, the mixed step, and single-column applies all commit
    // identical bits.
    const Mat s = quantum::liouvillian(random_hermitian(3, 17), test_collapse_ops(3));
    const std::size_t d2 = s.rows();
    const std::size_t batch = 5;
    const Mat x = random_batch(d2, batch, 23);

    Mat batched;
    apply_broadcast(s, x, batched);
    expect_bitwise(batched, mixed_step(s, x), "mixed");

    for (std::size_t j = 0; j < batch; ++j) {
        Mat xj(d2, 1), single;
        for (std::size_t i = 0; i < d2; ++i) xj(i, 0) = x(i, j);
        apply_broadcast(s, xj, single);
        for (std::size_t i = 0; i < d2; ++i) {
            EXPECT_EQ(batched(i, j), single(i, 0)) << "col " << j << " row " << i;
        }
    }
}

TEST(SeedBlock, ScalarAndVectorKernelsAgreeBitwise) {
    if (!linalg::simd::avx2_available()) GTEST_SKIP() << "no AVX2 on this host";
    for (const Mat& s : {sparse_op(), dense_op()}) {
        const Mat x = random_batch(s.rows(), 7, 30);
        Mat vec_batch;
        apply_broadcast(s, x, vec_batch);
        const Mat vec_mixed = mixed_step(s, x);

        linalg::simd::force_scalar(true);
        Mat sc_batch;
        apply_broadcast(s, x, sc_batch);
        const Mat sc_mixed = mixed_step(s, x);
        linalg::simd::force_scalar(false);

        expect_bitwise(vec_batch, sc_batch, "batch");
        expect_bitwise(vec_mixed, sc_mixed, "mixed");
    }
}

TEST(SeedBlock, StepsFeedTheSuperopApplyCounters) {
    // The e2e layer table reads quantum.superop_applies (one per mixed
    // column) and quantum.superop_batch_applies (one per broadcast, the IRB
    // interleave step included).
    const std::vector<Mat> ops = {sparse_op(), dense_op()};
    const auto superop_of = [&ops](std::size_t i) -> const Mat& { return ops[i]; };
    constexpr std::size_t kCols = 11;  // two gemv_mixed calls: 8 + 3 columns
    std::size_t mixed[kCols], same[kCols];
    for (std::size_t j = 0; j < kCols; ++j) {
        mixed[j] = j % 2;
        same[j] = 1;
    }
    Mat x = random_batch(ops[0].rows(), kCols, 41), x_next;

    obs::reset_for_testing();
    obs::enable_metrics("");  // memory-only counters
    apply_block_step(superop_of, mixed, kCols, x, x_next);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSuperopApplies), kCols);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSuperopBatchApplies), 0u);

    apply_block_step(superop_of, same, kCols, x, x_next);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSuperopApplies), kCols);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSuperopBatchApplies), 1u);

    apply_broadcast(ops[1], x, x_next);  // the interleave step
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSuperopApplies), kCols);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSuperopBatchApplies), 2u);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSuperopCsrApplies), 0u);
    obs::reset_for_testing();
}

}  // namespace
}  // namespace qoc::rb
