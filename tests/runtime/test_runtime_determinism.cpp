/// The runtime's cross-cutting contracts (single-evaluation 1-vs-N engine
/// suites live with GRAPE/RB):
///
///  1. Determinism: a parallel_for fan-out writing per-index slots plus an
///     ordered reduction is bitwise identical for any pool size, any number
///     of repeats, and any submission interleaving.
///  2. Observability: the submitter's `qoc::obs` span id rides along with
///     every task, so trace parent links survive task boundaries (including
///     nested submits and parallel_for bodies).
///  3. Full runs of every gradient solver (many chained pooled evaluations
///     and line searches) and of every `pulse_optim` method stay bitwise
///     identical at pool size 1 vs N -- the end-to-end version of
///     contract 1.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "control/control_problem.hpp"
#include "control/grape.hpp"
#include "control/pulseoptim.hpp"
#include "obs/obs.hpp"
#include "quantum/gates.hpp"
#include "quantum/operators.hpp"
#include "runtime/ordered.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::runtime {
namespace {

/// A deliberately reassociation-sensitive per-index payload: accumulating
/// these in any order other than index order changes the double result.
double payload(std::size_t i) {
    double x = 1.0 + static_cast<double>(i % 7) * 1e-13;
    for (int k = 0; k < 50; ++k) x = std::sqrt(x * x + 1e-3) - 1e-3 / (2.0 * x);
    return x * std::pow(10.0, static_cast<double>(i % 5) - 2.0);
}

double fan_out_sum(TaskPool& pool, std::size_t n) {
    std::vector<double> slots(n, 0.0);
    pool.parallel_for(0, n, [&slots](std::size_t i) { slots[i] = payload(i); });
    return ordered_sum(slots);
}

TEST(RuntimeDeterminism, ParallelForOrderedSumBitIdenticalAcrossPoolSizes) {
    TaskPool serial(1);
    const double ref = fan_out_sum(serial, 333);
    for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
        TaskPool pool(n);
        for (int rep = 0; rep < 3; ++rep) {
            const double got = fan_out_sum(pool, 333);
            EXPECT_EQ(ref, got) << "pool size " << n << " rep " << rep;
        }
    }
}

TEST(RuntimeDeterminism, SubmitFanOutBitIdenticalAcrossPoolSizes) {
    auto run = [](TaskPool& pool) {
        std::vector<Future<double>> futs;
        futs.reserve(64);
        for (std::size_t i = 0; i < 64; ++i) {
            futs.push_back(pool.submit([i] { return payload(i); }));
        }
        std::vector<double> slots;
        slots.reserve(64);
        for (auto& f : futs) slots.push_back(f.get());
        return ordered_sum(slots);
    };
    TaskPool serial(1);
    const double ref = run(serial);
    for (std::size_t n : {std::size_t{2}, std::size_t{8}}) {
        TaskPool pool(n);
        EXPECT_EQ(ref, run(pool)) << "pool size " << n;
    }
}

/// Small closed-system gate design whose evaluator fans slots out over the
/// task pool (one propagator per slot), so a full solve exercises hundreds
/// of pooled parallel_for rounds.
control::GrapeProblem solver_problem() {
    control::GrapeProblem p;
    p.system.drift = linalg::Mat(2, 2);
    p.system.ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
    p.target = quantum::gates::x();
    p.n_timeslots = 12;
    p.evo_time = 4.0;
    p.fidelity = control::FidelityType::kPsu;
    p.initial_amps.resize(12);
    for (std::size_t k = 0; k < 12; ++k) {
        const double t = static_cast<double>(k) / 12.0;
        p.initial_amps[k] = {0.4 * t, 0.2 * (1.0 - t)};
    }
    return p;
}

std::vector<double> flat_amps(const control::GrapeResult& r) {
    std::vector<double> out;
    for (const auto& slot : r.final_amps) out.insert(out.end(), slot.begin(), slot.end());
    out.push_back(r.final_fid_err);
    out.push_back(static_cast<double>(r.iterations));
    out.push_back(static_cast<double>(r.evaluations));
    return out;
}

/// Runs `run_all` (one output vector per solver) at pool size 1, then 2 and
/// 4, and requires every output to match the serial run bit for bit.
template <class RunAll>
void expect_bitwise_across_pool_sizes(const RunAll& run_all) {
    ScopedPoolSize serial(1);
    const auto ref = run_all();
    for (std::size_t n : {std::size_t{2}, std::size_t{4}}) {
        ScopedPoolSize scoped(n);
        const auto got = run_all();
        ASSERT_EQ(ref.size(), got.size());
        for (std::size_t s = 0; s < ref.size(); ++s) {
            ASSERT_EQ(ref[s].size(), got[s].size()) << "solver " << s << " pool " << n;
            for (std::size_t i = 0; i < ref[s].size(); ++i) {
                EXPECT_EQ(ref[s][i], got[s][i]) << "solver " << s << " pool " << n << " i=" << i;
            }
        }
    }
}

TEST(RuntimeDeterminism, SolverBitwiseAcrossPoolSizes) {
    // Every gradient solver, end to end: the final iterate, objective and
    // budget bookkeeping must not depend on the pool size by a single ULP.
    const control::GrapeProblem p = solver_problem();
    const control::ControlProblem cp(p, /*open_system=*/false);

    expect_bitwise_across_pool_sizes([&cp] {
        std::vector<std::vector<double>> outs;
        for (const optim::Minimizer solver :
             {optim::lbfgsb_minimize, optim::gradient_descent_minimize}) {
            optim::SolverOptions opts;
            opts.max_iterations = 10;
            outs.push_back(flat_amps(control::grape_solve(cp, solver, opts)));
        }
        return outs;
    });
}

TEST(RuntimeDeterminism, PulseOptimEveryMethodBitwiseAcrossPoolSizes) {
    // Every OptimMethod through the pulse_optim front end, including CRAB's
    // direct search and GOAT's chained Fourier gradient, which both fan out
    // over the pool through the shared evaluator.
    using M = control::OptimMethod;
    expect_bitwise_across_pool_sizes([] {
        std::vector<std::vector<double>> outs;
        for (const M method : {M::kLbfgsB, M::kGradientDescent, M::kCrab, M::kKrotov, M::kGoat}) {
            control::PulseOptimSpec spec;
            spec.h_drift = linalg::Mat(2, 2);
            spec.h_ctrls = {0.5 * quantum::sigma_x(), 0.5 * quantum::sigma_y()};
            spec.u_target = quantum::gates::x();
            spec.n_timeslots = 12;
            spec.evo_time = 4.0;
            spec.method = method;
            spec.max_iterations = 8;
            spec.max_evaluations = 200;
            outs.push_back(flat_amps(control::pulse_optim(spec)));
        }
        return outs;
    });
}

TEST(RuntimeDeterminism, SpanParentPropagatesAcrossTaskBoundaries) {
    obs::reset_for_testing();
    obs::enable_tracing("");
    std::uint64_t root_id = 0;
    {
        TaskPool pool(4);
        obs::Span root("root");
        root_id = obs::current_span();
        ASSERT_NE(root_id, 0u);
        TaskGroup group(pool);
        for (int t = 0; t < 8; ++t) {
            group.run([] { obs::Span child("child"); });
        }
        group.wait();
    }
    const auto events = obs::snapshot_trace_events();
    std::size_t children = 0;
    for (const auto& e : events) {
        if (std::string_view(e.name) == "child") {
            ++children;
            EXPECT_EQ(e.parent, root_id)
                << "task-executed span must parent to the submitter's span";
        }
    }
    EXPECT_EQ(children, 8u);
    obs::reset_for_testing();
}

TEST(RuntimeDeterminism, SpanParentPropagatesThroughNestedSubmits) {
    obs::reset_for_testing();
    obs::enable_tracing("");
    {
        TaskPool pool(2);
        obs::Span root("root");
        auto outer = pool.submit([&pool] {
            obs::Span mid("mid");
            auto inner = pool.submit([] { obs::Span leaf("leaf"); });
            inner.get();
        });
        outer.get();
    }
    const auto events = obs::snapshot_trace_events();
    std::uint64_t root_id = 0, mid_id = 0;
    for (const auto& e : events) {
        if (std::string_view(e.name) == "root") root_id = e.id;
        if (std::string_view(e.name) == "mid") mid_id = e.id;
    }
    ASSERT_NE(root_id, 0u);
    ASSERT_NE(mid_id, 0u);
    for (const auto& e : events) {
        if (std::string_view(e.name) == "mid") {
            EXPECT_EQ(e.parent, root_id);
        }
        if (std::string_view(e.name) == "leaf") {
            EXPECT_EQ(e.parent, mid_id);
        }
    }
    obs::reset_for_testing();
}

}  // namespace
}  // namespace qoc::runtime
