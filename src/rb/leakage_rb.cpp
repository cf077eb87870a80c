#include "rb/leakage_rb.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

#include "linalg/kron.hpp"
#include "obs/obs.hpp"
#include "optim/levmar.hpp"
#include "quantum/states.hpp"
#include "quantum/superop.hpp"
#include "rb/seed_block.hpp"
#include "runtime/ordered.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/workspace_pool.hpp"

namespace qoc::rb {

namespace {

/// Batched SoA seed engine: rb.cpp's rb_curve_1q block loop (seed_block.hpp)
/// with its own per-seed RNG stream and a leakage readout.
LeakageRbResult leakage_curve_batched(const PulseExecutor& exec, const GateSet1Q& gates,
                                      const RbOptions& opts) {
    const Clifford1Q& group = gates.group();
    const std::size_t d = gates.dim();
    const Mat vec_rho0 = linalg::vec(exec.ground_state_1q());
    const auto superop_of = [&gates](std::size_t i) -> const Mat& {
        return gates.clifford_superop(i);
    };

    struct Workspace {
        Mat x, x_next;
        std::vector<std::size_t> seq, rec;
    };
    runtime::WorkspacePool<Workspace> workspaces;
    const std::size_t bw_max = detail::seed_block_width(opts.seeds_per_length);
    const std::size_t n_blocks = (opts.seeds_per_length + bw_max - 1) / bw_max;

    LeakageRbResult res;
    for (std::size_t li = 0; li < opts.lengths.size(); ++li) {
        const std::size_t m = opts.lengths[li];
        std::vector<double> leaks(opts.seeds_per_length);
        runtime::TaskPool::global().parallel_for(0, n_blocks, [&](std::size_t blk) {
            obs::Span span("rb.leakage_block");
            const std::size_t s0 = blk * bw_max;
            const std::size_t bw = std::min(bw_max, opts.seeds_per_length - s0);
            auto lease = workspaces.acquire();
            Workspace& w = *lease;

            w.seq.resize(m * bw);
            w.rec.resize(bw);
            std::uniform_int_distribution<std::size_t> dist(0, Clifford1Q::kSize - 1);
            for (std::size_t j = 0; j < bw; ++j) {
                std::mt19937_64 rng(opts.rng_seed + 104729 * (li * 1000 + (s0 + j)));
                std::size_t net = group.identity_index();
                for (std::size_t k = 0; k < m; ++k) {
                    const std::size_t c = dist(rng);
                    w.seq[k * bw + j] = c;
                    net = group.multiply(c, net);
                }
                w.rec[j] = group.inverse(net);
            }

            detail::fill_block(vec_rho0, bw, w.x);
            for (std::size_t k = 0; k < m; ++k) {
                detail::apply_block_step(superop_of, &w.seq[k * bw], bw, w.x, w.x_next);
            }
            detail::apply_block_step(superop_of, w.rec.data(), bw, w.x, w.x_next);

            for (std::size_t j = 0; j < bw; ++j) {
                double leak = 0.0;
                for (std::size_t lvl = 2; lvl < d; ++lvl) {
                    leak += w.x(lvl * (d + 1), j).real();
                }
                leaks[s0 + j] = leak;
                obs::emit_rb_seed("leakage_rb", m, static_cast<std::int64_t>(s0 + j),
                                  1.0 - leak);
            }
        });
        res.lengths.push_back(m);
        res.leakage_population.push_back(runtime::ordered_mean(leaks));
    }
    return res;
}

}  // namespace

LeakageRbResult run_leakage_rb_1q(const PulseExecutor& exec, const GateSet1Q& gates,
                                  const RbOptions& opts) {
    LeakageRbResult res = leakage_curve_batched(exec, gates, opts);

    // Fit p_comp(m) = A lambda^m + (1 - p_inf) where p_comp = 1 - leakage.
    std::vector<double> p_comp(res.lengths.size());
    for (std::size_t i = 0; i < p_comp.size(); ++i) {
        p_comp[i] = 1.0 - res.leakage_population[i];
    }
    auto model = [&](std::size_t i, const std::vector<double>& p) {
        return p[0] * std::pow(p[1], static_cast<double>(res.lengths[i])) + p[2];
    };
    const auto fit =
        optim::levmar_fit(model, p_comp.size(), p_comp, {0.01, 0.999, 0.99});
    res.lambda = fit.params[1];
    res.p_leak_inf = 1.0 - fit.params[2];
    res.leakage_rate_per_clifford = (1.0 - res.lambda) * res.p_leak_inf;
    return res;
}

}  // namespace qoc::rb
