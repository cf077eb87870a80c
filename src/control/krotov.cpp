#include "control/krotov.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "control/control_problem.hpp"
#include "linalg/expm.hpp"
#include "optim/solver_loop.hpp"

namespace qoc::control {

namespace {
using linalg::cplx;
using linalg::Mat;
constexpr cplx kI{0.0, 1.0};
}  // namespace

GrapeResult krotov_unitary(const ControlProblem& cp, const optim::SolverOptions& opts,
                           const KrotovOptions& knobs) {
    const GrapeProblem& problem = cp.problem();
    if (cp.open_system()) throw std::invalid_argument("krotov_unitary: closed-system only");
    if (problem.state_transfer) {
        throw std::invalid_argument("krotov_unitary: use the gate functional");
    }
    if (knobs.lambda <= 0.0) throw std::invalid_argument("krotov_unitary: lambda must be > 0");
    const int max_iterations = opts.max_iterations.value_or(200);
    const int max_evaluations = opts.max_evaluations.value_or(std::numeric_limits<int>::max());
    const double target_f = opts.target_f.value_or(1e-10);
    const optim::Bounds& box = cp.bounds();
    const std::size_t n_ts = cp.n_ts();
    const std::size_t n_ctrl = cp.n_ctrl();
    const double dt = cp.dt();
    const std::size_t dim = problem.system.drift.rows();

    // Overlap matrix and normalization come from the shared evaluator (same
    // conventions as GRAPE: plain target or isometry-sandwiched target).
    const Mat& overlap = cp.overlap_target();
    const double norm_dim = cp.norm_dim();

    // One workspace threads through every exponential below: Krotov's
    // sequential sweeps exponentiate n_ts same-size generators per
    // iteration, and the shared scratch makes each one allocation-free
    // (kAuto dispatches Hermitian-generator problems to the exact spectral
    // path -- deliberately NOT the evaluator's Pade pin, which exists for
    // GRAPE's gradient-feedback loop only).
    linalg::ExpmWorkspace ws;
    Mat gen, prop_buf, tmp;
    auto slot_propagator_into = [&](const std::vector<double>& amps, Mat& out) {
        if (amps.size() != n_ctrl) {
            throw std::invalid_argument("krotov_unitary: amplitude count mismatch");
        }
        gen = problem.system.drift;
        for (std::size_t j = 0; j < n_ctrl; ++j) {
            linalg::add_scaled(gen, amps[j], problem.system.ctrls[j]);
        }
        gen *= -kI * dt;
        linalg::expm_into(gen, out, ws);
    };
    auto evolution = [&](const dynamics::ControlAmplitudes& amps) {
        Mat u = Mat::identity(dim);
        for (std::size_t k = 0; k < n_ts; ++k) {
            slot_propagator_into(amps[k], prop_buf);
            linalg::gemm_into(prop_buf, u, tmp);
            std::swap(u, tmp);
        }
        return u;
    };

    GrapeResult result;
    result.initial_amps = problem.initial_amps;
    dynamics::ControlAmplitudes amps = problem.initial_amps;
    result.initial_fid_err = cp.fid_err_of(evolution(amps));
    double err = result.initial_fid_err;

    const optim::SolverOptions recorded = record_iterations(result, opts);
    const optim::SolverLoop loop(opts.telemetry_label ? opts.telemetry_label : "krotov",
                                 recorded.iter_callback);
    for (int iter = 0; iter < max_iterations; ++iter) {
        // Forward propagators with the current (old) controls.
        std::vector<Mat> props(n_ts);
        for (std::size_t k = 0; k < n_ts; ++k) slot_propagator_into(amps[k], props[k]);
        Mat u_final = Mat::identity(dim);
        for (std::size_t k = 0; k < n_ts; ++k) {
            linalg::gemm_into(props[k], u_final, tmp);
            std::swap(u_final, tmp);
        }

        // Co-state boundary condition at T.
        const cplx tau = linalg::hs_inner(overlap, u_final);
        const cplx weight = (problem.fidelity == FidelityType::kSu)
                                ? cplx{1.0 / (2.0 * norm_dim), 0.0}
                                : tau / (norm_dim * norm_dim);
        // chi(t) stored at slot starts: chi[k] = chi(t_k), k = 0..n_ts.
        std::vector<Mat> chi(n_ts + 1);
        chi[n_ts] = weight * overlap;
        for (std::size_t k = n_ts; k-- > 0;) {
            linalg::adjoint_times_into(props[k], chi[k + 1], chi[k]);
        }

        // Sequential forward sweep with updated controls.
        dynamics::ControlAmplitudes new_amps = amps;
        Mat u = Mat::identity(dim);
        for (std::size_t k = 0; k < n_ts; ++k) {
            for (std::size_t j = 0; j < n_ctrl; ++j) {
                // Im Tr(chi^dag H_j U) at the slot start, with U the evolution
                // under the already-updated earlier slots.
                linalg::gemm_into(problem.system.ctrls[j], u, tmp);
                const cplx val = linalg::hs_inner(chi[k], tmp);
                const double update = val.imag() / knobs.lambda;
                const std::size_t i = k * n_ctrl + j;
                new_amps[k][j] = std::clamp(amps[k][j] + update, box.lower[i], box.upper[i]);
            }
            slot_propagator_into(new_amps[k], prop_buf);
            linalg::gemm_into(prop_buf, u, tmp);
            std::swap(u, tmp);
        }

        const double new_err = cp.fid_err_of(u);
        const double delta = err - new_err;
        amps = std::move(new_amps);
        err = new_err;
        ++result.iterations;
        ++result.evaluations;
        // Krotov is monotone and derivative-free at this level: report the
        // error decrease as the step and no gradient norm.
        loop.emit(iter, err, 0.0, delta, result.evaluations);
        if (const auto stop = loop.budget_stop(target_f, err, result.evaluations,
                                               max_evaluations)) {
            result.reason = *stop;
            break;
        }
        if (delta >= 0.0 && delta < knobs.delta_tol) {
            result.reason = optim::StopReason::kFtolReached;
            break;
        }
    }

    result.final_amps = amps;
    result.final_evolution = evolution(amps);
    result.final_fid_err = cp.fid_err_of(result.final_evolution);
    return result;
}

GrapeResult krotov_unitary(const GrapeProblem& problem, const optim::SolverOptions& opts,
                           const KrotovOptions& knobs) {
    return krotov_unitary(ControlProblem(problem, /*open_system=*/false), opts, knobs);
}

}  // namespace qoc::control
