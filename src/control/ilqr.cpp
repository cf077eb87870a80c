// qoc-lint: hot-path
/// \file ilqr.cpp
/// \brief iLQR backward/forward passes over the realified propagator state.
///
/// Layout: state index `c*2d + i` holds Re U(i,c) and `c*2d + d + i` holds
/// Im U(i,c) (column blocks of size 2d).  The dynamics Jacobian is then
/// F = I_d (x) R with R = realify(P) = [[Re P, -Im P], [Im P, Re P]], and
/// R^T = realify(P^dag), so every F-product below is a d x d complex gemm in
/// disguise.  All buffers are sized once up front; the iteration loop is
/// allocation-free (the file-level hot-path lint pins that).

#include "control/ilqr.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "control/control_problem.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "optim/solver_loop.hpp"

namespace qoc::control {
namespace {

using linalg::cplx;

/// R = realify(P), row-major (2d x 2d).
void realify(const Mat& p, std::size_t d, std::vector<double>& r) {
    const std::size_t s = 2 * d;
    r.resize(s * s);
    for (std::size_t i = 0; i < d; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
            const cplx v = p(i, j);
            r[i * s + j] = v.real();
            r[i * s + d + j] = -v.imag();
            r[(d + i) * s + j] = v.imag();
            r[(d + i) * s + d + j] = v.real();
        }
    }
}

/// out = F^T v (per column block: out_b = R^T v_b).
void f_trans_vec(const double* r, const double* v, std::size_t d, double* out) {
    const std::size_t s = 2 * d;
    for (std::size_t cb = 0; cb < d; ++cb) {
        const double* vb = v + cb * s;
        double* ob = out + cb * s;
        for (std::size_t i = 0; i < s; ++i) ob[i] = 0.0;
        for (std::size_t t = 0; t < s; ++t) {
            const double vt = vb[t];
            const double* rrow = r + t * s;
            for (std::size_t i = 0; i < s; ++i) ob[i] += rrow[i] * vt;
        }
    }
}

/// tmp = A F (right-multiply every 2d column block of A by R).
void right_mul_f(const double* a, const double* r, std::size_t d, std::size_t nx, double* tmp) {
    const std::size_t s = 2 * d;
    for (std::size_t row = 0; row < nx; ++row) {
        const double* arow = a + row * nx;
        double* trow = tmp + row * nx;
        for (std::size_t cb = 0; cb < d; ++cb) {
            const double* ab = arow + cb * s;
            double* tb = trow + cb * s;
            for (std::size_t j = 0; j < s; ++j) tb[j] = 0.0;
            for (std::size_t t = 0; t < s; ++t) {
                const double at = ab[t];
                const double* rrow = r + t * s;
                for (std::size_t j = 0; j < s; ++j) tb[j] += at * rrow[j];
            }
        }
    }
}

/// out = F^T tmp (left-multiply every 2d row block of tmp by R^T).
void left_mul_ft(const double* r, const double* tmp, std::size_t d, std::size_t nx, double* out) {
    const std::size_t s = 2 * d;
    for (std::size_t rb = 0; rb < d; ++rb) {
        for (std::size_t i = 0; i < s; ++i) {
            double* orow = out + (rb * s + i) * nx;
            for (std::size_t c = 0; c < nx; ++c) orow[c] = 0.0;
            for (std::size_t t = 0; t < s; ++t) {
                const double rti = r[t * s + i];
                const double* trow = tmp + (rb * s + t) * nx;
                for (std::size_t c = 0; c < nx; ++c) orow[c] += rti * trow[c];
            }
        }
    }
}

/// Column j of B: the realified vec of dP_j * U.
void fill_b_col(const Mat& dpu, std::size_t d, std::size_t nu, std::size_t j, double* b) {
    const std::size_t s = 2 * d;
    for (std::size_t c = 0; c < d; ++c) {
        for (std::size_t i = 0; i < d; ++i) {
            const cplx v = dpu(i, c);
            b[(c * s + i) * nu + j] = v.real();
            b[(c * s + d + i) * nu + j] = v.imag();
        }
    }
}

/// In-place dense Cholesky (lower), n x n; false when not positive definite.
bool cholesky(std::vector<double>& a, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = a[i * n + j];
            for (std::size_t t = 0; t < j; ++t) sum -= a[i * n + t] * a[j * n + t];
            if (i == j) {
                if (sum <= 0.0 || !std::isfinite(sum)) return false;
                a[i * n + i] = std::sqrt(sum);
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }
    return true;
}

/// Solves L L^T x = rhs in place.
void chol_solve(const std::vector<double>& l, std::size_t n, double* rhs) {
    for (std::size_t i = 0; i < n; ++i) {
        double sum = rhs[i];
        for (std::size_t t = 0; t < i; ++t) sum -= l[i * n + t] * rhs[t];
        rhs[i] = sum / l[i * n + i];
    }
    for (std::size_t ii = n; ii-- > 0;) {
        double sum = rhs[ii];
        for (std::size_t t = ii + 1; t < n; ++t) sum -= l[t * n + ii] * rhs[t];
        rhs[ii] = sum / l[ii * n + ii];
    }
}

}  // namespace

GrapeResult ilqr_optimize(const ControlProblem& cp, const optim::SolverOptions& opts,
                          const IlqrOptions& knobs) {
    if (cp.open_system()) {
        throw std::invalid_argument(
            "ilqr_optimize: closed-system only (kPsu/kSu fidelity; open systems need the "
            "superoperator state, use L-BFGS-B or CG-descent GRAPE)");
    }
    const GrapeProblem& problem = cp.problem();
    const std::size_t n_ts = cp.n_ts();
    const std::size_t nu = cp.n_ctrl();
    const std::size_t d = problem.system.drift.rows();
    const std::size_t s = 2 * d;
    const std::size_t nx = s * d;
    const Mat& m = cp.overlap_target();
    const double dim = cp.norm_dim();
    const double dsq = dim * dim;
    const bool psu = problem.fidelity == FidelityType::kPsu;
    const double pw = problem.energy_penalty > 0.0
                          ? problem.energy_penalty / static_cast<double>(cp.n_params())
                          : 0.0;

    const int max_iterations = opts.max_iterations.value_or(200);
    const int max_evaluations = opts.max_evaluations.value_or(10000);
    const double f_tol = opts.f_tol.value_or(1e-12);
    // The amplitude box over the flattened controls (slot-major).
    const double* lo = cp.bounds().lower.data();
    const double* hi = cp.bounds().upper.data();

    // Terminal-cost linearization directions: with t = Tr(M^dag U),
    // a = Re t = a_vec . x and b = Im t = b_vec . x.
    std::vector<double> a_vec(nx), b_vec(nx);
    for (std::size_t c = 0; c < d; ++c) {
        for (std::size_t i = 0; i < d; ++i) {
            const cplx v = m(i, c);
            a_vec[c * s + i] = v.real();
            a_vec[c * s + d + i] = v.imag();
            b_vec[c * s + i] = -v.imag();
            b_vec[c * s + d + i] = v.real();
        }
    }

    GrapeResult result;
    result.initial_amps = problem.initial_amps;

    // Nominal and candidate trajectories (states, propagators, Frechet
    // derivatives, controls); candidates swap in wholesale on acceptance so
    // every accepted rollout doubles as the next linearization.
    const Mat eye = Mat::identity(d);
    std::vector<Mat> xs(n_ts + 1), props(n_ts), dprops(n_ts * nu);
    std::vector<Mat> xs_c(n_ts + 1), props_c(n_ts), dprops_c(n_ts * nu);
    std::vector<double> u = cp.flatten(problem.initial_amps);
    std::vector<double> u_c(n_ts * nu);
    cp.bounds().clip(u);

    // Terminal cost: the fidelity error as a function of the final state.
    auto terminal = [&](const Mat& uf) -> double {
        cplx t{0.0, 0.0};
        for (std::size_t i = 0; i < d; ++i) {
            for (std::size_t c = 0; c < d; ++c) t += std::conj(m(i, c)) * uf(i, c);
        }
        return psu ? 1.0 - (t.real() * t.real() + t.imag() * t.imag()) / dsq
                   : 1.0 - t.real() / dim;
    };

    // Initial rollout: states, propagators AND derivatives (the backward
    // pass's first linearization).
    xs[0] = eye;
    double j_cur = 0.0;
    for (std::size_t k = 0; k < n_ts; ++k) {
        const double* uk = u.data() + k * nu;
        cp.slot_propagator_and_derivs(uk, props[k], dprops.data() + k * nu);
        linalg::gemm_into(props[k], xs[k], xs[k + 1]);
        for (std::size_t j = 0; j < nu; ++j) j_cur += pw * uk[j] * uk[j];
    }
    // Like the registry solvers (which clip x0), the reported initial error
    // is the BOX-PROJECTED seed's -- the point optimization actually starts
    // from -- not the raw seed's.
    result.initial_fid_err = terminal(xs[n_ts]);
    j_cur += result.initial_fid_err;
    int evals = 1;

    // Iteration records land in pre-sized arrays (hot-path file: no growth).
    const std::size_t max_rec = static_cast<std::size_t>(std::max(max_iterations, 0));
    result.iteration_records.resize(max_rec);
    std::size_t n_rec = 0;
    const optim::IterationCallback record_cb = [&](const optim::IterationRecord& rec) {
        result.iteration_records[n_rec] = rec;
        ++n_rec;
        if (opts.iter_callback) opts.iter_callback(rec);
    };
    const optim::SolverLoop loop(opts.telemetry_label ? opts.telemetry_label : "ilqr",
                                 record_cb);

    // Backward-pass workspace, sized once.
    std::vector<double> rbuf(s * s), v_x(nx), q_x(nx), dx(nx);
    std::vector<double> v_xx(nx * nx), tmp(nx * nx), q_xx(nx * nx);
    std::vector<double> bmat(nx * nu), w(nx * nu), q_ux(nu * nx), kq(nu * nx);
    std::vector<double> quu(nu * nu), quu_l(nu * nu), q_u(nu), qk(nu);
    std::vector<double> kff(n_ts * nu), kgain(n_ts * nu * nx);
    std::vector<unsigned char> clamped(nu);
    Mat dpu;

    // One backward sweep with Levenberg parameter mu; fills kff/kgain and
    // the worst |Q_u| seen (the stationarity proxy reported per iteration).
    // Returns false when some regularized Q_uu is not positive definite.
    auto backward = [&](double mu, double& qu_norm) -> bool {
        cplx t{0.0, 0.0};
        const Mat& uf = xs[n_ts];
        for (std::size_t i = 0; i < d; ++i) {
            for (std::size_t c = 0; c < d; ++c) t += std::conj(m(i, c)) * uf(i, c);
        }
        if (psu) {
            const double sa = -(2.0 / dsq) * t.real();
            const double sb = -(2.0 / dsq) * t.imag();
            for (std::size_t i = 0; i < nx; ++i) v_x[i] = sa * a_vec[i] + sb * b_vec[i];
            for (std::size_t i = 0; i < nx; ++i) {
                for (std::size_t j = 0; j < nx; ++j) {
                    v_xx[i * nx + j] =
                        -(2.0 / dsq) * (a_vec[i] * a_vec[j] + b_vec[i] * b_vec[j]);
                }
            }
        } else {
            for (std::size_t i = 0; i < nx; ++i) v_x[i] = -a_vec[i] / dim;
            for (std::size_t i = 0; i < nx * nx; ++i) v_xx[i] = 0.0;
        }
        qu_norm = 0.0;

        for (std::size_t k = n_ts; k-- > 0;) {
            realify(props[k], d, rbuf);
            f_trans_vec(rbuf.data(), v_x.data(), d, q_x.data());
            right_mul_f(v_xx.data(), rbuf.data(), d, nx, tmp.data());
            left_mul_ft(rbuf.data(), tmp.data(), d, nx, q_xx.data());

            for (std::size_t j = 0; j < nu; ++j) {
                linalg::gemm_into(dprops[k * nu + j], xs[k], dpu);
                fill_b_col(dpu, d, nu, j, bmat.data());
            }

            const double* uk = u.data() + k * nu;
            for (std::size_t j = 0; j < nu; ++j) {
                double qu = 2.0 * pw * uk[j];
                for (std::size_t x = 0; x < nx; ++x) qu += bmat[x * nu + j] * v_x[x];
                q_u[j] = qu;
                qu_norm = std::max(qu_norm, std::abs(qu));
            }
            // Q_ux = B^T (V_xx F) and Q_uu = B^T V_xx B (via w = V_xx B).
            for (std::size_t j = 0; j < nu; ++j) {
                double* row = q_ux.data() + j * nx;
                for (std::size_t c = 0; c < nx; ++c) row[c] = 0.0;
                for (std::size_t x = 0; x < nx; ++x) {
                    const double bj = bmat[x * nu + j];
                    if (bj == 0.0) continue;
                    const double* trow = tmp.data() + x * nx;
                    for (std::size_t c = 0; c < nx; ++c) row[c] += bj * trow[c];
                }
            }
            for (std::size_t x = 0; x < nx; ++x) {
                const double* vrow = v_xx.data() + x * nx;
                for (std::size_t j = 0; j < nu; ++j) {
                    double acc = 0.0;
                    for (std::size_t y = 0; y < nx; ++y) acc += vrow[y] * bmat[y * nu + j];
                    w[x * nu + j] = acc;
                }
            }
            for (std::size_t i = 0; i < nu; ++i) {
                for (std::size_t j = 0; j < nu; ++j) {
                    double acc = (i == j) ? 2.0 * pw : 0.0;
                    for (std::size_t x = 0; x < nx; ++x) {
                        acc += bmat[x * nu + i] * w[x * nu + j];
                    }
                    quu[i * nu + j] = acc;
                }
            }

            for (std::size_t i = 0; i < nu * nu; ++i) quu_l[i] = quu[i];
            for (std::size_t i = 0; i < nu; ++i) quu_l[i * nu + i] += mu;
            if (!cholesky(quu_l, nu)) return false;

            double* kffk = kff.data() + k * nu;
            for (std::size_t j = 0; j < nu; ++j) kffk[j] = q_u[j];
            chol_solve(quu_l, nu, kffk);
            for (std::size_t j = 0; j < nu; ++j) kffk[j] = -kffk[j];
            double* kg = kgain.data() + k * nu * nx;
            for (std::size_t c = 0; c < nx; ++c) {
                for (std::size_t j = 0; j < nu; ++j) qk[j] = q_ux[j * nx + c];
                chol_solve(quu_l, nu, qk.data());
                for (std::size_t j = 0; j < nu; ++j) kg[j * nx + c] = -qk[j];
            }

            // Projected (box) handling: clamp the feedforward to the box and
            // silence the feedback of clamped controls.
            for (std::size_t j = 0; j < nu; ++j) {
                const double trial = uk[j] + kffk[j];
                clamped[j] = 0;
                if (trial < lo[k * nu + j]) {
                    kffk[j] = lo[k * nu + j] - uk[j];
                    clamped[j] = 1;
                } else if (trial > hi[k * nu + j]) {
                    kffk[j] = hi[k * nu + j] - uk[j];
                    clamped[j] = 1;
                }
                if (clamped[j]) {
                    for (std::size_t c = 0; c < nx; ++c) kg[j * nx + c] = 0.0;
                }
            }

            // Value updates (regularized Q_uu, symmetrized V_xx).
            for (std::size_t j = 0; j < nu; ++j) {
                double acc = q_u[j];
                for (std::size_t i = 0; i < nu; ++i) {
                    const double qr = quu[j * nu + i] + ((i == j) ? mu : 0.0);
                    acc += qr * kffk[i];
                }
                qk[j] = acc;  // Q_uu_reg k + Q_u
            }
            for (std::size_t c = 0; c < nx; ++c) {
                double acc = q_x[c];
                for (std::size_t j = 0; j < nu; ++j) {
                    acc += kg[j * nx + c] * qk[j] + q_ux[j * nx + c] * kffk[j];
                }
                v_x[c] = acc;
            }
            for (std::size_t j = 0; j < nu; ++j) {
                double* row = kq.data() + j * nx;
                for (std::size_t c = 0; c < nx; ++c) {
                    double acc = 0.0;
                    for (std::size_t i = 0; i < nu; ++i) {
                        const double qr = quu[j * nu + i] + ((i == j) ? mu : 0.0);
                        acc += qr * kg[i * nx + c];
                    }
                    row[c] = acc;  // Q_uu_reg K
                }
            }
            for (std::size_t c1 = 0; c1 < nx; ++c1) {
                for (std::size_t c2 = 0; c2 < nx; ++c2) {
                    double acc = q_xx[c1 * nx + c2];
                    for (std::size_t j = 0; j < nu; ++j) {
                        acc += kg[j * nx + c1] * kq[j * nx + c2] +
                               kg[j * nx + c1] * q_ux[j * nx + c2] +
                               q_ux[j * nx + c1] * kg[j * nx + c2];
                    }
                    tmp[c1 * nx + c2] = acc;
                }
            }
            for (std::size_t c1 = 0; c1 < nx; ++c1) {
                for (std::size_t c2 = 0; c2 < nx; ++c2) {
                    v_xx[c1 * nx + c2] = 0.5 * (tmp[c1 * nx + c2] + tmp[c2 * nx + c1]);
                }
            }
        }
        return true;
    };

    // One forward rollout at step scale alpha: u_c = clamp(u + alpha k_ff +
    // K (x_c - x)); refreshes the candidate propagators AND derivatives so
    // acceptance hands the next backward pass its linearization for free.
    auto forward = [&](double alpha) -> double {
        xs_c[0] = eye;
        double run = 0.0;
        for (std::size_t k = 0; k < n_ts; ++k) {
            for (std::size_t c = 0; c < d; ++c) {
                for (std::size_t i = 0; i < d; ++i) {
                    const cplx dv = xs_c[k](i, c) - xs[k](i, c);
                    dx[c * s + i] = dv.real();
                    dx[c * s + d + i] = dv.imag();
                }
            }
            const double* uk = u.data() + k * nu;
            double* uc = u_c.data() + k * nu;
            const double* kg = kgain.data() + k * nu * nx;
            for (std::size_t j = 0; j < nu; ++j) {
                double du = alpha * kff[k * nu + j];
                const double* krow = kg + j * nx;
                for (std::size_t x = 0; x < nx; ++x) du += krow[x] * dx[x];
                uc[j] = std::clamp(uk[j] + du, lo[k * nu + j], hi[k * nu + j]);
                run += pw * uc[j] * uc[j];
            }
            cp.slot_propagator_and_derivs(uc, props_c[k], dprops_c.data() + k * nu);
            linalg::gemm_into(props_c[k], xs_c[k], xs_c[k + 1]);
        }
        return run + terminal(xs_c[n_ts]);
    };

    double mu = knobs.mu_init;
    optim::StopReason reason = optim::StopReason::kMaxIterations;
    bool gave_up = false;
    while (!gave_up && result.iterations < max_iterations) {
        double qu_norm = 0.0;
        while (!backward(mu, qu_norm)) {
            mu *= knobs.mu_factor;
            obs::count(obs::Cnt::kSolverIlqrRegBumps);
            if (mu > knobs.mu_max) {
                reason = optim::StopReason::kLineSearchFailed;
                gave_up = true;
                break;
            }
        }
        if (gave_up) break;

        double alpha = 1.0;
        double j_trial = j_cur;
        bool accepted = false;
        int passes = 0;
        for (int a = 0; a < knobs.n_alpha; ++a) {
            j_trial = forward(alpha);
            ++evals;
            ++passes;
            if (std::isfinite(j_trial) && j_trial < j_cur) {
                accepted = true;
                break;
            }
            if (evals >= max_evaluations) break;
            alpha *= 0.5;
        }
        obs::hist_record(obs::Hist::kIlqrForwardPasses, static_cast<std::uint64_t>(passes));

        if (!accepted) {
            if (evals >= max_evaluations) {
                reason = optim::StopReason::kMaxEvaluations;
                break;
            }
            mu *= knobs.mu_factor;
            obs::count(obs::Cnt::kSolverIlqrRegBumps);
            if (mu > knobs.mu_max) {
                reason = optim::StopReason::kLineSearchFailed;
                break;
            }
            continue;
        }

        const double decrease = j_cur - j_trial;
        j_cur = j_trial;
        u.swap(u_c);
        xs.swap(xs_c);
        props.swap(props_c);
        dprops.swap(dprops_c);
        ++result.iterations;
        loop.emit(result.iterations, j_cur, qu_norm, alpha, evals);
        mu = std::max(mu / knobs.mu_factor, knobs.mu_min);

        if (const auto stop = loop.budget_stop(opts.target_f, j_cur, evals, max_evaluations)) {
            reason = *stop;
            break;
        }
        if (decrease <= f_tol * (1.0 + std::abs(j_cur))) {
            reason = optim::StopReason::kFtolReached;
            break;
        }
    }

    result.evaluations = evals;
    result.reason = reason;
    result.iteration_records.resize(n_rec);
    result.final_amps = cp.unflatten(u);
    result.final_evolution = xs[n_ts];
    result.final_fid_err = cp.fid_err_of(result.final_evolution);
    return result;
}

GrapeResult ilqr_unitary(const GrapeProblem& problem, const optim::SolverOptions& opts,
                         const IlqrOptions& knobs) {
    return ilqr_optimize(ControlProblem(problem, /*open_system=*/false), opts, knobs);
}

}  // namespace qoc::control
