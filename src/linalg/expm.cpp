#include "linalg/expm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "linalg/lu.hpp"
#include "obs/obs.hpp"

namespace qoc::linalg {

namespace {

constexpr std::array<double, 4> kPade3 = {120.0, 60.0, 12.0, 1.0};
constexpr std::array<double, 6> kPade5 = {30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0};
constexpr std::array<double, 8> kPade7 = {17297280.0, 8648640.0, 1995840.0, 277200.0,
                                          25200.0,    1512.0,    56.0,      1.0};
constexpr std::array<double, 10> kPade9 = {17643225600.0, 8821612800.0, 2075673600.0,
                                           302702400.0,   30270240.0,   2162160.0,
                                           110880.0,      3960.0,       90.0,
                                           1.0};
constexpr std::array<double, 14> kPade13 = {64764752532480000.0,
                                            32382376266240000.0,
                                            7771770303897600.0,
                                            1187353796428800.0,
                                            129060195264000.0,
                                            10559470521600.0,
                                            670442572800.0,
                                            33522128640.0,
                                            1323241920.0,
                                            40840800.0,
                                            960960.0,
                                            16380.0,
                                            182.0,
                                            1.0};

// theta_m thresholds from Higham (2005), Table 2.3.
constexpr double kTheta3 = 1.495585217958292e-2;
constexpr double kTheta5 = 2.539398330063230e-1;
constexpr double kTheta7 = 9.504178996162932e-1;
constexpr double kTheta9 = 2.097847961257068e0;
constexpr double kTheta13 = 5.371920351148152e0;

/// Evaluates the order-m Pade approximant r_m(A) = q_m(A)^{-1} p_m(A) given
/// the coefficient table; even/odd splitting per Higham.
Mat pade_eval(const Mat& a, const double* b, int m) {
    const std::size_t n = a.rows();
    const Mat ident = Mat::identity(n);
    const Mat a2 = a * a;

    // U = A * (sum over odd coefficients), V = sum over even coefficients.
    Mat u_poly(n, n), v_poly(n, n);
    if (m == 13) {
        const Mat a4 = a2 * a2;
        const Mat a6 = a4 * a2;
        const Mat u_hi = a6 * (b[13] * a6 + b[11] * a4 + b[9] * a2);
        const Mat u_lo = b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident;
        u_poly = a * (u_hi + u_lo);
        const Mat v_hi = a6 * (b[12] * a6 + b[10] * a4 + b[8] * a2);
        v_poly = v_hi + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident;
    } else {
        // Orders 3, 5, 7, 9: direct Horner over powers of A^2.
        Mat a_pow = ident;
        Mat usum = b[1] * ident;
        Mat vsum = b[0] * ident;
        for (int k = 1; 2 * k <= m; ++k) {
            a_pow = a_pow * a2;
            usum += b[2 * k + 1] * a_pow;
            vsum += b[2 * k] * a_pow;
        }
        u_poly = a * usum;
        v_poly = vsum;
    }
    // r_m(A) = (V - U)^{-1} (V + U)
    return solve(v_poly - u_poly, v_poly + u_poly);
}

const double* pade_table(int m) {
    switch (m) {
        case 3: return kPade3.data();
        case 5: return kPade5.data();
        case 7: return kPade7.data();
        case 9: return kPade9.data();
        default: return kPade13.data();
    }
}

/// The Pade orders below 13 and the largest 1-norm each covers.
struct PadeBand {
    double theta;
    int order;
    obs::Cnt counter;
};
constexpr std::array<PadeBand, 4> kPadeBands = {{{kTheta3, 3, obs::Cnt::kExpmPade3},
                                                 {kTheta5, 5, obs::Cnt::kExpmPade5},
                                                 {kTheta7, 7, obs::Cnt::kExpmPade7},
                                                 {kTheta9, 9, obs::Cnt::kExpmPade9}}};

/// Picks and counts the Pade order for `nrm = ||A||_1` and, for order 13,
/// the number of scaling steps `s` such that ||A / 2^s||_1 <= theta_13.
/// Rejects a non-finite norm (a NaN or Inf entry; `norm_1` passes NaN
/// through): the scaling loop could never bring it below theta_13.
int choose_pade_order(double nrm, int& s, const char* who) {
    if (!std::isfinite(nrm)) {
        throw std::domain_error(std::string(who) + ": non-finite norm (non-finite entry)");
    }
    s = 0;
    for (const PadeBand& band : kPadeBands) {
        if (nrm <= band.theta) {
            obs::count(band.counter);
            return band.order;
        }
    }
    for (double scaled = nrm; scaled > kTheta13; scaled *= 0.5) ++s;
    obs::count(obs::Cnt::kExpmPade13);
    return 13;
}

/// `m += c * I`.
void add_diag(Mat& m, double c) {
    for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += cplx{c, 0.0};
}
void add_diag(RMat& m, double c) {
    for (std::size_t i = 0; i < m.rows(); ++i) m(i, i) += c;
}

/// `out = c * x`, reusing out's storage.
template <class M>
void set_scaled(M& out, const M& x, double c) {
    out = x;
    out *= c;
}

}  // namespace

template <class M>
void pade_prepare(const M& a, M& exp_out, PadeWorkspace<M>& ws) {
    if (a.rows() != a.cols()) throw std::invalid_argument("pade_prepare: non-square matrix");
    const std::size_t n = a.rows();
    int s = 0;
    const int m = choose_pade_order(a.norm_1(), s, "pade_prepare");
    ws.order = m;
    ws.squarings = s;
    const double* b = pade_table(m);

    ws.as = a;
    if (s > 0) ws.as *= std::ldexp(1.0, -s);
    const M& as = ws.as;

    // Shared even powers: pows[k] = As^{2k}.  Order 13 needs A^2/A^4/A^6 for
    // the factored polynomials; orders 3..9 need A^2 .. A^{m-1} directly.
    const std::size_t kmax = (m == 13) ? 3 : static_cast<std::size_t>(m - 1) / 2;
    if (ws.pows.size() < kmax + 1) ws.pows.resize(kmax + 1);
    gemm_into(as, as, ws.pows[1]);
    for (std::size_t k = 2; k <= kmax; ++k) gemm_into(ws.pows[k - 1], ws.pows[1], ws.pows[k]);

    // Shared U = A * (odd poly), V = even poly.
    if (m == 13) {
        const M& a2 = ws.pows[1];
        const M& a4 = ws.pows[2];
        const M& a6 = ws.pows[3];
        // w1 = b13 A6 + b11 A4 + b9 A2 ; w = A6 w1 + b7 A6 + b5 A4 + b3 A2 + b1 I
        set_scaled(ws.w1, a6, b[13]);
        add_scaled(ws.w1, b[11], a4);
        add_scaled(ws.w1, b[9], a2);
        gemm_into(a6, ws.w1, ws.w);
        add_scaled(ws.w, b[7], a6);
        add_scaled(ws.w, b[5], a4);
        add_scaled(ws.w, b[3], a2);
        add_diag(ws.w, b[1]);
        gemm_into(as, ws.w, ws.u);
        // z1 = b12 A6 + b10 A4 + b8 A2 ; V = A6 z1 + b6 A6 + b4 A4 + b2 A2 + b0 I
        set_scaled(ws.z1, a6, b[12]);
        add_scaled(ws.z1, b[10], a4);
        add_scaled(ws.z1, b[8], a2);
        gemm_into(a6, ws.z1, ws.v);
        add_scaled(ws.v, b[6], a6);
        add_scaled(ws.v, b[4], a4);
        add_scaled(ws.v, b[2], a2);
        add_diag(ws.v, b[0]);
    } else {
        ws.usum.resize(n, n);
        ws.v.resize(n, n);
        add_diag(ws.usum, b[1]);
        add_diag(ws.v, b[0]);
        for (std::size_t k = 1; k <= kmax; ++k) {
            add_scaled(ws.usum, b[2 * k + 1], ws.pows[k]);
            add_scaled(ws.v, b[2 * k], ws.pows[k]);
        }
        gemm_into(as, ws.usum, ws.u);
    }

    // r = (V - U)^{-1} (V + U); one LU shared by every direction.  The
    // squaring ladder keeps every r^(2^j): each direction's squaring phase
    // needs all of them.
    ws.t1 = ws.v;
    ws.t1 -= ws.u;
    ws.t2 = ws.v;
    ws.t2 += ws.u;
    ws.fact.factor(ws.t1);
    const auto rungs = static_cast<std::size_t>(s) + 1;
    if (ws.ladder.size() < rungs) ws.ladder.resize(rungs);
    ws.fact.solve_into(ws.t2, ws.ladder[0]);
    for (std::size_t j = 1; j < rungs; ++j) {
        gemm_into(ws.ladder[j - 1], ws.ladder[j - 1], ws.ladder[j]);
    }
    exp_out = ws.ladder[rungs - 1];
}

template <class M>
void pade_direction(PadeWorkspace<M>& ws, const M& e, M& out) {
    if (ws.order == 0) throw std::logic_error("pade_direction: workspace not prepared");
    const std::size_t n = ws.as.rows();
    if (e.rows() != n || e.cols() != n) {
        throw std::invalid_argument("pade_direction: direction shape mismatch");
    }
    const int m = ws.order;
    const int s = ws.squarings;
    const double* b = pade_table(m);
    const std::size_t kmax = (m == 13) ? 3 : static_cast<std::size_t>(m - 1) / 2;
    const M& as = ws.as;

    ws.es = e;
    if (s > 0) ws.es *= std::ldexp(1.0, -s);
    const M& es = ws.es;
    // M2 = A E + E A (all in the scaled variables).
    gemm_into(as, es, ws.m2);
    gemm_acc(es, as, ws.m2);
    if (m == 13) {
        const M& a2 = ws.pows[1];
        const M& a4 = ws.pows[2];
        const M& a6 = ws.pows[3];
        // M4 = A2 M2 + M2 A2 ; M6 = M4 A2 + A4 M2.
        gemm_into(a2, ws.m2, ws.m4);
        gemm_acc(ws.m2, a2, ws.m4);
        gemm_into(ws.m4, a2, ws.m6);
        gemm_acc(a4, ws.m2, ws.m6);
        // Lu = A*(M6 w1 + A6 (b13 M6 + b11 M4 + b9 M2)
        //         + b7 M6 + b5 M4 + b3 M2) + E*w
        set_scaled(ws.lw1, ws.m6, b[13]);
        add_scaled(ws.lw1, b[11], ws.m4);
        add_scaled(ws.lw1, b[9], ws.m2);
        gemm_into(ws.m6, ws.w1, ws.lw);
        gemm_acc(a6, ws.lw1, ws.lw);
        add_scaled(ws.lw, b[7], ws.m6);
        add_scaled(ws.lw, b[5], ws.m4);
        add_scaled(ws.lw, b[3], ws.m2);
        gemm_into(as, ws.lw, ws.lu_m);
        gemm_acc(es, ws.w, ws.lu_m);
        // Lv = M6 z1 + A6 (b12 M6 + b10 M4 + b8 M2) + b6 M6 + b4 M4 + b2 M2
        set_scaled(ws.lw1, ws.m6, b[12]);
        add_scaled(ws.lw1, b[10], ws.m4);
        add_scaled(ws.lw1, b[8], ws.m2);
        gemm_into(ws.m6, ws.z1, ws.lv_m);
        gemm_acc(a6, ws.lw1, ws.lv_m);
        add_scaled(ws.lv_m, b[6], ws.m6);
        add_scaled(ws.lv_m, b[4], ws.m4);
        add_scaled(ws.lv_m, b[2], ws.m2);
    } else {
        // M_{2k} = M_{2(k-1)} A2 + A^{2(k-1)} M2, accumulated into the
        // odd/even derivative sums.
        ws.lusum.resize(n, n);
        ws.lv_m.resize(n, n);
        for (std::size_t k = 1; k <= kmax; ++k) {
            if (k == 1) {
                ws.mcur = ws.m2;
            } else {
                gemm_into(ws.mprev, ws.pows[1], ws.mcur);
                gemm_acc(ws.pows[k - 1], ws.m2, ws.mcur);
            }
            add_scaled(ws.lusum, b[2 * k + 1], ws.mcur);
            add_scaled(ws.lv_m, b[2 * k], ws.mcur);
            std::swap(ws.mprev, ws.mcur);
        }
        // Lu = E * usum + A * lusum.
        gemm_into(es, ws.usum, ws.lu_m);
        gemm_acc(as, ws.lusum, ws.lu_m);
    }
    // (V - U) L = Lu + Lv - (Lv - Lu) r, reusing the shared LU.
    ws.t2 = ws.lv_m;
    ws.t2 -= ws.lu_m;
    ws.rhs = ws.lu_m;
    ws.rhs += ws.lv_m;
    gemm_into(ws.t2, ws.ladder[0], ws.t1);
    ws.rhs -= ws.t1;
    ws.fact.solve_into(ws.rhs, out);

    // Squaring phase: L <- r L + L r with r = r^(2^j) at step j.
    for (std::size_t j = 0; j < static_cast<std::size_t>(s); ++j) {
        gemm_into(ws.ladder[j], out, ws.t1);
        gemm_acc(out, ws.ladder[j], ws.t1);
        std::swap(out, ws.t1);
    }
}

template void pade_prepare<Mat>(const Mat&, Mat&, PadeWorkspace<Mat>&);
template void pade_prepare<RMat>(const RMat&, RMat&, PadeWorkspace<RMat>&);
template void pade_direction<Mat>(PadeWorkspace<Mat>&, const Mat&, Mat&);
template void pade_direction<RMat>(PadeWorkspace<RMat>&, const RMat&, RMat&);

Mat expm(const Mat& a) {
    if (!a.is_square()) throw std::invalid_argument("expm: non-square matrix");
    int s = 0;
    const int m = choose_pade_order(a.norm_1(), s, "expm");
    if (m < 13) return pade_eval(a, pade_table(m), m);

    // Scaling and squaring with Pade 13.
    Mat a_scaled = a;
    a_scaled *= std::ldexp(1.0, -s);
    Mat r = pade_eval(a_scaled, kPade13.data(), 13);
    for (int k = 0; k < s; ++k) r = r * r;
    return r;
}

}  // namespace qoc::linalg
