#include "quantum/gates.hpp"

#include <cmath>

namespace qoc::quantum::gates {

namespace {
using linalg::cplx;
constexpr cplx kI{0.0, 1.0};
const double kInvSqrt2 = 1.0 / std::sqrt(2.0);
}  // namespace

Mat x() { return Mat{{0.0, 1.0}, {1.0, 0.0}}; }
Mat y() { return Mat{{0.0, -kI}, {kI, 0.0}}; }
Mat z() { return Mat{{1.0, 0.0}, {0.0, -1.0}}; }

Mat h() { return Mat{{kInvSqrt2, kInvSqrt2}, {kInvSqrt2, -kInvSqrt2}}; }

Mat s() { return Mat{{1.0, 0.0}, {0.0, kI}}; }

Mat sx() {
    // sqrt(X) = 1/2 [[1+i, 1-i], [1-i, 1+i]]
    const cplx a{0.5, 0.5}, b{0.5, -0.5};
    return Mat{{a, b}, {b, a}};
}

Mat t() { return Mat{{1.0, 0.0}, {0.0, std::exp(kI * (M_PI / 4.0))}}; }

Mat rx(double theta) {
    const double c = std::cos(theta / 2.0), s_ = std::sin(theta / 2.0);
    return Mat{{cplx{c, 0.0}, -kI * s_}, {-kI * s_, cplx{c, 0.0}}};
}

Mat rz(double theta) {
    return Mat{{std::exp(-kI * (theta / 2.0)), 0.0}, {0.0, std::exp(kI * (theta / 2.0))}};
}

Mat cx() {
    return Mat{{1.0, 0.0, 0.0, 0.0},
               {0.0, 1.0, 0.0, 0.0},
               {0.0, 0.0, 0.0, 1.0},
               {0.0, 0.0, 1.0, 0.0}};
}

Mat cx_10() {
    return Mat{{1.0, 0.0, 0.0, 0.0},
               {0.0, 0.0, 0.0, 1.0},
               {0.0, 0.0, 1.0, 0.0},
               {0.0, 1.0, 0.0, 0.0}};
}

Mat swap() {
    return Mat{{1.0, 0.0, 0.0, 0.0},
               {0.0, 0.0, 1.0, 0.0},
               {0.0, 1.0, 0.0, 0.0},
               {0.0, 0.0, 0.0, 1.0}};
}

Mat zx90() {
    // exp(-i pi/4 Z(x)X) = cos(pi/4) I - i sin(pi/4) Z(x)X
    const double c = kInvSqrt2;
    Mat zx{{0.0, 1.0, 0.0, 0.0},
           {1.0, 0.0, 0.0, 0.0},
           {0.0, 0.0, 0.0, -1.0},
           {0.0, 0.0, -1.0, 0.0}};
    return c * Mat::identity(4) + (-kI * c) * zx;
}

}  // namespace qoc::quantum::gates
