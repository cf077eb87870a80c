#include "oracles/gradient_check.hpp"

#include <algorithm>
#include <cmath>

namespace qoc::oracle {

GradientCheckResult check_gradient(const optim::Objective& objective,
                                   const std::vector<double>& x, double h) {
    const std::size_t n = x.size();
    std::vector<double> grad(n), scratch(n);
    objective(x, grad);

    GradientCheckResult res;
    std::vector<double> xp = x;
    for (std::size_t i = 0; i < n; ++i) {
        const double step = h * std::max(1.0, std::abs(x[i]));
        xp[i] = x[i] + step;
        const double fp = objective(xp, scratch);
        xp[i] = x[i] - step;
        const double fm = objective(xp, scratch);
        xp[i] = x[i];
        const double numeric = (fp - fm) / (2.0 * step);
        const double abs_err = std::abs(grad[i] - numeric);
        const double scale = std::max({std::abs(grad[i]), std::abs(numeric), 1e-8});
        if (abs_err > res.max_abs_error) {
            res.max_abs_error = abs_err;
            res.worst_index = i;
        }
        res.max_rel_error = std::max(res.max_rel_error, abs_err / scale);
    }
    return res;
}

}  // namespace qoc::oracle
