#include "compare.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>

#include "records.hpp"

namespace qoc::bench {

namespace {

/// Untraced values of `metric` on `workload`, in file (run) order.
std::vector<double> values_of(const std::vector<RunRecord>& runs, const std::string& workload,
                              const std::string& metric) {
    std::vector<double> out;
    for (const RunRecord& r : runs) {
        if (r.trace || r.workload != workload) continue;
        for (const Metric& m : r.metrics) {
            if (m.name == metric) out.push_back(m.value);
        }
    }
    return out;
}

std::vector<double> sorted(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v;
}

struct Failures {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double ratio() const {
        return attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0;
    }
};

Failures failures_of(const std::vector<RunRecord>& runs, const std::string& workload) {
    Failures f;
    for (const RunRecord& r : runs) {
        if (r.trace || r.workload != workload) continue;
        f.attempted += r.attempted;
        f.failed += r.failed;
    }
    return f;
}

}  // namespace

Quartiles quartiles(const std::vector<double>& v) {
    const std::size_t n = v.size();
    if (n == 1) return {v[0], v[0], v[0]};
    const std::size_t m = n + 1;
    double q[3];
    for (std::size_t i = 1; i <= 3; ++i) {
        const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const double delta = static_cast<double>(i * m - j * 4);
        q[i - 1] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    return {q[0], q[1], q[2]};
}

int run_compare(const std::string& parent_history, const std::string& change_history,
                const std::string& benchmark_json, std::FILE* out) {
    std::vector<RunRecord> parent, change;
    BenchmarkSpec spec;
    try {
        parent = read_history(parent_history);
        change = read_history(change_history);
        spec = read_benchmark_spec(benchmark_json);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "qoc_bench compare: %s\n", e.what());
        return 2;
    }

    bool regressed = false;
    std::fprintf(out, "%-13s %-10s %6s %28s %28s %8s %5s  %s\n", "workload", "metric", "unit",
                 "parent median [q1, q3]", "change median [q1, q3]", "delta", "win", "verdict");
    for (const std::string& w : spec.workloads) {
        const Failures fp = failures_of(parent, w), fc = failures_of(change, w);
        const bool more_failures = fc.ratio() > fp.ratio();
        for (const MetricSpec& m : spec.end_to_end) {
            const std::vector<double> p = values_of(parent, w, m.name);
            const std::vector<double> c = values_of(change, w, m.name);
            if (p.empty() || c.empty()) {
                std::fprintf(out, "%-13s %-10s %6s  (no runs on one side)\n", w.c_str(),
                             m.name.c_str(), m.unit.c_str());
                continue;
            }
            const Quartiles qp = quartiles(sorted(p)), qc = quartiles(sorted(c));
            const auto better = [&](double a, double b) {
                return m.higher_is_better ? a > b : a < b;
            };
            const std::size_t pairs = std::min(p.size(), c.size());
            std::size_t wins = 0;
            for (std::size_t i = 0; i < pairs; ++i) wins += better(c[i], p[i]) ? 1 : 0;
            const double win = static_cast<double>(wins) / static_cast<double>(pairs);
            const double delta = (qc.median - qp.median) / qp.median;
            const double worse = m.higher_is_better ? -delta : delta;
            const double spread =
                std::max((qp.q3 - qp.q1) / qp.median, (qc.q3 - qc.q1) / qc.median);
            const double c_worst = m.higher_is_better ? *std::min_element(c.begin(), c.end())
                                                      : *std::max_element(c.begin(), c.end());
            const double p_best = m.higher_is_better ? *std::max_element(p.begin(), p.end())
                                                     : *std::min_element(p.begin(), p.end());
            const bool every_run_better = better(c_worst, p_best);

            const char* verdict = "no-change";
            if (win >= 0.9 && std::abs(qc.median - qp.median) > qp.q3 - qp.q1 && worse < 0.0) {
                verdict = more_failures ? "unresolved" : "improved";
            } else if (spread > m.bound && !every_run_better) {
                verdict = "unresolved";
            } else if (worse > m.bound) {
                verdict = "regressed";
                regressed = true;
            }
            std::fprintf(out,
                         "%-13s %-10s %6s %10.5g [%7.5g, %7.5g] %10.5g [%7.5g, %7.5g] %+7.2f%% "
                         "%5.2f  %s\n",
                         w.c_str(), m.name.c_str(), m.unit.c_str(), qp.median, qp.q1, qp.q3,
                         qc.median, qc.q1, qc.q3, 100.0 * delta, win, verdict);
        }
        std::fprintf(out, "%-13s failed: parent %llu/%llu, change %llu/%llu%s\n", w.c_str(),
                     static_cast<unsigned long long>(fp.failed),
                     static_cast<unsigned long long>(fp.attempted),
                     static_cast<unsigned long long>(fc.failed),
                     static_cast<unsigned long long>(fc.attempted),
                     more_failures ? "  (more failures: no gain counts)" : "");
    }

    std::fprintf(out, "\ndigest agreement (untraced runs of both sides):\n");
    std::map<std::pair<std::string, std::string>, std::set<std::uint64_t>> seen;
    std::map<std::pair<std::string, std::string>, std::size_t> runs;
    for (const auto* side : {&parent, &change}) {
        for (const RunRecord& r : *side) {
            if (r.trace) continue;
            for (const auto& [key, value] : r.digests) {
                seen[{r.workload, key}].insert(value);
                ++runs[{r.workload, key}];
            }
        }
    }
    std::map<std::string, std::pair<std::size_t, std::size_t>> per_workload;  // agree, total
    for (const auto& [wk, values] : seen) {
        auto& [agree, total] = per_workload[wk.first];
        ++total;
        if (values.size() == 1) {
            ++agree;
        } else {
            std::fprintf(out, "  %-13s %-16s %zu distinct values over %zu runs\n",
                         wk.first.c_str(), wk.second.c_str(), values.size(), runs[wk]);
        }
    }
    for (const auto& [w, at] : per_workload) {
        std::fprintf(out, "  %-13s %zu/%zu digests identical across runs\n", w.c_str(), at.first,
                     at.second);
    }
    return regressed ? 1 : 0;
}

}  // namespace qoc::bench
