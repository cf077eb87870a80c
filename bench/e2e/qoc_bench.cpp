/// \file qoc_bench.cpp
/// \brief End-to-end + per-layer benchmark of the pulse-design workflow.
///
///   qoc_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
///             [--history FILE] [--commit SHA]
///   qoc_bench compare <parent-history> <change-history> [--spec BENCHMARK.json]
///   qoc_bench smoke [--spec BENCHMARK.json]
///
/// A run sets its workload up several times (`setup_s` is the median), then
/// runs units until `--seconds` have passed, checking every output.  With
/// `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
/// replays a few units untraced and then traced and reports the per-layer
/// metrics (see layers.hpp).  The last stdout line is the JSON result; with
/// `--history` the run is also appended to that file.  See README.md.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "compare.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "records.hpp"
#include "runtime/task_pool.hpp"
#include "workloads.hpp"

#ifndef QOC_BENCH_BUILD_TYPE
#define QOC_BENCH_BUILD_TYPE "unknown"
#endif

namespace qoc::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Timed set-ups per untraced run; `setup_s` is their median.  One more,
/// untimed, runs first: it pays the process's own warm-up (pool threads
/// first spreading over the CPUs, first-touch allocation), which made the
/// first set-up up to 1.7x slower than the rest.
constexpr int kSetupReps = 5;
/// Check failures printed per run (all of them are counted).
constexpr std::size_t kMaxPrintedErrors = 20;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Interpolated quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

std::size_t affinity_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
    return static_cast<std::size_t>(CPU_COUNT(&set));
}

UnitResult run_checked(Workload& w, std::size_t u) {
    try {
        return w.run_unit(u);
    } catch (const std::exception& e) {
        UnitResult r;
        r.attempted = 1;
        r.failed = 1;
        r.errors.push_back("unit " + std::to_string(u) + " threw: " + e.what());
        return r;
    }
}

/// Everything the units of one run reported, merged.
struct Totals {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<std::pair<std::string, std::uint64_t>> digests;
    std::vector<double> unit_s;
    double op_phase_s = 0.0;
    std::vector<double> request_s;
    std::vector<service::ResponseStatus> request_status;
    service::ServiceStats service;

    void add(UnitResult&& r, double unit_s_) {
        attempted += r.attempted;
        failed += r.failed;
        for (auto& e : r.errors) errors.push_back(std::move(e));
        for (const auto& [key, value] : r.digests) {
            const auto it = std::find_if(digests.begin(), digests.end(),
                                         [&](const auto& d) { return d.first == key; });
            if (it == digests.end()) {
                digests.emplace_back(key, value);
            } else if (it->second != value) {
                errors.push_back("digest " + key + " changed between units");
            }
        }
        unit_s.push_back(unit_s_);
        op_phase_s += r.op_phase_s > 0.0 ? r.op_phase_s : unit_s_;
        request_s.insert(request_s.end(), r.request_s.begin(), r.request_s.end());
        request_status.insert(request_status.end(), r.request_status.begin(),
                              r.request_status.end());
        service.hits += r.service.hits;
        service.misses += r.service.misses;
        service.revalidations += r.service.revalidations;
        service.redesigns += r.service.redesigns;
        service.shed += r.service.shed;
        service.demoted += r.service.demoted;
    }

    void finish(RunRecord& rec) {
        rec.attempted = attempted;
        rec.failed = failed;
        rec.correct = failed == 0 && errors.empty();
        rec.digests = digests;
        for (std::size_t i = 0; i < errors.size() && i < kMaxPrintedErrors; ++i) {
            std::fprintf(stderr, "check failed: %s\n", errors[i].c_str());
        }
        if (errors.size() > kMaxPrintedErrors) {
            std::fprintf(stderr, "... %zu more check failures\n",
                         errors.size() - kMaxPrintedErrors);
        }
    }
};

std::vector<Metric> end_to_end_metrics(const Totals& t, const std::vector<double>& setup_s) {
    return {
        {"unit_s", "s", median(t.unit_s), t.unit_s.size()},
        {"setup_s", "s", median(setup_s), setup_s.size()},
    };
}

/// Printed and kept in the history, not gated: throughput over the request
/// phase and request latency by outcome (fleet).  Their run-to-run spread is
/// wider than any bound the benchmark could hold (README.md).
std::vector<Metric> extra_metrics(const Totals& t) {
    std::vector<Metric> out{
        {"ops_per_s", "1/s",
         t.op_phase_s > 0.0 ? static_cast<double>(t.attempted) / t.op_phase_s : 0.0,
         static_cast<std::size_t>(t.attempted)},
    };
    if (t.request_s.empty()) return out;
    std::vector<double> all, hit, design, revalidate;
    for (std::size_t i = 0; i < t.request_s.size(); ++i) {
        all.push_back(t.request_s[i]);
        switch (t.request_status[i]) {
            case service::ResponseStatus::kHit: hit.push_back(t.request_s[i]); break;
            case service::ResponseStatus::kDesigned: design.push_back(t.request_s[i]); break;
            case service::ResponseStatus::kRevalidated:
                revalidate.push_back(t.request_s[i]);
                break;
            case service::ResponseStatus::kShed: break;
        }
    }
    for (auto* v : {&all, &hit, &design, &revalidate}) std::sort(v->begin(), v->end());
    out.insert(out.end(), {
        {"fleet.req_p50_ms", "ms", 1e3 * quantile(all, 0.5), all.size()},
        {"fleet.req_p99_ms", "ms", 1e3 * quantile(all, 0.99), all.size()},
        {"service.hit_p50_us", "us", 1e6 * quantile(hit, 0.5), hit.size()},
        {"service.hit_p99_us", "us", 1e6 * quantile(hit, 0.99), hit.size()},
        {"service.design_p99_ms", "ms", 1e3 * quantile(design, 0.99), design.size()},
        {"service.revalidate_p99_ms", "ms", 1e3 * quantile(revalidate, 0.99), revalidate.size()},
    });
    return out;
}

void print_samples(const char* name, const std::vector<double>& v) {
    std::printf("  %s samples:", name);
    for (const double x : v) std::printf(" %.4g", x);
    std::printf("\n");
}

void run_untraced(const std::string& name, std::uint64_t seed, int seconds, RunRecord& rec) {
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    for (int r = 0; r <= kSetupReps; ++r) {
        w.reset();
        w = make_workload(name, seed, false);
        const Clock::time_point t0 = Clock::now();
        w->setup();
        if (r > 0) setup_s.push_back(seconds_since(t0));
    }
    Totals t;
    const Clock::time_point start = Clock::now();
    for (std::size_t u = 0; u < w->max_units(); ++u) {
        // Start no unit the median so far says would end past the budget.
        if (u > 0 && seconds_since(start) + median(t.unit_s) > seconds) break;
        const Clock::time_point t0 = Clock::now();
        UnitResult r = run_checked(*w, u);
        t.add(std::move(r), seconds_since(t0));
    }
    t.finish(rec);
    print_samples("setup_s", setup_s);
    print_samples("unit_s", t.unit_s);
    rec.metrics = end_to_end_metrics(t, setup_s);
    rec.extras = extra_metrics(t);
}

TraceCapture run_traced(const std::string& name, std::uint64_t seed, RunRecord& rec) {
    TraceCapture cap;
    Totals t;
    {
        auto w = make_workload(name, seed, true);
        w->setup();
        std::vector<double> untraced;
        for (std::size_t u = 0; u < w->trace_units(); ++u) {
            const Clock::time_point t0 = Clock::now();
            UnitResult r = run_checked(*w, u);
            untraced.push_back(seconds_since(t0));
            // Checked; the digests and service counts come from the traced
            // replay (the fleet's digests differ between replays, README.md).
            r.digests.clear();
            r.service = {};
            t.add(std::move(r), untraced.back());
        }
        cap.untraced_unit_s = median(untraced);
    }
    // The same units again on a fresh set-up, traced.
    auto w = make_workload(name, seed, true);
    w->setup();
    obs::enable_tracing("");
    obs::enable_metrics("");
    const ObsMark before = obs_mark();
    std::vector<double> traced;
    for (std::size_t u = 0; u < w->trace_units(); ++u) {
        const Clock::time_point t0 = Clock::now();
        UnitResult r;
        {
            obs::Span root("bench.unit");
            r = run_checked(*w, u);
        }
        traced.push_back(seconds_since(t0));
        t.add(std::move(r), traced.back());
    }
    cap.counted = obs_delta(before, obs_mark());
    cap.service = t.service;
    cap.events = obs::snapshot_trace_events();
    cap.dropped = obs::dropped_trace_events();
    cap.units = traced.size();
    cap.traced_unit_s = median(traced);
    t.finish(rec);
    rec.metrics = layer_metrics(cap);
    return cap;
}

RunRecord new_record(const std::string& name, std::uint64_t seed, int seconds, bool trace) {
    RunRecord rec;
    rec.build_type = QOC_BENCH_BUILD_TYPE;
    rec.workload = name;
    rec.qoc_threads = runtime::TaskPool::global().size();
    rec.nproc = affinity_cpus();
    rec.seed = seed;
    rec.seconds = seconds;
    rec.trace = trace;
    return rec;
}

void print_metrics(const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::printf("  %-32s %16.6g %-6s (n=%zu)\n", m.name.c_str(), m.value, m.unit.c_str(),
                    m.samples);
    }
}

bool same_names(const std::vector<Metric>& emitted, const std::vector<MetricSpec>& declared,
                const char* section) {
    bool ok = emitted.size() == declared.size();
    for (std::size_t i = 0; ok && i < emitted.size(); ++i) {
        ok = emitted[i].name == declared[i].name && emitted[i].unit == declared[i].unit;
    }
    if (!ok) std::fprintf(stderr, "smoke: %s metrics differ from BENCHMARK.json\n", section);
    return ok;
}

/// Every workload at its trace scale with all output checks, traced, plus
/// the metric names and units checked against BENCHMARK.json.
int run_smoke(const std::string& spec_path) {
    BenchmarkSpec spec;
    try {
        spec = read_benchmark_spec(spec_path);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "smoke: %s\n", e.what());
        return 1;
    }
    bool ok = spec.workloads == workload_names();
    if (!ok) std::fprintf(stderr, "smoke: workloads differ from BENCHMARK.json\n");
    ok = same_names(end_to_end_metrics(Totals{}, {0.0}), spec.end_to_end, "end_to_end") && ok;
    ok = same_names(layer_metrics(TraceCapture{}), spec.per_layer, "per_layer") && ok;
    for (const std::string& name : workload_names()) {
        RunRecord rec = new_record(name, 1508, 0, true);
        const TraceCapture cap = run_traced(name, 1508, rec);
        double root_self = 100.0;
        for (const Metric& m : rec.metrics) {
            if (m.name == "trace.root_self_share") root_self = m.value;
        }
        const bool pass = rec.correct && cap.dropped == 0 && root_self <= 10.0;
        std::printf("smoke %-13s %s: %llu/%llu ok, %llu dropped spans, root self %.2f%%\n",
                    name.c_str(), pass ? "PASS" : "FAIL",
                    static_cast<unsigned long long>(rec.attempted - rec.failed),
                    static_cast<unsigned long long>(rec.attempted),
                    static_cast<unsigned long long>(cap.dropped), root_self);
        ok = ok && pass;
        obs::reset_for_testing();
    }
    return ok ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: qoc_bench --workload W [--seed N] [--seconds S] [--trace 0|1]\n"
                 "                 [--history FILE] [--commit SHA]\n"
                 "       qoc_bench compare <parent-history> <change-history> [--spec FILE]\n"
                 "       qoc_bench smoke [--spec FILE]\n");
    return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
    char* end = nullptr;
    out = std::strtoull(s, &end, 10);
    return end != s && *end == '\0';
}

}  // namespace
}  // namespace qoc::bench

int main(int argc, char** argv) {
    using namespace qoc::bench;
    const std::vector<std::string> args(argv + 1, argv + argc);
    std::string spec_path = "BENCHMARK.json";
    std::vector<std::string> positional;
    std::map<std::string, std::string> flags;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i].rfind("--", 0) == 0) {
            if (i + 1 >= args.size()) return usage();
            flags[args[i]] = args[i + 1];
            ++i;
        } else {
            positional.push_back(args[i]);
        }
    }
    if (flags.count("--spec") != 0) spec_path = flags["--spec"];

    if (!positional.empty() && positional[0] == "compare") {
        if (positional.size() != 3) return usage();
        return run_compare(positional[1], positional[2], spec_path, stdout);
    }
    if (!positional.empty() && positional[0] == "smoke") return run_smoke(spec_path);
    if (!positional.empty() || flags.count("--workload") == 0) return usage();

    const std::string name = flags["--workload"];
    std::uint64_t seed = 1508, seconds = 10, trace = 0;
    if ((flags.count("--seed") != 0 && !parse_u64(flags["--seed"].c_str(), seed)) ||
        (flags.count("--seconds") != 0 && !parse_u64(flags["--seconds"].c_str(), seconds)) ||
        (flags.count("--trace") != 0 && !parse_u64(flags["--trace"].c_str(), trace)) ||
        seconds < 1 || seconds > 3600 || trace > 1) {
        return usage();
    }
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
        std::fprintf(stderr, "qoc_bench: unknown workload '%s'\n", name.c_str());
        return usage();
    }

    RunRecord rec = new_record(name, seed, static_cast<int>(seconds), trace == 1);
    if (flags.count("--commit") != 0) rec.commit = flags["--commit"];
    std::printf("qoc_bench %s: seed %llu, %llus, trace %llu, QOC_THREADS %zu, nproc %zu, %s\n",
                name.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seconds), static_cast<unsigned long long>(trace),
                rec.qoc_threads, rec.nproc, rec.build_type.c_str());
    if (trace == 1) {
        const TraceCapture cap = run_traced(name, seed, rec);
        print_layer_table(stdout, cap);
    } else {
        run_untraced(name, seed, static_cast<int>(seconds), rec);
    }
    print_metrics(rec.metrics);
    print_metrics(rec.extras);
    for (const auto& [key, value] : rec.digests) {
        std::printf("  digest %-24s %016llx\n", key.c_str(),
                    static_cast<unsigned long long>(value));
    }
    if (flags.count("--history") != 0) {
        try {
            append_history(flags["--history"], rec);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "qoc_bench: %s\n", e.what());
            return 1;
        }
    }
    std::printf("%s\n", result_line(rec).c_str());
    return rec.correct ? 0 : 1;
}
