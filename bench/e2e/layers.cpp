#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "self_time.hpp"

namespace qoc::bench {

namespace {

using obs::Cnt;

struct SpanTotals {
    std::uint64_t count = 0;
    std::uint64_t incl_ns = 0;
    std::uint64_t self_ns = 0;
};

std::map<std::string, SpanTotals> span_totals(const std::vector<obs::TraceEvent>& events) {
    std::vector<SpanRec> spans;
    spans.reserve(events.size());
    for (const auto& e : events) spans.push_back({e.id, e.parent, e.t0_ns, e.dur_ns});
    const std::vector<std::uint64_t> self = self_times_ns(spans);
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < events.size(); ++i) {
        SpanTotals& t = out[events[i].name];
        ++t.count;
        t.incl_ns += events[i].dur_ns;
        t.self_ns += self[i];
    }
    return out;
}

bool starts_with(const std::string& s, const char* prefix) {
    return s.compare(0, std::strlen(prefix), prefix) == 0;
}

/// The module a span's self time belongs to.
const char* layer_of(const std::string& span) {
    if (span == "bench.unit") return "bench";
    if (span == "bench.request" || span == "bench.update_device" || starts_with(span, "service."))
        return "service";
    // A design span's self time is the optimizer's: everything in the design
    // call except the objective evaluations, which are grape.objective spans.
    if (span == "bench.design" || span == "pipeline.design") return "optim";
    if (starts_with(span, "pipeline.") || starts_with(span, "bench.")) {
        return span == "bench.calibrate" ? "device" : "experiments";
    }
    if (starts_with(span, "executor.")) return "device";
    if (starts_with(span, "grape.")) return "control";
    if (starts_with(span, "rb.")) return "rb";
    return "other";
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

obs::HistSnapshot minus(const obs::HistSnapshot& a, const obs::HistSnapshot& b) {
    obs::HistSnapshot d;
    d.count = a.count - b.count;
    d.sum = a.sum - b.sum;
    for (std::size_t i = 0; i < d.buckets.size(); ++i) d.buckets[i] = a.buckets[i] - b.buckets[i];
    return d;
}

}  // namespace

ObsMark obs_mark() {
    ObsMark m;
    for (std::size_t i = 0; i < m.counters.size(); ++i) {
        m.counters[i] = obs::counter_value(static_cast<Cnt>(i));
    }
    m.queue_wait = obs::hist_snapshot(obs::Hist::kPoolQueueWait);
    m.line_search_evals = obs::hist_snapshot(obs::Hist::kLbfgsbLineSearchEvals);
    return m;
}

ObsMark obs_delta(const ObsMark& before, const ObsMark& after) {
    ObsMark d;
    for (std::size_t i = 0; i < d.counters.size(); ++i) {
        d.counters[i] = after.counters[i] - before.counters[i];
    }
    d.queue_wait = minus(after.queue_wait, before.queue_wait);
    d.line_search_evals = minus(after.line_search_evals, before.line_search_evals);
    return d;
}

std::vector<Metric> layer_metrics(const TraceCapture& cap) {
    const std::map<std::string, SpanTotals> spans = span_totals(cap.events);
    const auto get = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? SpanTotals{} : it->second;
    };
    const double wall_ns = static_cast<double>(get("bench.unit").incl_ns);
    const double units = static_cast<double>(std::max<std::size_t>(cap.units, 1));
    const auto share = [&](double ns) { return 100.0 * ratio(ns, wall_ns); };
    const auto per_unit = [&](double n) { return n / units; };
    const auto incl = [&](std::initializer_list<const char*> names) {
        double ns = 0;
        for (const char* n : names) ns += static_cast<double>(get(n).incl_ns);
        return ns;
    };
    const auto self = [&](std::initializer_list<const char*> names) {
        double ns = 0;
        for (const char* n : names) ns += static_cast<double>(get(n).self_ns);
        return ns;
    };
    const auto cnt = [&](Cnt c) {
        return static_cast<double>(cap.counted.counters[static_cast<std::size_t>(c)]);
    };
    const obs::HistSnapshot& queue_wait = cap.counted.queue_wait;
    const obs::HistSnapshot& line_search_evals = cap.counted.line_search_evals;

    const service::ServiceStats& svc = cap.service;
    const double requests = static_cast<double>(get("bench.request").count);
    const double expm = cnt(Cnt::kExpmPade3) + cnt(Cnt::kExpmPade5) + cnt(Cnt::kExpmPade7) +
                        cnt(Cnt::kExpmPade9) + cnt(Cnt::kExpmPade13) + cnt(Cnt::kExpmSpectral);
    const double memo_lookups = cnt(Cnt::kCliffMemoHits) + cnt(Cnt::kCliffMemoMisses);
    const double coalesced = static_cast<double>(svc.misses) - cnt(Cnt::kSvcAdmitted);
    const std::size_t n = cap.units;

    return {
        {"service.request_busy_share", "%", share(incl({"bench.request"})), n},
        {"service.update_device_share", "%", share(incl({"bench.update_device"})), n},
        {"service.hit_ratio", "ratio", ratio(static_cast<double>(svc.hits), requests), n},
        {"service.coalesced", "count", per_unit(coalesced), n},
        {"service.revalidations", "count", per_unit(static_cast<double>(svc.revalidations)), n},
        {"service.redesigns", "count", per_unit(static_cast<double>(svc.redesigns)), n},
        {"service.shed", "count", per_unit(static_cast<double>(svc.shed)), n},
        {"runtime.queue_wait_p99_us", "us", obs::hist_quantile(queue_wait, 0.99) / 1e3,
         queue_wait.count},
        {"runtime.tasks", "count", per_unit(static_cast<double>(queue_wait.count)), n},
        {"experiments.design_share", "%", share(incl({"bench.design", "pipeline.design"})), n},
        {"experiments.irb_share", "%", share(incl({"pipeline.characterize"})), n},
        {"experiments.reference_share", "%", share(incl({"pipeline.reference"})), n},
        {"device.calibrate_share", "%", share(incl({"bench.calibrate"})), n},
        {"device.schedule_superop_share", "%",
         share(self({"executor.schedule_superop_1q", "executor.schedule_superop_2q"})), n},
        {"control.objective_share", "%", share(self({"grape.objective"})), n},
        {"control.objective_calls", "count",
         per_unit(static_cast<double>(get("grape.objective").count)), n},
        {"optim.solver_self_share", "%", share(self({"bench.design", "pipeline.design"})), n},
        {"optim.iterations", "count", per_unit(static_cast<double>(line_search_evals.count)),
         n},
        {"optim.line_search_evals_p50", "count", obs::hist_quantile(line_search_evals, 0.5),
         line_search_evals.count},
        {"linalg.expm_calls", "count", per_unit(expm), n},
        {"linalg.expm_pade13_calls", "count", per_unit(cnt(Cnt::kExpmPade13)), n},
        {"linalg.lu_calls", "count", per_unit(cnt(Cnt::kLuFactorizations)), n},
        {"linalg.gemm_calls", "count", per_unit(cnt(Cnt::kGemmCalls)), n},
        {"quantum.superop_applies", "count",
         per_unit(cnt(Cnt::kSuperopApplies) + cnt(Cnt::kSuperopCsrApplies) +
                  cnt(Cnt::kSuperopKronApplies)),
         n},
        {"quantum.superop_batch_applies", "count", per_unit(cnt(Cnt::kSuperopBatchApplies)), n},
        {"rb.sequence_share", "%",
         share(self({"rb.seq_1q", "rb.seq_block_1q", "rb.seq_2q", "rb.seq_block_2q",
                     "rb.leakage_block"})),
         n},
        {"rb.clifford_memo_hit_ratio", "ratio", ratio(cnt(Cnt::kCliffMemoHits), memo_lookups),
         n},
        {"trace.dropped_spans", "count", static_cast<double>(cap.dropped), n},
        {"trace.overhead_ratio", "ratio", ratio(cap.traced_unit_s, cap.untraced_unit_s) - 1.0, n},
        {"trace.root_self_share", "%", share(self({"bench.unit"})), n},
    };
}

void print_layer_table(std::FILE* out, const TraceCapture& cap) {
    const std::map<std::string, SpanTotals> spans = span_totals(cap.events);
    const auto root = spans.find("bench.unit");
    const double wall_ns = root == spans.end() ? 0.0 : static_cast<double>(root->second.incl_ns);

    std::vector<std::pair<std::string, SpanTotals>> rows(spans.begin(), spans.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second.self_ns > b.second.self_ns; });
    std::fprintf(out, "per span (%zu traced unit(s), %.3f s wall):\n", cap.units, wall_ns / 1e9);
    std::fprintf(out, "  %-30s %-12s %9s %11s %11s %8s\n", "span", "layer", "count", "incl_s",
                 "self_s", "self_%");
    std::map<std::string, double> layer_self;
    for (const auto& [name, t] : rows) {
        layer_self[layer_of(name)] += static_cast<double>(t.self_ns);
        std::fprintf(out, "  %-30s %-12s %9llu %11.4f %11.4f %8.2f\n", name.c_str(),
                     layer_of(name), static_cast<unsigned long long>(t.count),
                     static_cast<double>(t.incl_ns) / 1e9, static_cast<double>(t.self_ns) / 1e9,
                     100.0 * ratio(static_cast<double>(t.self_ns), wall_ns));
    }
    std::fprintf(out, "per layer (self time; shares of unit wall, up to pool width x 100%%):\n");
    for (const auto& [layer, ns] : layer_self) {
        std::fprintf(out, "  %-12s %11.4f s %8.2f %%\n", layer.c_str(), ns / 1e9,
                     100.0 * ratio(ns, wall_ns));
    }
}

}  // namespace qoc::bench
