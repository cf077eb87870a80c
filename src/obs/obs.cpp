#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

namespace qoc::obs {

namespace {

constexpr std::size_t kRingCapacity = 16384;
constexpr std::size_t kNumCounters = static_cast<std::size_t>(Cnt::kCount);
constexpr std::size_t kNumHists = static_cast<std::size_t>(Hist::kCount);

/// Per-thread storage: one padded counter row, the fixed latency-histogram
/// bucket cells, plus one preallocated span ring.  Owned by the registry,
/// written only by the owning thread; counter and bucket cells are relaxed
/// atomics so concurrent reads (counter_value, hist_snapshot, flush) are
/// race-free without ever taking a lock on the write side.
struct alignas(64) ThreadSlot {
    std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
    std::array<std::array<std::atomic<std::uint64_t>, kHistBuckets>, kNumHists> hist_buckets{};
    std::array<std::atomic<std::uint64_t>, kNumHists> hist_sums{};
    std::vector<TraceEvent> ring;
    std::atomic<std::uint64_t> ring_count{0};  ///< total spans ever recorded
    std::uint32_t tid = 0;

    ThreadSlot() { ring.resize(kRingCapacity); }
};

struct Registry {
    std::mutex mu;  ///< guards slot registration and the cold maps below
    std::vector<std::unique_ptr<ThreadSlot>> slots;
    std::map<std::string, double> gauges;
    std::string trace_path;

    std::mutex io_mu;  ///< guards the JSONL stream
    std::FILE* metrics_file = nullptr;

    // qoc-lint-allow(determinism-wall-clock): trace epoch; spans/latency histograms only
    std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
};

/// Leaked singleton: outlives atexit flushing and every thread's last span.
Registry& reg() {
    static Registry* r = new Registry;
    return *r;
}

thread_local ThreadSlot* t_slot = nullptr;

/// Process-wide span id allocator (ids are 1-based; 0 means "no span").
std::atomic<std::uint64_t> g_span_ids{0};

ThreadSlot& slot() {
    if (t_slot == nullptr) {
        Registry& r = reg();
        std::lock_guard<std::mutex> lock(r.mu);
        auto s = std::make_unique<ThreadSlot>();
        s->tid = static_cast<std::uint32_t>(r.slots.size());
        t_slot = s.get();
        r.slots.push_back(std::move(s));
    }
    return *t_slot;
}

/// %.17g round-trips every finite double exactly.
void print_double(std::FILE* f, double v) { std::fprintf(f, "%.17g", v); }

constexpr std::array<const char*, kNumCounters> kCounterNames = {
    "linalg.gemm.calls",
    "linalg.lu.factorizations",
    "rb.clifford_memo.hits",
    "rb.clifford_memo.misses",
    "quantum.superop.applies",
    "quantum.superop.csr_applies",
    "quantum.superop.kron_applies",
    "quantum.superop.batch_applies",
    "linalg.expm.pade3",
    "linalg.expm.pade5",
    "linalg.expm.pade7",
    "linalg.expm.pade9",
    "linalg.expm.pade13",
    "linalg.expm.spectral",
    "service.cache.hit",
    "service.cache.miss",
    "service.cache.revalidate",
    "service.requests.admitted",
    "service.queue.shed",
    "solver.dispatches",
    "optim.lbfgsb.box_active_iters",
    "optim.lbfgsb.model_resets",
};

constexpr std::array<const char*, kNumHists> kHistNames = {
    "service.request.latency.interactive.hit",
    "service.request.latency.batch.hit",
    "service.request.latency.interactive.revalidate",
    "service.request.latency.batch.revalidate",
    "service.request.latency.interactive.design",
    "service.request.latency.batch.design",
    "service.request.latency.interactive.shed",
    "service.request.latency.batch.shed",
    "design.wall",
    "irb.wall",
    "pool.task.queue_wait",
    "lbfgsb.line_search_evals",
};

/// Writes the final metrics object (counters + Pade-order histogram +
/// latency histograms + gauges + span-ring accounting)
/// as one JSONL line.  Caller holds io_mu.
void write_metrics_line(std::FILE* f) {
    std::fprintf(f, "{\"type\":\"metrics\",\"counters\":{");
    for (std::size_t c = 0; c < kNumCounters; ++c) {
        std::fprintf(f, "%s\"%s\":%llu", c == 0 ? "" : ",", kCounterNames[c],
                     static_cast<unsigned long long>(counter_value(static_cast<Cnt>(c))));
    }
    std::fprintf(f, "},\"histograms\":{\"linalg.expm.pade_order\":{");
    const std::pair<const char*, Cnt> pade[] = {
        {"3", Cnt::kExpmPade3},   {"5", Cnt::kExpmPade5}, {"7", Cnt::kExpmPade7},
        {"9", Cnt::kExpmPade9},   {"13", Cnt::kExpmPade13}};
    for (std::size_t i = 0; i < 5; ++i) {
        std::fprintf(f, "%s\"%s\":%llu", i == 0 ? "" : ",", pade[i].first,
                     static_cast<unsigned long long>(counter_value(pade[i].second)));
    }
    std::fprintf(f, "}");
    // Non-empty fixed latency histograms: sparse buckets (keyed by the
    // bucket's lower bound) plus merged quantile estimates.
    std::fprintf(f, "},\"latency_histograms\":{");
    bool first_hist = true;
    for (std::size_t h = 0; h < kNumHists; ++h) {
        const HistSnapshot s = hist_snapshot(static_cast<Hist>(h));
        if (s.count == 0) continue;
        std::fprintf(f, "%s\"%s\":{\"count\":%llu,\"sum\":%llu", first_hist ? "" : ",",
                     kHistNames[h], static_cast<unsigned long long>(s.count),
                     static_cast<unsigned long long>(s.sum));
        const std::pair<const char*, double> qs[] = {
            {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}};
        for (const auto& [qname, q] : qs) {
            std::fprintf(f, ",\"%s\":", qname);
            print_double(f, hist_quantile(s, q));
        }
        std::fprintf(f, ",\"buckets\":{");
        bool first_bucket = true;
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
            if (s.buckets[b] == 0) continue;
            std::fprintf(f, "%s\"%llu\":%llu", first_bucket ? "" : ",",
                         static_cast<unsigned long long>(hist_bucket_lower(b)),
                         static_cast<unsigned long long>(s.buckets[b]));
            first_bucket = false;
        }
        std::fprintf(f, "}}");
        first_hist = false;
    }
    std::fprintf(f, "},\"gauges\":{");
    Registry& r = reg();
    {
        std::lock_guard<std::mutex> lock(r.mu);
        bool first = true;
        for (const auto& [name, value] : r.gauges) {
            std::fprintf(f, "%s\"%s\":", first ? "" : ",", name.c_str());
            print_double(f, value);
            first = false;
        }
    }
    std::fprintf(f, "},\"dropped_trace_events\":%llu,\"trace_rings\":[",
                 static_cast<unsigned long long>(dropped_trace_events()));
    const std::vector<RingStats> rings = ring_stats();
    for (std::size_t i = 0; i < rings.size(); ++i) {
        std::fprintf(f, "%s{\"tid\":%u,\"recorded\":%llu,\"dropped\":%llu}",
                     i == 0 ? "" : ",", rings[i].tid,
                     static_cast<unsigned long long>(rings[i].recorded),
                     static_cast<unsigned long long>(rings[i].dropped));
    }
    std::fprintf(f, "]}\n");
}

void write_trace_file(const std::string& path) {
    const std::vector<TraceEvent> events = snapshot_trace_events();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& e = events[i];
        // chrome://tracing wants microseconds.  id/parent/req args let tools
        // rebuild the logical span tree across task boundaries and join
        // spans with their service_request records.
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu},"
                     "\"pid\":1,\"tid\":%u}",
                     i == 0 ? "" : ",", e.name, static_cast<double>(e.t0_ns) / 1e3,
                     static_cast<double>(e.dur_ns) / 1e3,
                     static_cast<unsigned long long>(e.id),
                     static_cast<unsigned long long>(e.parent),
                     static_cast<unsigned long long>(e.request), e.tid);
    }
    // Ring-overflow accounting as trace metadata: a truncated trace says so
    // in-band instead of silently looking complete.
    std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{"
                    "\"dropped_trace_events\":%llu,\"trace_rings\":[",
                 static_cast<unsigned long long>(dropped_trace_events()));
    const std::vector<RingStats> rings = ring_stats();
    for (std::size_t i = 0; i < rings.size(); ++i) {
        std::fprintf(f, "%s{\"tid\":%u,\"recorded\":%llu,\"dropped\":%llu}",
                     i == 0 ? "" : ",", rings[i].tid,
                     static_cast<unsigned long long>(rings[i].recorded),
                     static_cast<unsigned long long>(rings[i].dropped));
    }
    std::fprintf(f, "]}}\n");
    std::fclose(f);
}

/// Startup activation from the environment; flush at exit when either
/// variable is set.  `g_obs_state` is constant-initialized and `reg()` is
/// function-local, so there is no initialization-order hazard here.
struct EnvInit {
    EnvInit() {
        const char* trace = std::getenv("QOC_TRACE");
        const char* metrics = std::getenv("QOC_METRICS");
        if (trace != nullptr && *trace != '\0') enable_tracing(trace);
        if (metrics != nullptr && *metrics != '\0') enable_metrics(metrics);
        if ((trace != nullptr && *trace != '\0') ||
            (metrics != nullptr && *metrics != '\0')) {
            std::atexit([] { flush(); });
        }
    }
};
const EnvInit g_env_init;

}  // namespace

namespace detail {

void count_slow(Cnt c, std::uint64_t n) noexcept {
    std::atomic<std::uint64_t>& cell = slot().counters[static_cast<std::size_t>(c)];
    // Owner-thread-only write: load+store beats an interlocked fetch_add.
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

void hist_slow(Hist h, std::uint64_t value) noexcept {
    ThreadSlot& s = slot();
    const std::size_t hi = static_cast<std::size_t>(h);
    std::atomic<std::uint64_t>& bucket = s.hist_buckets[hi][hist_bucket_index(value)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    std::atomic<std::uint64_t>& sum = s.hist_sums[hi];
    sum.store(sum.load(std::memory_order_relaxed) + value, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          // qoc-lint-allow(determinism-wall-clock): telemetry
                                          std::chrono::steady_clock::now() - reg().epoch)
                                          .count());
}

void record_span(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
                 std::uint64_t id, std::uint64_t parent, std::uint64_t request) noexcept {
    if (!tracing_enabled()) return;  // disabled (or reset) between ctor and dtor
    ThreadSlot& s = slot();
    const std::uint64_t n = s.ring_count.load(std::memory_order_relaxed);
    s.ring[n % kRingCapacity] =
        TraceEvent{name, t0_ns, t1_ns - t0_ns, s.tid, id, parent, request};
    s.ring_count.store(n + 1, std::memory_order_relaxed);
}

std::uint64_t next_span_id() noexcept {
    return g_span_ids.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace detail

std::uint64_t counter_value(Cnt c) noexcept {
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    std::uint64_t total = 0;
    for (const auto& s : r.slots) {
        total += s->counters[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
    }
    return total;
}

const char* counter_name(Cnt c) noexcept {
    return kCounterNames[static_cast<std::size_t>(c)];
}

const char* hist_name(Hist h) noexcept { return kHistNames[static_cast<std::size_t>(h)]; }

std::size_t hist_bucket_index(std::uint64_t value) noexcept {
    if (value < 4) return static_cast<std::size_t>(value);
    const int e = 63 - std::countl_zero(value);  // floor(log2), >= 2 here
    const std::uint64_t sub = (value >> (e - 2)) & 3u;
    return static_cast<std::size_t>(4 * (e - 1)) + static_cast<std::size_t>(sub);
}

std::uint64_t hist_bucket_lower(std::size_t bucket) noexcept {
    if (bucket < 4) return bucket;
    const std::size_t e = bucket / 4 + 1;
    const std::uint64_t sub = bucket % 4;
    return (std::uint64_t{1} << e) + (sub << (e - 2));
}

std::uint64_t hist_bucket_upper(std::size_t bucket) noexcept {
    if (bucket + 1 >= kHistBuckets) return UINT64_MAX;
    return hist_bucket_lower(bucket + 1);
}

HistSnapshot hist_snapshot(Hist h) {
    const std::size_t hi = static_cast<std::size_t>(h);
    HistSnapshot out;
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& s : r.slots) {
        out.sum += s->hist_sums[hi].load(std::memory_order_relaxed);
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
            const std::uint64_t n = s->hist_buckets[hi][b].load(std::memory_order_relaxed);
            out.buckets[b] += n;
            out.count += n;
        }
    }
    return out;
}

double hist_quantile(const HistSnapshot& s, double q) noexcept {
    if (s.count == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    // Rank-based estimate: the q-quantile of n samples sits at fractional
    // rank q*(n-1); interpolate linearly inside the bucket holding it.
    const double target = q * static_cast<double>(s.count - 1);
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
        const std::uint64_t n = s.buckets[b];
        if (n == 0) continue;
        if (static_cast<double>(below + n) > target) {
            const double lo = static_cast<double>(hist_bucket_lower(b));
            const double hi = static_cast<double>(hist_bucket_upper(b));
            const double frac = (target - static_cast<double>(below) + 0.5) /
                                static_cast<double>(n);
            const double est = lo + frac * (hi - lo);
            return est < lo ? lo : (est > hi ? hi : est);
        }
        below += n;
    }
    return static_cast<double>(hist_bucket_lower(kHistBuckets - 1));
}

void set_gauge(const char* name, double value) {
    if (!metrics_enabled()) return;
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    r.gauges[name] = value;
}

std::vector<std::pair<std::string, double>> gauges_snapshot() {
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    return {r.gauges.begin(), r.gauges.end()};
}

void emit_optimizer_iteration(const char* optimizer, int iteration, double cost,
                              double grad_norm, double step, int n_fun_evals,
                              double wall_time_s) {
    if (!telemetry_enabled()) return;
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.io_mu);
    std::FILE* f = r.metrics_file;
    if (f == nullptr) return;
    std::fprintf(f, "{\"type\":\"optimizer_iteration\",\"optimizer\":\"%s\",\"iteration\":%d,"
                    "\"cost\":",
                 optimizer, iteration);
    print_double(f, cost);
    std::fprintf(f, ",\"grad_norm\":");
    print_double(f, grad_norm);
    std::fprintf(f, ",\"step\":");
    print_double(f, step);
    std::fprintf(f, ",\"n_fun_evals\":%d,\"wall_time_s\":", n_fun_evals);
    print_double(f, wall_time_s);
    std::fprintf(f, "}\n");
}

void emit_rb_seed(const char* experiment, std::size_t length, std::int64_t seed,
                  double survival) {
    if (!telemetry_enabled()) return;
    const std::uint32_t tid = slot().tid;
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.io_mu);
    std::FILE* f = r.metrics_file;
    if (f == nullptr) return;
    std::fprintf(f, "{\"type\":\"rb_seed\",\"experiment\":\"%s\",\"length\":%zu,"
                    "\"seed\":%lld,\"survival\":",
                 experiment, length, static_cast<long long>(seed));
    print_double(f, survival);
    std::fprintf(f, ",\"thread\":%u}\n", tid);
}

void emit_service_request(std::uint64_t id, std::uint64_t seq, std::uint64_t key,
                          std::uint64_t device, const char* gate, std::uint64_t qubit,
                          std::uint64_t duration_dt, const char* lane, const char* outcome,
                          bool redesign, std::uint64_t latency_ns) {
    if (!telemetry_enabled()) return;
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.io_mu);
    std::FILE* f = r.metrics_file;
    if (f == nullptr) return;
    std::fprintf(f,
                 "{\"type\":\"service_request\",\"id\":%llu,\"seq\":%llu,\"key\":%llu,"
                 "\"device\":%llu,\"gate\":\"%s\",\"qubit\":%llu,\"duration_dt\":%llu,"
                 "\"lane\":\"%s\",\"outcome\":\"%s\",\"redesign\":%d,\"latency_ns\":%llu}\n",
                 static_cast<unsigned long long>(id), static_cast<unsigned long long>(seq),
                 static_cast<unsigned long long>(key),
                 static_cast<unsigned long long>(device), gate,
                 static_cast<unsigned long long>(qubit),
                 static_cast<unsigned long long>(duration_dt), lane, outcome,
                 redesign ? 1 : 0, static_cast<unsigned long long>(latency_ns));
}

namespace detail {

void write_jsonl_line(const std::string& line) {
    if (!telemetry_enabled()) return;
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.io_mu);
    std::FILE* f = r.metrics_file;
    if (f == nullptr) return;
    std::fwrite(line.data(), 1, line.size(), f);
    std::fputc('\n', f);
}

}  // namespace detail

void enable_tracing(const std::string& path) {
    Registry& r = reg();
    {
        std::lock_guard<std::mutex> lock(r.mu);
        r.trace_path = path;
    }
    g_obs_state.fetch_or(kTraceBit, std::memory_order_relaxed);
}

void enable_metrics(const std::string& path) {
    Registry& r = reg();
    std::uint32_t bits = kMetricsBit;
    {
        std::lock_guard<std::mutex> lock(r.io_mu);
        if (r.metrics_file != nullptr) {
            std::fclose(r.metrics_file);
            r.metrics_file = nullptr;
        }
        if (!path.empty()) {
            r.metrics_file = std::fopen(path.c_str(), "w");
            if (r.metrics_file != nullptr) bits |= kTelemetryBit;
        }
    }
    g_obs_state.fetch_or(bits, std::memory_order_relaxed);
}

void flush() {
    Registry& r = reg();
    std::string trace_path;
    {
        std::lock_guard<std::mutex> lock(r.mu);
        trace_path = r.trace_path;
    }
    if (tracing_enabled() && !trace_path.empty()) write_trace_file(trace_path);
    if (metrics_enabled()) {
        std::lock_guard<std::mutex> lock(r.io_mu);
        if (r.metrics_file != nullptr) {
            write_metrics_line(r.metrics_file);
            std::fflush(r.metrics_file);
        }
    }
    if (tracing_enabled() || metrics_enabled()) {
        const std::uint64_t dropped = dropped_trace_events();
        if (dropped > 0) {
            std::fprintf(stderr,
                         "qoc::obs: warning: %llu trace event(s) dropped by "
                         "per-thread ring overflow; earliest spans are missing "
                         "from the trace output\n",
                         static_cast<unsigned long long>(dropped));
        }
    }
}

void reset_for_testing() {
    g_obs_state.store(0, std::memory_order_relaxed);
    Registry& r = reg();
    {
        std::lock_guard<std::mutex> lock(r.io_mu);
        if (r.metrics_file != nullptr) {
            std::fclose(r.metrics_file);
            r.metrics_file = nullptr;
        }
    }
    std::lock_guard<std::mutex> lock(r.mu);
    r.trace_path.clear();
    r.gauges.clear();
    for (auto& s : r.slots) {
        for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
        for (auto& row : s->hist_buckets) {
            for (auto& b : row) b.store(0, std::memory_order_relaxed);
        }
        for (auto& sum : s->hist_sums) sum.store(0, std::memory_order_relaxed);
        s->ring_count.store(0, std::memory_order_relaxed);
    }
    // qoc-lint-allow(determinism-wall-clock): trace-epoch reset; telemetry only
    r.epoch = std::chrono::steady_clock::now();
    g_span_ids.store(0, std::memory_order_relaxed);
    detail::t_current_span = 0;  // calling thread only; workers restore via RAII
    detail::t_current_request = 0;
}

std::vector<TraceEvent> snapshot_trace_events() {
    Registry& r = reg();
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(r.mu);
        for (const auto& s : r.slots) {
            const std::uint64_t n = s->ring_count.load(std::memory_order_relaxed);
            const std::uint64_t kept = std::min<std::uint64_t>(n, kRingCapacity);
            for (std::uint64_t k = n - kept; k < n; ++k) {
                out.push_back(s->ring[k % kRingCapacity]);
            }
        }
    }
    std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
        return a.t0_ns != b.t0_ns ? a.t0_ns < b.t0_ns : a.tid < b.tid;
    });
    return out;
}

std::uint64_t dropped_trace_events() noexcept {
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    std::uint64_t dropped = 0;
    for (const auto& s : r.slots) {
        const std::uint64_t n = s->ring_count.load(std::memory_order_relaxed);
        if (n > kRingCapacity) dropped += n - kRingCapacity;
    }
    return dropped;
}

std::vector<RingStats> ring_stats() {
    Registry& r = reg();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<RingStats> out;
    out.reserve(r.slots.size());
    for (const auto& s : r.slots) {
        const std::uint64_t n = s->ring_count.load(std::memory_order_relaxed);
        RingStats rs;
        rs.tid = s->tid;
        rs.recorded = n;
        rs.dropped = n > kRingCapacity ? n - kRingCapacity : 0;
        out.push_back(rs);
    }
    return out;
}

}  // namespace qoc::obs
