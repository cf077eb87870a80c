/// \file obs.hpp
/// \brief `qoc::obs` -- zero-overhead tracing, metrics and telemetry.
///
/// Four facilities behind ONE relaxed-atomic state word:
///
///  * RAII **spans** (`Span`) recording chrome://tracing "X" complete events
///    into per-thread preallocated ring buffers -- no locks and no heap
///    allocation on the hot path; buffers are merged and time-sorted at
///    flush and written as a `{"traceEvents": [...]}` JSON file.
///  * A **metrics registry**: fixed-enum counters (`count`) on per-thread
///    padded cells (summed at read), plus named gauges for cold paths
///    (mutex inside).
///  * Fixed-enum **latency histograms** (`hist_record`): lock-free
///    log-bucketed value distributions on the same per-thread cells as the
///    counters, merged at read into p50/p90/p99/p999 quantile estimates.
///  * Structured **telemetry records** streamed as JSONL (one object per
///    line): per-iteration optimizer records, per-seed RB records,
///    per-request `service_request` records (joinable to trace spans by
///    request id, see `RequestScope`), periodic `snapshot` lines (see
///    snapshot.hpp), with a final `{"type":"metrics", ...}` dump appended
///    at flush.
///
/// Activation: `QOC_TRACE=<file>` / `QOC_METRICS=<file>` environment
/// variables (read once at startup; flush registered via `atexit`), or the
/// programmatic `enable_tracing` / `enable_metrics` calls below.
///
/// Disabled-path contract: every hot-path entry point (`count`, `Span`,
/// `hist_record`, `telemetry_enabled`) is a single relaxed atomic load plus
/// one branch.
/// Determinism contract: instrumentation only *reads* values the numerics
/// already computed; it never reorders reductions, never synchronizes
/// compute threads on the hot path, and therefore preserves the bitwise
/// 1-vs-N-thread reproducibility guarantees of the GRAPE and RB engines.
/// Request ids are derived from content (cache-key digest + issue sequence
/// number), never from wall clock, so a replayed request log reproduces the
/// same ids and telemetry from different runs can be diffed.

#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace qoc::obs {

// --- enable/disable gate -------------------------------------------------

inline constexpr std::uint32_t kTraceBit = 1u;      ///< spans -> trace file
inline constexpr std::uint32_t kMetricsBit = 2u;    ///< counters/gauges/hists
inline constexpr std::uint32_t kTelemetryBit = 4u;  ///< JSONL record stream

/// The single state word every hot-path check loads (relaxed).  Constant-
/// initialized: safe to query from any static initializer.
inline std::atomic<std::uint32_t> g_obs_state{0};

inline bool tracing_enabled() noexcept {
    return (g_obs_state.load(std::memory_order_relaxed) & kTraceBit) != 0;
}
inline bool metrics_enabled() noexcept {
    return (g_obs_state.load(std::memory_order_relaxed) & kMetricsBit) != 0;
}
inline bool telemetry_enabled() noexcept {
    return (g_obs_state.load(std::memory_order_relaxed) & kTelemetryBit) != 0;
}

// --- counters ------------------------------------------------------------

/// Fixed counter set.  Enum-indexed per-thread cells keep the enabled path
/// lock-free; totals are summed over threads at read time.
enum class Cnt : unsigned {
    kGemmCalls,         ///< dense complex matrix-matrix products
    kLuFactorizations,  ///< LU factorizations (expm denominators, solves)
    kCliffMemoHits,     ///< 2Q Clifford superop memo hits
    kCliffMemoMisses,   ///< 2Q Clifford superop memo misses (compositions)
    kSuperopApplies,    ///< single-column propagation steps (dense gemv_mixed)
    /// Never counted since the single-column CSR and Kronecker applies were
    /// removed; kept only because the e2e benchmark's layer table still
    /// reads both.  The next benchmark change removes them.
    kSuperopCsrApplies,
    kSuperopKronApplies,
    kSuperopBatchApplies, ///< batched d^2 x B applies (one per Clifford step)
    kExpmPade3,         ///< expm/Frechet calls at Pade order 3
    kExpmPade5,
    kExpmPade7,
    kExpmPade9,
    kExpmPade13,
    kExpmSpectral,      ///< Daleckii-Krein spectral-path calls
    kSvcCacheHit,       ///< pulse-store lookups served from a fresh entry
    kSvcCacheMiss,      ///< pulse-store misses (fan out to a design task)
    kSvcCacheRevalidate,  ///< suspect entries re-validated by IRB (not redesigned)
    kSvcAdmitted,       ///< design requests admitted to the service queue (monotone)
    kSvcQueueShed,      ///< design requests shed by admission control
    kSolverDispatches,  ///< solver runs (one per `optim::SolverLoop`, every method)
    kLbfgsbBoxActiveIters,  ///< L-BFGS-B iterations whose Cauchy point fixes a variable
    kLbfgsbModelResets,     ///< L-BFGS-B models dropped (singular K or a failed line search)
    kCount
};

namespace detail {
void count_slow(Cnt c, std::uint64_t n) noexcept;
}  // namespace detail

/// Bumps a counter.  Disabled: one relaxed load + branch, nothing else.
inline void count(Cnt c, std::uint64_t n = 1) noexcept {
    if ((g_obs_state.load(std::memory_order_relaxed) & kMetricsBit) == 0) return;
    detail::count_slow(c, n);
}

/// Total over all threads (0 when metrics were never enabled).
std::uint64_t counter_value(Cnt c) noexcept;

/// Dotted metric name of a counter (e.g. "linalg.gemm.calls").
const char* counter_name(Cnt c) noexcept;

/// Sets a named gauge (cold paths only: takes a mutex).
void set_gauge(const char* name, double value);

/// Current gauge values, name-sorted (cold; takes the registry mutex).
std::vector<std::pair<std::string, double>> gauges_snapshot();

// --- lock-free latency histograms -----------------------------------------
//
// Fixed histogram set recorded on per-thread padded cells, exactly like
// `Cnt`: the enabled path is one owner-thread relaxed load+store into a
// bucket cell -- no mutex, no CAS -- and the disabled path is one relaxed
// load plus a branch.  Values (nanoseconds for the latency/wall histograms)
// are log-bucketed: exact below 4, then four linear sub-buckets per power
// of two, i.e. a geometric resolution of at most 2^(1/4) (~19-25% relative
// bucket width).  Buckets are merged over threads at read time and reduced
// to quantile estimates by `hist_quantile`.

enum class Hist : unsigned {
    kSvcLatHitInteractive,         ///< request latency, interactive lane, hit
    kSvcLatHitBatch,               ///< request latency, batch lane, hit
    kSvcLatRevalidateInteractive,  ///< ... suspect entry revalidated by IRB
    kSvcLatRevalidateBatch,
    kSvcLatDesignInteractive,      ///< ... miss (or IRB failure): designed
    kSvcLatDesignBatch,
    kSvcLatShedInteractive,        ///< ... shed by admission control
    kSvcLatShedBatch,
    kDesignWall,                   ///< one gate-design optimization, wall ns
    kIrbWall,                      ///< one IRB characterization, wall ns
    kPoolQueueWait,                ///< task submit -> execution start, ns
    kLbfgsbLineSearchEvals,        ///< objective evaluations per line search
    kCount
};

/// Bucket count of the log-linear layout: indices 0..3 hold values 0..3
/// exactly; index 4*(e-1)+sub covers [2^e + sub*2^(e-2), 2^e + (sub+1)*2^(e-2))
/// for e in [2, 63], sub in [0, 4).
inline constexpr std::size_t kHistBuckets = 252;

namespace detail {
void hist_slow(Hist h, std::uint64_t value) noexcept;
std::uint64_t now_ns() noexcept;  // declared again in the spans section
}  // namespace detail

/// Monotonic nanoseconds since the process trace epoch -- the clock spans,
/// latency histograms and snapshot lines share.  Telemetry only: never feed
/// this into the numerics (it would break replay determinism).
inline std::uint64_t now_ns() noexcept { return detail::now_ns(); }

/// Records one observation.  Disabled: one relaxed load + branch.  Enabled:
/// per-thread bucket increment, lock-free (owner-thread-only writes).
inline void hist_record(Hist h, std::uint64_t value) noexcept {
    if ((g_obs_state.load(std::memory_order_relaxed) & kMetricsBit) == 0) return;
    detail::hist_slow(h, value);
}

/// Dotted metric name (e.g. "service.request.latency.interactive.hit").
const char* hist_name(Hist h) noexcept;

/// value -> bucket index (pure; exported for the oracle tests and report).
std::size_t hist_bucket_index(std::uint64_t value) noexcept;
/// Inclusive lower / exclusive upper bound of a bucket.  The last bucket's
/// upper bound saturates at UINT64_MAX.
std::uint64_t hist_bucket_lower(std::size_t bucket) noexcept;
std::uint64_t hist_bucket_upper(std::size_t bucket) noexcept;

/// Cross-thread merge of one histogram (cold; takes the registry mutex).
struct HistSnapshot {
    std::uint64_t count = 0;  ///< total observations
    std::uint64_t sum = 0;    ///< sum of observed values (mean = sum/count)
    std::array<std::uint64_t, kHistBuckets> buckets{};
};
HistSnapshot hist_snapshot(Hist h);

/// Quantile estimate (q in [0,1]) by linear interpolation inside the target
/// bucket; exact up to the <=2^(1/4) bucket resolution.  0 when empty.
double hist_quantile(const HistSnapshot& s, double q) noexcept;

/// RAII wall-clock timer into a fixed histogram.  Disabled cost: one
/// relaxed load + branch at construction, one branch at destruction.
class ScopedHistTimer {
public:
    explicit ScopedHistTimer(Hist h) noexcept : h_(h) {
        if ((g_obs_state.load(std::memory_order_relaxed) & kMetricsBit) != 0) {
            t0_ = detail::now_ns();
            armed_ = true;
        }
    }
    ~ScopedHistTimer() {
        if (armed_) hist_record(h_, detail::now_ns() - t0_);
    }
    ScopedHistTimer(const ScopedHistTimer&) = delete;
    ScopedHistTimer& operator=(const ScopedHistTimer&) = delete;

private:
    Hist h_;
    std::uint64_t t0_ = 0;
    bool armed_ = false;
};

// --- spans ---------------------------------------------------------------

/// One completed span, as merged out of the per-thread rings.
struct TraceEvent {
    const char* name;       ///< string literal passed to Span
    std::uint64_t t0_ns;    ///< begin, ns since process trace epoch
    std::uint64_t dur_ns;   ///< duration in ns
    std::uint32_t tid;      ///< obs thread index (registration order)
    std::uint64_t id;       ///< span id (1-based; 0 = none)
    std::uint64_t parent;   ///< enclosing span's id, 0 for roots
    std::uint64_t request;  ///< request id the span ran under, 0 for none
};

namespace detail {
std::uint64_t now_ns() noexcept;
void record_span(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
                 std::uint64_t id, std::uint64_t parent, std::uint64_t request) noexcept;
std::uint64_t next_span_id() noexcept;

/// The innermost live span of this thread (maintained by Span ctor/dtor and
/// overridden across task boundaries by TaskParentScope).
inline thread_local std::uint64_t t_current_span = 0;
/// The request id this thread currently serves (RequestScope), carried
/// across task boundaries alongside the span parent.
inline thread_local std::uint64_t t_current_request = 0;
}  // namespace detail

/// Id of the innermost live span on this thread (0 = none / tracing off).
/// `qoc::runtime` captures this at task submission so spans opened inside a
/// worker keep their logical parent.
inline std::uint64_t current_span() noexcept { return detail::t_current_span; }

/// Request id active on this thread (0 = none).  Captured at task submit
/// together with the span id, so design/IRB work a request fans out onto
/// the pool stays correlated with the `service_request` record.
inline std::uint64_t current_request() noexcept { return detail::t_current_request; }

/// Marks a scope as serving one request: spans opened inside (on this
/// thread or, via task-submit capture, on workers) carry `id` in their
/// trace events, which is what makes a trace joinable with the
/// `service_request` JSONL records.  Ids must be derived from content
/// (e.g. cache-key digest + sequence number), never from wall clock.
class RequestScope {
public:
    explicit RequestScope(std::uint64_t id) noexcept
        : prev_(detail::t_current_request) {
        detail::t_current_request = id;
    }
    ~RequestScope() { detail::t_current_request = prev_; }
    RequestScope(const RequestScope&) = delete;
    RequestScope& operator=(const RequestScope&) = delete;

private:
    std::uint64_t prev_;
};

/// Installs a foreign span id (and the submitter's request id) as this
/// thread's current span/request for a scope.  Used by the task runtime to
/// carry the SUBMITTER's context across the task boundary: spans opened
/// inside the task parent to the submitting span -- and inherit its request
/// -- not whatever the worker happened to be running before.
class TaskParentScope {
public:
    explicit TaskParentScope(std::uint64_t parent, std::uint64_t request = 0) noexcept
        : prev_span_(detail::t_current_span), prev_request_(detail::t_current_request) {
        detail::t_current_span = parent;
        detail::t_current_request = request;
    }
    ~TaskParentScope() {
        detail::t_current_span = prev_span_;
        detail::t_current_request = prev_request_;
    }
    TaskParentScope(const TaskParentScope&) = delete;
    TaskParentScope& operator=(const TaskParentScope&) = delete;

private:
    std::uint64_t prev_span_;
    std::uint64_t prev_request_;
};

/// RAII span.  `name` must be a string literal (stored by pointer).  When
/// tracing is disabled, construction is one relaxed load + branch and the
/// destructor is a null-pointer test.
class Span {
public:
    explicit Span(const char* name) noexcept {
        if ((g_obs_state.load(std::memory_order_relaxed) & kTraceBit) != 0) {
            name_ = name;
            t0_ = detail::now_ns();
            parent_ = detail::t_current_span;
            request_ = detail::t_current_request;
            id_ = detail::next_span_id();
            detail::t_current_span = id_;
        }
    }
    ~Span() {
        if (name_ != nullptr) {
            detail::t_current_span = parent_;
            detail::record_span(name_, t0_, detail::now_ns(), id_, parent_, request_);
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    const char* name_ = nullptr;
    std::uint64_t t0_ = 0;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t request_ = 0;
};

// --- telemetry records ---------------------------------------------------

/// Streams one `{"type":"optimizer_iteration",...}` JSONL record.  No-op
/// unless telemetry is enabled (QOC_METRICS set / enable_metrics(path)).
void emit_optimizer_iteration(const char* optimizer, int iteration, double cost,
                              double grad_norm, double step, int n_fun_evals,
                              double wall_time_s);

/// Streams one `{"type":"rb_seed",...}` JSONL record ("thread" is the obs
/// thread index of the caller).  Safe to call from inside OpenMP loops: the
/// file write is serialized by a mutex that the numerics never touch.
void emit_rb_seed(const char* experiment, std::size_t length, std::int64_t seed,
                  double survival);

/// Streams one `{"type":"service_request",...}` JSONL record.  `id` is the
/// content-derived request id (also carried by the request's trace spans),
/// `seq` the issue sequence it was derived from, `key` the pulse-store key,
/// `lane` "interactive"/"batch", `outcome` "hit"/"revalidate"/"design"/
/// "shed".  `redesign` marks a design that replaced an IRB-failed entry.
void emit_service_request(std::uint64_t id, std::uint64_t seq, std::uint64_t key,
                          std::uint64_t device, const char* gate, std::uint64_t qubit,
                          std::uint64_t duration_dt, const char* lane, const char* outcome,
                          bool redesign, std::uint64_t latency_ns);

namespace detail {
/// Appends one pre-formatted JSONL line (no trailing newline in `line`) to
/// the telemetry stream under the io mutex.  No-op when telemetry is off.
/// Cold paths only (the Snapshotter's emit seam).
void write_jsonl_line(const std::string& line);
}  // namespace detail

// --- control / inspection ------------------------------------------------

/// Enables span collection.  `path == ""` keeps events in memory only
/// (tests); otherwise `flush()` writes a chrome://tracing JSON file there.
void enable_tracing(const std::string& path);

/// Enables the metrics registry, and -- when `path` is non-empty -- also the
/// JSONL telemetry stream to that file (truncated on enable).
void enable_metrics(const std::string& path);

/// Writes pending output: the chrome trace file (when a trace path is set)
/// and the final `{"type":"metrics",...}` JSONL line.  Call from one thread,
/// outside parallel regions.  State stays enabled; callable repeatedly.
void flush();

/// Test helper: clears all state bits, zeroes every counter and ring,
/// drops gauges/histograms and closes the telemetry file WITHOUT writing
/// the final metrics line.  Per-thread slots stay registered.
void reset_for_testing();

/// Merged snapshot of all per-thread rings, sorted by (t0_ns, tid).  Call
/// outside parallel regions.
std::vector<TraceEvent> snapshot_trace_events();

/// Spans lost to ring overwrite since enable/reset (summed over threads).
std::uint64_t dropped_trace_events() noexcept;

/// Per-thread span-ring accounting: `recorded` is the ring's high-water
/// mark (total spans ever recorded by that thread), `dropped` how many of
/// them were overwritten before flush.  Embedded as metadata in the chrome
/// trace and the final metrics line, so truncated traces are diagnosable.
struct RingStats {
    std::uint32_t tid = 0;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
};
std::vector<RingStats> ring_stats();

}  // namespace qoc::obs
