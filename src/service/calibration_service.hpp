/// \file calibration_service.hpp
/// \brief Resident calibration service: content-addressed pulse cache with
///        drift-aware invalidation in front of the design pipeline.
///
/// The serving model, end to end:
///
///   request(device, gate, ...) -> key = digest(quantized snapshot, request)
///        |
///        v
///   FRESH entry  ------------------------------> serve (cache.hit)
///   SUSPECT entry -> cheap IRB on the CURRENT --> pass: promote + serve
///        |           drifted device              (cache.revalidate)
///        |              |
///        |              v fail
///   MISS ----------> coalesced design task on TaskPool::global()
///                    (cache.miss; admission control may shed)
///
/// Invalidation state machine: `update_device` (the daily drift
/// notification) compares each served entry's last-validated exact
/// parameters against the new snapshot; entries whose parameters moved past
/// `DriftTolerance` are demoted FRESH -> SUSPECT.  A suspect entry is never
/// thrown away eagerly: the next request runs a cheap interleaved-RB check
/// against the drifted executor and only falls through to a full re-design
/// when the IRB gate error exceeds the bound.  Re-designs deterministically
/// fold the entry's design generation into the optimizer seed, so the
/// replacement pulse differs from the failed one.
///
/// Coalescing semantics: concurrent identical misses (same key) share one
/// in-flight design; the extra callers wait -- HELPING, i.e. running queued
/// pool tasks, so pool size 1 cannot deadlock -- on the leader's result.
/// Because designs always run against the bucket-canonical snapshot
/// (`quantize_design_model`) and the optimizer seed is part of the key, the
/// designed pulse is a pure function of the key: whoever computes it, the
/// bytes are the same, which is what makes replaying a request log bitwise
/// deterministic at any pool width.
///
/// Admission control: design work is bounded by `queue_bound` in-flight
/// designs.  Past the bound, new DESIGN requests are shed (queue.shed);
/// lookups -- hits and revalidations -- are never shed.  Two priority lanes
/// feed the pool: each queued job submits one pool task, and every task pops
/// the highest-priority pending job at execution time, so interactive
/// requests overtake batch backfill whenever a backlog forms.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "device/backend_config.hpp"
#include "experiments/gate_designer.hpp"
#include "rb/rb.hpp"
#include "service/pulse_store.hpp"

namespace qoc::experiments {
class DesignPipeline;
class PipelineContexts;
}  // namespace qoc::experiments

namespace qoc::obs {
class Snapshotter;
}  // namespace qoc::obs

namespace qoc::device {
class PulseExecutor;
}  // namespace qoc::device

namespace qoc::service {

/// Per-parameter drift bounds an entry stays FRESH within.  Compared between
/// the entry's last-validated EXACT snapshot and the newest one; defaults
/// are a few typical daily excursions under `device::DriftOptions`, so most
/// days keep entries fresh and only genuine drift triggers revalidation.
struct DriftTolerance {
    double detuning_abs = 1.5e-3;  ///< rad/ns (~10 sigma of daily kicks)
    double amp_rel = 0.015;        ///< relative drive-amplitude change
    double t1_rel = 0.15;          ///< relative T1 change
    double t2_rel = 0.15;
    double readout_abs = 0.05;     ///< absolute readout-error change
};

/// Cheap RB protocol for service-side characterization (reference curves and
/// suspect-entry revalidation).  Full-fidelity studies should override.
rb::RbOptions default_service_rb();

struct ServiceOptions {
    KeyQuant quant;
    DriftTolerance tolerance;
    /// Max designs queued or running at once; further design requests are
    /// shed.  0 disables designing entirely (lookup-only service).
    std::size_t queue_bound = 64;
    rb::RbOptions rb = default_service_rb();
    /// Design-model fidelity/cost trade-off for pulses the service designs.
    /// The two-level closed model keeps a resident service responsive; the
    /// three-level models are the paper-faithful (and much slower) choice.
    experiments::DesignModel design_model = experiments::DesignModel::kTwoLevelClosed;
    double amp_bound = 0.15;       ///< per-quadrature cap (GateDesignSpec)
    double energy_penalty = 0.02;
    bool use_y_control = true;
    /// Optimizer the service's designs run (any OptimMethod; Krotov is
    /// closed-system only, so pair it with a *Closed design model).  Folded
    /// into the cache key: services differing only in solver never alias.
    control::OptimMethod method = control::OptimMethod::kLbfgsB;
    /// IRB gate-error bound a suspect entry must beat to be revalidated
    /// instead of re-designed.  +infinity revalidates unconditionally;
    /// -infinity forces every suspect entry through a re-design.  (Finite
    /// negative values are NOT a reliable "never pass": the IRB error
    /// estimate 1 - alpha_i/alpha_r is unbounded below at small statistics.)
    double revalidate_gate_error_bound = 0.02;
    /// Telemetry snapshot period (ms) for the service-owned Snapshotter,
    /// which samples queue depth, in-flight designs and store occupancy as
    /// gauges.  0 defers to the QOC_SNAPSHOT_MS environment variable
    /// (unset/0 = no snapshot thread).  Snapshots only emit while the
    /// telemetry stream (QOC_METRICS) is enabled.
    std::uint64_t snapshot_ms = 0;
};

/// One pulse request.  Everything here is part of the cache key (together
/// with the quantized device snapshot), so requests that differ in any field
/// address different entries.
struct PulseRequest {
    std::string gate = "x";        ///< "x", "sx", "h" or "cx"
    std::size_t qubit = 0;         ///< ignored for cx (always the {0,1} pair)
    std::size_t duration_dt = 64;
    std::size_t n_timeslots = 8;
    int max_iterations = 12;
    std::uint64_t design_seed = 1;
    unsigned priority = 0;         ///< 0 = interactive lane, else batch lane
};

enum class ResponseStatus : std::uint8_t {
    kHit = 0,          ///< served from a fresh entry
    kRevalidated = 1,  ///< suspect entry passed IRB and was promoted
    kDesigned = 2,     ///< miss (or failed revalidation): designed anew
    kShed = 3,         ///< admission control refused the design; no pulse
};

struct PulseResponse {
    ResponseStatus status = ResponseStatus::kShed;
    std::uint64_t key = 0;
    StoredPulse pulse;  ///< meaningful unless status == kShed
};

/// FNV-1a digest of the response PAYLOAD: key, duration and the bit patterns
/// of the model infidelity and every channel sample.  Deliberately excludes
/// `status` -- whether a given request hit or coalesced into a miss depends
/// on thread interleaving, but the payload is a pure function of the key, so
/// this digest is the replay-determinism observable.
std::uint64_t response_payload_digest(const PulseResponse& response);

/// Cumulative service statistics (independent of whether `qoc::obs` metrics
/// are enabled; the obs counters mirror these).
struct ServiceStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t revalidations = 0;  ///< suspect entries promoted by IRB
    std::uint64_t redesigns = 0;      ///< designs of keys that had an entry
    std::uint64_t shed = 0;
    std::uint64_t demoted = 0;        ///< fresh -> suspect transitions
};

/// See the file comment.  All public methods are thread-safe; `request` is
/// synchronous (it returns the served pulse) but internally fans design work
/// out to `runtime::TaskPool::global()` and helps while waiting.
class CalibrationService {
public:
    explicit CalibrationService(ServiceOptions options = {});
    ~CalibrationService();

    CalibrationService(const CalibrationService&) = delete;
    CalibrationService& operator=(const CalibrationService&) = delete;

    /// Registers (or replaces) a device snapshot: builds its executor,
    /// daily-calibrated default gates and a design pipeline whose
    /// characterization contexts are shared across every request served on
    /// this snapshot (the `PipelineContexts` seam).
    void register_device(std::size_t device_id, const device::BackendConfig& config);

    /// Drift notification: re-registers the device on its new snapshot and
    /// demotes served entries whose validated parameters moved past the
    /// tolerance.  Returns how many entries were demoted to suspect.
    std::size_t update_device(std::size_t device_id, const device::BackendConfig& config);

    /// The cache key `req` addresses on `device_id`'s current snapshot.
    std::uint64_t request_key(std::size_t device_id, const PulseRequest& req) const;

    /// Serves a pulse for `req` (see the file comment for the state
    /// machine).  Throws `std::out_of_range` for an unregistered device and
    /// `std::invalid_argument` for an unsupported gate name.
    ///
    /// `sequence` is the request's issue sequence number: together with the
    /// cache key it derives the telemetry request id (content-derived, never
    /// wall clock), so a replayed request log reproduces identical ids.
    /// Callers replaying a log should pass the log record's index; the
    /// two-argument overload auto-assigns from a service-local counter.
    PulseResponse request(std::size_t device_id, const PulseRequest& req,
                          std::uint64_t sequence);
    PulseResponse request(std::size_t device_id, const PulseRequest& req) {
        return request(device_id, req, seq_.fetch_add(1, std::memory_order_relaxed));
    }

    /// Instantaneous design-queue depth (jobs queued, not yet popped by a
    /// pool task) and in-flight design count (queued or running).  Sampled
    /// by the Snapshotter as gauges -- these are NOT monotone counters; the
    /// admitted-count counter is `obs::Cnt::kSvcAdmitted`.
    std::size_t queue_depth() const;
    std::size_t inflight_designs() const;

    /// The underlying content-addressed store (e.g. for persistence:
    /// `store().save_jsonl(path)` / `store().load_jsonl(path)`).
    PulseStore& store() { return store_; }
    const PulseStore& store() const { return store_; }

    ServiceStats stats() const;
    const ServiceOptions& options() const { return options_; }

private:
    struct DeviceState;
    struct Inflight;
    /// One queued design (complete here so the lane deques can hold it; the
    /// pointees stay opaque).
    struct DesignJob {
        std::shared_ptr<const DeviceState> dev;
        PulseRequest req;
        std::uint64_t key = 0;
        std::uint64_t design_count = 0;
        std::shared_ptr<Inflight> inf;
    };

    std::shared_ptr<const DeviceState> device_state(std::size_t device_id) const;
    std::shared_ptr<const DeviceState> build_device_state(const device::BackendConfig& cfg) const;
    std::uint64_t key_for(const DeviceState& dev, const PulseRequest& req) const;
    StoredPulse design_pulse(const DeviceState& dev, const PulseRequest& req, std::uint64_t key,
                             std::uint64_t design_count) const;
    PulseResponse serve(std::size_t device_id, const PulseRequest& req,
                        const std::shared_ptr<const DeviceState>& dev, std::uint64_t key,
                        bool& redesigned);
    void run_one_job();
    static void wait_inflight(Inflight& inf);

    ServiceOptions options_;
    PulseStore store_;
    std::atomic<std::uint64_t> seq_{0};  ///< auto-assigned issue sequence

    mutable std::mutex dev_mu_;
    std::unordered_map<std::size_t, std::shared_ptr<const DeviceState>> devices_;
    /// Keys ever served per device -- the set `update_device` screens for
    /// drift (content-addressing means two devices may share an entry).
    std::unordered_map<std::size_t, std::unordered_set<std::uint64_t>> served_;

    mutable std::mutex q_mu_;
    std::unordered_map<std::uint64_t, std::shared_ptr<Inflight>> inflight_;
    std::deque<DesignJob> lanes_[2];  ///< [0] interactive, [1] batch
    std::size_t queued_or_running_ = 0;

    mutable std::mutex stats_mu_;
    ServiceStats stats_;

    /// Declared last: destroyed (and its thread joined) while every member
    /// its gauge sources sample is still alive.
    std::unique_ptr<obs::Snapshotter> snapshotter_;
};

}  // namespace qoc::service
