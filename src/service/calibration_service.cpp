#include "service/calibration_service.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "control/pulseoptim.hpp"
#include "device/calibration.hpp"
#include "device/executor.hpp"
#include "experiments/design_pipeline.hpp"
#include "experiments/irb_experiment.hpp"
#include "obs/obs.hpp"
#include "obs/snapshot.hpp"
#include "runtime/task_pool.hpp"
#include "util/fnv1a.hpp"

namespace qoc::service {

namespace {

/// `flatten_params` restricted to the qubits a request can depend on.
std::vector<std::uint64_t> snapshot_params(const device::BackendConfig& cfg, std::size_t qubit,
                                           bool two_qubit) {
    device::BackendConfig tmp;
    if (two_qubit) {
        tmp.qubits = {cfg.qubit(0), cfg.qubit(1)};
    } else {
        tmp.qubits = {cfg.qubit(qubit)};
    }
    return flatten_params(tmp);
}

/// Whether any tolerance-screened parameter moved past its bound between the
/// entry's last-validated snapshot and the current one.  A layout mismatch
/// (e.g. an entry loaded from an older store) conservatively counts as
/// drifted.
bool params_drifted(const std::vector<std::uint64_t>& validated,
                    const std::vector<std::uint64_t>& now, const DriftTolerance& tol) {
    if (validated.size() != now.size() || validated.empty() || validated.size() % 10 != 0) {
        return true;
    }
    const auto f = [](std::uint64_t b) { return std::bit_cast<double>(b); };
    for (std::size_t base = 0; base < validated.size(); base += 10) {
        // flatten_params layout: freq, anharm, t1, t2, omega, detuning,
        // amp_scale, drive_amp_noise, readout_p10, readout_p01.
        if (std::abs(f(now[base + 5]) - f(validated[base + 5])) > tol.detuning_abs) return true;
        if (std::abs(f(now[base + 6]) / f(validated[base + 6]) - 1.0) > tol.amp_rel) return true;
        if (std::abs(f(now[base + 2]) / f(validated[base + 2]) - 1.0) > tol.t1_rel) return true;
        if (std::abs(f(now[base + 3]) / f(validated[base + 3]) - 1.0) > tol.t2_rel) return true;
        if (std::abs(f(now[base + 8]) - f(validated[base + 8])) > tol.readout_abs) return true;
        if (std::abs(f(now[base + 9]) - f(validated[base + 9])) > tol.readout_abs) return true;
    }
    return false;
}

bool supported_gate(const std::string& gate) {
    return gate == "x" || gate == "sx" || gate == "h" || gate == "cx";
}

std::uint64_t env_snapshot_ms() {
    const char* v = std::getenv("QOC_SNAPSHOT_MS");
    if (v == nullptr || *v == '\0') return 0;
    const long parsed = std::atol(v);
    return parsed > 0 ? static_cast<std::uint64_t>(parsed) : 0;
}

/// The latency histogram a finished request records into: one per
/// lane x outcome cell.
obs::Hist latency_hist(bool interactive, ResponseStatus status) {
    switch (status) {
        case ResponseStatus::kHit:
            return interactive ? obs::Hist::kSvcLatHitInteractive
                               : obs::Hist::kSvcLatHitBatch;
        case ResponseStatus::kRevalidated:
            return interactive ? obs::Hist::kSvcLatRevalidateInteractive
                               : obs::Hist::kSvcLatRevalidateBatch;
        case ResponseStatus::kDesigned:
            return interactive ? obs::Hist::kSvcLatDesignInteractive
                               : obs::Hist::kSvcLatDesignBatch;
        case ResponseStatus::kShed:
            break;
    }
    return interactive ? obs::Hist::kSvcLatShedInteractive : obs::Hist::kSvcLatShedBatch;
}

const char* outcome_name(ResponseStatus status) {
    switch (status) {
        case ResponseStatus::kHit: return "hit";
        case ResponseStatus::kRevalidated: return "revalidate";
        case ResponseStatus::kDesigned: return "design";
        case ResponseStatus::kShed: break;
    }
    return "shed";
}

}  // namespace

rb::RbOptions default_service_rb() {
    rb::RbOptions rb;
    rb.lengths = {1, 8, 16};
    rb.seeds_per_length = 2;
    rb.shots = 128;
    return rb;
}

std::uint64_t response_payload_digest(const PulseResponse& response) {
    util::Fnv1a h;
    h.u64(response.key);
    const bool has_payload = response.status != ResponseStatus::kShed;
    h.u64(has_payload ? 1 : 0);
    if (!has_payload) return h.digest();
    h.u64(response.pulse.duration_dt);
    h.f64_bits(response.pulse.model_fid_err);
    for (const auto& ch : response.pulse.channels) {
        h.u64(static_cast<std::uint64_t>(ch.channel.type));
        h.u64(ch.channel.index);
        for (const auto& s : ch.samples) {
            h.f64_bits(s.real());
            h.f64_bits(s.imag());
        }
    }
    return h.digest();
}

/// Everything the service keeps per registered device snapshot.  Rebuilt
/// wholesale on `update_device`; requests pin the state they started with
/// via shared_ptr, so a mid-request drift notification never invalidates
/// what a running request reads.
struct CalibrationService::DeviceState {
    device::BackendConfig exact;      ///< the drifted snapshot as registered
    device::BackendConfig canonical;  ///< bucket-canonical design model
    std::vector<std::uint64_t> qubit_digest;  ///< per-qubit snapshot digests
    std::uint64_t pair_digest = 0;            ///< {0,1}-pair digest (cx)
    std::unique_ptr<device::PulseExecutor> exec;
    pulse::InstructionScheduleMap defaults;
    /// Shared characterization contexts: every IRB this snapshot serves
    /// (revalidations and any future pipeline) reuses one gate set +
    /// reference curve per qubit instead of re-measuring them.
    std::shared_ptr<experiments::PipelineContexts> ctxs;
    std::unique_ptr<experiments::DesignPipeline> pipeline;
};

struct CalibrationService::Inflight {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    StoredPulse result;
    std::exception_ptr error;
};

CalibrationService::CalibrationService(ServiceOptions options) : options_(std::move(options)) {
    if (options_.snapshot_ms == 0) options_.snapshot_ms = env_snapshot_ms();
    if (options_.snapshot_ms > 0) {
        snapshotter_ = std::make_unique<obs::Snapshotter>(options_.snapshot_ms);
        snapshotter_->add_source([this] {
            obs::set_gauge("service.queue.depth", static_cast<double>(queue_depth()));
            obs::set_gauge("service.inflight_designs",
                           static_cast<double>(inflight_designs()));
            const PulseStore::Occupancy occ = store_.occupancy();
            obs::set_gauge("store.entries", static_cast<double>(occ.total));
            obs::set_gauge("store.fresh", static_cast<double>(occ.fresh));
            obs::set_gauge("store.suspect", static_cast<double>(occ.suspect));
            for (std::size_t i = 0; i < PulseStore::kShards; ++i) {
                char name[40];
                std::snprintf(name, sizeof(name), "store.shard.%02zu", i);
                obs::set_gauge(name, static_cast<double>(occ.shard_sizes[i]));
            }
        });
        snapshotter_->start();
    }
}

CalibrationService::~CalibrationService() {
    // Join the snapshot thread while every member its sources read is alive.
    if (snapshotter_) snapshotter_->stop();
}

std::shared_ptr<const CalibrationService::DeviceState> CalibrationService::build_device_state(
    const device::BackendConfig& cfg) const {
    auto st = std::make_shared<DeviceState>();
    st->exact = cfg;
    st->canonical = quantize_design_model(cfg, options_.quant);
    st->qubit_digest.reserve(cfg.qubits.size());
    for (std::size_t q = 0; q < cfg.qubits.size(); ++q) {
        st->qubit_digest.push_back(device_key_digest(cfg, options_.quant, q, false));
    }
    if (cfg.qubits.size() >= 2) {
        st->pair_digest = device_key_digest(cfg, options_.quant, 0, true);
    }
    st->exec = std::make_unique<device::PulseExecutor>(cfg);
    st->defaults = device::build_default_gates(*st->exec);
    st->ctxs = experiments::DesignPipeline::make_contexts();
    experiments::DesignPipelineOptions popt;
    popt.rb = options_.rb;
    popt.characterize = true;
    st->pipeline = std::make_unique<experiments::DesignPipeline>(*st->exec, st->defaults,
                                                                 st->ctxs, popt);
    return st;
}

void CalibrationService::register_device(std::size_t device_id,
                                         const device::BackendConfig& config) {
    auto st = build_device_state(config);
    std::lock_guard<std::mutex> lk(dev_mu_);
    devices_[device_id] = std::move(st);
}

std::size_t CalibrationService::update_device(std::size_t device_id,
                                              const device::BackendConfig& config) {
    auto st = build_device_state(config);
    std::unordered_set<std::uint64_t> keys;
    {
        std::lock_guard<std::mutex> lk(dev_mu_);
        devices_[device_id] = std::move(st);
        const auto it = served_.find(device_id);
        if (it != served_.end()) keys = it->second;
    }
    if (keys.empty()) return 0;
    const std::size_t demoted = store_.demote_if([&](const StoredPulse& entry) {
        if (keys.find(entry.key) == keys.end()) return false;
        return params_drifted(entry.validated,
                              snapshot_params(config, entry.qubit, entry.gate == "cx"),
                              options_.tolerance);
    });
    if (demoted != 0) {
        std::lock_guard<std::mutex> lk(stats_mu_);
        stats_.demoted += demoted;
    }
    return demoted;
}

std::shared_ptr<const CalibrationService::DeviceState> CalibrationService::device_state(
    std::size_t device_id) const {
    std::lock_guard<std::mutex> lk(dev_mu_);
    const auto it = devices_.find(device_id);
    if (it == devices_.end()) {
        throw std::out_of_range("CalibrationService: unregistered device " +
                                std::to_string(device_id));
    }
    return it->second;
}

std::uint64_t CalibrationService::key_for(const DeviceState& dev, const PulseRequest& req) const {
    const bool two_qubit = req.gate == "cx";
    util::Fnv1a h;
    h.u64(two_qubit ? dev.pair_digest : dev.qubit_digest.at(req.qubit));
    h.bytes(req.gate);
    h.byte(0);  // name terminator
    h.u64(two_qubit ? 0 : req.qubit);
    h.u64(req.duration_dt);
    h.u64(req.n_timeslots);
    h.i64(req.max_iterations);
    h.u64(req.design_seed);
    // Service-level optimizer configuration (constant per service, but two
    // services with different design settings must not share entries).
    h.u64(static_cast<std::uint64_t>(options_.design_model));
    h.f64_bits(options_.amp_bound);
    h.f64_bits(options_.energy_penalty);
    h.byte(options_.use_y_control ? 1 : 0);
    // Solver choice changes the designed pulse, so it must not alias: fold
    // the method name (stable across enum reordering) into the key.
    h.bytes(control::method_name(options_.method));
    h.byte(0);
    return h.digest();
}

std::uint64_t CalibrationService::request_key(std::size_t device_id,
                                              const PulseRequest& req) const {
    return key_for(*device_state(device_id), req);
}

StoredPulse CalibrationService::design_pulse(const DeviceState& dev, const PulseRequest& req,
                                             std::uint64_t key,
                                             std::uint64_t design_count) const {
    const bool two_qubit = req.gate == "cx";
    // Fold the design generation into the optimizer seed so a re-design
    // after an IRB failure explores a different pulse -- deterministically.
    // The structured initial-pulse families ignore random_seed, so redesigns
    // also switch to a seeded random initial pulse: generation 0 stays
    // bitwise what the pipeline would design, later generations genuinely
    // move to a different basin.
    const std::uint64_t seed = req.design_seed + 0x9e3779b97f4a7c15ull * design_count;
    const bool redesign = design_count > 0;
    obs::ScopedHistTimer timer(obs::Hist::kDesignWall);
    StoredPulse p;
    p.key = key;
    p.gate = req.gate;
    p.qubit = two_qubit ? 0 : req.qubit;
    p.duration_dt = req.duration_dt;
    p.design_count = design_count + 1;
    p.state = EntryState::kFresh;
    p.validated = snapshot_params(dev.exact, p.qubit, two_qubit);
    pulse::Schedule sched;
    if (two_qubit) {
        experiments::CxDesignSpec spec;
        spec.duration_dt = req.duration_dt;
        spec.n_timeslots = req.n_timeslots;
        spec.max_iterations = req.max_iterations;
        spec.random_seed = seed;
        spec.method = options_.method;
        if (redesign) spec.seed = control::InitialPulseType::kRandom;
        auto designed = experiments::design_cx_gate(dev.canonical, spec);
        p.model_fid_err = designed.model_fid_err;
        sched = std::move(designed.schedule);
    } else {
        experiments::GateDesignSpec spec;
        spec.target = experiments::ideal_1q_gate(req.gate);
        spec.duration_dt = req.duration_dt;
        spec.n_timeslots = req.n_timeslots;
        spec.use_y_control = options_.use_y_control;
        spec.model = options_.design_model;
        spec.amp_bound = options_.amp_bound;
        spec.energy_penalty = options_.energy_penalty;
        spec.random_seed = seed;
        spec.max_iterations = req.max_iterations;
        spec.method = options_.method;
        if (redesign) spec.seed = control::InitialPulseType::kRandom;
        auto designed = experiments::design_1q_gate(dev.canonical, req.qubit, req.gate, spec);
        p.model_fid_err = designed.model_fid_err;
        sched = std::move(designed.schedule);
    }
    std::vector<pulse::Channel> channels = sched.channels();
    std::sort(channels.begin(), channels.end());  // canonical channel order
    for (const pulse::Channel& ch : channels) {
        const std::size_t n = sched.channel_duration(ch);
        if (n == 0) continue;
        p.channels.push_back({ch, sched.channel_samples(ch, n)});
    }
    return p;
}

void CalibrationService::run_one_job() {
    DesignJob job;
    {
        std::lock_guard<std::mutex> lk(q_mu_);
        if (!lanes_[0].empty()) {
            job = std::move(lanes_[0].front());
            lanes_[0].pop_front();
        } else if (!lanes_[1].empty()) {
            job = std::move(lanes_[1].front());
            lanes_[1].pop_front();
        } else {
            return;  // every queued job has exactly one task; cannot happen
        }
    }
    StoredPulse result;
    std::exception_ptr error;
    try {
        result = design_pulse(*job.dev, job.req, job.key, job.design_count);
        store_.put(result);
    } catch (...) {
        error = std::current_exception();
    }
    {
        std::lock_guard<std::mutex> lk(q_mu_);
        inflight_.erase(job.key);
        --queued_or_running_;
    }
    {
        std::lock_guard<std::mutex> lk(job.inf->mu);
        job.inf->result = std::move(result);
        job.inf->error = error;
        job.inf->done = true;
    }
    job.inf->cv.notify_all();
}

void CalibrationService::wait_inflight(Inflight& inf) {
    // Mirror Future<T>::get(): HELP by running queued pool tasks while the
    // leader's design is pending, so a pool of size 1 (no workers at all)
    // still makes progress -- the waiter itself executes the design task.
    runtime::TaskPool& pool = runtime::TaskPool::global();
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(inf.mu);
            if (inf.done) return;
        }
        if (!pool.try_run_one()) {
            std::unique_lock<std::mutex> lk(inf.mu);
            inf.cv.wait(lk, [&] { return inf.done; });
            return;
        }
    }
}

PulseResponse CalibrationService::request(std::size_t device_id, const PulseRequest& req,
                                          std::uint64_t sequence) {
    if (!supported_gate(req.gate)) {
        throw std::invalid_argument("CalibrationService: unsupported gate '" + req.gate + "'");
    }
    const auto dev = device_state(device_id);
    const std::uint64_t key = key_for(*dev, req);

    // Content-derived request id: spans opened below (and design/IRB work
    // fanned out to the pool) carry it, and the service_request record joins
    // the trace on it.  Replaying a request log reproduces identical ids.
    util::Fnv1a idh;
    idh.u64(key);
    idh.u64(sequence);
    const std::uint64_t request_id = idh.digest();
    obs::RequestScope rscope(request_id);
    obs::Span span("service.request");

    const bool timed = obs::metrics_enabled() || obs::telemetry_enabled();
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;
    bool redesigned = false;
    PulseResponse resp = serve(device_id, req, dev, key, redesigned);
    if (timed) {
        const std::uint64_t latency = obs::now_ns() - t0;
        const bool interactive = req.priority == 0;
        obs::hist_record(latency_hist(interactive, resp.status), latency);
        obs::emit_service_request(request_id, sequence, key, device_id, req.gate.c_str(),
                                  req.gate == "cx" ? 0 : req.qubit, req.duration_dt,
                                  interactive ? "interactive" : "batch",
                                  outcome_name(resp.status), redesigned, latency);
    }
    return resp;
}

PulseResponse CalibrationService::serve(std::size_t device_id, const PulseRequest& req,
                                        const std::shared_ptr<const DeviceState>& dev,
                                        std::uint64_t key, bool& redesigned) {
    const bool two_qubit = req.gate == "cx";
    const std::size_t qubit = two_qubit ? 0 : req.qubit;
    {
        std::lock_guard<std::mutex> lk(dev_mu_);
        served_[device_id].insert(key);
    }

    auto entry = store_.lookup(key);
    if (entry && entry->state == EntryState::kFresh) {
        obs::count(obs::Cnt::kSvcCacheHit);
        {
            std::lock_guard<std::mutex> lk(stats_mu_);
            ++stats_.hits;
        }
        return {ResponseStatus::kHit, key, std::move(*entry)};
    }

    std::uint64_t design_count = 0;
    if (entry) {
        design_count = entry->design_count;
        // Suspect entry: cheap IRB against the CURRENT drifted device.  Only
        // an IRB failure pays for a full re-design.
        const pulse::Schedule sched = stored_pulse_schedule(*entry);
        const double gate_error =
            two_qubit ? dev->pipeline->characterize_cx(sched).custom.gate_error
                      : dev->pipeline->irb_custom_1q(req.gate, qubit, sched).gate_error;
        if (gate_error <= options_.revalidate_gate_error_bound) {
            entry->state = EntryState::kFresh;
            entry->validated = snapshot_params(dev->exact, qubit, two_qubit);
            store_.put(*entry);
            obs::count(obs::Cnt::kSvcCacheRevalidate);
            {
                std::lock_guard<std::mutex> lk(stats_mu_);
                ++stats_.revalidations;
            }
            return {ResponseStatus::kRevalidated, key, std::move(*entry)};
        }
    }

    obs::count(obs::Cnt::kSvcCacheMiss);
    {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.misses;
    }

    std::shared_ptr<Inflight> inf;
    bool leader = false;
    {
        std::lock_guard<std::mutex> lk(q_mu_);
        const auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            inf = it->second;  // coalesce: share the in-flight design
        } else if (queued_or_running_ >= options_.queue_bound) {
            obs::count(obs::Cnt::kSvcQueueShed);
            {
                std::lock_guard<std::mutex> slk(stats_mu_);
                ++stats_.shed;
            }
            return {ResponseStatus::kShed, key, {}};
        } else {
            inf = std::make_shared<Inflight>();
            inflight_.emplace(key, inf);
            ++queued_or_running_;
            obs::count(obs::Cnt::kSvcAdmitted);
            lanes_[req.priority == 0 ? 0 : 1].push_back(
                DesignJob{dev, req, key, design_count, inf});
            leader = true;
        }
    }
    if (leader) {
        runtime::TaskPool::global().submit([this] { run_one_job(); });
    }
    wait_inflight(*inf);

    std::lock_guard<std::mutex> lk(inf->mu);
    if (inf->error) std::rethrow_exception(inf->error);
    if (entry) {
        redesigned = true;
        std::lock_guard<std::mutex> slk(stats_mu_);
        ++stats_.redesigns;
    }
    return {ResponseStatus::kDesigned, key, inf->result};
}

ServiceStats CalibrationService::stats() const {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return stats_;
}

std::size_t CalibrationService::queue_depth() const {
    std::lock_guard<std::mutex> lk(q_mu_);
    return lanes_[0].size() + lanes_[1].size();
}

std::size_t CalibrationService::inflight_designs() const {
    std::lock_guard<std::mutex> lk(q_mu_);
    return inflight_.size();
}

}  // namespace qoc::service
