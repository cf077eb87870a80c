#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "device/calibration.hpp"
#include "device/drift_model.hpp"
#include "experiments/design_pipeline.hpp"
#include "experiments/irb_experiment.hpp"
#include "obs/obs.hpp"
#include "quantum/gates.hpp"
#include "rb/clifford2q.hpp"
#include "runtime/task_pool.hpp"
#include "service/fleet_driver.hpp"
#include "util/fnv1a.hpp"

namespace qoc::bench {

namespace {

namespace g = quantum::gates;
using experiments::CxDesignSpec;
using experiments::DesignModel;
using experiments::GateComparison;
using experiments::GateDesignSpec;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t& state) {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

template <class... A>
std::string format(const char* fmt, A... args) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), fmt, args...);
    return buf;
}

// --- the paper's settings -----------------------------------------------
//
// The designs and RB protocols of the paper's Tables 1/2, kept here rather
// than shared with the reproduction binaries so that retuning those binaries
// never silently changes what this benchmark measures.

rb::RbOptions rb_settings_1q() {
    rb::RbOptions opts;
    opts.lengths = {1, 200, 500, 1000, 1800, 2800, 4000};
    opts.seeds_per_length = 16;
    opts.shots = 8192;
    return opts;
}

rb::RbOptions rb_settings_2q() {
    rb::RbOptions opts;
    opts.lengths = {1, 8, 16, 32, 56, 88, 128};
    opts.seeds_per_length = 12;
    opts.shots = 8192;
    return opts;
}

GateDesignSpec spec_1q(const linalg::Mat& target, std::size_t duration_dt,
                       std::size_t slots, DesignModel model, bool y_control) {
    GateDesignSpec spec;
    spec.target = target;
    spec.duration_dt = duration_dt;
    spec.n_timeslots = slots;
    spec.model = model;
    spec.use_y_control = y_control;
    return spec;
}

GateDesignSpec x_long() { return spec_1q(g::x(), 480, 48, DesignModel::kThreeLevelOpen, true); }
GateDesignSpec x_short() { return spec_1q(g::x(), 256, 32, DesignModel::kThreeLevelClosed, true); }
GateDesignSpec sx_long() {
    return spec_1q(g::sx(), 736, 48, DesignModel::kThreeLevelClosed, false);
}
GateDesignSpec sx_short() {
    return spec_1q(g::sx(), 144, 24, DesignModel::kThreeLevelClosed, false);
}
GateDesignSpec h_long() { return spec_1q(g::h(), 1216, 48, DesignModel::kThreeLevelOpen, true); }
GateDesignSpec h_short() { return spec_1q(g::h(), 128, 24, DesignModel::kThreeLevelClosed, true); }

experiments::DesignedGate design(const device::BackendConfig& nominal, const char* gate,
                                 const GateDesignSpec& spec) {
    obs::Span span("bench.design");
    return experiments::design_1q_gate(nominal, 0, gate, spec);
}

experiments::DesignedCx design_cx(const device::BackendConfig& nominal) {
    obs::Span span("bench.design");
    return experiments::design_cx_gate(nominal, CxDesignSpec{});
}

/// A daily-calibrated device: executor plus its default gate schedules.
struct Calibrated {
    explicit Calibrated(const device::BackendConfig& cfg)
        : exec(cfg), defaults(device::build_default_gates(exec)) {}
    device::PulseExecutor exec;
    pulse::InstructionScheduleMap defaults;
};

std::unique_ptr<Calibrated> calibrate(const device::BackendConfig& cfg) {
    obs::Span span("bench.calibrate");
    return std::make_unique<Calibrated>(cfg);
}

void digest_irb(util::Fnv1a& h, const rb::IrbResult& r) {
    h.f64_bits(r.gate_error);
    h.f64_bits(r.gate_error_err);
}

// --- paper_tables -------------------------------------------------------

/// A headline value of EXPERIMENTS.md with its stated 1-sigma error bar.
struct Headline {
    double value;
    double err;
};

struct PaperRow {
    const char* label;
    Headline custom;
    Headline standard;
};

// Table 2 states no default error of its own for X/SX (the same defaults as
// Table 1 on the same device); for the nominal-toronto H default it takes the
// Table 1 H default, whose 3-sigma band covers the stated +45% relation.
constexpr PaperRow kXLong{"X long", {3.58e-4, 1.07e-4}, {4.54e-4, 0.51e-4}};
constexpr PaperRow kSxLong{"SX long", {3.32e-4, 0.50e-4}, {8.87e-4, 3.33e-4}};
constexpr PaperRow kHLong{"H long", {6.05e-4, 0.97e-4}, {5.73e-4, 1.83e-4}};
constexpr PaperRow kCx{"CX", {1.9e-3, 1.7e-3}, {3.9e-3, 1.6e-3}};
constexpr PaperRow kXShort{"X short", {2.85e-4, 0.96e-4}, {4.54e-4, 0.51e-4}};
constexpr PaperRow kSxShort{"SX short", {1.80e-4, 0.54e-4}, {8.87e-4, 3.33e-4}};
constexpr PaperRow kHShort{"H short", {7.88e-4, 0.65e-4}, {5.73e-4, 1.83e-4}};

bool within_3_sigma(double v, const Headline& h) {
    return std::isfinite(v) && std::abs(v - h.value) <= 3.0 * h.err;
}

/// Table 1 + Table 2 replayed: 6 fresh calibrations, 7 designs and 7
/// custom-vs-default IRB comparisons per pass, as the reproduction binaries
/// run them.  The inputs are the paper's, so the seed does not enter.
class PaperTables final : public Workload {
public:
    void setup() override {
        montreal_ = device::ibmq_montreal();
        toronto_ = device::ibmq_toronto();
        toronto_drift_ = std::make_unique<device::DriftModel>(toronto_, 411);
        c2_ = std::make_unique<rb::Clifford2Q>(c1_);
    }

    UnitResult run_unit(std::size_t) override {
        UnitResult out;
        util::Fnv1a h;
        const auto row = [&](const PaperRow& r, auto&& body) {
            ++out.attempted;
            try {
                const auto [cmp, fid_err] = body();
                h.f64_bits(fid_err);
                digest_irb(h, cmp.custom);
                digest_irb(h, cmp.standard);
                if (!within_3_sigma(cmp.custom.gate_error, r.custom) ||
                    !within_3_sigma(cmp.standard.gate_error, r.standard)) {
                    ++out.failed;
                    out.errors.push_back(std::string(r.label) +
                                         format(": custom %.3e / default %.3e outside the "
                                                "headline 3-sigma band (design err %.2e)",
                                                cmp.custom.gate_error, cmp.standard.gate_error,
                                                fid_err));
                }
            } catch (const std::exception& e) {
                ++out.failed;
                out.errors.push_back(std::string(r.label) + ": " + e.what());
            }
        };
        const auto irb_1q = [&](const Calibrated& dev, const char* gate,
                                const experiments::DesignedGate& d) {
            obs::Span span("bench.irb");
            return std::pair{experiments::compare_1q_gate(dev.exec, dev.defaults, gate, 0,
                                                          d.schedule, c1_, rb_settings_1q()),
                             d.model_fid_err};
        };

        // Table 1.
        {
            const auto dev = calibrate(montreal_);
            const auto nominal = device::nominal_model(dev->exec.config());
            row(kXLong, [&] { return irb_1q(*dev, "x", design(nominal, "x", x_long())); });
            row(kSxLong, [&] { return irb_1q(*dev, "sx", design(nominal, "sx", sx_long())); });
        }
        {
            const auto dev = calibrate(toronto_drift_->device_on_day(2));
            const auto nominal = device::nominal_model(toronto_drift_->nominal());
            row(kHLong, [&] { return irb_1q(*dev, "h", design(nominal, "h", h_long())); });
        }
        {
            const auto dev = calibrate(montreal_);
            row(kCx, [&] {
                const auto d = design_cx(device::nominal_model(dev->exec.config()));
                obs::Span span("bench.irb");
                return std::pair{experiments::compare_cx_gate(dev->exec, dev->defaults, d.schedule,
                                                              c1_, *c2_, rb_settings_2q()),
                                 d.model_fid_err};
            });
        }
        // Table 2: each row on its own freshly calibrated device.
        const auto short_row = [&](const PaperRow& r, const device::BackendConfig& cfg,
                                   const char* gate, const GateDesignSpec& spec) {
            const auto dev = calibrate(cfg);
            row(r, [&] {
                return irb_1q(*dev, gate, design(device::nominal_model(cfg), gate, spec));
            });
        };
        short_row(kXShort, montreal_, "x", x_short());
        short_row(kSxShort, montreal_, "sx", sx_short());
        short_row(kHShort, toronto_, "h", h_short());

        out.digests.emplace_back("paper.pass", h.digest());
        return out;
    }

    std::size_t trace_units() const override { return 1; }

private:
    device::BackendConfig montreal_, toronto_;
    std::unique_ptr<device::DriftModel> toronto_drift_;
    rb::Clifford1Q c1_;
    std::unique_ptr<rb::Clifford2Q> c2_;
};

// --- design_batch -------------------------------------------------------

/// One `DesignPipeline::run` over a gate x qubit x duration x seed grid on
/// ibmq_montreal, design only.  Random initial pulses make every seed a
/// different optimization (the DRAG seed ignores `random_seed`).
class DesignBatch final : public Workload {
public:
    DesignBatch(std::uint64_t seed, bool reduced) : seed_(seed), n_seeds_(reduced ? 2 : 16) {}

    void setup() override {
        experiments::DesignPipelineOptions po;
        po.characterize = false;
        pipeline_ = std::make_unique<experiments::DesignPipeline>(device::ibmq_montreal(), po);

        std::uint64_t state = seed_;
        std::vector<std::uint64_t> seeds;
        for (std::size_t i = 0; i < n_seeds_; ++i) seeds.push_back(splitmix64(state));

        struct Gate {
            const char* name;
            linalg::Mat target;
            DesignModel model;
            bool y_control;
            std::vector<std::size_t> durations;
        };
        const Gate gates[] = {
            {"x", g::x(), DesignModel::kThreeLevelOpen, true, {160, 256, 320, 480}},
            {"sx", g::sx(), DesignModel::kThreeLevelClosed, false, {112, 144, 320, 736}},
            {"h", g::h(), DesignModel::kThreeLevelOpen, true, {128, 256, 640, 1216}},
        };
        jobs_.clear();
        for (const Gate& gate : gates) {
            for (std::size_t qubit = 0; qubit < 2; ++qubit) {
                experiments::GateJob1Q job;
                job.gate_name = gate.name;
                job.qubit = qubit;
                job.spec = spec_1q(gate.target, gate.durations.front(), 32, gate.model,
                                   gate.y_control);
                job.spec.seed = control::InitialPulseType::kRandom;
                job.seeds = seeds;
                job.durations_dt = gate.durations;
                job.characterize = false;
                jobs_.push_back(std::move(job));
            }
        }
        experiments::GateJobCx cx;
        cx.spec.seed = control::InitialPulseType::kRandom;
        cx.seeds = seeds;
        cx.durations_dt = {800, 960};
        cx.characterize = false;
        cx_jobs_ = {cx};
    }

    UnitResult run_unit(std::size_t) override {
        UnitResult out;
        experiments::PipelineResult res;
        {
            obs::Span span("bench.pipeline_run");
            res = pipeline_->run(jobs_, cx_jobs_);
        }
        util::Fnv1a h;
        const auto check = [&](const std::string& job, std::size_t n, double best, double bound) {
            out.attempted += n;
            if (!(best <= bound)) {
                out.failed += n;
                out.errors.push_back(job + format(": best model infidelity %.3e above %.0e", best,
                                                  bound));
            }
        };
        for (const auto& job : res.gates) {
            for (const auto& c : job.candidates) {
                h.f64_bits(c.gate.model_fid_err);
                h.i64(c.gate.optim.iterations);
            }
            check(job.gate_name + " q" + std::to_string(job.qubit), job.candidates.size(),
                  job.best().model_fid_err, 1e-5);
        }
        for (const auto& job : res.cx_gates) {
            for (const auto& c : job.candidates) {
                h.f64_bits(c.gate.model_fid_err);
                h.i64(c.gate.optim.iterations);
            }
            check("cx", job.candidates.size(), job.best().model_fid_err, 5e-3);
        }
        out.digests.emplace_back("design.batch", h.digest());
        return out;
    }

    std::size_t trace_units() const override { return 1; }

private:
    std::uint64_t seed_;
    std::size_t n_seeds_;
    std::unique_ptr<experiments::DesignPipeline> pipeline_;
    std::vector<experiments::GateJob1Q> jobs_;
    std::vector<experiments::GateJobCx> cx_jobs_;
};

// --- drift_irb ----------------------------------------------------------

/// The drift study behind Figs. 11/14/15: pulses designed once on the
/// nominal model, then every day the drifted device is recalibrated and each
/// fixed pulse is compared against the day's defaults by IRB.
class DriftIrb final : public Workload {
public:
    explicit DriftIrb(std::uint64_t seed) : seed_(seed) {}

    void setup() override {
        const device::BackendConfig montreal = device::ibmq_montreal();
        drift_ = std::make_unique<device::DriftModel>(montreal, seed_);
        const device::BackendConfig nominal = device::nominal_model(montreal);
        pulses_.clear();
        pulses_.emplace_back("x", design(nominal, "x", x_short()).schedule);
        pulses_.emplace_back("sx", design(nominal, "sx", sx_short()).schedule);
        pulses_.emplace_back("h", design(nominal, "h", h_short()).schedule);
        cx_ = design_cx(nominal).schedule;
    }

    UnitResult run_unit(std::size_t u) override {
        UnitResult out;
        util::Fnv1a h;
        const int day = static_cast<int>(u);
        const auto dev = calibrate(drift_->device_on_day(day));
        const auto record = [&](const std::string& gate, const GateComparison& cmp) {
            digest_irb(h, cmp.custom);
            digest_irb(h, cmp.standard);
            const double max_error = gate == "cx" ? kMaxErrorCx : kMaxError1q;
            for (const rb::IrbResult* r : {&cmp.custom, &cmp.standard}) {
                // The IRB estimate may dip below zero within its error bar.
                const double e = r->gate_error;
                if (!(std::isfinite(e) && e >= -3.0 * r->gate_error_err && e <= max_error)) {
                    ++out.failed;
                    out.errors.push_back("day " + std::to_string(day) + " " + gate +
                                         format(": gate error %.3e(%.1e) outside [-3 sigma, %.2f]",
                                                e, r->gate_error_err, max_error));
                    return;
                }
            }
        };
        experiments::DesignPipelineOptions po1;
        po1.rb = rb_settings_1q();
        const experiments::DesignPipeline p1(dev->exec, dev->defaults, po1);
        for (const auto& [gate, sched] : pulses_) {
            ++out.attempted;
            obs::Span span("bench.irb");
            record(gate, p1.characterize_1q(gate, 0, sched));
        }
        experiments::DesignPipelineOptions po2;
        po2.rb = rb_settings_2q();
        const experiments::DesignPipeline p2(dev->exec, dev->defaults, po2);
        ++out.attempted;
        {
            obs::Span span("bench.irb");
            record("cx", p2.characterize_cx(cx_));
        }
        char key[32];
        std::snprintf(key, sizeof(key), "drift.day.%02d", day);
        out.digests.emplace_back(key, h.digest());
        return out;
    }

    std::size_t trace_units() const override { return 4; }

private:
    // The fixed CX pulse degrades to several percent on jump days (8.8e-2 is
    // the worst of 8 seeds x 39 days).
    static constexpr double kMaxError1q = 0.02;
    static constexpr double kMaxErrorCx = 0.2;

    std::uint64_t seed_;
    std::unique_ptr<device::DriftModel> drift_;
    std::vector<std::pair<std::string, pulse::Schedule>> pulses_;
    pulse::Schedule cx_;
};

// --- fleet --------------------------------------------------------------

service::ServiceStats minus(const service::ServiceStats& a, const service::ServiceStats& b) {
    return {a.hits - b.hits,         a.misses - b.misses, a.revalidations - b.revalidations,
            a.redesigns - b.redesigns, a.shed - b.shed,   a.demoted - b.demoted};
}

bool payload_finite(const service::PulseResponse& r) {
    if (!std::isfinite(r.pulse.model_fid_err)) return false;
    for (const auto& ch : r.pulse.channels) {
        for (const auto& s : ch.samples) {
            if (!std::isfinite(s.real()) || !std::isfinite(s.imag())) return false;
        }
    }
    return true;
}

/// `CalibrationService` over 4 drifting devices, 200 requests a day.  Each
/// day: the drift update of every device, then the day's requests issued as
/// pool tasks (a closed loop of concurrency equal to the pool width).
class Fleet final : public Workload {
public:
    explicit Fleet(std::uint64_t seed) {
        opts_.n_devices = 4;
        opts_.n_days = static_cast<int>(kMaxDays);
        opts_.requests_per_day = 200;
        opts_.include_cx = true;
        opts_.workload_seed = seed;
        opts_.drift_seed = seed;
        opts_.service.amp_bound = 0.5;
    }

    void setup() override {
        log_ = service::fleet_workload(opts_);
        models_.clear();
        for (std::size_t d = 0; d < opts_.n_devices; ++d) {
            models_.emplace_back(opts_.base, opts_.drift_seed + d, opts_.drift);
        }
        svc_ = std::make_unique<service::CalibrationService>(opts_.service);
        for (std::size_t d = 0; d < opts_.n_devices; ++d) {
            svc_->register_device(d, models_[d].device_on_day(0));
        }
    }

    UnitResult run_unit(std::size_t u) override {
        UnitResult out;
        const int day = static_cast<int>(u);
        const service::ServiceStats before = svc_->stats();
        if (day > 0) {
            for (std::size_t d = 0; d < opts_.n_devices; ++d) {
                obs::Span span("bench.update_device");
                svc_->update_device(d, models_[d].device_on_day(day));
            }
        }
        const std::size_t begin = u * opts_.requests_per_day;
        const std::size_t n = opts_.requests_per_day;
        std::vector<service::PulseResponse> resp(n);
        std::vector<std::string> error(n);
        out.request_s.assign(n, 0.0);
        const Clock::time_point t0 = Clock::now();
        {
            runtime::TaskGroup group;
            for (std::size_t i = 0; i < n; ++i) {
                group.run([&, i] {
                    const io::RequestLogRecord& r = log_[begin + i];
                    service::PulseRequest req;
                    req.gate = r.gate;
                    req.qubit = r.qubit;
                    req.duration_dt = r.duration_dt;
                    req.n_timeslots = r.n_timeslots;
                    req.max_iterations = static_cast<int>(r.max_iterations);
                    req.design_seed = r.design_seed;
                    req.priority = static_cast<unsigned>(r.priority);
                    obs::Span span("bench.request");
                    const Clock::time_point t = Clock::now();
                    try {
                        resp[i] = svc_->request(r.device_id, req, r.index);
                    } catch (const std::exception& e) {
                        error[i] = e.what();
                    }
                    out.request_s[i] = seconds_since(t);
                });
            }
            group.wait();
        }
        out.op_phase_s = seconds_since(t0);

        util::Fnv1a h;
        out.attempted = n;
        for (std::size_t i = 0; i < n; ++i) {
            h.u64(service::response_payload_digest(resp[i]));
            out.request_status.push_back(resp[i].status);
            const char* why = nullptr;
            if (!error[i].empty()) {
                why = error[i].c_str();
            } else if (resp[i].status == service::ResponseStatus::kShed) {
                why = "shed";
            } else if (!payload_finite(resp[i])) {
                why = "non-finite payload";
            }
            if (why != nullptr) {
                ++out.failed;
                out.errors.push_back("day " + std::to_string(day) + " request " +
                                     std::to_string(log_[begin + i].index) + ": " + why);
            }
        }
        char key[32];
        std::snprintf(key, sizeof(key), "fleet.day.%02d", day);
        out.digests.emplace_back(key, h.digest());
        out.service = minus(svc_->stats(), before);
        return out;
    }

    std::size_t max_units() const override { return kMaxDays; }
    std::size_t trace_units() const override { return 3; }

private:
    static constexpr std::size_t kMaxDays = 64;

    service::FleetOptions opts_;
    std::vector<io::RequestLogRecord> log_;
    std::vector<device::DriftModel> models_;
    std::unique_ptr<service::CalibrationService> svc_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"paper_tables", "design_batch", "drift_irb",
                                                "fleet"};
    return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        bool reduced) {
    if (name == "paper_tables") return std::make_unique<PaperTables>();
    if (name == "design_batch") return std::make_unique<DesignBatch>(seed, reduced);
    if (name == "drift_irb") return std::make_unique<DriftIrb>(seed);
    if (name == "fleet") return std::make_unique<Fleet>(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace qoc::bench
