/// `service::CalibrationService`: cache hit/miss flow, drift-aware
/// demotion + IRB revalidation, admission control and the obs counters.

#include "service/calibration_service.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "service/pulse_store.hpp"

namespace qoc::service {
namespace {

/// Cheap-but-real service configuration for unit tests: tiny designs, tiny
/// RB, feasible amplitude bound for the short test pulses.
ServiceOptions tiny_service() {
    ServiceOptions o;
    o.amp_bound = 0.5;
    o.rb.lengths = {1, 8, 16};
    o.rb.seeds_per_length = 2;
    o.rb.shots = 128;
    return o;
}

PulseRequest tiny_request(const std::string& gate = "x", std::size_t qubit = 0) {
    PulseRequest r;
    r.gate = gate;
    r.qubit = qubit;
    r.duration_dt = 64;
    r.n_timeslots = 8;
    r.max_iterations = 8;
    return r;
}

void expect_same_payload(const PulseResponse& a, const PulseResponse& b) {
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(response_payload_digest(a), response_payload_digest(b));
}

TEST(CalibrationService, MissDesignsThenHitsServeTheSameBytes) {
    CalibrationService svc(tiny_service());
    svc.register_device(0, device::ibmq_montreal());

    const PulseResponse first = svc.request(0, tiny_request());
    EXPECT_EQ(first.status, ResponseStatus::kDesigned);
    EXPECT_EQ(first.pulse.design_count, 1u);
    EXPECT_FALSE(first.pulse.channels.empty());

    const PulseResponse second = svc.request(0, tiny_request());
    EXPECT_EQ(second.status, ResponseStatus::kHit);
    expect_same_payload(first, second);

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(svc.store().size(), 1u);

    // Different request parameters address a different entry.
    PulseRequest other = tiny_request();
    other.duration_dt = 48;
    EXPECT_NE(svc.request_key(0, other), svc.request_key(0, tiny_request()));
}

TEST(CalibrationService, SolverChoiceIsPartOfTheCacheKey) {
    // Three services differing ONLY in the design optimizer must not alias:
    // the same request addresses different entries (and a store written by
    // one would hand the other a different key on warm restart).
    ServiceOptions lbfgsb = tiny_service();
    ServiceOptions gd = tiny_service();
    gd.method = control::OptimMethod::kGradientDescent;
    ServiceOptions krotov = tiny_service();
    krotov.method = control::OptimMethod::kKrotov;

    CalibrationService svc_lbfgsb(lbfgsb);
    CalibrationService svc_gd(gd);
    CalibrationService svc_krotov(krotov);
    const auto dev = device::ibmq_montreal();
    svc_lbfgsb.register_device(0, dev);
    svc_gd.register_device(0, dev);
    svc_krotov.register_device(0, dev);

    const std::uint64_t k_lbfgsb = svc_lbfgsb.request_key(0, tiny_request());
    const std::uint64_t k_gd = svc_gd.request_key(0, tiny_request());
    const std::uint64_t k_krotov = svc_krotov.request_key(0, tiny_request());
    EXPECT_NE(k_lbfgsb, k_gd);
    EXPECT_NE(k_lbfgsb, k_krotov);
    EXPECT_NE(k_gd, k_krotov);

    // Every solver actually designs through the service path (the default
    // design model is closed, so Krotov is admissible here).
    for (auto [svc, key] : {std::pair{&svc_lbfgsb, k_lbfgsb}, std::pair{&svc_gd, k_gd},
                            std::pair{&svc_krotov, k_krotov}}) {
        const PulseResponse resp = svc->request(0, tiny_request());
        EXPECT_EQ(resp.status, ResponseStatus::kDesigned);
        EXPECT_EQ(resp.key, key);
        EXPECT_FALSE(resp.pulse.channels.empty());
    }
}

TEST(CalibrationService, SmallDriftKeepsKeyAndEntryFresh) {
    CalibrationService svc(tiny_service());
    auto cfg = device::ibmq_montreal();
    svc.register_device(0, cfg);
    const std::uint64_t key0 = svc.request_key(0, tiny_request());
    (void)svc.request(0, tiny_request());

    // Typical daily drift: within every tolerance, same quantization bucket.
    cfg.qubits[0].detuning = 5e-4;
    cfg.qubits[0].amp_scale = 1.005;
    cfg.qubits[0].t1 *= 1.02;
    EXPECT_EQ(svc.update_device(0, cfg), 0u);  // nothing demoted
    EXPECT_EQ(svc.request_key(0, tiny_request()), key0);
    EXPECT_EQ(svc.request(0, tiny_request()).status, ResponseStatus::kHit);
}

TEST(CalibrationService, DriftPastToleranceRevalidatesWithoutRedesign) {
    ServiceOptions opts = tiny_service();
    opts.revalidate_gate_error_bound =
        std::numeric_limits<double>::infinity();  // IRB always passes
    CalibrationService svc(opts);
    auto cfg = device::ibmq_montreal();
    svc.register_device(0, cfg);

    obs::reset_for_testing();
    obs::enable_metrics("");
    const PulseResponse designed = svc.request(0, tiny_request());
    EXPECT_EQ(designed.status, ResponseStatus::kDesigned);

    // Coherence improves 30%: past tolerance (15%) but inside the 0.5 log
    // key bucket -- the key must survive, the entry must be demoted then
    // revalidated.  (A downward 0.75 move would cross the bucket edge for
    // this backend and read as a key miss instead.)
    cfg.qubits[0].t1 *= 1.3;
    cfg.qubits[0].t2 *= 1.3;
    EXPECT_EQ(svc.update_device(0, cfg), 1u);
    ASSERT_TRUE(svc.store().lookup(designed.key).has_value());
    EXPECT_EQ(svc.store().lookup(designed.key)->state, EntryState::kSuspect);

    const PulseResponse revalidated = svc.request(0, tiny_request());
    EXPECT_EQ(revalidated.status, ResponseStatus::kRevalidated);
    // Same pulse bytes, no re-design: design_count is unchanged.
    expect_same_payload(designed, revalidated);
    EXPECT_EQ(revalidated.pulse.design_count, 1u);
    EXPECT_EQ(svc.store().lookup(designed.key)->state, EntryState::kFresh);

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.demoted, 1u);
    EXPECT_EQ(stats.revalidations, 1u);
    EXPECT_EQ(stats.redesigns, 0u);

    // The obs mirror counters saw the same story.
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSvcCacheMiss), 1u);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSvcCacheRevalidate), 1u);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSvcAdmitted), 1u);
    EXPECT_EQ(obs::counter_value(obs::Cnt::kSvcQueueShed), 0u);
    obs::reset_for_testing();

    // A further request is a plain hit again.
    EXPECT_EQ(svc.request(0, tiny_request()).status, ResponseStatus::kHit);
}

TEST(CalibrationService, FailedRevalidationRedesignsDeterministically) {
    ServiceOptions opts = tiny_service();
    opts.revalidate_gate_error_bound =
        -std::numeric_limits<double>::infinity();  // IRB can never pass
    CalibrationService svc(opts);
    auto cfg = device::ibmq_montreal();
    svc.register_device(0, cfg);

    const PulseResponse first = svc.request(0, tiny_request());
    ASSERT_EQ(first.status, ResponseStatus::kDesigned);

    cfg.qubits[0].t1 *= 1.3;  // past tolerance, within the log key bucket
    cfg.qubits[0].t2 *= 1.3;
    EXPECT_EQ(svc.update_device(0, cfg), 1u);

    const PulseResponse redesigned = svc.request(0, tiny_request());
    EXPECT_EQ(redesigned.status, ResponseStatus::kDesigned);
    EXPECT_EQ(redesigned.key, first.key);
    EXPECT_EQ(redesigned.pulse.design_count, 2u);
    // The design generation is folded into the optimizer seed: the
    // replacement pulse must differ from the one IRB rejected.
    EXPECT_NE(response_payload_digest(redesigned), response_payload_digest(first));
    EXPECT_EQ(svc.stats().redesigns, 1u);
    EXPECT_EQ(svc.store().lookup(first.key)->state, EntryState::kFresh);
}

TEST(CalibrationService, AdmissionControlShedsDesignsButNeverLookups) {
    // A populated store handed to a lookup-only service (queue_bound = 0):
    // hits are served, anything needing a design is shed.
    const std::string path = testing::TempDir() + "qoc_svc_shed_store.jsonl";
    {
        CalibrationService warm(tiny_service());
        warm.register_device(0, device::ibmq_montreal());
        (void)warm.request(0, tiny_request());
        warm.store().save_jsonl(path);
    }

    ServiceOptions opts = tiny_service();
    opts.queue_bound = 0;
    CalibrationService svc(opts);
    svc.register_device(0, device::ibmq_montreal());
    EXPECT_EQ(svc.store().load_jsonl(path), 1u);

    // Warm-restart lookup: served even though designing is impossible.
    EXPECT_EQ(svc.request(0, tiny_request()).status, ResponseStatus::kHit);

    // A novel request needs a design and is shed, with an empty payload.
    PulseRequest novel = tiny_request("sx");
    const PulseResponse shed = svc.request(0, novel);
    EXPECT_EQ(shed.status, ResponseStatus::kShed);
    EXPECT_TRUE(shed.pulse.channels.empty());
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(svc.store().size(), 1u);
}

TEST(CalibrationService, UnknownDeviceAndGateAreRejected) {
    CalibrationService svc(tiny_service());
    EXPECT_THROW((void)svc.request(5, tiny_request()), std::out_of_range);
    svc.register_device(0, device::ibmq_montreal());
    PulseRequest bad = tiny_request();
    bad.gate = "swap";
    EXPECT_THROW((void)svc.request(0, bad), std::invalid_argument);
}

}  // namespace
}  // namespace qoc::service
