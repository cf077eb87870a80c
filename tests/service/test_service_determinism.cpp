/// ServiceDeterminism.* -- the calibration service's replay contract, run as
/// the `service_determinism_smoke` ctest alias in the Release and TSan CI
/// legs: a replayed request log produces bitwise-identical response payloads
/// at pool size 1 and pool size N, telemetry on vs. off never perturbs the
/// numerics, and the persisted store round-trips byte-for-byte across a warm
/// restart.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <unistd.h>

#include "obs/obs.hpp"
#include "runtime/task_pool.hpp"
#include "service/fleet_driver.hpp"

namespace qoc::service {
namespace {

/// Small-but-real fleet: 1 device, 2 days (one drift notification), a
/// workload with repeats (hits + coalesced misses) and enough headroom in
/// queue_bound that admission control never sheds -- the precondition of the
/// payload-determinism contract.
/// Per-process temp file: these tests also run as `service_determinism_smoke`,
/// which `ctest -j` may schedule next to the per-test entries, so a fixed
/// name would let one process read or delete the other's file.
std::string temp_path(const std::string& name) {
    return testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

FleetOptions smoke_fleet() {
    FleetOptions o;
    o.n_devices = 1;
    o.n_days = 2;
    o.requests_per_day = 10;
    o.include_cx = false;
    o.concurrent = true;
    o.service.amp_bound = 0.5;
    o.service.queue_bound = 256;
    o.service.rb.lengths = {1, 8, 16};
    o.service.rb.seeds_per_length = 2;
    o.service.rb.shots = 128;
    return o;
}

TEST(ServiceDeterminism, FleetReplayBitwiseOneVsNThreads) {
    const FleetOptions opts = smoke_fleet();

    FleetResult sequential;
    {
        runtime::ScopedPoolSize one(1);
        sequential = run_fleet(opts);
    }
    ASSERT_EQ(sequential.responses.size(),
              opts.requests_per_day * static_cast<std::size_t>(opts.n_days));
    EXPECT_EQ(sequential.stats.shed, 0u);
    EXPECT_GT(sequential.stats.hits + sequential.stats.misses, 0u);
    EXPECT_GT(sequential.store_size, 0u);

    // Replay the captured log through a FRESH service on a wide pool: every
    // payload byte must match the single-threaded run.
    FleetResult wide;
    {
        runtime::ScopedPoolSize four(4);
        wide = replay_fleet(opts, sequential.log);
    }
    EXPECT_EQ(wide.response_digest, sequential.response_digest);
    ASSERT_EQ(wide.responses.size(), sequential.responses.size());
    for (std::size_t i = 0; i < wide.responses.size(); ++i) {
        EXPECT_EQ(response_payload_digest(wide.responses[i]),
                  response_payload_digest(sequential.responses[i]))
            << "response " << i;
    }
    EXPECT_EQ(wide.store_size, sequential.store_size);

    // A second wide run (not a replay -- fresh workload generation from the
    // same seeds) agrees too: generation itself is deterministic.
    FleetResult wide2;
    {
        runtime::ScopedPoolSize four(4);
        wide2 = run_fleet(opts);
    }
    EXPECT_EQ(wide2.response_digest, sequential.response_digest);
}

TEST(ServiceDeterminism, ObsOnVsOffIsBitwiseIdentical) {
    // Full telemetry (tracing + metrics + JSONL stream + latency histograms
    // + request ids) must never perturb a fleet run: instrumentation only
    // READS what the numerics computed.
    const FleetOptions opts = smoke_fleet();

    obs::reset_for_testing();
    FleetResult plain;
    {
        runtime::ScopedPoolSize four(4);
        plain = run_fleet(opts);
    }

    const std::string metrics_path = temp_path("qoc_obs_onoff_metrics.jsonl");
    obs::enable_tracing("");  // in-memory span collection
    obs::enable_metrics(metrics_path);
    ASSERT_TRUE(obs::telemetry_enabled());
    FleetResult traced;
    {
        runtime::ScopedPoolSize four(4);
        traced = run_fleet(opts);
    }

    EXPECT_EQ(traced.response_digest, plain.response_digest);
    ASSERT_EQ(traced.responses.size(), plain.responses.size());
    for (std::size_t i = 0; i < plain.responses.size(); ++i) {
        EXPECT_EQ(response_payload_digest(traced.responses[i]),
                  response_payload_digest(plain.responses[i]))
            << "response " << i;
    }

    // Request-id joinability: every service_request record's id appears on
    // at least one trace span (the service.request span itself at minimum).
    std::set<std::uint64_t> span_requests;
    for (const auto& e : obs::snapshot_trace_events()) {
        if (e.request != 0) span_requests.insert(e.request);
    }
    obs::flush();
    obs::reset_for_testing();

    std::ifstream in(metrics_path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::size_t request_records = 0;
    while (std::getline(in, line)) {
        const std::string pat = "\"type\":\"service_request\"";
        if (line.find(pat) == std::string::npos) continue;
        ++request_records;
        const std::string idpat = "\"id\":";
        const std::size_t at = line.find(idpat);
        ASSERT_NE(at, std::string::npos) << line;
        const std::uint64_t id = std::strtoull(line.c_str() + at + idpat.size(), nullptr, 10);
        EXPECT_EQ(span_requests.count(id), 1u) << "unjoinable request id " << id;
    }
    EXPECT_EQ(request_records, plain.responses.size());
    std::remove(metrics_path.c_str());
}

TEST(ServiceDeterminism, ReplayReproducesRequestIds) {
    // Request ids derive from (key, log index), never wall clock: replaying
    // the same log must produce the identical id set.
    const FleetOptions opts = smoke_fleet();
    const auto ids_of = [&](const std::vector<io::RequestLogRecord>& log) {
        const std::string path = temp_path("qoc_obs_replay_ids.jsonl");
        obs::reset_for_testing();
        obs::enable_metrics(path);
        replay_fleet(opts, log);
        obs::flush();
        obs::reset_for_testing();
        std::multiset<std::uint64_t> ids;
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            if (line.find("\"type\":\"service_request\"") == std::string::npos) continue;
            const std::size_t at = line.find("\"id\":");
            ids.insert(std::strtoull(line.c_str() + at + 5, nullptr, 10));
        }
        std::remove(path.c_str());
        return ids;
    };

    obs::reset_for_testing();
    FleetResult base;
    {
        runtime::ScopedPoolSize one(1);
        base = run_fleet(opts);
    }
    const auto first = ids_of(base.log);
    ASSERT_EQ(first.size(), base.responses.size());
    runtime::ScopedPoolSize four(4);  // replay at a different pool width
    EXPECT_EQ(ids_of(base.log), first);
}

TEST(ServiceDeterminism, WarmRestartStoreIsByteStable) {
    FleetOptions opts = smoke_fleet();
    opts.n_days = 1;
    opts.requests_per_day = 6;
    opts.store_path = temp_path("qoc_fleet_store_a.jsonl");

    FleetResult run;
    {
        runtime::ScopedPoolSize one(1);
        run = run_fleet(opts);
    }
    ASSERT_GT(run.store_size, 0u);

    // Load the persisted store and save it again: byte-identical files.
    PulseStore restored;
    ASSERT_EQ(restored.load_jsonl(opts.store_path), run.store_size);
    const std::string path_b = temp_path("qoc_fleet_store_b.jsonl");
    restored.save_jsonl(path_b);
    std::ifstream fa(opts.store_path), fb(path_b);
    std::stringstream sa, sb;
    sa << fa.rdbuf();
    sb << fb.rdbuf();
    EXPECT_FALSE(sa.str().empty());
    EXPECT_EQ(sa.str(), sb.str());
    std::remove(opts.store_path.c_str());
    std::remove(path_b.c_str());
}

TEST(ServiceDeterminism, RequestLogRoundTripsThroughJsonl) {
    FleetOptions opts = smoke_fleet();
    opts.n_days = 1;
    const auto log = fleet_workload(opts);
    ASSERT_EQ(log.size(), opts.requests_per_day);

    std::stringstream buf;
    io::write_request_log_jsonl(buf, log);
    const auto loaded = io::read_request_log_jsonl(buf);
    ASSERT_EQ(loaded.size(), log.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        EXPECT_EQ(loaded[i], log[i]) << "record " << i;
    }
}

}  // namespace
}  // namespace qoc::service
