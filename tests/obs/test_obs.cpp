/// Core `qoc::obs` behavior: disabled-path no-ops, span nesting and
/// per-thread merge ordering, ring overflow accounting, counter totals under
/// concurrent threads, and the JSONL / chrome-trace file formats (golden
/// round-trip).

#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace qoc::obs {
namespace {

/// Every test starts and ends from a clean registry so ordering between
/// tests (and any earlier-registered worker-thread slots) cannot leak state.
class ObsTest : public ::testing::Test {
protected:
    void SetUp() override { reset_for_testing(); }
    void TearDown() override { reset_for_testing(); }
};

std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
}

std::string read_all(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Busy-waits until the trace clock ticks, so nested spans get distinct
/// timestamps and the (t0, tid) sort order is deterministic.
void tick() {
    const std::uint64_t t = detail::now_ns();
    while (detail::now_ns() == t) {
    }
}

TEST_F(ObsTest, DisabledPathRecordsNothing) {
    count(Cnt::kGemmCalls);
    count(Cnt::kSuperopApplies, 42);
    { Span s("ignored"); }
    set_gauge("ignored.gauge", 1.0);

    EXPECT_EQ(counter_value(Cnt::kGemmCalls), 0u);
    EXPECT_EQ(counter_value(Cnt::kSuperopApplies), 0u);
    EXPECT_TRUE(snapshot_trace_events().empty());
    EXPECT_EQ(dropped_trace_events(), 0u);
}

TEST_F(ObsTest, SpanNestingPreservesContainment) {
    enable_tracing("");
    {
        Span outer("outer");
        tick();
        {
            Span inner("inner");
            tick();
        }
        tick();
    }
    const auto events = snapshot_trace_events();
    ASSERT_EQ(events.size(), 2u);
    // The inner span completes (and is recorded) first; the snapshot's
    // (t0, tid) sort restores begin order: outer, then inner inside it.
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_LT(events[0].t0_ns, events[1].t0_ns);
    EXPECT_GE(events[0].t0_ns + events[0].dur_ns, events[1].t0_ns + events[1].dur_ns);
}

TEST_F(ObsTest, PerThreadRingsMergeTimeSorted) {
    enable_tracing("");
    constexpr int kSpansPerThread = 50;
    constexpr int kTeamSize = 4;
    {
        std::vector<std::thread> team;
        team.reserve(kTeamSize);
        for (int t = 0; t < kTeamSize; ++t) {
            team.emplace_back([] {
                for (int i = 0; i < kSpansPerThread; ++i) {
                    Span s("work");
                    tick();
                }
            });
        }
        for (auto& th : team) th.join();
    }
    const auto events = snapshot_trace_events();
    ASSERT_EQ(events.size(), static_cast<std::size_t>(kTeamSize * kSpansPerThread));
    std::set<std::uint32_t> tids;
    for (std::size_t i = 0; i < events.size(); ++i) {
        tids.insert(events[i].tid);
        if (i > 0) {
            const bool ordered =
                events[i - 1].t0_ns < events[i].t0_ns ||
                (events[i - 1].t0_ns == events[i].t0_ns &&
                 events[i - 1].tid <= events[i].tid);
            EXPECT_TRUE(ordered) << "events out of (t0, tid) order at " << i;
        }
    }
    EXPECT_EQ(tids.size(), static_cast<std::size_t>(kTeamSize));
    EXPECT_EQ(dropped_trace_events(), 0u);
}

TEST_F(ObsTest, RingOverflowKeepsNewestAndCountsDropped) {
    enable_tracing("");
    constexpr std::uint64_t kCapacity = 16384;  // must match obs.cpp
    constexpr std::uint64_t kExtra = 100;
    for (std::uint64_t i = 0; i < kCapacity + kExtra; ++i) {
        Span s("burst");
    }
    EXPECT_EQ(dropped_trace_events(), kExtra);
    EXPECT_EQ(snapshot_trace_events().size(), kCapacity);
}

TEST_F(ObsTest, CounterTotalsSumAcrossThreads) {
    enable_metrics("");  // memory-only: metrics without the JSONL stream
    EXPECT_TRUE(metrics_enabled());
    EXPECT_FALSE(telemetry_enabled());
    constexpr int kPerThread = 10000;
    constexpr int kTeamSize = 4;
    {
        std::vector<std::thread> team;
        team.reserve(kTeamSize);
        for (int t = 0; t < kTeamSize; ++t) {
            team.emplace_back([] {
                for (int i = 0; i < kPerThread; ++i) count(Cnt::kGemmCalls);
                count(Cnt::kSuperopApplies, 7);
            });
        }
        for (auto& th : team) th.join();
    }
    EXPECT_EQ(counter_value(Cnt::kGemmCalls),
              static_cast<std::uint64_t>(kTeamSize) * kPerThread);
    EXPECT_EQ(counter_value(Cnt::kSuperopApplies),
              static_cast<std::uint64_t>(kTeamSize) * 7);
    EXPECT_EQ(counter_value(Cnt::kLuFactorizations), 0u);
}

TEST_F(ObsTest, JsonlGoldenRoundTrip) {
    const std::string path = ::testing::TempDir() + "qoc_obs_telemetry.jsonl";
    enable_metrics(path);
    ASSERT_TRUE(telemetry_enabled());

    // Exactly-representable doubles make the %.17g output predictable.
    emit_optimizer_iteration("lbfgsb", 3, 0.125, 0.25, 0.5, 7, 1.5);
    emit_rb_seed("rb1q", 16, 2, 0.75);
    count(Cnt::kGemmCalls, 5);
    count(Cnt::kExpmPade5, 2);
    set_gauge("test.gauge", 2.5);
    flush();

    const auto lines = read_lines(path);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0],
              "{\"type\":\"optimizer_iteration\",\"optimizer\":\"lbfgsb\","
              "\"iteration\":3,\"cost\":0.125,\"grad_norm\":0.25,\"step\":0.5,"
              "\"n_fun_evals\":7,\"wall_time_s\":1.5}");
    // The obs thread index depends on process-wide registration order, so
    // only the prefix is golden.
    EXPECT_EQ(lines[1].rfind("{\"type\":\"rb_seed\",\"experiment\":\"rb1q\","
                             "\"length\":16,\"seed\":2,\"survival\":0.75,\"thread\":",
                             0),
              0u)
        << lines[1];
    EXPECT_EQ(lines[1].back(), '}');

    const std::string& metrics = lines[2];
    EXPECT_EQ(metrics.rfind("{\"type\":\"metrics\",\"counters\":{", 0), 0u) << metrics;
    EXPECT_NE(metrics.find("\"linalg.gemm.calls\":5"), std::string::npos);
    EXPECT_NE(metrics.find("\"linalg.expm.pade5\":2"), std::string::npos);
    EXPECT_NE(metrics.find(
                  "\"linalg.expm.pade_order\":{\"3\":0,\"5\":2,\"7\":0,\"9\":0,\"13\":0}"),
              std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("\"test.gauge\":2.5"), std::string::npos);
    // No hist_record calls above: the latency-histogram object stays empty.
    EXPECT_NE(metrics.find("\"latency_histograms\":{}"), std::string::npos) << metrics;
    EXPECT_NE(metrics.find("\"dropped_trace_events\":0"), std::string::npos);
    EXPECT_NE(metrics.find("\"trace_rings\":["), std::string::npos) << metrics;
    std::remove(path.c_str());
}

TEST_F(ObsTest, TraceFileIsChromeTracingJson) {
    const std::string path = ::testing::TempDir() + "qoc_obs_trace.json";
    enable_tracing(path);
    {
        Span a("alpha");
        tick();
    }
    {
        Span b("beta");
        tick();
    }
    flush();

    const std::string body = read_all(path);
    EXPECT_EQ(body.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(body.find("\"name\":\"alpha\",\"ph\":\"X\",\"ts\":"), std::string::npos);
    EXPECT_NE(body.find("\"name\":\"beta\""), std::string::npos);
    EXPECT_NE(body.find("\"pid\":1,\"tid\":"), std::string::npos);
    // Ring accounting rides along as metadata so truncated traces are
    // diagnosable offline.
    EXPECT_NE(body.find("],\"displayTimeUnit\":\"ms\",\"metadata\":{"
                        "\"dropped_trace_events\":0,\"trace_rings\":["),
              std::string::npos)
        << body;
    std::remove(path.c_str());
}

TEST_F(ObsTest, RequestScopeTagsSpansAndCrossesTaskBoundaries) {
    enable_tracing("");
    {
        Span before("untagged");
        tick();
    }
    {
        RequestScope req(0xfeedbeefull);
        Span tagged("tagged");
        tick();
        {
            // A nested scope overrides, then restores on exit.
            RequestScope inner_req(0x1234ull);
            Span inner("inner");
            tick();
        }
        // What the task runtime does on a worker: install the submitter's
        // span AND request for the task's duration.
        const std::uint64_t parent = current_span();
        const std::uint64_t request = current_request();
        std::thread worker([parent, request] {
            TaskParentScope scope(parent, request);
            Span task_span("task");
            tick();
        });
        worker.join();
        tick();
    }
    EXPECT_EQ(current_request(), 0u);

    const auto events = snapshot_trace_events();
    ASSERT_EQ(events.size(), 4u);
    for (const TraceEvent& e : events) {
        if (std::string(e.name) == "untagged") {
            EXPECT_EQ(e.request, 0u);
        } else if (std::string(e.name) == "inner") {
            EXPECT_EQ(e.request, 0x1234u);
        } else {
            EXPECT_EQ(e.request, 0xfeedbeefu) << e.name;
        }
    }
    // The worker's span reparented to the submitting span.
    for (const TraceEvent& e : events) {
        if (std::string(e.name) == "task") {
            bool found_parent = false;
            for (const TraceEvent& p : events) {
                if (p.id == e.parent) {
                    EXPECT_STREQ(p.name, "tagged");
                    found_parent = true;
                }
            }
            EXPECT_TRUE(found_parent);
        }
    }
}

TEST_F(ObsTest, ServiceRequestRecordGolden) {
    const std::string path = ::testing::TempDir() + "qoc_obs_service_req.jsonl";
    enable_metrics(path);
    ASSERT_TRUE(telemetry_enabled());
    emit_service_request(/*id=*/42, /*seq=*/7, /*key=*/99, /*device=*/1, "sx",
                         /*qubit=*/2, /*duration_dt=*/64, "interactive", "hit",
                         /*redesign=*/false, /*latency_ns=*/1500);
    flush();
    const auto lines = read_lines(path);
    ASSERT_GE(lines.size(), 1u);
    EXPECT_EQ(lines[0],
              "{\"type\":\"service_request\",\"id\":42,\"seq\":7,\"key\":99,"
              "\"device\":1,\"gate\":\"sx\",\"qubit\":2,\"duration_dt\":64,"
              "\"lane\":\"interactive\",\"outcome\":\"hit\",\"redesign\":0,"
              "\"latency_ns\":1500}");
    std::remove(path.c_str());
}

TEST_F(ObsTest, CounterNamesAreStable) {
    EXPECT_STREQ(counter_name(Cnt::kGemmCalls), "linalg.gemm.calls");
    EXPECT_STREQ(counter_name(Cnt::kLuFactorizations), "linalg.lu.factorizations");
    EXPECT_STREQ(counter_name(Cnt::kCliffMemoMisses), "rb.clifford_memo.misses");
    EXPECT_STREQ(counter_name(Cnt::kExpmSpectral), "linalg.expm.spectral");
}

}  // namespace
}  // namespace qoc::obs
