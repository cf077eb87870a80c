/// `service::PulseStore` and the content-addressing primitives: bucket
/// quantization, key digests, and the bitwise JSONL round trip the service's
/// warm-restart contract rests on.

#include "service/pulse_store.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace qoc::service {
namespace {

TEST(KeyQuantization, SmallDriftStaysInBucket) {
    const auto base = device::ibmq_montreal();
    auto drifted = base;
    drifted.qubits[0].detuning = 1.2e-3;      // drift fields are not keyed at all
    drifted.qubits[0].amp_scale = 1.02;       // (nominal_model strips them)
    drifted.qubits[0].t1 *= 1.01;             // well inside the 0.5 log bucket
    drifted.qubits[0].t2 *= 1.01;
    const KeyQuant quant;
    EXPECT_EQ(device_key_digest(base, quant, 0, false),
              device_key_digest(drifted, quant, 0, false));
    EXPECT_EQ(device_key_digest(base, quant, 0, true),
              device_key_digest(drifted, quant, 0, true));
}

TEST(KeyQuantization, DistinctDevicesAndBigMovesChangeTheKey) {
    const auto montreal = device::ibmq_montreal();
    const auto toronto = device::ibmq_toronto();
    const KeyQuant quant;
    EXPECT_NE(device_key_digest(montreal, quant, 0, false),
              device_key_digest(toronto, quant, 0, false));
    // Per-qubit digests differ too (qubit index and parameters are keyed).
    EXPECT_NE(device_key_digest(montreal, quant, 0, false),
              device_key_digest(montreal, quant, 1, false));
    // A genuinely large T1 collapse (factor e) leaves the log bucket.
    auto collapsed = montreal;
    collapsed.qubits[0].t1 /= std::exp(1.0);
    collapsed.qubits[0].t2 /= std::exp(1.0);
    EXPECT_NE(device_key_digest(montreal, quant, 0, false),
              device_key_digest(collapsed, quant, 0, false));
}

TEST(KeyQuantization, CanonicalModelIsAFixedPointAndBucketCentered) {
    const auto base = device::ibmq_montreal();
    const KeyQuant quant;
    const auto canon = quantize_design_model(base, quant);
    // Canonicalizing twice is the identity (bit-for-bit): the design input
    // is a pure function of the buckets.
    const auto canon2 = quantize_design_model(canon, quant);
    for (std::size_t q = 0; q < canon.qubits.size(); ++q) {
        EXPECT_EQ(canon.qubit(q).frequency_ghz, canon2.qubit(q).frequency_ghz);
        EXPECT_EQ(canon.qubit(q).anharmonicity, canon2.qubit(q).anharmonicity);
        EXPECT_EQ(canon.qubit(q).t1, canon2.qubit(q).t1);
        EXPECT_EQ(canon.qubit(q).t2, canon2.qubit(q).t2);
        // Canonical values sit near the exact ones (within half a bucket).
        EXPECT_NEAR(canon.qubit(q).frequency_ghz, base.qubit(q).frequency_ghz,
                    0.5 * quant.freq_ghz_grid + 1e-12);
        EXPECT_LE(canon.qubit(q).t2, 2.0 * canon.qubit(q).t1);
    }
    // Imperfections are stripped exactly as nominal_model does.
    EXPECT_EQ(canon.qubit(0).detuning, 0.0);
    EXPECT_EQ(canon.qubit(0).amp_scale, 1.0);
}

StoredPulse sample_pulse(std::uint64_t key) {
    StoredPulse p;
    p.key = key;
    p.gate = "x";
    p.qubit = 0;
    p.duration_dt = 5;
    p.model_fid_err = 0.1 + 0.2;  // deliberately non-representable nicely
    p.state = EntryState::kFresh;
    p.design_count = 1;
    p.validated = flatten_params(device::ibmq_montreal());
    StoredPulse::ChannelSamples ch;
    ch.channel = pulse::drive_channel(0);
    ch.samples = {{0.25, -0.125},
                  {1e-300, -5e-200},
                  {std::acos(-1.0) / 4.0, 0.3},
                  {-0.7071067811865476, 1e-17},
                  {0.0, 0.0}};
    p.channels.push_back(ch);
    return p;
}

void expect_pulse_bitwise_equal(const StoredPulse& a, const StoredPulse& b) {
    EXPECT_EQ(a.key, b.key);
    EXPECT_EQ(a.gate, b.gate);
    EXPECT_EQ(a.qubit, b.qubit);
    EXPECT_EQ(a.duration_dt, b.duration_dt);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.model_fid_err),
              std::bit_cast<std::uint64_t>(b.model_fid_err));
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.design_count, b.design_count);
    EXPECT_EQ(a.validated, b.validated);
    ASSERT_EQ(a.channels.size(), b.channels.size());
    for (std::size_t c = 0; c < a.channels.size(); ++c) {
        EXPECT_EQ(a.channels[c].channel, b.channels[c].channel);
        ASSERT_EQ(a.channels[c].samples.size(), b.channels[c].samples.size());
        for (std::size_t i = 0; i < a.channels[c].samples.size(); ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.channels[c].samples[i].real()),
                      std::bit_cast<std::uint64_t>(b.channels[c].samples[i].real()));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.channels[c].samples[i].imag()),
                      std::bit_cast<std::uint64_t>(b.channels[c].samples[i].imag()));
        }
    }
}

TEST(PulseStore, PutLookupStateAndDemote) {
    PulseStore store;
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.lookup(42).has_value());

    store.put(sample_pulse(42));
    store.put(sample_pulse(43));
    EXPECT_EQ(store.size(), 2u);
    const auto hit = store.lookup(42);
    ASSERT_TRUE(hit.has_value());
    expect_pulse_bitwise_equal(*hit, sample_pulse(42));

    // Replacement, not duplication.
    auto replacement = sample_pulse(42);
    replacement.design_count = 7;
    store.put(replacement);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.lookup(42)->design_count, 7u);

    EXPECT_TRUE(store.set_state(42, EntryState::kSuspect));
    EXPECT_EQ(store.lookup(42)->state, EntryState::kSuspect);
    EXPECT_FALSE(store.set_state(999, EntryState::kSuspect));

    // demote_if only touches FRESH entries matching the predicate.
    const std::size_t demoted =
        store.demote_if([](const StoredPulse& p) { return p.key == 43 || p.key == 42; });
    EXPECT_EQ(demoted, 1u);  // 42 was already suspect
    EXPECT_EQ(store.lookup(43)->state, EntryState::kSuspect);

    store.clear();
    EXPECT_EQ(store.size(), 0u);
}

TEST(PulseStore, JsonlRoundTripIsBitwise) {
    PulseStore store;
    store.put(sample_pulse(7));
    auto suspect = sample_pulse(1ull << 60);
    suspect.state = EntryState::kSuspect;
    suspect.gate = "cx";
    // -0.0 must survive: it is a distinct bit pattern the decimal rendering
    // of doubles would lose but the bit-pattern JSONL encoding keeps.
    suspect.channels.push_back({pulse::control_channel(0), {{-0.0, 0.5}}});
    store.put(suspect);

    const std::string path = testing::TempDir() + "qoc_pulse_store_roundtrip.jsonl";
    store.save_jsonl(path);

    PulseStore loaded;
    EXPECT_EQ(loaded.load_jsonl(path), 2u);
    ASSERT_TRUE(loaded.lookup(7).has_value());
    ASSERT_TRUE(loaded.lookup(1ull << 60).has_value());
    expect_pulse_bitwise_equal(*loaded.lookup(7), sample_pulse(7));
    expect_pulse_bitwise_equal(*loaded.lookup(1ull << 60), suspect);

    // Save of the loaded store reproduces the file byte-for-byte (entries
    // are written key-sorted, so the file is content-deterministic).
    const std::string path2 = testing::TempDir() + "qoc_pulse_store_roundtrip2.jsonl";
    loaded.save_jsonl(path2);
    std::ifstream f1(path), f2(path2);
    std::stringstream s1, s2;
    s1 << f1.rdbuf();
    s2 << f2.rdbuf();
    EXPECT_EQ(s1.str(), s2.str());
    EXPECT_FALSE(s1.str().empty());
}

std::string read_file(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

TEST(PulseStore, SaveRenamesTempFileOverTarget) {
    const std::string path = testing::TempDir() + "qoc_pulse_store_atomic.jsonl";
    std::filesystem::remove_all(path + ".tmp");
    PulseStore store;
    store.put(sample_pulse(7));
    store.save_jsonl(path);
    store.put(sample_pulse(8));
    store.save_jsonl(path);  // overwrite an existing store
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    PulseStore loaded;
    EXPECT_EQ(loaded.load_jsonl(path), 2u);
    std::filesystem::remove(path);
}

TEST(PulseStore, FailedSaveThrowsAndKeepsOldFile) {
    const std::string path = testing::TempDir() + "qoc_pulse_store_failed_save.jsonl";
    std::filesystem::remove_all(path + ".tmp");
    PulseStore store;
    store.put(sample_pulse(7));
    store.save_jsonl(path);
    const std::string before = read_file(path);
    ASSERT_FALSE(before.empty());

    // A directory where the temp file goes makes its open fail.
    std::filesystem::create_directory(path + ".tmp");
    store.put(sample_pulse(8));
    EXPECT_THROW(store.save_jsonl(path), std::runtime_error);
    EXPECT_EQ(read_file(path), before);
    EXPECT_TRUE(std::filesystem::is_directory(path + ".tmp"));
    std::filesystem::remove_all(path + ".tmp");
    std::filesystem::remove(path);
}

TEST(PulseStore, OccupancyCountsShardsAndStates) {
    PulseStore store;
    const auto empty = store.occupancy();
    EXPECT_EQ(empty.total, 0u);
    EXPECT_EQ(empty.fresh, 0u);
    EXPECT_EQ(empty.suspect, 0u);

    for (std::uint64_t k = 1; k <= 40; ++k) store.put(sample_pulse(k));
    store.set_state(3, EntryState::kSuspect);
    store.set_state(7, EntryState::kSuspect);

    const auto occ = store.occupancy();
    EXPECT_EQ(occ.total, 40u);
    EXPECT_EQ(occ.fresh, 38u);
    EXPECT_EQ(occ.suspect, 2u);
    std::size_t shard_total = 0;
    for (const std::size_t n : occ.shard_sizes) shard_total += n;
    EXPECT_EQ(shard_total, occ.total);
    // Keys 1..40 mod 16 shards: every shard holds at least two entries.
    for (const std::size_t n : occ.shard_sizes) EXPECT_GE(n, 2u);
}

TEST(PulseStore, MissingFileLoadsNothing) {
    PulseStore store;
    EXPECT_EQ(store.load_jsonl(testing::TempDir() + "qoc_no_such_store.jsonl"), 0u);
    EXPECT_EQ(store.size(), 0u);
}

TEST(PulseStore, StoredPulseScheduleRoundTripsSamples) {
    const StoredPulse p = sample_pulse(11);
    const pulse::Schedule sched = stored_pulse_schedule(p);
    const auto& want = p.channels[0].samples;
    const auto got = sched.channel_samples(p.channels[0].channel, want.size());
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].real()),
                  std::bit_cast<std::uint64_t>(want[i].real()));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].imag()),
                  std::bit_cast<std::uint64_t>(want[i].imag()));
    }
}

}  // namespace
}  // namespace qoc::service
