#include "service/pulse_store.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "io/io.hpp"
#include "util/fnv1a.hpp"

namespace qoc::service {

namespace {

/// Bucket index of a linear-grid parameter (round-to-nearest; exact ties
/// resolve identically on every platform via llround's round-half-away).
std::int64_t bucket(double v, double grid) { return std::llround(v / grid); }

/// Bucket index on a log grid (relative-width buckets for T1/T2).
std::int64_t log_bucket(double v, double grid) { return std::llround(std::log(v) / grid); }

}  // namespace

device::BackendConfig quantize_design_model(const device::BackendConfig& device,
                                            const KeyQuant& quant) {
    device::BackendConfig canon = device::nominal_model(device);
    for (auto& q : canon.qubits) {
        q.frequency_ghz =
            static_cast<double>(bucket(q.frequency_ghz, quant.freq_ghz_grid)) * quant.freq_ghz_grid;
        q.anharmonicity =
            static_cast<double>(bucket(q.anharmonicity, quant.anharm_grid)) * quant.anharm_grid;
        q.omega_max = static_cast<double>(bucket(q.omega_max, quant.omega_grid)) * quant.omega_grid;
        q.t1 = std::exp(static_cast<double>(log_bucket(q.t1, quant.t1_log_grid)) *
                        quant.t1_log_grid);
        q.t2 = std::exp(static_cast<double>(log_bucket(q.t2, quant.t2_log_grid)) *
                        quant.t2_log_grid);
        // T2 <= 2 T1 must survive independent rounding of the two buckets.
        q.t2 = std::min(q.t2, 2.0 * q.t1);
        // Readout is design-irrelevant (the optimizer never models it) but
        // lives in the canonical config: snap it so the config stays a pure
        // function of the buckets.
        q.readout_p10 = static_cast<double>(bucket(q.readout_p10, 5e-3)) * 5e-3;
        q.readout_p01 = static_cast<double>(bucket(q.readout_p01, 5e-3)) * 5e-3;
    }
    canon.cr.zx_rate = static_cast<double>(bucket(canon.cr.zx_rate, quant.cr_grid)) * quant.cr_grid;
    canon.cr.ix_rate = static_cast<double>(bucket(canon.cr.ix_rate, quant.cr_grid)) * quant.cr_grid;
    canon.cr.zz_static =
        static_cast<double>(bucket(canon.cr.zz_static, quant.cr_grid)) * quant.cr_grid;
    canon.cr.classical_crosstalk =
        static_cast<double>(bucket(canon.cr.classical_crosstalk, quant.cr_grid)) * quant.cr_grid;
    return canon;
}

std::uint64_t device_key_digest(const device::BackendConfig& device, const KeyQuant& quant,
                                std::size_t qubit, bool two_qubit) {
    const device::BackendConfig nominal = device::nominal_model(device);
    util::Fnv1a h;
    h.f64_bits(nominal.dt);
    h.u64(nominal.levels);
    const auto mix_qubit = [&](const device::QubitParams& q) {
        h.i64(bucket(q.frequency_ghz, quant.freq_ghz_grid));
        h.i64(bucket(q.anharmonicity, quant.anharm_grid));
        h.i64(bucket(q.omega_max, quant.omega_grid));
        h.i64(log_bucket(q.t1, quant.t1_log_grid));
        h.i64(log_bucket(q.t2, quant.t2_log_grid));
    };
    if (two_qubit) {
        h.bytes("2q");
        mix_qubit(nominal.qubit(0));
        mix_qubit(nominal.qubit(1));
        h.i64(bucket(nominal.cr.zx_rate, quant.cr_grid));
        h.i64(bucket(nominal.cr.ix_rate, quant.cr_grid));
        h.i64(bucket(nominal.cr.zz_static, quant.cr_grid));
        h.i64(bucket(nominal.cr.classical_crosstalk, quant.cr_grid));
    } else {
        h.bytes("1q");
        h.u64(qubit);
        mix_qubit(nominal.qubit(qubit));
    }
    return h.digest();
}

std::vector<std::uint64_t> flatten_params(const device::BackendConfig& device) {
    std::vector<std::uint64_t> out;
    out.reserve(device.qubits.size() * 10);
    for (const auto& q : device.qubits) {
        for (const double v : {q.frequency_ghz, q.anharmonicity, q.t1, q.t2, q.omega_max,
                               q.detuning, q.amp_scale, q.drive_amp_noise, q.readout_p10,
                               q.readout_p01}) {
            out.push_back(std::bit_cast<std::uint64_t>(v));
        }
    }
    return out;
}

pulse::Schedule stored_pulse_schedule(const StoredPulse& p) {
    pulse::Schedule sched(p.gate + "_cached");
    for (const auto& ch : p.channels) {
        if (ch.samples.empty()) continue;
        sched.insert(0, pulse::Play{pulse::Waveform(ch.samples, p.gate + "_cached"), ch.channel});
    }
    return sched;
}

std::optional<StoredPulse> PulseStore::lookup(std::uint64_t key) const {
    const Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lk(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end()) return std::nullopt;
    return it->second;
}

void PulseStore::put(StoredPulse p) {
    Shard& s = shard_for(p.key);
    std::lock_guard<std::mutex> lk(s.mu);
    s.map.insert_or_assign(p.key, std::move(p));
}

bool PulseStore::set_state(std::uint64_t key, EntryState state) {
    Shard& s = shard_for(key);
    std::lock_guard<std::mutex> lk(s.mu);
    const auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    it->second.state = state;
    return true;
}

std::size_t PulseStore::demote_if(const std::function<bool(const StoredPulse&)>& pred) {
    std::size_t demoted = 0;
    for (Shard& s : shards_) {
        std::lock_guard<std::mutex> lk(s.mu);
        for (auto& [key, entry] : s.map) {
            if (entry.state == EntryState::kFresh && pred(entry)) {
                entry.state = EntryState::kSuspect;
                ++demoted;
            }
        }
    }
    return demoted;
}

void PulseStore::for_each(const std::function<void(const StoredPulse&)>& fn) const {
    for (const Shard& s : shards_) {
        std::lock_guard<std::mutex> lk(s.mu);
        for (const auto& [key, entry] : s.map) fn(entry);
    }
}

std::size_t PulseStore::size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
        std::lock_guard<std::mutex> lk(s.mu);
        n += s.map.size();
    }
    return n;
}

void PulseStore::clear() {
    for (Shard& s : shards_) {
        std::lock_guard<std::mutex> lk(s.mu);
        s.map.clear();
    }
}

PulseStore::Occupancy PulseStore::occupancy() const {
    Occupancy occ;
    for (std::size_t i = 0; i < kShards; ++i) {
        const Shard& s = shards_[i];
        std::lock_guard<std::mutex> lk(s.mu);
        occ.shard_sizes[i] = s.map.size();
        occ.total += s.map.size();
        for (const auto& [key, entry] : s.map) {
            if (entry.state == EntryState::kFresh) {
                ++occ.fresh;
            } else {
                ++occ.suspect;
            }
        }
    }
    return occ;
}

namespace {

io::PulseStoreRecord to_record(const StoredPulse& p) {
    io::PulseStoreRecord r;
    r.key = p.key;
    r.gate = p.gate;
    r.qubit = p.qubit;
    r.duration_dt = p.duration_dt;
    r.fid_bits = std::bit_cast<std::uint64_t>(p.model_fid_err);
    r.state = static_cast<std::uint64_t>(p.state);
    r.design_count = p.design_count;
    r.validated_bits = p.validated;
    for (const auto& ch : p.channels) {
        io::PulseStoreRecord::Channel rc;
        rc.type = static_cast<std::uint64_t>(ch.channel.type);
        rc.index = ch.channel.index;
        rc.re_bits.reserve(ch.samples.size());
        rc.im_bits.reserve(ch.samples.size());
        for (const auto& v : ch.samples) {
            rc.re_bits.push_back(std::bit_cast<std::uint64_t>(v.real()));
            rc.im_bits.push_back(std::bit_cast<std::uint64_t>(v.imag()));
        }
        r.channels.push_back(std::move(rc));
    }
    return r;
}

StoredPulse from_record(const io::PulseStoreRecord& r) {
    StoredPulse p;
    p.key = r.key;
    p.gate = r.gate;
    p.qubit = r.qubit;
    p.duration_dt = r.duration_dt;
    p.model_fid_err = std::bit_cast<double>(r.fid_bits);
    p.state = r.state == 0 ? EntryState::kFresh : EntryState::kSuspect;
    p.design_count = r.design_count;
    p.validated = r.validated_bits;
    for (const auto& rc : r.channels) {
        StoredPulse::ChannelSamples ch;
        ch.channel.type = static_cast<pulse::ChannelType>(rc.type);
        ch.channel.index = rc.index;
        ch.samples.reserve(rc.re_bits.size());
        for (std::size_t i = 0; i < rc.re_bits.size(); ++i) {
            ch.samples.emplace_back(std::bit_cast<double>(rc.re_bits[i]),
                                    std::bit_cast<double>(rc.im_bits[i]));
        }
        p.channels.push_back(std::move(ch));
    }
    return p;
}

}  // namespace

void PulseStore::save_jsonl(const std::string& path) const {
    std::vector<io::PulseStoreRecord> records;
    for_each([&](const StoredPulse& p) { records.push_back(to_record(p)); });
    std::sort(records.begin(), records.end(),
              [](const io::PulseStoreRecord& a, const io::PulseStoreRecord& b) {
                  return a.key < b.key;
              });
    // Write a sibling temp file and rename it over the target, so a crash
    // or a failed write never leaves a torn store: readers see the old
    // file or the new one, whole.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp);
        if (!os) throw std::runtime_error("PulseStore::save_jsonl: cannot open " + tmp);
        io::write_pulse_store_jsonl(os, records);
        os.close();
        if (!os) {
            std::error_code ignored;  // report the write failure, not the cleanup
            std::filesystem::remove(tmp, ignored);
            throw std::runtime_error("PulseStore::save_jsonl: write failed on " + tmp);
        }
    }
    std::filesystem::rename(tmp, path);
}

std::size_t PulseStore::load_jsonl(const std::string& path) {
    std::ifstream is(path);
    if (!is) return 0;  // warm-start is best-effort: no file means a cold cache
    const auto records = io::read_pulse_store_jsonl(is);
    for (const auto& r : records) put(from_record(r));
    return records.size();
}

}  // namespace qoc::service
