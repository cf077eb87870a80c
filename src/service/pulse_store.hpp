/// \file pulse_store.hpp
/// \brief Content-addressed store of designed pulses.
///
/// The cache key is an FNV-1a digest (`qoc::util::fnv1a`) of everything the
/// design is a deterministic function of:
///
///   * the QUANTIZED design-model snapshot of the device (frequency,
///     anharmonicity, Rabi rate, T1/T2 in log buckets, levels, dt, and the
///     CR parameters for two-qubit keys),
///   * the gate name and qubit(s),
///   * the pulse duration,
///   * the seed policy (the ordered optimizer-seed list), and
///   * the optimizer configuration (timeslots, bounds, penalties, model...).
///
/// Quantization is the load-bearing idea: the buckets are chosen COARSER
/// than typical daily drift, so a drifting device keeps hashing to the same
/// key and repeated traffic stays hit-dominated.  Designs are always run
/// against the BUCKET-CANONICAL snapshot (`quantize_design_model`), never
/// the exact one -- that makes the designed pulse a pure function of the
/// key, which is what lets concurrent identical misses coalesce onto one
/// design future and lets a replayed request log reproduce every response
/// bitwise at any pool width.  Drift WITHIN a bucket is handled by the
/// service's invalidation state machine (fresh -> suspect -> revalidate),
/// not by the key.
///
/// The store itself is a sharded hash map (per-shard mutex; the digest picks
/// the shard) with JSONL persistence through `qoc::io`: doubles are written
/// as IEEE-754 bit patterns, so a warm restart serves bitwise-identical
/// pulses.

#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/backend_config.hpp"
#include "pulse/schedule.hpp"

namespace qoc::service {

/// Bucket widths for the design-relevant snapshot parameters.  Defaults are
/// a few times the typical daily excursion of each parameter under
/// `device::DriftOptions`, so day-to-day drift almost never crosses a
/// bucket edge (cache hit) while genuinely different devices never share
/// one (montreal and toronto land ~300 frequency buckets apart).
struct KeyQuant {
    double freq_ghz_grid = 1e-2;   ///< qubit frequency, GHz
    double anharm_grid = 1e-2;     ///< anharmonicity, rad/ns
    double omega_grid = 1e-2;      ///< Rabi rate at unit amplitude, rad/ns
    double t1_log_grid = 0.5;      ///< ln(T1/ns) buckets (~65% relative)
    double t2_log_grid = 0.5;
    double cr_grid = 5e-3;         ///< CR rates (zx/ix/zz/crosstalk), rad/ns
};

/// The bucket-canonical design model: `nominal_model(device)` with every
/// quantized parameter snapped to its bucket CENTER.  Two devices whose
/// parameters fall in the same buckets map to the identical config -- the
/// determinism anchor described in the file comment.
device::BackendConfig quantize_design_model(const device::BackendConfig& device,
                                            const KeyQuant& quant);

/// Digest of the quantized design model restricted to what a design for
/// `qubit` (or the {0,1} pair when `two_qubit`) can depend on.
std::uint64_t device_key_digest(const device::BackendConfig& device, const KeyQuant& quant,
                                std::size_t qubit, bool two_qubit);

/// Flattens the exact (unquantized) per-qubit parameters of a snapshot into
/// bit patterns -- the entry's `validated` record that drift distances are
/// measured against, and the form `io::PulseStoreRecord` persists.
std::vector<std::uint64_t> flatten_params(const device::BackendConfig& device);

/// Invalidation state of an entry (see CalibrationService for the machine).
enum class EntryState : std::uint8_t {
    kFresh = 0,    ///< serveable as-is
    kSuspect = 1,  ///< drift past tolerance since last validation: IRB first
};

/// One designed pulse, content-addressed by `key`.
struct StoredPulse {
    std::uint64_t key = 0;
    std::string gate;                ///< "x", "y", "sx", "h" or "cx"
    std::size_t qubit = 0;           ///< 0 for cx (the {0,1} pair)
    std::size_t duration_dt = 0;
    double model_fid_err = 1.0;      ///< infidelity on the design model
    EntryState state = EntryState::kFresh;
    std::uint64_t design_count = 0;  ///< times this key was (re)designed
    /// Per-channel waveform samples of the designed schedule.
    struct ChannelSamples {
        pulse::Channel channel;
        std::vector<std::complex<double>> samples;
    };
    std::vector<ChannelSamples> channels;
    /// Exact per-qubit params the entry was last validated against
    /// (`flatten_params` of the snapshot at design/revalidation time).
    std::vector<std::uint64_t> validated;
};

/// Rebuilds the playable schedule (one Play per stored channel).
pulse::Schedule stored_pulse_schedule(const StoredPulse& p);

/// Sharded content-addressed map.  All operations are safe to call
/// concurrently; `lookup` copies the entry out so no reference outlives the
/// shard lock.
class PulseStore {
public:
    static constexpr std::size_t kShards = 16;

    std::optional<StoredPulse> lookup(std::uint64_t key) const;

    /// Inserts or replaces the entry for `p.key`.
    void put(StoredPulse p);

    /// Sets the state of `key` if present; returns whether it was.
    bool set_state(std::uint64_t key, EntryState state);

    /// Demotes every FRESH entry matching `pred` to suspect; returns how
    /// many were demoted.  `pred` runs under the shard lock -- keep it cheap.
    std::size_t demote_if(const std::function<bool(const StoredPulse&)>& pred);

    /// Visits every entry (shard by shard, under each shard's lock).
    void for_each(const std::function<void(const StoredPulse&)>& fn) const;

    std::size_t size() const;
    void clear();

    /// Instantaneous occupancy, sampled shard by shard (each under its own
    /// lock, so the totals are only approximately a point-in-time view).
    /// Telemetry seam: the service's Snapshotter publishes these as gauges.
    struct Occupancy {
        std::array<std::size_t, kShards> shard_sizes{};
        std::size_t total = 0;
        std::size_t fresh = 0;
        std::size_t suspect = 0;
    };
    Occupancy occupancy() const;

    /// JSONL persistence (bitwise round trip; see the file comment).
    /// `save_jsonl` writes entries sorted by key so the file is
    /// content-deterministic, into `<path>.tmp` renamed over `path`: a save
    /// that throws leaves the old file untouched.  `load_jsonl` merges
    /// records into the store (existing keys are replaced) and returns how
    /// many were loaded.
    void save_jsonl(const std::string& path) const;
    std::size_t load_jsonl(const std::string& path);

private:
    struct alignas(64) Shard {
        mutable std::mutex mu;
        std::unordered_map<std::uint64_t, StoredPulse> map;
    };

    Shard& shard_for(std::uint64_t key) { return shards_[key % kShards]; }
    const Shard& shard_for(std::uint64_t key) const { return shards_[key % kShards]; }

    std::array<Shard, kShards> shards_;
};

}  // namespace qoc::service
