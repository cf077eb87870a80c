/// \file schedule.hpp
/// \brief Pulse schedules: time-ordered instructions on channels, with
///        sample resolution for the device executor.

#pragma once

#include <map>
#include <optional>
#include <variant>
#include <vector>

#include "pulse/channels.hpp"
#include "pulse/waveform.hpp"

namespace qoc::pulse {

/// Plays a waveform on a channel.
struct Play {
    Waveform waveform;
    Channel channel;
};

/// Virtual-Z frame change: multiplies all subsequent plays on the channel by
/// e^{i phase} (zero duration -- how IBM implements RZ).
struct ShiftPhase {
    double phase = 0.0;
    Channel channel;
};

/// Idle time on a channel.
struct Delay {
    std::size_t duration = 0;  ///< in dt
    Channel channel;
};

/// Readout trigger.
struct Acquire {
    std::size_t duration = 0;  ///< in dt
    Channel channel;           ///< acquire channel of the measured qubit
};

using Instruction = std::variant<Play, ShiftPhase, Delay, Acquire>;

/// Duration (dt) of an instruction.
std::size_t instruction_duration(const Instruction& inst);

/// Channel an instruction acts on.
Channel instruction_channel(const Instruction& inst);

/// A pulse program: instructions with explicit start times.
class Schedule {
public:
    Schedule() = default;
    explicit Schedule(std::string name) : name_(std::move(name)) {}

    const std::string& name() const noexcept { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    /// Inserts an instruction at an absolute start time (dt).
    void insert(std::size_t t0, Instruction inst);

    /// Appends at the current end of the instruction's channel (the qiskit
    /// `schedule += inst` behaviour with channel alignment).
    void append(Instruction inst);

    /// All (t0, instruction) pairs sorted by start time.
    const std::vector<std::pair<std::size_t, Instruction>>& instructions() const {
        return instructions_;
    }

    /// End time (dt) of the last instruction on `ch`, 0 when unused.
    std::size_t channel_duration(const Channel& ch) const;

    /// End time over all channels.
    std::size_t total_duration() const;

    /// Channels referenced by the schedule.
    std::vector<Channel> channels() const;

    /// Resolves the complex drive samples seen by `ch` over [0, n_dt):
    /// Play samples with accumulated ShiftPhase frames applied; Delay and
    /// gaps produce zeros.  Throws `std::runtime_error` on overlapping plays.
    std::vector<std::complex<double>> channel_samples(const Channel& ch, std::size_t n_dt) const;

    /// Start times (dt) of Acquire instructions, per acquire channel.
    std::vector<std::pair<std::size_t, Channel>> acquires() const;

private:
    std::string name_ = "schedule";
    std::vector<std::pair<std::size_t, Instruction>> instructions_;
};

}  // namespace qoc::pulse
