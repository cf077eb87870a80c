#include "pulse/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace qoc::pulse {

std::size_t instruction_duration(const Instruction& inst) {
    return std::visit(
        [](const auto& i) -> std::size_t {
            using T = std::decay_t<decltype(i)>;
            if constexpr (std::is_same_v<T, Play>) return i.waveform.duration();
            if constexpr (std::is_same_v<T, ShiftPhase>) return 0;
            if constexpr (std::is_same_v<T, Delay>) return i.duration;
            if constexpr (std::is_same_v<T, Acquire>) return i.duration;
        },
        inst);
}

Channel instruction_channel(const Instruction& inst) {
    return std::visit([](const auto& i) { return i.channel; }, inst);
}

void Schedule::insert(std::size_t t0, Instruction inst) {
    instructions_.emplace_back(t0, std::move(inst));
    std::stable_sort(instructions_.begin(), instructions_.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
}

void Schedule::append(Instruction inst) {
    const std::size_t t0 = channel_duration(instruction_channel(inst));
    insert(t0, std::move(inst));
}

std::size_t Schedule::channel_duration(const Channel& ch) const {
    std::size_t end = 0;
    for (const auto& [t0, inst] : instructions_) {
        if (instruction_channel(inst) == ch) {
            end = std::max(end, t0 + instruction_duration(inst));
        }
    }
    return end;
}

std::size_t Schedule::total_duration() const {
    std::size_t end = 0;
    for (const auto& [t0, inst] : instructions_) {
        end = std::max(end, t0 + instruction_duration(inst));
    }
    return end;
}

std::vector<Channel> Schedule::channels() const {
    std::set<Channel> seen;
    for (const auto& [t0, inst] : instructions_) seen.insert(instruction_channel(inst));
    return {seen.begin(), seen.end()};
}

std::vector<std::complex<double>> Schedule::channel_samples(const Channel& ch,
                                                            std::size_t n_dt) const {
    std::vector<std::complex<double>> out(n_dt, {0.0, 0.0});
    std::vector<bool> occupied(n_dt, false);
    double frame_phase = 0.0;

    // Instructions are kept sorted by start time, so the phase frame
    // accumulates in schedule order.
    for (const auto& [t0, inst] : instructions_) {
        if (instruction_channel(inst) != ch) continue;
        if (const auto* sp = std::get_if<ShiftPhase>(&inst)) {
            frame_phase += sp->phase;
            continue;
        }
        if (const auto* play = std::get_if<Play>(&inst)) {
            const auto& samples = play->waveform.samples();
            const std::complex<double> frame{std::cos(frame_phase), std::sin(frame_phase)};
            for (std::size_t k = 0; k < samples.size(); ++k) {
                const std::size_t t = t0 + k;
                if (t >= n_dt) break;
                if (occupied[t]) {
                    throw std::runtime_error("Schedule::channel_samples: overlapping plays on " +
                                             ch.label());
                }
                occupied[t] = true;
                out[t] = frame * samples[k];
            }
        }
        // Delay and Acquire contribute zeros / nothing to the drive.
    }
    return out;
}

std::vector<std::pair<std::size_t, Channel>> Schedule::acquires() const {
    std::vector<std::pair<std::size_t, Channel>> result;
    for (const auto& [t0, inst] : instructions_) {
        if (std::holds_alternative<Acquire>(inst)) {
            result.emplace_back(t0, instruction_channel(inst));
        }
    }
    return result;
}

}  // namespace qoc::pulse
