#include "io/io.hpp"

#include <cctype>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <string_view>

namespace qoc::io {

void write_amplitudes_csv(std::ostream& os, const control::ControlAmplitudes& amps) {
    if (amps.empty()) throw std::invalid_argument("write_amplitudes_csv: empty table");
    os << "slot";
    for (std::size_t j = 0; j < amps[0].size(); ++j) os << ",u" << j;
    os << "\n";
    os << std::setprecision(17);
    for (std::size_t k = 0; k < amps.size(); ++k) {
        os << k;
        for (double v : amps[k]) os << ',' << v;
        os << "\n";
    }
}

void save_amplitudes(const std::string& path, const control::ControlAmplitudes& amps) {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("save_amplitudes: cannot open " + path);
    write_amplitudes_csv(os, amps);
}

namespace {

/// Cursor scanner for the canonical one-line JSON the writers below emit.
/// Not a general JSON parser: field order and spelling are fixed, which
/// keeps the round-trip contract easy to verify and the code small.
class LineScanner {
public:
    explicit LineScanner(const std::string& line) : s_(line) {}

    void expect(const char* lit) {
        const std::size_t n = std::string_view(lit).size();
        if (s_.compare(pos_, n, lit) != 0) {
            throw std::runtime_error("io: malformed record, expected '" + std::string(lit) +
                                     "' at column " + std::to_string(pos_));
        }
        pos_ += n;
    }

    bool peek(char c) const { return pos_ < s_.size() && s_[pos_] == c; }

    std::uint64_t u64() {
        if (pos_ >= s_.size() || (!std::isdigit(static_cast<unsigned char>(s_[pos_])))) {
            throw std::runtime_error("io: malformed record, expected integer");
        }
        std::uint64_t v = 0;
        while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
            v = v * 10 + static_cast<std::uint64_t>(s_[pos_] - '0');
            ++pos_;
        }
        return v;
    }

    std::int64_t i64() {
        bool neg = false;
        if (peek('-')) {
            neg = true;
            ++pos_;
        }
        const std::uint64_t mag = u64();
        return neg ? -static_cast<std::int64_t>(mag) : static_cast<std::int64_t>(mag);
    }

    std::string quoted() {
        expect("\"");
        const std::size_t end = s_.find('"', pos_);
        if (end == std::string::npos) throw std::runtime_error("io: unterminated string");
        std::string out = s_.substr(pos_, end - pos_);
        pos_ = end + 1;
        return out;
    }

    std::vector<std::uint64_t> u64_array() {
        expect("[");
        std::vector<std::uint64_t> out;
        if (!peek(']')) {
            for (;;) {
                out.push_back(u64());
                if (peek(',')) {
                    ++pos_;
                    continue;
                }
                break;
            }
        }
        expect("]");
        return out;
    }

private:
    const std::string& s_;
    std::size_t pos_ = 0;
};

void write_u64_array(std::ostream& os, const std::vector<std::uint64_t>& v) {
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i == 0 ? "" : ",") << v[i];
    os << ']';
}

}  // namespace

void write_pulse_store_jsonl(std::ostream& os, const std::vector<PulseStoreRecord>& records) {
    for (const PulseStoreRecord& r : records) {
        os << "{\"type\":\"pulse\",\"v\":2,\"key\":" << r.key << ",\"gate\":\"" << r.gate
           << "\",\"qubit\":" << r.qubit << ",\"duration_dt\":" << r.duration_dt
           << ",\"fid_bits\":" << r.fid_bits << ",\"state\":" << r.state
           << ",\"design_count\":" << r.design_count << ",\"validated\":";
        write_u64_array(os, r.validated_bits);
        os << ",\"channels\":[";
        for (std::size_t c = 0; c < r.channels.size(); ++c) {
            const auto& ch = r.channels[c];
            os << (c == 0 ? "" : ",") << "{\"ch_type\":" << ch.type
               << ",\"ch_index\":" << ch.index << ",\"re\":";
            write_u64_array(os, ch.re_bits);
            os << ",\"im\":";
            write_u64_array(os, ch.im_bits);
            os << '}';
        }
        os << "]}\n";
    }
}

std::vector<PulseStoreRecord> read_pulse_store_jsonl(std::istream& is) {
    std::vector<PulseStoreRecord> out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        LineScanner sc(line);
        PulseStoreRecord r;
        // v2: cache keys fold the optimizer method, so v1 entries (keyed
        // without it) must not be re-served; the scanner rejects them here.
        sc.expect("{\"type\":\"pulse\",\"v\":2,\"key\":");
        r.key = sc.u64();
        sc.expect(",\"gate\":");
        r.gate = sc.quoted();
        sc.expect(",\"qubit\":");
        r.qubit = sc.u64();
        sc.expect(",\"duration_dt\":");
        r.duration_dt = sc.u64();
        sc.expect(",\"fid_bits\":");
        r.fid_bits = sc.u64();
        sc.expect(",\"state\":");
        r.state = sc.u64();
        sc.expect(",\"design_count\":");
        r.design_count = sc.u64();
        sc.expect(",\"validated\":");
        r.validated_bits = sc.u64_array();
        sc.expect(",\"channels\":[");
        if (!sc.peek(']')) {
            for (;;) {
                PulseStoreRecord::Channel ch;
                sc.expect("{\"ch_type\":");
                ch.type = sc.u64();
                sc.expect(",\"ch_index\":");
                ch.index = sc.u64();
                sc.expect(",\"re\":");
                ch.re_bits = sc.u64_array();
                sc.expect(",\"im\":");
                ch.im_bits = sc.u64_array();
                sc.expect("}");
                if (ch.re_bits.size() != ch.im_bits.size()) {
                    throw std::runtime_error("io: pulse record with ragged re/im arrays");
                }
                r.channels.push_back(std::move(ch));
                if (sc.peek(',')) {
                    sc.expect(",");
                    continue;
                }
                break;
            }
        }
        sc.expect("]}");
        out.push_back(std::move(r));
    }
    return out;
}

void write_request_log_jsonl(std::ostream& os, const std::vector<RequestLogRecord>& records) {
    for (const RequestLogRecord& r : records) {
        os << "{\"type\":\"request\",\"index\":" << r.index << ",\"day\":" << r.day
           << ",\"device_id\":" << r.device_id << ",\"gate\":\"" << r.gate
           << "\",\"qubit\":" << r.qubit << ",\"duration_dt\":" << r.duration_dt
           << ",\"n_timeslots\":" << r.n_timeslots
           << ",\"max_iterations\":" << r.max_iterations
           << ",\"design_seed\":" << r.design_seed << ",\"priority\":" << r.priority
           << "}\n";
    }
}

std::vector<RequestLogRecord> read_request_log_jsonl(std::istream& is) {
    std::vector<RequestLogRecord> out;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty()) continue;
        LineScanner sc(line);
        RequestLogRecord r;
        sc.expect("{\"type\":\"request\",\"index\":");
        r.index = sc.u64();
        sc.expect(",\"day\":");
        r.day = sc.i64();
        sc.expect(",\"device_id\":");
        r.device_id = sc.u64();
        sc.expect(",\"gate\":");
        r.gate = sc.quoted();
        sc.expect(",\"qubit\":");
        r.qubit = sc.u64();
        sc.expect(",\"duration_dt\":");
        r.duration_dt = sc.u64();
        sc.expect(",\"n_timeslots\":");
        r.n_timeslots = sc.u64();
        sc.expect(",\"max_iterations\":");
        r.max_iterations = sc.i64();
        sc.expect(",\"design_seed\":");
        r.design_seed = sc.u64();
        sc.expect(",\"priority\":");
        r.priority = sc.u64();
        sc.expect("}");
        out.push_back(std::move(r));
    }
    return out;
}

}  // namespace qoc::io
