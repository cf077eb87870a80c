#include "records.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace qoc::bench {

namespace {

/// Every digit: a rounded time would hide run-to-run variation.
std::string number(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string hex(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/// The result line carries `metrics`; the history adds `extras` and every
/// metric's sample count.
std::string metrics_object(const RunRecord& rec, bool history) {
    std::vector<const Metric*> all;
    for (const Metric& m : rec.metrics) all.push_back(&m);
    if (history) {
        for (const Metric& m : rec.extras) all.push_back(&m);
    }
    std::string out = "{";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Metric& m = *all[i];
        if (i > 0) out += ",";
        out += quoted(m.name) + ":{\"value\":" + number(m.value) + ",\"unit\":" + quoted(m.unit);
        if (history) out += ",\"n\":" + std::to_string(m.samples);
        out += "}";
    }
    return out + "}";
}

// --- minimal scanning readers ---------------------------------------------

/// Position just past `"key":` (whitespace allowed around the colon) in
/// `s[from, to)`, or npos.  First occurrence only.
std::size_t value_at(const std::string& s, const char* key, std::size_t from, std::size_t to) {
    const std::string pat = std::string("\"") + key + "\"";
    for (std::size_t at = s.find(pat, from); at != std::string::npos && at < to;
         at = s.find(pat, at + 1)) {
        std::size_t p = at + pat.size();
        while (p < to && (s[p] == ' ' || s[p] == '\t' || s[p] == '\n' || s[p] == '\r')) ++p;
        if (p >= to || s[p] != ':') continue;
        ++p;
        while (p < to && (s[p] == ' ' || s[p] == '\t' || s[p] == '\n' || s[p] == '\r')) ++p;
        return p;
    }
    return std::string::npos;
}

bool string_at(const std::string& s, std::size_t at, std::string& out) {
    if (at == std::string::npos || at >= s.size() || s[at] != '"') return false;
    const std::size_t close = s.find('"', at + 1);
    if (close == std::string::npos) return false;
    out = s.substr(at + 1, close - at - 1);
    return true;
}

bool number_at(const std::string& s, std::size_t at, double& out) {
    if (at == std::string::npos || at >= s.size()) return false;
    char* end = nullptr;
    out = std::strtod(s.c_str() + at, &end);
    return end != s.c_str() + at;
}

/// Index of the bracket closing the one at `open` ('{' or '['), skipping
/// string contents; npos when unbalanced.
std::size_t closing(const std::string& s, std::size_t open) {
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = open; i < s.size(); ++i) {
        const char c = s[i];
        if (in_string) {
            if (c == '\\') {
                ++i;
            } else if (c == '"') {
                in_string = false;
            }
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{' || c == '[') {
            ++depth;
        } else if (c == '}' || c == ']') {
            if (--depth == 0) return i;
        }
    }
    return std::string::npos;
}

/// The `[begin, end]` extent of the object or array value of `key`.
bool section(const std::string& s, const char* key, std::size_t from, std::size_t to,
             std::size_t& begin, std::size_t& end) {
    begin = value_at(s, key, from, to);
    if (begin == std::string::npos || (s[begin] != '{' && s[begin] != '[')) return false;
    end = closing(s, begin);
    return end != std::string::npos && end < to;
}

/// Calls `fn(name, value_begin, value_end)` for each `"name": {...}` member
/// of the object spanning `[begin, end]`.
template <class Fn>
void for_each_member(const std::string& s, std::size_t begin, std::size_t end, Fn&& fn) {
    std::size_t p = begin + 1;
    while (p < end) {
        const std::size_t q0 = s.find('"', p);
        if (q0 == std::string::npos || q0 >= end) return;
        const std::size_t q1 = s.find('"', q0 + 1);
        if (q1 == std::string::npos || q1 >= end) return;
        const std::string name = s.substr(q0 + 1, q1 - q0 - 1);
        std::size_t v = s.find(':', q1);
        if (v == std::string::npos || v >= end) return;
        ++v;
        while (v < end && s[v] == ' ') ++v;
        std::size_t v_end = v;
        if (s[v] == '{' || s[v] == '[') {
            v_end = closing(s, v);
        } else if (s[v] == '"') {
            v_end = s.find('"', v + 1);
        } else {
            while (v_end < end && s[v_end] != ',' && s[v_end] != '}') ++v_end;
            --v_end;
        }
        if (v_end == std::string::npos || v_end > end) return;
        fn(name, v, v_end);
        p = v_end + 1;
    }
}

/// Calls `fn(obj_begin, obj_end)` for each object element of the array
/// spanning `[begin, end]`.
template <class Fn>
void for_each_object(const std::string& s, std::size_t begin, std::size_t end, Fn&& fn) {
    for (std::size_t p = s.find('{', begin); p != std::string::npos && p < end;
         p = s.find('{', p)) {
        const std::size_t q = closing(s, p);
        if (q == std::string::npos || q > end) return;
        fn(p, q);
        p = q + 1;
    }
}

bool parse_history_line(const std::string& line, RunRecord& rec) {
    std::size_t m_begin = 0, m_end = 0;
    if (!section(line, "metrics", 0, line.size(), m_begin, m_end)) return false;
    // Flat top-level keys all precede the metrics object.
    const std::size_t flat_end = m_begin;
    double schema = 0;
    if (!number_at(line, value_at(line, "schema", 0, flat_end), schema) ||
        static_cast<int>(schema) != kHistorySchema) {
        return false;
    }
    const auto u64 = [&](const char* key) {
        double v = 0;
        number_at(line, value_at(line, key, 0, flat_end), v);
        return static_cast<std::uint64_t>(v);
    };
    const auto flag = [&](const char* key) {
        const std::size_t at = value_at(line, key, 0, flat_end);
        return at != std::string::npos && line.compare(at, 4, "true") == 0;
    };
    string_at(line, value_at(line, "commit", 0, flat_end), rec.commit);
    string_at(line, value_at(line, "build_type", 0, flat_end), rec.build_type);
    string_at(line, value_at(line, "workload", 0, flat_end), rec.workload);
    rec.qoc_threads = u64("qoc_threads");
    rec.nproc = u64("nproc");
    rec.seed = u64("seed");
    rec.seconds = static_cast<int>(u64("seconds"));
    rec.trace = flag("trace");
    rec.correct = flag("correct");
    rec.attempted = u64("attempted");
    rec.failed = u64("failed");
    for_each_member(line, m_begin, m_end, [&](const std::string& name, std::size_t b,
                                              std::size_t e) {
        Metric m;
        m.name = name;
        number_at(line, value_at(line, "value", b, e), m.value);
        string_at(line, value_at(line, "unit", b, e), m.unit);
        double n = 0;
        number_at(line, value_at(line, "n", b, e), n);
        m.samples = static_cast<std::size_t>(n);
        rec.metrics.push_back(std::move(m));
    });
    std::size_t d_begin = 0, d_end = 0;
    if (section(line, "digests", m_end, line.size(), d_begin, d_end)) {
        for_each_member(line, d_begin, d_end, [&](const std::string& key, std::size_t b,
                                                  std::size_t) {
            std::string h;
            if (string_at(line, b, h)) {
                rec.digests.emplace_back(key, std::strtoull(h.c_str(), nullptr, 16));
            }
        });
    }
    return true;
}

std::vector<MetricSpec> read_metric_specs(const std::string& s, const char* key) {
    std::size_t b = 0, e = 0;
    if (!section(s, key, 0, s.size(), b, e)) {
        throw std::runtime_error(std::string("BENCHMARK.json: no \"") + key + "\" array");
    }
    std::vector<MetricSpec> out;
    for_each_object(s, b, e, [&](std::size_t ob, std::size_t oe) {
        MetricSpec m;
        string_at(s, value_at(s, "name", ob, oe), m.name);
        string_at(s, value_at(s, "unit", ob, oe), m.unit);
        std::string better;
        string_at(s, value_at(s, "better", ob, oe), better);
        m.higher_is_better = better == "higher";
        number_at(s, value_at(s, "bound", ob, oe), m.bound);
        out.push_back(std::move(m));
    });
    return out;
}

}  // namespace

std::string result_line(const RunRecord& rec) {
    return std::string("{\"correct\":") + (rec.correct ? "true" : "false") +
           ",\"attempted\":" + std::to_string(rec.attempted) +
           ",\"failed\":" + std::to_string(rec.failed) +
           ",\"metrics\":" + metrics_object(rec, false) + "}";
}

std::string history_line(const RunRecord& rec) {
    std::string out = "{\"schema\":" + std::to_string(kHistorySchema) +
                      ",\"commit\":" + quoted(rec.commit) +
                      ",\"build_type\":" + quoted(rec.build_type) +
                      ",\"workload\":" + quoted(rec.workload) +
                      ",\"qoc_threads\":" + std::to_string(rec.qoc_threads) +
                      ",\"nproc\":" + std::to_string(rec.nproc) +
                      ",\"seed\":" + std::to_string(rec.seed) +
                      ",\"seconds\":" + std::to_string(rec.seconds) +
                      ",\"trace\":" + (rec.trace ? "true" : "false") +
                      ",\"correct\":" + (rec.correct ? "true" : "false") +
                      ",\"attempted\":" + std::to_string(rec.attempted) +
                      ",\"failed\":" + std::to_string(rec.failed) +
                      ",\"metrics\":" + metrics_object(rec, true) + ",\"digests\":{";
    for (std::size_t i = 0; i < rec.digests.size(); ++i) {
        if (i > 0) out += ",";
        out += quoted(rec.digests[i].first) + ":" + quoted(hex(rec.digests[i].second));
    }
    return out + "}}";
}

void append_history(const std::string& path, const RunRecord& rec) {
    std::FILE* f = std::fopen(path.c_str(), "a");
    if (f == nullptr) throw std::runtime_error("cannot open history file " + path);
    const std::string line = history_line(rec) + "\n";
    const bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
    if (std::fclose(f) != 0 || !ok) {
        throw std::runtime_error("cannot append to history file " + path);
    }
}

std::vector<RunRecord> read_history(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::vector<RunRecord> out;
    std::string line;
    while (std::getline(in, line)) {
        RunRecord rec;
        if (parse_history_line(line, rec)) out.push_back(std::move(rec));
    }
    return out;
}

BenchmarkSpec read_benchmark_spec(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string s = ss.str();

    BenchmarkSpec spec;
    std::size_t b = 0, e = 0;
    if (!section(s, "workloads", 0, s.size(), b, e)) {
        throw std::runtime_error("BENCHMARK.json: no \"workloads\" array");
    }
    for_each_object(s, b, e, [&](std::size_t ob, std::size_t oe) {
        std::string name;
        if (string_at(s, value_at(s, "name", ob, oe), name)) spec.workloads.push_back(name);
    });
    spec.end_to_end = read_metric_specs(s, "end_to_end");
    spec.per_layer = read_metric_specs(s, "per_layer");
    return spec;
}

}  // namespace qoc::bench
