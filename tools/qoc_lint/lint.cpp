#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace qoc_lint {

namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

// The linter's own containers are deliberately ordered (std::map/std::set):
// findings and JSON output must be byte-stable run to run, the same contract
// rule `unordered-iteration-in-serialization` enforces on the tree.

bool starts_with(const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
}
bool ends_with(const std::string& s, const char* suffix) {
    const std::string suf(suffix);
    return s.size() >= suf.size() && s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}
std::string lower(std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}
std::string trim(const std::string& s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
    return s.substr(b, e - b);
}

// --- suppressions and file markers --------------------------------------

struct Allow {
    std::string rule;
    bool justified = false;
    int line = 0;
};

struct CommentMeta {
    std::vector<Allow> allows;
    bool hot_path_file = false;
};

CommentMeta parse_comments(const LexedFile& fx) {
    CommentMeta meta;
    for (const Comment& c : fx.comments) {
        // Anchored at the start of the comment text, so prose *about* the
        // syntax (doc comments, fixture commentary) is not a suppression.
        if (starts_with(c.text, "qoc-lint: hot-path")) meta.hot_path_file = true;
        if (!starts_with(c.text, "qoc-lint-allow(")) continue;
        const std::size_t open = std::string("qoc-lint-allow(").size();
        const std::size_t close = c.text.find(')', open);
        if (close == std::string::npos) continue;
        Allow a;
        a.rule = trim(c.text.substr(open, close - open));
        a.line = c.line;
        std::string rest = c.text.substr(close + 1);
        const std::size_t colon = rest.find(':');
        a.justified = colon != std::string::npos && !trim(rest.substr(colon + 1)).empty();
        meta.allows.push_back(std::move(a));
    }
    return meta;
}

// --- token helpers -------------------------------------------------------

bool tok_is(const Token& t, const char* text) { return t.text == text; }
bool ident_is(const Token& t, const char* text) {
    return t.kind == TokKind::kIdent && t.text == text;
}

/// Index of the matching `close` for the `open` punctuator at `i`, or kNpos.
std::size_t match_forward(const std::vector<Token>& ts, std::size_t i, const char* open,
                          const char* close) {
    int depth = 0;
    for (std::size_t k = i; k < ts.size(); ++k) {
        if (ts[k].kind != TokKind::kPunct) continue;
        if (ts[k].text == open) ++depth;
        if (ts[k].text == close && --depth == 0) return k;
    }
    return kNpos;
}

// --- function-definition extraction --------------------------------------

struct FnDef {
    std::string name;
    std::size_t body_open = 0;   ///< index of the `{` token
    std::size_t body_close = 0;  ///< index of the matching `}`
    int line = 0;
};

const std::set<std::string>& control_keywords() {
    static const std::set<std::string> kw = {"if",     "for",    "while",  "switch",
                                            "catch",  "return", "sizeof", "alignof",
                                            "constexpr", "decltype", "static_assert", "assert",
                                            "throw",  "new",    "delete", "co_return"};
    return kw;
}

/// Heuristic scan for function definitions: `name ( ... ) <decoration> {`.
/// The decoration between `)` and `{` may contain cv/ref qualifiers,
/// noexcept, trailing return types and constructor-initializer lists; a `;`,
/// `=`, `}` or unbalanced `)` before the `{` rejects the candidate (calls,
/// declarations, `= default`).  Good enough for rule scoping; nested lambdas
/// are intentionally not modeled.
std::vector<FnDef> extract_functions(const std::vector<Token>& ts) {
    std::vector<FnDef> fns;
    const std::size_t n = ts.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
        if (ts[i].kind != TokKind::kIdent || !tok_is(ts[i + 1], "(")) continue;
        if (control_keywords().count(ts[i].text) != 0) continue;
        const std::size_t rparen = match_forward(ts, i + 1, "(", ")");
        if (rparen == kNpos) continue;
        std::size_t k = rparen + 1;
        bool found = false;
        while (k < n) {
            const Token& t = ts[k];
            if (t.kind == TokKind::kPunct) {
                if (t.text == "{") {
                    found = true;
                    break;
                }
                if (t.text == ";" || t.text == "=" || t.text == "}" || t.text == ")") break;
                if (t.text == "(") {
                    const std::size_t m = match_forward(ts, k, "(", ")");
                    if (m == kNpos) break;
                    k = m + 1;
                    continue;
                }
            }
            ++k;
        }
        if (!found) continue;
        const std::size_t close = match_forward(ts, k, "{", "}");
        if (close == kNpos) continue;
        fns.push_back(FnDef{ts[i].text, k, close, ts[i].line});
    }
    return fns;
}

// --- rule context --------------------------------------------------------

struct FileCtx {
    const LexedFile& fx;
    std::string rel;  ///< path relative to the scan root, '/'-separated
    bool hot_file = false;
    const std::vector<FnDef>& fns;
};

void add(std::vector<Finding>& out, const FileCtx& ctx, const char* rule, int line,
         std::string message) {
    out.push_back(Finding{rule, ctx.rel, line, std::move(message)});
}

// --- rule: determinism-wall-clock ----------------------------------------

bool scope_src(const std::string& rel) { return starts_with(rel, "src/"); }

void rule_wall_clock(const FileCtx& ctx, std::vector<Finding>& out) {
    static const std::set<std::string> kAlways = {
        "high_resolution_clock", "system_clock",  "steady_clock", "random_device",
        "gettimeofday",          "clock_gettime", "timespec_get"};
    static const std::set<std::string> kCallOnly = {"rand", "srand", "clock"};
    const std::vector<Token>& ts = ctx.fx.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != TokKind::kIdent) continue;
        const bool member =
            i > 0 && ts[i - 1].kind == TokKind::kPunct &&
            (ts[i - 1].text == "." || ts[i - 1].text == "->");
        if (member) continue;  // a field named e.g. `clock` on a user type
        const bool call = i + 1 < ts.size() && tok_is(ts[i + 1], "(");
        if (kAlways.count(ts[i].text) != 0 || (call && kCallOnly.count(ts[i].text) != 0)) {
            add(out, ctx, "determinism-wall-clock", ts[i].line,
                "'" + ts[i].text +
                    "' is a nondeterministic clock/RNG source; the RB/IRB curves and replay "
                    "digests require bitwise reproducibility -- telemetry-only sites need a "
                    "justified qoc-lint-allow");
        }
    }
}

// --- rule: no-omp-outside-runtime ----------------------------------------

bool scope_omp(const std::string& rel) {
    return starts_with(rel, "src/") && !starts_with(rel, "src/runtime/");
}

void rule_omp(const FileCtx& ctx, std::vector<Finding>& out) {
    const std::vector<Token>& ts = ctx.fx.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (tok_is(ts[i], "#") && i + 2 < ts.size() && ident_is(ts[i + 1], "pragma") &&
            ident_is(ts[i + 2], "omp")) {
            add(out, ctx, "no-omp-outside-runtime", ts[i].line,
                "'#pragma omp' outside src/runtime: parallelism goes through "
                "qoc::runtime::TaskPool (bitwise-identical at any pool width)");
            continue;
        }
        if (tok_is(ts[i], "#") && i + 1 < ts.size() && ident_is(ts[i + 1], "include")) {
            const bool quoted = i + 2 < ts.size() && ts[i + 2].kind == TokKind::kString &&
                                ts[i + 2].text == "omp.h";
            const bool angled = i + 6 < ts.size() && tok_is(ts[i + 2], "<") &&
                                ident_is(ts[i + 3], "omp") && tok_is(ts[i + 4], ".") &&
                                ident_is(ts[i + 5], "h") && tok_is(ts[i + 6], ">");
            if (quoted || angled) {
                add(out, ctx, "no-omp-outside-runtime", ts[i].line,
                    "'#include <omp.h>' outside src/runtime: only the TaskPool sizing "
                    "shim may talk to the OpenMP runtime");
            }
            continue;
        }
        if (ts[i].kind == TokKind::kIdent && starts_with(ts[i].text, "omp_")) {
            add(out, ctx, "no-omp-outside-runtime", ts[i].line,
                "OpenMP runtime call '" + ts[i].text +
                    "' outside src/runtime: use qoc::runtime sizing/parallel_for instead");
        }
    }
}

// --- rule: hot-path-alloc -------------------------------------------------

void scan_hot_range(const FileCtx& ctx, std::size_t begin, std::size_t end,
                    const std::string& where, std::vector<Finding>& out) {
    // `resize` is deliberately absent: `out.resize(shape)` at the top of an
    // `_into` kernel is the documented shape-adapt idiom, and the runtime
    // alloc guard (tests/analysis) pins it to zero allocations after warmup.
    // Everything here grows capacity element-wise -- never legitimate in a
    // hot path.
    static const std::set<std::string> kGrowth = {"push_back", "emplace_back", "reserve",
                                                  "insert",    "emplace",      "append",
                                                  "assign",    "shrink_to_fit"};
    static const std::set<std::string> kCAlloc = {"malloc", "calloc", "realloc", "strdup"};
    const std::vector<Token>& ts = ctx.fx.tokens;
    for (std::size_t i = begin; i < end && i < ts.size(); ++i) {
        const Token& t = ts[i];
        if (t.kind != TokKind::kIdent) continue;
        const bool prev_member = i > 0 && ts[i - 1].kind == TokKind::kPunct &&
                                 (ts[i - 1].text == "." || ts[i - 1].text == "->");
        const bool prev_equals = i > 0 && tok_is(ts[i - 1], "=");
        const bool call = i + 1 < end && tok_is(ts[i + 1], "(");
        // `= delete`d declarations are not allocations.
        if (t.text == "new" || (t.text == "delete" && !prev_equals)) {
            add(out, ctx, "hot-path-alloc", t.line,
                "operator " + t.text + " in " + where +
                    ": hot paths are zero-allocation (lease scratch from "
                    "runtime::WorkspacePool or take caller-owned buffers)");
            continue;
        }
        if (prev_member && call && kGrowth.count(t.text) != 0) {
            add(out, ctx, "hot-path-alloc", t.line,
                "container growth '." + t.text + "()' in " + where +
                    ": size buffers before entering the hot path");
            continue;
        }
        if (!prev_member && call && kCAlloc.count(t.text) != 0) {
            add(out, ctx, "hot-path-alloc", t.line, "'" + t.text + "' in " + where);
            continue;
        }
        if (ident_is(t, "std") && i + 2 < end && tok_is(ts[i + 1], "::") &&
            ts[i + 2].kind == TokKind::kIdent) {
            const std::string& name = ts[i + 2].text;
            const bool deref_only = i + 3 < end && ts[i + 3].kind == TokKind::kPunct &&
                                    (ts[i + 3].text == "&" || ts[i + 3].text == "*" ||
                                     ts[i + 3].text == "::");
            if (name == "string" && !deref_only) {
                add(out, ctx, "hot-path-alloc", t.line,
                    "std::string temporary in " + where +
                        ": string construction allocates; format outside the kernel");
            } else if (name == "to_string") {
                add(out, ctx, "hot-path-alloc", t.line,
                    "std::to_string in " + where + ": allocates a temporary string");
            }
        }
    }
}

void rule_hot_path(const FileCtx& ctx, std::vector<Finding>& out) {
    if (ctx.hot_file) {
        scan_hot_range(ctx, 0, ctx.fx.tokens.size(), "a '// qoc-lint: hot-path' file", out);
        return;
    }
    for (const FnDef& fn : ctx.fns) {
        if (!ends_with(fn.name, "_into")) continue;
        scan_hot_range(ctx, fn.body_open + 1, fn.body_close, "'" + fn.name + "'", out);
    }
}

// --- rule: dense-superop-materialization ---------------------------------

bool scope_dense(const std::string& rel) {
    // The superoperator layer: src/quantum/superop*.{hpp,cpp} (the dense
    // Liouvillian and channel constructors) is the one place allowed to
    // build d^2 x d^2 matrices.
    return starts_with(rel, "src/") && !starts_with(rel, "src/quantum/superop");
}

void rule_dense_superop(const FileCtx& ctx, std::vector<Finding>& out) {
    const std::vector<Token>& ts = ctx.fx.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (ts[i].kind != TokKind::kIdent) continue;
        const bool mat_ctor = ts[i].text == "Mat" || ts[i].text == "CMat";
        // `Mat(n*n, n*n)` temporaries and `Mat name(n*n, n*n)` declarations.
        std::size_t lp = kNpos;
        if (tok_is(ts[i + 1], "(")) {
            lp = i + 1;
        } else if (mat_ctor && i + 2 < ts.size() && ts[i + 1].kind == TokKind::kIdent &&
                   tok_is(ts[i + 2], "(")) {
            lp = i + 2;
        }
        if (lp == kNpos) continue;
        const std::size_t close = match_forward(ts, lp, "(", ")");
        if (close == kNpos) continue;
        // (a) vectorization-convention superop build: kron(A.conj(), B) /
        // kron(A.transpose(), I) materializes the d^2 x d^2 operator.
        if (ts[i].text == "kron" && lp == i + 1) {
            for (std::size_t k = i + 2; k < close; ++k) {
                const bool member_fn = ts[k].kind == TokKind::kIdent && k > 0 &&
                                       ts[k - 1].kind == TokKind::kPunct &&
                                       (ts[k - 1].text == "." || ts[k - 1].text == "->");
                if (member_fn && (ts[k].text == "conj" || ts[k].text == "transpose" ||
                                  ts[k].text == "adjoint" || ts[k].text == "dagger")) {
                    add(out, ctx, "dense-superop-materialization", ts[i].line,
                        "kron with ." + ts[k].text +
                            "() builds a dense d^2 x d^2 superoperator outside the "
                            "superoperator layer; use the quantum::superop constructors "
                            "(liouvillian, unitary_superop)");
                    break;
                }
            }
            continue;
        }
        // (b) explicit squared-dimension allocation: Mat(n * n, n * n) or
        // .resize(n * n, n * n).
        const bool resize_call = ts[i].text == "resize" && i > 0 &&
                                 ts[i - 1].kind == TokKind::kPunct &&
                                 (ts[i - 1].text == "." || ts[i - 1].text == "->");
        if (!mat_ctor && !resize_call) continue;
        std::vector<std::string> groups(1);
        int depth = 0;
        bool ok = true;
        for (std::size_t k = lp + 1; k < close; ++k) {
            if (ts[k].kind == TokKind::kPunct) {
                if (ts[k].text == "(" || ts[k].text == "[" || ts[k].text == "{") ++depth;
                if (ts[k].text == ")" || ts[k].text == "]" || ts[k].text == "}") --depth;
                if (ts[k].text == "," && depth == 0) {
                    groups.emplace_back();
                    continue;
                }
            }
            groups.back() += ts[k].text;
        }
        // Both extents identical AND each a perfect square `x*x` (same factor
        // on both sides of a single `*`). `Mat aug(2*n, 2*n)` -- a block
        // doubling, not a squared dimension -- must not match; `Mat(d*d, d*d)`
        // and `rho.resize(dim*dim, dim*dim)` must.
        ok = groups.size() == 2 && groups[0] == groups[1];
        if (ok) {
            const std::size_t star = groups[0].find('*');
            ok = star != std::string::npos && star > 0 &&
                 groups[0].substr(0, star) == groups[0].substr(star + 1);
        }
        if (ok) {
            add(out, ctx, "dense-superop-materialization", ts[i].line,
                "dense (" + groups[0] + ") x (" + groups[1] +
                    ") allocation looks like a materialized superoperator; keep d^4 "
                    "storage inside src/quantum/superop*");
        }
    }
}

// --- rule: unordered-iteration-in-serialization --------------------------

bool scope_serialization(const std::string& rel) {
    return starts_with(rel, "src/") || starts_with(rel, "tools/");
}

void rule_unordered_serialization(const FileCtx& ctx, std::vector<Finding>& out) {
    const std::vector<Token>& ts = ctx.fx.tokens;
    // Names declared (anywhere in this file) with an unordered container
    // type; member and local declarations both count.
    std::set<std::string> unordered_names;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (ts[i].kind != TokKind::kIdent) continue;
        if (ts[i].text != "unordered_map" && ts[i].text != "unordered_set" &&
            ts[i].text != "unordered_multimap" && ts[i].text != "unordered_multiset") {
            continue;
        }
        if (!tok_is(ts[i + 1], "<")) continue;
        const std::size_t close = match_forward(ts, i + 1, "<", ">");
        if (close == kNpos) continue;
        std::size_t k = close + 1;
        while (k < ts.size() && ts[k].kind == TokKind::kPunct &&
               (ts[k].text == "&" || ts[k].text == "*")) {
            ++k;
        }
        if (k < ts.size() && ts[k].kind == TokKind::kIdent && ts[k].text != "const") {
            unordered_names.insert(ts[k].text);
        }
    }
    if (unordered_names.empty()) return;

    for (const FnDef& fn : ctx.fns) {
        // A function "emits serialized output" when its name says so or its
        // body writes JSONL-shaped records.
        const std::string lname = lower(fn.name);
        bool emitter =
            lname.find("jsonl") != std::string::npos || lname.find("json") != std::string::npos ||
            lname.find("serialize") != std::string::npos;
        for (std::size_t k = fn.body_open; !emitter && k < fn.body_close; ++k) {
            if (ts[k].kind == TokKind::kString &&
                (ts[k].text.find("\\\"type\\\":") != std::string::npos ||
                 ts[k].text.find("\"type\":") != std::string::npos)) {
                emitter = true;
            }
        }
        if (!emitter) continue;
        for (std::size_t k = fn.body_open; k < fn.body_close; ++k) {
            if (!ident_is(ts[k], "for") || k + 1 >= fn.body_close || !tok_is(ts[k + 1], "(")) {
                continue;
            }
            const std::size_t close = match_forward(ts, k + 1, "(", ")");
            if (close == kNpos) continue;
            // Range-for: the first top-level ':' splits decl from range.
            std::size_t colon = kNpos;
            int depth = 0;
            for (std::size_t m = k + 2; m < close; ++m) {
                if (ts[m].kind != TokKind::kPunct) continue;
                if (ts[m].text == "(" || ts[m].text == "[" || ts[m].text == "{") ++depth;
                if (ts[m].text == ")" || ts[m].text == "]" || ts[m].text == "}") --depth;
                if (ts[m].text == ":" && depth == 0) {
                    colon = m;
                    break;
                }
            }
            if (colon == kNpos) continue;
            // Iterating `x`, `obj.x`, `s->x`: resolve the trailing name.
            const Token& last = ts[close - 1];
            if (last.kind == TokKind::kIdent && unordered_names.count(last.text) != 0) {
                add(out, ctx, "unordered-iteration-in-serialization", ts[k].line,
                    "range-for over unordered container '" + last.text + "' in '" + fn.name +
                        "', which emits serialized output; iteration order is not a stable "
                        "output -- sort into a vector (or use std::map) first");
            }
        }
    }
}

// --- rule: obs-enum-sync (global) ----------------------------------------

struct EnumSyncState {
    struct Group {
        std::map<std::string, std::vector<std::string>> enums;  // Cnt/Hist -> enumerators
        struct Names {
            std::vector<std::string> strings;
            std::string file;
            int line = 0;
        };
        std::map<std::string, Names> arrays;  // kCounterNames/kHistNames
    };
    std::map<std::string, Group> groups;  // dir/stem -> declarations
};

std::string group_key(const std::string& rel) {
    const std::size_t dot = rel.find_last_of('.');
    return dot == std::string::npos ? rel : rel.substr(0, dot);
}

void collect_enum_sync(const FileCtx& ctx, EnumSyncState& st) {
    const std::vector<Token>& ts = ctx.fx.tokens;
    EnumSyncState::Group& group = st.groups[group_key(ctx.rel)];
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
        if (ident_is(ts[i], "enum") && ident_is(ts[i + 1], "class") &&
            ts[i + 2].kind == TokKind::kIdent &&
            (ts[i + 2].text == "Cnt" || ts[i + 2].text == "Hist")) {
            std::size_t open = i + 3;
            while (open < ts.size() && !tok_is(ts[open], "{") && !tok_is(ts[open], ";")) ++open;
            if (open >= ts.size() || !tok_is(ts[open], "{")) continue;
            const std::size_t close = match_forward(ts, open, "{", "}");
            if (close == kNpos) continue;
            std::vector<std::string> values;
            bool expect = true;
            int depth = 0;
            for (std::size_t k = open + 1; k < close; ++k) {
                if (ts[k].kind == TokKind::kPunct) {
                    if (ts[k].text == "(" || ts[k].text == "{" || ts[k].text == "[") ++depth;
                    if (ts[k].text == ")" || ts[k].text == "}" || ts[k].text == "]") --depth;
                    if (ts[k].text == "," && depth == 0) expect = true;
                    continue;
                }
                if (expect && ts[k].kind == TokKind::kIdent) {
                    values.push_back(ts[k].text);
                    expect = false;
                }
            }
            group.enums[ts[i + 2].text] = std::move(values);
        }
        if (ts[i].kind == TokKind::kIdent &&
            (ts[i].text == "kCounterNames" || ts[i].text == "kHistNames")) {
            // Accept both `std::array<...> kName = {...}` and C arrays
            // `const char* kName[] = {...}` / `kName[kCount] = {...}`.
            std::size_t eq = i + 1;
            if (eq < ts.size() && tok_is(ts[eq], "[")) {
                const std::size_t rb = match_forward(ts, eq, "[", "]");
                if (rb == kNpos) continue;
                eq = rb + 1;
            }
            if (eq + 1 >= ts.size() || !tok_is(ts[eq], "=") || !tok_is(ts[eq + 1], "{")) continue;
            const std::size_t close = match_forward(ts, eq + 1, "{", "}");
            if (close == kNpos) continue;
            EnumSyncState::Group::Names names;
            names.file = ctx.rel;
            names.line = ts[i].line;
            for (std::size_t k = eq + 2; k < close; ++k) {
                if (ts[k].kind == TokKind::kString) names.strings.push_back(ts[k].text);
            }
            group.arrays[ts[i].text] = std::move(names);
        }
    }
}

void finalize_enum_sync(const EnumSyncState& st, std::vector<Finding>& out) {
    const std::pair<const char*, const char*> pairs[] = {{"Cnt", "kCounterNames"},
                                                         {"Hist", "kHistNames"}};
    for (const auto& [key, group] : st.groups) {
        for (const auto& [enum_name, array_name] : pairs) {
            const auto ei = group.enums.find(enum_name);
            const auto ai = group.arrays.find(array_name);
            if (ei == group.enums.end() || ai == group.arrays.end()) continue;
            std::size_t expected = ei->second.size();
            if (expected > 0 && ei->second.back() == "kCount") --expected;
            const EnumSyncState::Group::Names& names = ai->second;
            if (expected != names.strings.size()) {
                std::ostringstream msg;
                msg << "enum " << enum_name << " has " << expected
                    << " emission-relevant enumerators (excluding kCount) but " << array_name
                    << " carries " << names.strings.size()
                    << " JSONL name strings; telemetry names have drifted out of sync";
                out.push_back(Finding{"obs-enum-sync", names.file, names.line, msg.str()});
            }
            std::set<std::string> seen;
            for (const std::string& s : names.strings) {
                if (s.empty()) {
                    out.push_back(Finding{"obs-enum-sync", names.file, names.line,
                                          std::string(array_name) +
                                              " contains an empty JSONL metric name"});
                }
                if (!seen.insert(s).second) {
                    out.push_back(Finding{"obs-enum-sync", names.file, names.line,
                                          std::string(array_name) + " repeats the name \"" + s +
                                              "\"; every metric needs a distinct JSONL key"});
                }
            }
        }
    }
}

// --- registry -------------------------------------------------------------

const char* const kSuppressionRule = "suppression-without-justification";

}  // namespace

const std::vector<RuleInfo>& rules() {
    static const std::vector<RuleInfo> r = {
        {"determinism-wall-clock",
         "bans nondeterministic clock/RNG sources (steady/system/high_resolution clock, rand, "
         "random_device) in src/; justified telemetry sites carry qoc-lint-allow"},
        {"no-omp-outside-runtime",
         "'#pragma omp' / <omp.h> / omp_* calls are confined to src/runtime (the TaskPool "
         "replaced every OpenMP region)"},
        {"hot-path-alloc",
         "in *_into functions and '// qoc-lint: hot-path' files: no operator new/delete, no "
         "container growth, no std::string temporaries (static complement of the operator-new "
         "alloc guard)"},
        {"dense-superop-materialization",
         "dense d^2 x d^2 superoperator construction (vectorization-convention kron, squared-"
         "dimension allocs) only inside src/quantum/superop*"},
        {"unordered-iteration-in-serialization",
         "functions that emit JSONL/serialized output must not range-for over unordered "
         "containers; iteration order is not a stable output"},
        {"obs-enum-sync",
         "the fixed obs Cnt/Hist enums and their kCounterNames/kHistNames JSONL string tables "
         "must agree in size, with non-empty distinct names"},
        {kSuppressionRule,
         "every qoc-lint-allow(rule) must name a known rule and carry a non-empty "
         "justification after a colon"},
    };
    return r;
}

namespace {

bool known_rule(const std::string& name) {
    for (const RuleInfo& r : rules()) {
        if (name == r.name) return true;
    }
    return false;
}

bool rule_active(const Options& opt, const char* name) {
    if (!opt.enabled.empty() &&
        std::find(opt.enabled.begin(), opt.enabled.end(), name) == opt.enabled.end()) {
        return false;
    }
    return std::find(opt.disabled.begin(), opt.disabled.end(), name) == opt.disabled.end();
}

bool lintable_extension(const std::filesystem::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".cxx" || ext == ".h";
}

void collect_files(const std::string& path, std::vector<std::string>& files) {
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path p(path);
    if (fs::is_regular_file(p, ec)) {
        files.push_back(p.generic_string());
        return;
    }
    if (!fs::is_directory(p, ec)) return;
    fs::recursive_directory_iterator it(p, fs::directory_options::skip_permission_denied, ec);
    const fs::recursive_directory_iterator end;
    while (it != end) {
        const fs::directory_entry& entry = *it;
        const std::string name = entry.path().filename().string();
        if (entry.is_directory(ec) &&
            (name == ".git" || name == "lint_fixtures" || starts_with(name, "build"))) {
            it.disable_recursion_pending();
            it.increment(ec);
            continue;
        }
        if (entry.is_regular_file(ec) && lintable_extension(entry.path())) {
            files.push_back(entry.path().generic_string());
        }
        it.increment(ec);
        if (ec) break;
    }
}

std::string relativize(const std::string& file, const std::string& root) {
    if (root.empty()) return file;
    namespace fs = std::filesystem;
    std::error_code ec;
    const fs::path rel = fs::proximate(file, root, ec);
    if (ec || rel.empty()) return file;
    return rel.generic_string();
}

}  // namespace

std::vector<Finding> run(const Options& opt) {
    std::vector<std::string> files;
    for (const std::string& p : opt.paths) collect_files(p, files);
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    std::vector<Finding> raw;
    EnumSyncState enum_sync;
    // rel path -> allows, for the suppression pass.
    std::map<std::string, std::vector<Allow>> allows_by_file;

    for (const std::string& file : files) {
        std::ifstream is(file, std::ios::binary);
        if (!is) continue;
        std::ostringstream buf;
        buf << is.rdbuf();
        const LexedFile fx = lex(file, buf.str());
        const CommentMeta meta = parse_comments(fx);
        const std::vector<FnDef> fns = extract_functions(fx.tokens);
        const std::string rel = relativize(file, opt.root);
        const FileCtx ctx{fx, rel, meta.hot_path_file, fns};
        allows_by_file[rel] = meta.allows;

        const bool any_scope = opt.ignore_scopes;
        if (rule_active(opt, "determinism-wall-clock") && (any_scope || scope_src(rel))) {
            rule_wall_clock(ctx, raw);
        }
        if (rule_active(opt, "no-omp-outside-runtime") && (any_scope || scope_omp(rel))) {
            rule_omp(ctx, raw);
        }
        if (rule_active(opt, "hot-path-alloc") && (any_scope || scope_src(rel))) {
            rule_hot_path(ctx, raw);
        }
        if (rule_active(opt, "dense-superop-materialization") && (any_scope || scope_dense(rel))) {
            rule_dense_superop(ctx, raw);
        }
        if (rule_active(opt, "unordered-iteration-in-serialization") &&
            (any_scope || scope_serialization(rel))) {
            rule_unordered_serialization(ctx, raw);
        }
        if (rule_active(opt, "obs-enum-sync") && (any_scope || scope_src(rel))) {
            collect_enum_sync(ctx, enum_sync);
        }
        // The suppression audit is not gated on rule_active: exemptions must
        // stay reviewable regardless of --rule/--disable selections.
        {
            for (const Allow& a : meta.allows) {
                if (!known_rule(a.rule)) {
                    raw.push_back(Finding{kSuppressionRule, rel, a.line,
                                          "qoc-lint-allow names unknown rule '" + a.rule +
                                              "' (see qoc_lint --list-rules)"});
                } else if (!a.justified) {
                    raw.push_back(Finding{kSuppressionRule, rel, a.line,
                                          "qoc-lint-allow(" + a.rule +
                                              ") carries no justification; write "
                                              "'// qoc-lint-allow(" +
                                              a.rule + "): why this site is exempt'"});
                }
            }
        }
    }
    if (rule_active(opt, "obs-enum-sync")) finalize_enum_sync(enum_sync, raw);

    // Justified suppressions: an allow on the finding's line, or on the line
    // directly above it, suppresses findings of exactly that rule.  The
    // suppression-audit findings themselves cannot be suppressed.
    std::vector<Finding> out;
    for (Finding& f : raw) {
        bool suppressed = false;
        if (f.rule != kSuppressionRule) {
            const auto it = allows_by_file.find(f.file);
            if (it != allows_by_file.end()) {
                for (const Allow& a : it->second) {
                    if (a.rule == f.rule && a.justified &&
                        (a.line == f.line || a.line + 1 == f.line)) {
                        suppressed = true;
                        break;
                    }
                }
            }
        }
        if (!suppressed) out.push_back(std::move(f));
    }
    std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
        if (a.file != b.file) return a.file < b.file;
        if (a.line != b.line) return a.line < b.line;
        if (a.rule != b.rule) return a.rule < b.rule;
        return a.message < b.message;
    });
    return out;
}

namespace {

void json_escape(std::ostringstream& os, const std::string& s) {
    for (const char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char hex[8];
                    std::snprintf(hex, sizeof hex, "\\u%04x", static_cast<unsigned>(c));
                    os << hex;
                } else {
                    os << c;
                }
        }
    }
}

}  // namespace

std::string to_json(const std::vector<Finding>& findings) {
    std::ostringstream os;
    os << "{\n  \"version\": 1,\n  \"count\": " << findings.size() << ",\n  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding& f = findings[i];
        os << (i == 0 ? "\n" : ",\n") << "    {\"rule\": \"";
        json_escape(os, f.rule);
        os << "\", \"file\": \"";
        json_escape(os, f.file);
        os << "\", \"line\": " << f.line << ", \"message\": \"";
        json_escape(os, f.message);
        os << "\"}";
    }
    os << (findings.empty() ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

}  // namespace qoc_lint
