#pragma once
/// qoc_lint: project-invariant static analysis for the qoc tree.
///
/// Generic tooling (clang-tidy, sanitizers) cannot see the invariants this
/// codebase's results rest on: bitwise determinism at any thread count,
/// zero-allocation `_into` kernels, OpenMP confined to src/runtime, dense
/// d^2 x d^2 superoperators only inside src/quantum/superop*,
/// stable iteration order in everything that serializes, and telemetry enum
/// identifiers in sync with their JSONL emission strings.  Each of those is
/// a named rule here, checked over a self-contained token stream (no
/// libclang, so the tool builds wherever CI does).
///
/// Suppressions are per-site and must be justified:
///     // qoc-lint-allow(rule-name): why this site is exempt
/// on the flagged line or the line directly above it.  An allow without a
/// justification does not suppress -- it is itself a finding
/// (suppression-without-justification), so exemptions stay auditable.
///
/// Whole-file opt-in to the hot-path allocation rule:
///     // qoc-lint: hot-path

#include <string>
#include <vector>

namespace qoc_lint {

struct Finding {
    std::string rule;
    std::string file;  ///< path as reported (relative to Options::root)
    int line = 0;
    std::string message;
};

struct RuleInfo {
    const char* name;
    const char* description;
};

/// Registered rules, in reporting order.
const std::vector<RuleInfo>& rules();

struct Options {
    /// Files or directories to scan.  Directories are walked recursively for
    /// *.cpp / *.hpp / *.cc / *.cxx / *.h; `build*`, `.git` and
    /// `lint_fixtures` subdirectories are skipped (a fixture tree can still
    /// be scanned by passing it as an explicit path).
    std::vector<std::string> paths;

    /// Repo root: reported paths are made relative to it, and the per-rule
    /// path scopes (src/, src/runtime/, ...) are evaluated on that relative
    /// form.  Empty: paths are reported as given and scoped as given.
    std::string root;

    /// Apply every rule to every scanned file, ignoring path scopes.  Used
    /// by the fixture tests, where scope is part of the fixture layout.
    bool ignore_scopes = false;

    /// When non-empty, only these rules run (suppression auditing always
    /// runs).  `disabled` removes rules from whichever set is active.
    std::vector<std::string> enabled;
    std::vector<std::string> disabled;
};

/// Runs every active rule over every scanned file and returns the surviving
/// findings sorted by (file, line, rule).  Justified suppressions have been
/// applied; unjustified or unknown-rule suppressions appear as findings.
std::vector<Finding> run(const Options& options);

/// Findings as a stable JSON document (sorted input order preserved).
std::string to_json(const std::vector<Finding>& findings);

}  // namespace qoc_lint
