// its_lint — the project's self-hosted determinism & accounting linter.
//
// Every number this reproduction reports rests on the simulator being
// bit-identical across runs and platforms: the golden-run suite diffs raw
// SimMetrics integers, and the invariant checker replays traces event by
// event.  Two classes of regression break that silently:
//
//   1. *Determinism leaks* — wall-clock reads, unseeded generators, or
//      hash-order iteration feeding the trace/metrics path.  These do not
//      fail a test on the machine that introduced them; they fail weeks
//      later on someone else's libstdc++.
//   2. *Registry drift* — the docs must name every `SimConfig` field.  A
//      forgotten entry leaves a knob without a written contract and trips
//      no runtime check.  (The EventKind tables need no rule: one X-macro
//      generates them all.  Neither does the CSV report: the run counters
//      are declared once, in obs::RunTotals, one column list writes the
//      CSV, and report_args_test proves every counter reaches it.)
//
// This tool scans `src/` at lint time (ctest label `lint`, CI job `lint`)
// with a small comment/string-stripping tokenizer and flags both classes.
// It is deliberately heuristic — a tokenizer, not a compiler front end —
// so every rule supports an explicit, reasoned suppression:
//
//   std::mt19937 gen;  // its-lint: allow(det-rand): seeded by caller below
//
// A suppression without a reason is itself a finding (lint-bad-suppress).
// See docs/static-analysis.md for the full rule catalogue.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace its::lint {

/// Every rule the linter knows.  The enumerator order defines the per-rule
/// exit code (see `exit_code_for`) and the order findings are reported in.
enum class Rule : std::size_t {
  kDetRand,           ///< std::rand/random_device/unseeded mt19937.
  kDetClock,          ///< system_clock/steady_clock/gettimeofday/...
  kDetUnorderedIter,  ///< Hash-order iteration in event/metrics files.
  kDetPtrKey,         ///< Pointer-keyed ordered containers.
  kDetDoubleNs,       ///< double accumulation of nanosecond quantities.
  // 5-8 (exit codes 15-18) belonged to the retired EventKind registry
  // rules (reg-kind-name, reg-chrome-map, reg-invariant, reg-kind-count)
  // and 9 (exit code 19) to the retired reg-metrics-report; they stay
  // unused so no later rule's exit code moves.
  kRegConfigDoc = 10,  ///< SimConfig field undocumented in docs//README.
  kBadSuppress,       ///< Malformed/unreasoned its-lint: allow(...).
  kArchLayer,         ///< Module edge absent from docs/architecture.layers.
  kArchCycle,         ///< Header-level include cycle.
  kArchIwyu,          ///< Symbol used via a transitive include only.
  kArchUnusedInclude, ///< Project include contributing no symbol.
  kArchGuard,         ///< Header without #pragma once.
  kArchDeadApi,       ///< Public-header symbol referenced by no other file.
  // 18-22 (exit codes 28-32) belonged to the retired conc-* rules; they
  // stay unused so no later rule's exit code moves.
  kUnitsMixedArith = 23,  ///< Arithmetic/comparison mixing quantity dimensions.
  kUnitsAliasDecl,    ///< Bare uint64_t/double decl where an alias exists.
  kUnitsRawLiteral,   ///< Unsuffixed time-scale literal (use _us/_ms/_s).
  kUnitsNarrow,       ///< Time/size narrowed to 32 bits or double-promoted.
  kUnitsOverflow,     ///< Raw Duration product without the checked helpers.
  kUnitsShiftPage,    ///< Manual >>12 / &0xfff instead of vpn_of/page_base.
};

inline constexpr std::size_t kNumRules =
    static_cast<std::size_t>(Rule::kUnitsShiftPage) + 1;

/// Stable kebab-case rule identifier, used in output and in allow(...).
/// Empty for the retired enumerator values, which name no rule.
std::string_view rule_id(Rule r);

/// One-line description shown by --list-rules.
std::string_view rule_summary(Rule r);

/// Parses an allow(...) identifier; returns false for unknown ids.
bool rule_from_id(std::string_view id, Rule* out);

/// Process exit code reserved for violations of `r` (10 + enumerator).
/// A run that violates several distinct rules exits with the LOWEST
/// firing rule code — the most specific documented code — so scripts can
/// always branch on the exit status (see --list-rules).
int exit_code_for(Rule r);
inline constexpr int kExitClean = 0;
inline constexpr int kExitUsage = 1;

struct Finding {
  std::string file;  ///< Path as given to the scanner (repo-relative in CI).
  std::size_t line = 0;  ///< 1-based; 0 for whole-file registry findings.
  Rule rule = Rule::kBadSuppress;
  std::string message;
};

/// A loaded source file: the raw text plus a comment/string-blanked twin
/// ("code") on which all token rules run.  Line structure is preserved so
/// findings carry accurate line numbers.
struct SourceFile {
  std::string path;
  std::vector<std::string> raw_lines;   ///< Verbatim, for suppressions.
  std::vector<std::string> code_lines;  ///< Comments/strings blanked.

  /// Loads and tokenizes `path`.  Returns false (and sets `error`) when
  /// the file cannot be read.
  static bool load(const std::string& path, SourceFile* out,
                   std::string* error);

  /// Builds a SourceFile from in-memory text (fixture tests).
  static SourceFile from_text(std::string path, std::string_view text);
};

/// Replaces //, /*...*/ comments and string/char literals with spaces,
/// preserving newlines.  Exposed for tests.
std::string strip_comments_and_strings(std::string_view text);

/// True when `word` occurs in `line` delimited by non-identifier chars.
bool contains_word(std::string_view line, std::string_view word);

// ---------------------------------------------------------------------------
// Determinism rules (per file).

/// Runs every determinism rule on one file.  Suppressions are NOT applied
/// here; `apply_suppressions` handles them so the pipeline is testable in
/// isolation.
std::vector<Finding> scan_determinism(const SourceFile& f);

// ---------------------------------------------------------------------------
// Registry rule (cross-file).

/// The files the registry rule reads, resolved relative to --root.
struct RegistryInputs {
  std::string config_h;            ///< src/core/config.h
  std::vector<std::string> docs;   ///< README.md + docs/*.md
};

/// Default layout under `root` (only files that exist are filled in).
RegistryInputs registry_inputs_for_root(const std::string& root);

std::vector<Finding> scan_registry(const RegistryInputs& in,
                                   std::vector<std::string>* errors);

/// Parses the field names of `struct <name> { ... };`.  Member functions
/// and nested type definitions are skipped.  Exposed for tests.
std::vector<std::string> parse_struct_fields(const SourceFile& f,
                                             std::string_view struct_name);

// ---------------------------------------------------------------------------
// Architecture rules (whole-program).

/// What the architecture pass reads.  Everything is resolved relative to
/// `root` by `arch_options_for_root`, but fixtures may point the fields
/// anywhere.
struct ArchOptions {
  std::string root;           ///< Tree root; the graph is built from root/src.
  std::string src_dir;        ///< Directory whose modules form the graph.
  std::string manifest_path;  ///< The docs/architecture.layers manifest.
  /// Extra trees whose files count as *references* for arch-dead-api
  /// (tests/, tools/, examples/, bench/) but contribute no graph edges.
  std::vector<std::string> usage_dirs;
};

/// Default layout: src_dir = root/src, manifest = root/docs/
/// architecture.layers, usage_dirs = the sibling trees that exist.
ArchOptions arch_options_for_root(const std::string& root);

/// The module-level dependency graph derived from `#include "..."` edges.
struct ModuleGraph {
  struct Edge {
    std::string from, to;  ///< Module names (first path component).
    std::string file;      ///< Witness include site ...
    std::size_t line = 0;  ///< ... for reporting.
  };
  std::vector<std::string> modules;  ///< Sorted module names.
  std::vector<Edge> edges;           ///< Deduped, sorted (from, to).
};

/// One row of the layer manifest: `module: dep dep ...`.
struct ManifestRow {
  std::string module;
  std::vector<std::string> deps;
  std::size_t line = 0;  ///< 1-based line in the manifest file.
};

/// Parses docs/architecture.layers.  Rows must be topologically ordered —
/// every dep declared on an earlier line — which makes module cycles
/// inexpressible; violations land in `errors`.
bool parse_manifest(const SourceFile& f, std::vector<ManifestRow>* rows,
                    std::vector<std::string>* errors);

/// Runs the whole arch-* family: layering vs the manifest (both
/// directions — an include the manifest does not allow AND a manifest
/// edge no include realises), header-level include cycles, IWYU
/// (transitive-include reliance), unused project includes, missing
/// #pragma once, and dead public API.  Suppressions are applied
/// internally (the pass owns the file loading); `graph` receives the
/// module graph for --dot when non-null.
std::vector<Finding> scan_architecture(const ArchOptions& opts,
                                       ModuleGraph* graph,
                                       std::vector<std::string>* errors);

/// Graphviz rendering of the module graph (stable, sorted output).
void print_dot(std::ostream& os, const ModuleGraph& g);

// ---------------------------------------------------------------------------
// Units rules (whole-program).

/// What the units pass reads: the src tree, nothing else.  The quantity
/// algebra itself is documented in src/util/types.h and
/// docs/static-analysis.md#units.
struct UnitsOptions {
  std::string root;     ///< Tree root (findings are reported relative to it).
  std::string src_dir;  ///< Directory scanned, normally root/src.
};

/// Default layout: src_dir = root/src.
UnitsOptions units_options_for_root(const std::string& root);

/// Runs the whole units-* family: a typedef-aware dimension analysis over
/// declarations, expressions and cross-file call edges enforcing
///   SimTime - SimTime -> Duration,  SimTime + Duration -> SimTime,
/// flagging SimTime + SimTime, any time-vs-space mixing, vocabulary-typed
/// bare uint64_t/double declarations, unsuffixed time-scale literals,
/// narrowing of time quantities, raw Duration products, and manual page
/// shifts.  Suppressions are applied internally.
std::vector<Finding> scan_units(const UnitsOptions& opts,
                                std::vector<std::string>* errors);

/// In-memory variant (fixture and gate tests): scans exactly `files`,
/// reporting findings against each SourceFile's `path` as given.
std::vector<Finding> scan_units_files(const std::vector<SourceFile>& files);

// ---------------------------------------------------------------------------
// Driver.

struct LintOptions {
  std::string root = ".";       ///< Repo root (registry files live below).
  std::vector<std::string> paths;  ///< Files/dirs to scan; default {root}/src.
  bool registry = true;         ///< Run the cross-file rules.
  bool arch = true;             ///< Run the architecture rules.
  bool arch_only = false;       ///< Run ONLY the architecture rules.
  bool units = true;            ///< Run the units rules.
  bool units_only = false;      ///< Run ONLY the units rules.
  bool json = false;            ///< Machine-readable output.
  std::string dot_path;         ///< Write the module graph here ("-": stdout).
};

struct LintResult {
  std::vector<Finding> findings;   ///< Post-suppression, sorted.
  std::vector<std::string> errors;  ///< Unreadable files etc.

  int exit_code() const;
};

/// Filters `findings` through the `its-lint: allow(rule): reason` comments
/// of `f`, appending kBadSuppress findings for malformed ones.  Exposed
/// for tests.
std::vector<Finding> apply_suppressions(const SourceFile& f,
                                        std::vector<Finding> findings);

/// Scans one already-loaded file (determinism rules + suppressions).
std::vector<Finding> lint_file(const SourceFile& f);

/// Full run: collect files, per-file rules, registry rules.
LintResult run_lint(const LintOptions& opts);

/// Human-readable report (one finding per line, gcc-style).
void print_findings(std::ostream& os, const LintResult& r);

/// JSON report: {"findings":[...],"errors":[...],"exit_code":N}.
void print_json(std::ostream& os, const LintResult& r);

}  // namespace its::lint
