// Tests for tools/its_lint: every rule must fire exactly where the
// fixtures under tests/lint_fixtures/ violate it, reasoned suppressions
// must silence findings, and the cross-file registry rule must accept an
// in-sync mini-tree and flag a drifted one.
//
// ITS_LINT_FIXTURE_DIR is injected by tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.h"

namespace its::lint {
namespace {

std::string fixture(const std::string& name) {
  return std::string(ITS_LINT_FIXTURE_DIR) + "/" + name;
}

SourceFile load_fixture(const std::string& name) {
  SourceFile f;
  std::string err;
  EXPECT_TRUE(SourceFile::load(fixture(name), &f, &err)) << err;
  return f;
}

/// (rule, line) pairs of `findings`, sorted, for whole-set comparisons.
std::vector<std::pair<Rule, std::size_t>> locations(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<Rule, std::size_t>> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.emplace_back(f.rule, f.line);
  std::sort(out.begin(), out.end());
  return out;
}

bool has_finding(const std::vector<Finding>& findings, Rule r,
                 std::string_view needle) {
  return std::any_of(findings.begin(), findings.end(), [&](const Finding& f) {
    return f.rule == r && f.message.find(needle) != std::string::npos;
  });
}

// ---------------------------------------------------------------------------
// Tokenizer.

TEST(LintTokenizer, StripsCommentsAndLiteralsButKeepsLines) {
  std::string code =
      "int a; // rand()\n"
      "/* rand() spans\n   lines */ int b = 'x';\n"
      "const char* s = \"std::rand()\";\n";
  std::string stripped = strip_comments_and_strings(code);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(code.begin(), code.end(), '\n'));
  EXPECT_EQ(stripped.find("rand"), std::string::npos);
  EXPECT_NE(stripped.find("int b ="), std::string::npos);
}

TEST(LintTokenizer, RawStringsAndDigitSeparatorsSurvive) {
  // 5'000 must not open a char literal; the raw string must be blanked.
  std::string code =
      "int n = 5'000;\n"
      "auto r = R\"(srand(1))\";\n"
      "int m = 7;\n";
  std::string stripped = strip_comments_and_strings(code);
  EXPECT_EQ(stripped.find("srand"), std::string::npos);
  EXPECT_NE(stripped.find("int m = 7;"), std::string::npos);
}

TEST(LintTokenizer, ContainsWordRespectsBoundaries) {
  EXPECT_TRUE(contains_word("std::rand();", "rand"));
  EXPECT_FALSE(contains_word("unordered_map", "map"));
  EXPECT_FALSE(contains_word("random_device", "rand"));
}

// ---------------------------------------------------------------------------
// Determinism rules, one fixture per rule.

TEST(LintDeterminism, DetRandFiresOnEveryTrigger) {
  auto f = load_fixture("det_rand.cpp");
  auto got = locations(lint_file(f));
  std::vector<std::pair<Rule, std::size_t>> want = {
      {Rule::kDetRand, 6},   // std::mt19937 gen;
      {Rule::kDetRand, 7},   // std::mt19937_64 wide{};
      {Rule::kDetRand, 8},   // std::random_device rd;
      {Rule::kDetRand, 12},  // std::rand()
  };
  EXPECT_EQ(got, want);
}

TEST(LintDeterminism, DetClockFiresPerBannedIdentifier) {
  auto f = load_fixture("det_clock.cpp");
  auto got = locations(lint_file(f));
  std::vector<std::pair<Rule, std::size_t>> want = {
      {Rule::kDetClock, 6},  // steady_clock
      {Rule::kDetClock, 7},  // system_clock
      {Rule::kDetClock, 9},  // timespec_get
  };
  EXPECT_EQ(got, want);
}

TEST(LintDeterminism, DetUnorderedIterFiresOnlyOnEventPathFiles) {
  auto bad = load_fixture("det_unordered_iter.cpp");
  auto got = locations(lint_file(bad));
  std::vector<std::pair<Rule, std::size_t>> want = {
      {Rule::kDetUnorderedIter, 14},  // for (const auto& kv : counts)
  };
  EXPECT_EQ(got, want);

  // Same loop, no EventTrace/SimMetrics in the file: out of scope.
  auto ok = load_fixture("det_unordered_ok.cpp");
  EXPECT_TRUE(lint_file(ok).empty());
}

TEST(LintDeterminism, DetPtrKeyFiresOnPointerKeyedOrderedContainers) {
  auto f = load_fixture("det_ptr_key.cpp");
  auto got = locations(lint_file(f));
  std::vector<std::pair<Rule, std::size_t>> want = {
      {Rule::kDetPtrKey, 10},  // std::map<const Proc*, int>
      {Rule::kDetPtrKey, 11},  // std::set<Proc*>
  };
  EXPECT_EQ(got, want);
}

TEST(LintDeterminism, DetDoubleNsFiresOnDeclAndAccumulation) {
  auto f = load_fixture("det_double_ns.cpp");
  auto got = locations(lint_file(f));
  std::vector<std::pair<Rule, std::size_t>> want = {
      {Rule::kDetDoubleNs, 7},   // double total_ns = 0.0;
      {Rule::kDetDoubleNs, 11},  // sum += w[i].finish_time;
  };
  EXPECT_EQ(got, want);
}

TEST(LintDeterminism, RateNamesAreNotNanosecondQuantities) {
  // `per`-named doubles are rates (bytes/ns), not ns totals.
  auto f = SourceFile::from_text(
      "src/fake/rates.h", "double copy_bytes_per_ns = 16.0;\n"
                          "double ns_per_instr = 1.0;\n");
  EXPECT_TRUE(lint_file(f).empty());
}

TEST(LintDeterminism, DetRandCoversFarmVictimSelection) {
  auto f = load_fixture("det_farm_rand.cpp");
  auto got = locations(lint_file(f));
  std::vector<std::pair<Rule, std::size_t>> want = {
      {Rule::kDetRand, 8},   // std::random_device rd;
      {Rule::kDetRand, 13},  // std::mt19937 gen;
  };
  EXPECT_EQ(got, want);

  // Seeded into src/farm/ the same code fails the src gate: the farm
  // layer has no rng exemption (only util/rng.h and fault/ do), so
  // entropy can never sneak into the bit-deterministic scheduler.
  SourceFile as_src = f;
  as_src.path = "src/farm/steal.cpp";
  LintResult r;
  r.findings = lint_file(as_src);
  EXPECT_EQ(r.exit_code(), exit_code_for(Rule::kDetRand));
}

TEST(LintDeterminism, DetRandCoversServeArrivalSampler) {
  auto f = load_fixture("det_serve_rand.cpp");
  auto got = locations(lint_file(f));
  std::vector<std::pair<Rule, std::size_t>> want = {
      {Rule::kDetRand, 9},   // std::random_device rd;
      {Rule::kDetRand, 14},  // std::mt19937 gen;
  };
  EXPECT_EQ(got, want);

  // Seeded into src/serve/ the same code fails the src gate: the serving
  // layer has no rng exemption, so the arrival sampler can only draw from
  // the seeded util::Rng stream and every percentile row stays replayable.
  SourceFile as_src = f;
  as_src.path = "src/serve/arrival.cpp";
  LintResult r;
  r.findings = lint_file(as_src);
  EXPECT_EQ(r.exit_code(), exit_code_for(Rule::kDetRand));
}

TEST(LintDeterminism, RngHomeAndFaultLayerAreExemptFromDetRand) {
  const std::string decl = "std::mt19937 gen;\n";
  EXPECT_TRUE(lint_file(SourceFile::from_text("src/util/rng.h", decl)).empty());
  EXPECT_TRUE(
      lint_file(SourceFile::from_text("src/fault/injector.cpp", decl)).empty());
  EXPECT_FALSE(
      lint_file(SourceFile::from_text("src/core/sim.cpp", decl)).empty());
}

// ---------------------------------------------------------------------------
// Suppressions.

TEST(LintSuppress, ReasonedAllowSilencesTrailingAndWholeLineForms) {
  auto f = load_fixture("det_rand_allowed.cpp");
  EXPECT_TRUE(lint_file(f).empty());
}

TEST(LintSuppress, ReasonlessOrUnknownAllowIsItselfAFinding) {
  auto f = load_fixture("det_rand_bad_suppress.cpp");
  auto got = locations(lint_file(f));
  std::vector<std::pair<Rule, std::size_t>> want = {
      {Rule::kDetRand, 6},       // original finding survives
      {Rule::kDetRand, 11},      // ditto for the unknown-rule form
      {Rule::kBadSuppress, 6},   // allow(det-rand) without a reason
      {Rule::kBadSuppress, 11},  // allow(not-a-rule)
  };
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(LintSuppress, AllowOnlyCoversItsOwnRule) {
  // A det-clock suppression must not silence a det-rand finding.
  auto f = SourceFile::from_text(
      "src/fake/wrong_rule.cpp",
      "#include <random>\n"
      "std::mt19937 gen;  // its-lint: allow(det-clock): wrong rule\n");
  auto findings = lint_file(f);
  EXPECT_TRUE(has_finding(findings, Rule::kDetRand, "unseeded"));
}

// ---------------------------------------------------------------------------
// The registry rule over the fixture mini-trees.

TEST(LintRegistry, CleanTreeHasNoFindings) {
  std::vector<std::string> errors;
  auto findings =
      scan_registry(registry_inputs_for_root(fixture("registry_clean")),
                    &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_TRUE(findings.empty());
}

TEST(LintRegistry, DriftedTreeFlagsEveryRegistryRule) {
  std::vector<std::string> errors;
  auto findings = scan_registry(
      registry_inputs_for_root(fixture("registry_drift")), &errors);
  EXPECT_TRUE(errors.empty());

  EXPECT_TRUE(has_finding(findings, Rule::kRegConfigDoc, "hidden_knob"));

  // Nothing in-sync may be flagged.
  EXPECT_FALSE(has_finding(findings, Rule::kRegConfigDoc, "'knob'"));
}

// ---------------------------------------------------------------------------
// Parsers.

TEST(LintParsers, StructFieldsSkipFunctionsAndKeepBraceInit) {
  auto f = SourceFile::from_text(
      "src/fake/s.h",
      "struct Demo {\n"
      "  unsigned a = 1;\n"
      "  Nested nested{};\n"
      "  std::uint64_t big = 512ull << 20;\n"
      "  int helper() const { return 0; }\n"
      "  double rate = 2.5;\n"
      "};\n");
  auto fields = parse_struct_fields(f, "Demo");
  std::vector<std::string> want = {"a", "nested", "big", "rate"};
  EXPECT_EQ(fields, want);
}

// ---------------------------------------------------------------------------
// Exit codes: the ctest/CI contract.

TEST(LintExitCodes, PerRuleAndLowestWins) {
  EXPECT_EQ(exit_code_for(Rule::kDetRand), 10);
  EXPECT_EQ(exit_code_for(Rule::kBadSuppress),
            10 + static_cast<int>(Rule::kBadSuppress));
  EXPECT_EQ(exit_code_for(Rule::kArchLayer),
            10 + static_cast<int>(Rule::kArchLayer));

  LintResult clean;
  EXPECT_EQ(clean.exit_code(), kExitClean);

  LintResult one;
  one.findings.push_back({"f.cpp", 1, Rule::kDetClock, "m"});
  EXPECT_EQ(one.exit_code(), exit_code_for(Rule::kDetClock));

  // Several distinct rules: the LOWEST (most specific documented) firing
  // rule's code wins — never a catch-all — regardless of finding order.
  LintResult mixed = one;
  mixed.findings.push_back({"f.cpp", 2, Rule::kDetRand, "m"});
  mixed.findings.push_back({"a.h", 3, Rule::kArchDeadApi, "m"});
  EXPECT_EQ(mixed.exit_code(), exit_code_for(Rule::kDetRand));

  LintResult errored;
  errored.errors.push_back("unreadable");
  EXPECT_EQ(errored.exit_code(), kExitUsage);
}

TEST(LintExitCodes, RetiredCodes15Through18NameNoRule) {
  // The EventKind registry rules are gone (one X-macro table generates
  // what they checked); codes 15-18 stay unused.
  for (std::size_t i = 5; i <= 8; ++i) {
    EXPECT_EQ(exit_code_for(static_cast<Rule>(i)), static_cast<int>(10 + i));
    EXPECT_TRUE(rule_id(static_cast<Rule>(i)).empty()) << "code " << 10 + i;
  }
  EXPECT_EQ(exit_code_for(Rule::kRegConfigDoc), 20);
  Rule r = Rule::kDetRand;
  for (const char* id :
       {"reg-kind-name", "reg-chrome-map", "reg-invariant", "reg-kind-count"})
    EXPECT_FALSE(rule_from_id(id, &r)) << id;
}

TEST(LintExitCodes, RetiredCode19NamesNoRule) {
  // reg-metrics-report is gone: the run counters are declared once and
  // ReportCsv.EveryRunTotalsWordReachesTheRow proves each reaches the CSV.
  // Code 19 stays unused, so reg-config-doc keeps 20.
  const auto retired = static_cast<Rule>(9);
  EXPECT_EQ(exit_code_for(retired), 19);
  EXPECT_TRUE(rule_id(retired).empty());
  Rule r = Rule::kDetRand;
  EXPECT_FALSE(rule_from_id("reg-metrics-report", &r));
  EXPECT_EQ(exit_code_for(Rule::kRegConfigDoc), 20);
  ASSERT_TRUE(rule_from_id("reg-config-doc", &r));
  EXPECT_EQ(r, Rule::kRegConfigDoc);
}

TEST(LintExitCodes, RetiredCodes28Through32NameNoRule) {
  // The conc-* rules are gone; their codes stay unused so no script that
  // branches on an exit status changes meaning.
  for (std::size_t i = 18; i <= 22; ++i) {
    EXPECT_EQ(exit_code_for(static_cast<Rule>(i)), static_cast<int>(10 + i));
    EXPECT_TRUE(rule_id(static_cast<Rule>(i)).empty()) << "code " << 10 + i;
  }
  Rule r = Rule::kDetRand;
  EXPECT_FALSE(rule_from_id("conc-guarded", &r));
  EXPECT_FALSE(rule_from_id("", &r));
}

// Seeding any fixture's violation into a src/ path must produce findings —
// the property the lint.src_clean ctest gate relies on.
TEST(LintGate, FixtureViolationsWouldFailTheSrcGate) {
  for (const char* name :
       {"det_rand.cpp", "det_clock.cpp", "det_unordered_iter.cpp",
        "det_ptr_key.cpp", "det_double_ns.cpp"}) {
    SourceFile fixture_file = load_fixture(name);
    SourceFile as_src = fixture_file;
    as_src.path = "src/seeded/" + std::string(name);
    LintResult r;
    r.findings = lint_file(as_src);
    EXPECT_FALSE(r.findings.empty()) << name;
    EXPECT_NE(r.exit_code(), kExitClean) << name;
  }
}

// ---------------------------------------------------------------------------
// Architecture rules over the fixture mini-trees.

std::vector<Finding> arch_scan(const std::string& tree,
                               ModuleGraph* graph = nullptr,
                               std::vector<std::string>* errors = nullptr) {
  ModuleGraph local_graph;
  std::vector<std::string> local_errors;
  const bool own_errors = errors == nullptr;
  if (graph == nullptr) graph = &local_graph;
  if (own_errors) errors = &local_errors;
  auto findings =
      scan_architecture(arch_options_for_root(fixture(tree)), graph, errors);
  if (own_errors) {
    EXPECT_TRUE(local_errors.empty());
  }
  return findings;
}

TEST(LintArch, CleanTreeHasNoFindings) {
  EXPECT_TRUE(arch_scan("arch_clean").empty());
}

TEST(LintArch, LayerViolationFiresOnTheIncludeLine) {
  auto findings = arch_scan("arch_layer_violation");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kArchLayer);
  EXPECT_EQ(findings[0].file, "src/a/a.cpp");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("'a' may not depend on 'b'"),
            std::string::npos);
}

TEST(LintArch, OutageModulesRespectTheLayerManifest) {
  // A mini-tree mirroring the device-outage modules' real include edges
  // (storage: util fault obs; vm: util obs; core on top of both) is
  // accepted without a single finding.
  EXPECT_TRUE(arch_scan("arch_outage_layers").empty());
}

TEST(LintArch, FallbackPoolReachingIntoStorageIsALayerFinding) {
  // vm sits beside storage, not above it: the pool consuming the health
  // FSM directly (instead of core mediating) is exactly one arch-layer
  // finding on the offending include line.
  auto findings = arch_scan("arch_outage_reverse");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kArchLayer);
  EXPECT_EQ(findings[0].file, "src/vm/fallback_pool.h");
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_NE(findings[0].message.find("'vm' may not depend on 'storage'"),
            std::string::npos);
}

TEST(LintArch, FarmReverseEdgeIntoObsIsALayerFinding) {
  // The run farm sits below obs in the manifest; a farm header reaching
  // back into obs (say, to publish worker counters directly) is exactly
  // one arch-layer finding on the offending include line.
  auto findings = arch_scan("arch_farm_reverse");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kArchLayer);
  EXPECT_EQ(findings[0].file, "src/farm/worker.h");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("'farm' may not depend on 'obs'"),
            std::string::npos);
}

TEST(LintArch, CoreReachingIntoServeIsALayerFinding) {
  // serve is the top layer: it drives core through the admission gate and
  // retire hook.  core importing a serve header (say, to consult the gate
  // inline) inverts that and is exactly one arch-layer finding on the
  // offending include line.
  auto findings = arch_scan("arch_serve_reverse");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, Rule::kArchLayer);
  EXPECT_EQ(findings[0].file, "src/core/scheduler.h");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("'core' may not depend on 'serve'"),
            std::string::npos);
}

TEST(LintArch, ReasonedAllowSilencesALayerFinding) {
  EXPECT_TRUE(arch_scan("arch_layer_allowed").empty());
}

TEST(LintArch, CycleReportsTheFullCanonicalPath) {
  auto findings = arch_scan("arch_cycle");
  EXPECT_TRUE(has_finding(
      findings, Rule::kArchCycle,
      "src/x/x.h -> src/y/y.h -> src/z/z.h -> src/x/x.h"));
  // One report per cycle, not one per DFS entry point.
  EXPECT_EQ(std::count_if(findings.begin(), findings.end(),
                          [](const Finding& f) {
                            return f.rule == Rule::kArchCycle;
                          }),
            1);
}

TEST(LintArch, IwyuFlagsTransitiveOnlySymbolUse) {
  auto findings = arch_scan("arch_iwyu");
  auto got = locations(findings);
  std::vector<std::pair<Rule, std::size_t>> want = {{Rule::kArchIwyu, 4}};
  EXPECT_EQ(got, want);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/c/c.cpp");
  EXPECT_NE(findings[0].message.find("'Alpha' is defined in \"a/a.h\""),
            std::string::npos);
}

TEST(LintArch, DeadApiFlagsTheOrphanOnly) {
  auto findings = arch_scan("arch_dead_api");
  auto got = locations(findings);
  std::vector<std::pair<Rule, std::size_t>> want = {{Rule::kArchDeadApi, 7}};
  EXPECT_EQ(got, want);
  EXPECT_TRUE(has_finding(findings, Rule::kArchDeadApi, "'Orphan'"));
  EXPECT_FALSE(has_finding(findings, Rule::kArchDeadApi, "'Used'"));
}

TEST(LintArch, MissingPragmaOnceIsAGuardFinding) {
  auto findings = arch_scan("arch_guard");
  auto got = locations(findings);
  std::vector<std::pair<Rule, std::size_t>> want = {{Rule::kArchGuard, 1}};
  EXPECT_EQ(got, want);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/a/a.h");
}

TEST(LintArch, DotOutputListsModulesAndEdges) {
  ModuleGraph graph;
  arch_scan("arch_clean", &graph);
  std::ostringstream dot;
  print_dot(dot, graph);
  EXPECT_NE(dot.str().find("digraph its_modules"), std::string::npos);
  EXPECT_NE(dot.str().find("\"a\";"), std::string::npos);
  EXPECT_NE(dot.str().find("\"b\" -> \"a\";"), std::string::npos);
}

TEST(LintArch, ManifestRejectsForwardDeps) {
  // A dependency must be declared on an earlier line, so a cycle is
  // inexpressible in the manifest itself.
  auto f = SourceFile::from_text("docs/architecture.layers",
                                 "a: b\nb: a\n");
  std::vector<ManifestRow> rows;
  std::vector<std::string> errors;
  EXPECT_FALSE(parse_manifest(f, &rows, &errors));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("not declared on an earlier line"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// The repo-head gate: the manifest is exact, so the head scans clean and
// deleting ANY allowed edge turns lint.src_clean red.

#ifdef ITS_LINT_REPO_ROOT
TEST(LintArchGate, RepoHeadIsArchClean) {
  ModuleGraph graph;
  std::vector<std::string> errors;
  auto findings = scan_architecture(
      arch_options_for_root(ITS_LINT_REPO_ROOT), &graph, &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_TRUE(findings.empty())
      << findings.size() << " finding(s), first: "
      << (findings.empty() ? "" : findings[0].message);
  EXPECT_FALSE(graph.modules.empty());
  EXPECT_FALSE(graph.edges.empty());
}

TEST(LintArchGate, DeletingAnyManifestEdgeFails) {
  ArchOptions opts = arch_options_for_root(ITS_LINT_REPO_ROOT);
  SourceFile manifest;
  std::string err;
  ASSERT_TRUE(SourceFile::load(opts.manifest_path, &manifest, &err)) << err;
  std::vector<ManifestRow> rows;
  std::vector<std::string> errors;
  ASSERT_TRUE(parse_manifest(manifest, &rows, &errors));

  std::size_t edges_tried = 0;
  for (const ManifestRow& row : rows) {
    for (const std::string& drop : row.deps) {
      // Rewrite the manifest with this one edge removed.
      std::string mutated;
      for (const ManifestRow& r : rows) {
        mutated += r.module + ":";
        for (const std::string& d : r.deps)
          if (&r != &row || d != drop) mutated += " " + d;
        mutated += "\n";
      }
      const std::string path =
          testing::TempDir() + "its_lint_gate_manifest.layers";
      {
        std::ofstream out(path);
        ASSERT_TRUE(out.good());
        out << mutated;
      }
      ArchOptions cut = opts;
      cut.manifest_path = path;
      ModuleGraph graph;
      std::vector<std::string> scan_errors;
      auto findings = scan_architecture(cut, &graph, &scan_errors);
      EXPECT_TRUE(scan_errors.empty());
      EXPECT_TRUE(has_finding(findings, Rule::kArchLayer,
                              "'" + row.module + "'"))
          << "deleting " << row.module << " -> " << drop
          << " produced no arch-layer finding";
      LintResult r;
      r.findings = std::move(findings);
      EXPECT_NE(r.exit_code(), kExitClean);
      ++edges_tried;
    }
  }
  EXPECT_GT(edges_tried, 10u);  // the real graph is well-connected
}
#endif  // ITS_LINT_REPO_ROOT

// ---------------------------------------------------------------------------
// --json: the machine-readable report round-trips.

/// Minimal extractor for the flat one-finding-per-object schema
/// docs/static-analysis.md documents: no nesting inside a finding, so
/// field scans within one object body are unambiguous.
std::string json_str_field(const std::string& obj, const std::string& key) {
  std::size_t at = obj.find("\"" + key + "\":\"");
  if (at == std::string::npos) return "";
  at += key.size() + 4;
  std::string out;
  for (std::size_t i = at; i < obj.size() && obj[i] != '"'; ++i) {
    if (obj[i] == '\\') ++i;
    out += obj[i];
  }
  return out;
}

long json_int_field(const std::string& obj, const std::string& key) {
  std::size_t at = obj.find("\"" + key + "\":");
  if (at == std::string::npos) return -1;
  return std::stol(obj.substr(at + key.size() + 3));
}

TEST(LintJson, FixtureRunRoundTrips) {
  LintOptions opts;
  opts.root = fixture("arch_layer_violation");
  opts.arch_only = true;
  LintResult r = run_lint(opts);
  ASSERT_EQ(r.findings.size(), 1u);

  std::ostringstream os;
  print_json(os, r);
  const std::string json = os.str();

  // One finding object between the brackets.
  std::size_t open = json.find("\"findings\":[");
  std::size_t obj_start = json.find('{', open + 1);
  std::size_t obj_end = json.find('}', obj_start);
  ASSERT_NE(obj_end, std::string::npos);
  const std::string obj = json.substr(obj_start, obj_end - obj_start + 1);

  EXPECT_EQ(json_str_field(obj, "file"), r.findings[0].file);
  EXPECT_EQ(json_int_field(obj, "line"),
            static_cast<long>(r.findings[0].line));
  EXPECT_EQ(json_str_field(obj, "rule"), "arch-layer");
  EXPECT_EQ(json_int_field(obj, "exit_code"),
            exit_code_for(Rule::kArchLayer));
  EXPECT_EQ(json_str_field(obj, "message"), r.findings[0].message);

  // The top-level exit_code matches the LintResult contract.
  std::size_t tail = json.rfind("\"exit_code\":");
  EXPECT_EQ(std::stol(json.substr(tail + 12)), r.exit_code());
  EXPECT_NE(json.find("\"errors\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Units rules over the fixture mini-trees — one tree per rule, exact
// (rule, line) locations, plus the sanctioned-algebra tree that must scan
// clean.

std::vector<Finding> units_scan(const std::string& tree) {
  std::vector<std::string> errors;
  auto findings =
      scan_units(units_options_for_root(fixture(tree)), &errors);
  EXPECT_TRUE(errors.empty());
  return findings;
}

TEST(LintUnits, SanctionedAlgebraTreeIsClean) {
  auto findings = units_scan("units_clean");
  EXPECT_TRUE(findings.empty())
      << findings.size() << " finding(s), first: "
      << (findings.empty() ? "" : findings[0].message);
}

TEST(LintUnits, MixedArithFiresOnEveryIllegalCombination) {
  auto findings = units_scan("units_mixed");
  // 8: SimTime + SimTime; 10: Duration - SimTime; 11: Duration vs SimTime
  // compare; 12: time vs space compare; 14: pages + bytes.  Line 7's
  // SimTime + Duration is legal and must NOT appear.
  EXPECT_EQ(locations(findings),
            (std::vector<std::pair<Rule, std::size_t>>{
                {Rule::kUnitsMixedArith, 8},
                {Rule::kUnitsMixedArith, 10},
                {Rule::kUnitsMixedArith, 11},
                {Rule::kUnitsMixedArith, 12},
                {Rule::kUnitsMixedArith, 14}}));
}

TEST(LintUnits, AliasDeclFiresOnVocabularyTypedRawDeclarations) {
  auto findings = units_scan("units_alias");
  // Declarations and the uint64_t parameter; the `unsigned fill_count`
  // parameter is count vocabulary and stays legal.
  EXPECT_EQ(locations(findings),
            (std::vector<std::pair<Rule, std::size_t>>{
                {Rule::kUnitsAliasDecl, 6},
                {Rule::kUnitsAliasDecl, 7},
                {Rule::kUnitsAliasDecl, 8},
                {Rule::kUnitsAliasDecl, 9},
                {Rule::kUnitsAliasDecl, 10},
                {Rule::kUnitsAliasDecl, 12}}));
  EXPECT_TRUE(has_finding(findings, Rule::kUnitsAliasDecl, "retire_deadline"));
  EXPECT_TRUE(has_finding(findings, Rule::kUnitsAliasDecl, "stall_ns"));
}

TEST(LintUnits, RawLiteralFiresInTimeContextsButNotDivision) {
  auto findings = units_scan("units_literal");
  // 7: member initializer; 12: addition; 13: comparison.  Line 14's
  // `cost / 1000` is a unit conversion and must NOT appear.
  EXPECT_EQ(locations(findings),
            (std::vector<std::pair<Rule, std::size_t>>{
                {Rule::kUnitsRawLiteral, 7},
                {Rule::kUnitsRawLiteral, 12},
                {Rule::kUnitsRawLiteral, 13}}));
}

TEST(LintUnits, NarrowFiresOnCastsAndNarrowDecls) {
  auto findings = units_scan("units_narrow");
  // 7: static_cast<unsigned>(Duration); 8: static_cast<double>(Bytes);
  // 9: uint32_t initialized from a Duration.
  EXPECT_EQ(locations(findings),
            (std::vector<std::pair<Rule, std::size_t>>{
                {Rule::kUnitsNarrow, 7},
                {Rule::kUnitsNarrow, 8},
                {Rule::kUnitsNarrow, 9}}));
}

TEST(LintUnits, OverflowFiresOnRawDurationProducts) {
  auto findings = units_scan("units_overflow");
  // 7: Duration * Duration; 8: Duration * count.
  EXPECT_EQ(locations(findings),
            (std::vector<std::pair<Rule, std::size_t>>{
                {Rule::kUnitsOverflow, 7},
                {Rule::kUnitsOverflow, 8}}));
}

TEST(LintUnits, ShiftPageFiresOnManualPageArithmetic) {
  auto findings = units_scan("units_shift");
  // 7: >> 12; 8: & 0xfff; 9: & ~0xfff; 10: literal << 12.
  EXPECT_EQ(locations(findings),
            (std::vector<std::pair<Rule, std::size_t>>{
                {Rule::kUnitsShiftPage, 7},
                {Rule::kUnitsShiftPage, 8},
                {Rule::kUnitsShiftPage, 9},
                {Rule::kUnitsShiftPage, 10}}));
}

TEST(LintUnits, ReasonedAllowSilencesAUnitsFinding) {
  SourceFile f = SourceFile::from_text(
      "src/a/a.cpp",
      "its::SimTime plan(its::SimTime now) {\n"
      "  // its-lint: allow(units-mixed-arith): fixture exercises the allow\n"
      "  its::SimTime sum = now + now;\n"
      "  return sum;\n"
      "}\n");
  EXPECT_TRUE(scan_units_files({f}).empty());

  // The same text without the reason keeps the finding.
  SourceFile bare = SourceFile::from_text(
      "src/a/a.cpp",
      "its::SimTime plan(its::SimTime now) {\n"
      "  its::SimTime sum = now + now;\n"
      "  return sum;\n"
      "}\n");
  auto findings = scan_units_files({bare});
  EXPECT_EQ(locations(findings),
            (std::vector<std::pair<Rule, std::size_t>>{
                {Rule::kUnitsMixedArith, 2}}));
}

TEST(LintUnits, TypesHeaderItselfIsExempt) {
  // util/types.h defines the algebra; its own helper internals (raw
  // uint64_t products inside saturating_mul etc.) must not fire.
  SourceFile f = SourceFile::from_text(
      "src/util/types.h",
      "constexpr its::Duration prod(its::Duration a, its::Duration b) {\n"
      "  return a * b;\n"
      "}\n");
  EXPECT_TRUE(scan_units_files({f}).empty());
}

TEST(LintUnitsExitCodes, UnitsRulesArePinnedAt33Through38) {
  EXPECT_EQ(exit_code_for(Rule::kUnitsMixedArith), 33);
  EXPECT_EQ(exit_code_for(Rule::kUnitsAliasDecl), 34);
  EXPECT_EQ(exit_code_for(Rule::kUnitsRawLiteral), 35);
  EXPECT_EQ(exit_code_for(Rule::kUnitsNarrow), 36);
  EXPECT_EQ(exit_code_for(Rule::kUnitsOverflow), 37);
  EXPECT_EQ(exit_code_for(Rule::kUnitsShiftPage), 38);
}

// ---------------------------------------------------------------------------
// The units repo-head gate: src/ carries zero units findings, and the
// typed aliases are load-bearing — stripping one re-fires the rule.

#ifdef ITS_LINT_REPO_ROOT
TEST(LintUnitsGate, RepoHeadIsUnitsClean) {
  std::vector<std::string> errors;
  auto findings =
      scan_units(units_options_for_root(ITS_LINT_REPO_ROOT), &errors);
  EXPECT_TRUE(errors.empty());
  EXPECT_TRUE(findings.empty())
      << findings.size() << " finding(s), first: "
      << (findings.empty() ? "" : findings[0].file + ": " +
                                      findings[0].message);
}

TEST(LintUnitsGate, StrippingATypedAliasFails) {
  SourceFile original;
  std::string err;
  ASSERT_TRUE(SourceFile::load(
      std::string(ITS_LINT_REPO_ROOT) + "/src/core/config.h", &original,
      &err))
      << err;
  std::string text;
  for (const std::string& line : original.raw_lines) {
    text += line;
    text += '\n';
  }
  const std::string typed = "its::Duration ctx_switch_cost";
  const std::size_t at = text.find(typed);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, typed.size(), "std::uint64_t ctx_switch_cost");
  SourceFile mutated = SourceFile::from_text("src/core/config.h", text);
  auto findings = scan_units_files({mutated});
  EXPECT_TRUE(has_finding(findings, Rule::kUnitsAliasDecl,
                          "ctx_switch_cost"));
  LintResult r;
  r.findings = std::move(findings);
  EXPECT_NE(r.exit_code(), kExitClean);
}
#endif  // ITS_LINT_REPO_ROOT

}  // namespace
}  // namespace its::lint
