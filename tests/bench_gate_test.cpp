// Perf-gate suite (ctest label: perf) for the its_bench snapshot schema
// and comparator (tools/its_bench/snapshot.h).
//
// The live ctest/CI gate runs its_bench against a committed baseline with
// a deliberately loose tolerance so shared-runner noise never flakes
// tier-1; *this* suite pins the strict semantics deterministically with
// synthetic snapshots:
//   * JSON round-trip — to_json(parse(to_json(s))) is the identity;
//   * tolerance boundaries — +14% passes at the default 15% gate, +16%
//     fails, same for the macro runs/sec drop;
//   * an injected 2x micro slowdown exits non-zero (the acceptance
//     criterion for the gate catching real regressions);
//   * missing baseline and machine-fingerprint mismatch warn-and-skip
//     (exit 0) instead of failing — cross-machine deltas are noise.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "snapshot.h"

namespace its::perf {
namespace {

Snapshot make_baseline() {
  Snapshot s;
  s.revision = "baseline-rev";
  s.machine = {8, "gcc 13.2", "RelWithDebInfo"};
  s.micro = {{"page_table_walk", 10.0},
             {"cache_access", 50.0},
             {"dma_post_page", 12.5}};
  s.macro = {8, 20, 500.0, 40.0, 2500.0, 5.0};
  s.serve = {120, 20.0, 1200.0, 1500.0};
  return s;
}

// ---------------------------------------------------------------------------
// Schema round-trip.

TEST(BenchSnapshot, JsonRoundTripIsIdentity) {
  Snapshot s = make_baseline();
  Snapshot r = parse_snapshot(to_json(s));
  EXPECT_EQ(r.schema_version, s.schema_version);
  EXPECT_EQ(r.revision, s.revision);
  EXPECT_EQ(r.machine, s.machine);
  ASSERT_EQ(r.micro.size(), s.micro.size());
  for (std::size_t i = 0; i < s.micro.size(); ++i) {
    EXPECT_EQ(r.micro[i].name, s.micro[i].name);
    EXPECT_DOUBLE_EQ(r.micro[i].ns_per_op, s.micro[i].ns_per_op);
  }
  EXPECT_EQ(r.macro.jobs, s.macro.jobs);
  EXPECT_EQ(r.macro.runs, s.macro.runs);
  EXPECT_DOUBLE_EQ(r.macro.wall_ms, s.macro.wall_ms);
  EXPECT_DOUBLE_EQ(r.macro.runs_per_sec, s.macro.runs_per_sec);
  EXPECT_DOUBLE_EQ(r.macro.serial_wall_ms, s.macro.serial_wall_ms);
  EXPECT_DOUBLE_EQ(r.macro.speedup, s.macro.speedup);
  EXPECT_EQ(r.serve.requests, s.serve.requests);
  EXPECT_DOUBLE_EQ(r.serve.p99_ms, s.serve.p99_ms);
  EXPECT_DOUBLE_EQ(r.serve.req_per_sec, s.serve.req_per_sec);
  EXPECT_DOUBLE_EQ(r.serve.wall_ms, s.serve.wall_ms);
  // And the serialised form is stable (fixed field order).
  EXPECT_EQ(to_json(r), to_json(s));
}

TEST(BenchSnapshot, RoundTripSurvivesAwkwardValues) {
  Snapshot s = make_baseline();
  s.revision = "quote\"back\\slash";
  s.micro.push_back({"tiny", 0.00012345});
  s.micro.push_back({"huge", 3.9e9});
  Snapshot r = parse_snapshot(to_json(s));
  EXPECT_EQ(r.revision, s.revision);
  EXPECT_DOUBLE_EQ(r.micro.back().ns_per_op, 3.9e9);
  EXPECT_DOUBLE_EQ(r.micro[r.micro.size() - 2].ns_per_op, 0.00012345);
}

TEST(BenchSnapshot, MalformedJsonThrowsWithPosition) {
  EXPECT_THROW(parse_snapshot("{"), std::runtime_error);
  EXPECT_THROW(parse_snapshot(""), std::runtime_error);
  EXPECT_THROW(parse_snapshot("{\"schema_version\": 1}"), std::runtime_error);
  try {
    parse_snapshot("{\"schema_version\": oops}");
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
  }
}

TEST(BenchSnapshot, SaveLoadFileRoundTrip) {
  Snapshot s = make_baseline();
  std::string path = testing::TempDir() + "/bench_gate_roundtrip.json";
  ASSERT_TRUE(save_snapshot(path, s));
  Snapshot r = load_snapshot(path);
  EXPECT_EQ(to_json(r), to_json(s));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tolerance logic.

TEST(BenchCompare, WithinToleranceIsPass) {
  Snapshot base = make_baseline();
  Snapshot cur = base;
  cur.micro[0].ns_per_op = 11.4;          // +14% < 15% gate
  cur.macro.runs_per_sec = 40.0 * 0.86;   // -14% drop
  CompareReport rep = compare_snapshots(base, cur);
  EXPECT_EQ(rep.status, CompareStatus::kPass);
  EXPECT_EQ(exit_code(rep.status), 0);
}

TEST(BenchCompare, MicroRegressionPastToleranceFails) {
  Snapshot base = make_baseline();
  Snapshot cur = base;
  cur.micro[0].ns_per_op = 11.6;  // +16% > 15% gate
  CompareReport rep = compare_snapshots(base, cur);
  EXPECT_EQ(rep.status, CompareStatus::kRegressed);
  EXPECT_NE(exit_code(rep.status), 0);
  bool named = false;
  for (const auto& l : rep.lines)
    named |= l.find("FAIL") != std::string::npos &&
             l.find("page_table_walk") != std::string::npos;
  EXPECT_TRUE(named) << "the report must name the regressed metric";
}

TEST(BenchCompare, MacroThroughputDropPastToleranceFails) {
  Snapshot base = make_baseline();
  Snapshot cur = base;
  cur.macro.runs_per_sec = 40.0 * 0.84;  // -16% runs/sec
  EXPECT_EQ(compare_snapshots(base, cur).status, CompareStatus::kRegressed);
}

TEST(BenchCompare, ServingThroughputDropPastToleranceFails) {
  Snapshot base = make_baseline();
  Snapshot cur = base;
  cur.serve.req_per_sec = 1200.0 * 0.84;  // -16% sustained req/sec
  EXPECT_EQ(compare_snapshots(base, cur).status, CompareStatus::kRegressed);
  cur.serve.req_per_sec = 1200.0 * 0.86;  // -14%: inside the 15% gate
  EXPECT_EQ(compare_snapshots(base, cur).status, CompareStatus::kPass);
}

TEST(BenchCompare, ServingP99GateBreakFailsRegardlessOfTolerance) {
  // A run whose p99 broke the fixed gate records 0 sustained req/sec —
  // that must read as a regression even at the loosest tolerance.
  Snapshot base = make_baseline();
  Snapshot cur = base;
  cur.serve.req_per_sec = 0.0;
  cur.serve.p99_ms = 80.0;
  CompareReport rep = compare_snapshots(base, cur, 10.0);
  EXPECT_EQ(rep.status, CompareStatus::kRegressed);
  bool named = false;
  for (const auto& l : rep.lines)
    named |= l.find("p99 gate broke") != std::string::npos;
  EXPECT_TRUE(named) << "the report must name the broken serving gate";
}

TEST(BenchCompare, PreServingBaselineSkipsTheServingAxis) {
  // Snapshots taken before the serving macro existed parse with an
  // all-zero serve block; the comparator must not fail them.
  Snapshot base = make_baseline();
  base.serve = {};
  Snapshot cur = make_baseline();
  CompareReport rep = compare_snapshots(base, cur);
  EXPECT_EQ(rep.status, CompareStatus::kPass);
  bool noted = false;
  for (const auto& l : rep.lines)
    noted |= l.find("new serving macro") != std::string::npos;
  EXPECT_TRUE(noted);
}

TEST(BenchCompare, CustomToleranceMovesTheGate) {
  Snapshot base = make_baseline();
  Snapshot cur = base;
  cur.micro[1].ns_per_op = 50.0 * 1.4;  // +40%
  EXPECT_EQ(compare_snapshots(base, cur, 0.5).status, CompareStatus::kPass);
  EXPECT_EQ(compare_snapshots(base, cur, 0.15).status,
            CompareStatus::kRegressed);
}

TEST(BenchCompare, InjectedDoubleSlowdownExitsNonZero) {
  // The acceptance criterion: double every substrate cost (what a 2x
  // slowdown in micro_substrates would measure) and the gate must trip.
  Snapshot base = make_baseline();
  Snapshot cur = base;
  for (Metric& m : cur.micro) m.ns_per_op *= 2.0;
  CompareReport rep = compare_snapshots(base, cur);
  EXPECT_EQ(rep.status, CompareStatus::kRegressed);
  EXPECT_EQ(exit_code(rep.status), 1);
}

TEST(BenchCompare, ImprovementsNeverFail) {
  Snapshot base = make_baseline();
  Snapshot cur = base;
  for (Metric& m : cur.micro) m.ns_per_op *= 0.3;
  cur.macro.runs_per_sec *= 4.0;
  EXPECT_EQ(compare_snapshots(base, cur).status, CompareStatus::kPass);
}

TEST(BenchCompare, RenamedMetricsAreNotedNotFailed) {
  Snapshot base = make_baseline();
  Snapshot cur = base;
  cur.micro[2].name = "dma_post_page_v2";  // rename: one missing, one new
  CompareReport rep = compare_snapshots(base, cur);
  EXPECT_EQ(rep.status, CompareStatus::kPass);
  bool missing = false, added = false;
  for (const auto& l : rep.lines) {
    missing |= l.find("missing") != std::string::npos;
    added |= l.find("new metric") != std::string::npos;
  }
  EXPECT_TRUE(missing);
  EXPECT_TRUE(added);
}

TEST(BenchCompare, MetricsWithoutBaselineWarnAndSkip) {
  // A baseline from before `preexec_episode` and the per-record trace
  // metric existed, against a snapshot that has them and has dropped the
  // whole-trace `trace_generation` reading: noted, never compared.
  Snapshot base = make_baseline();
  base.micro.push_back({"trace_generation", 400'000.0});
  Snapshot cur = make_baseline();
  cur.micro.push_back({"preexec_episode", 1e9});
  cur.micro.push_back({"trace_generation_per_record", 1e9});
  CompareReport rep = compare_snapshots(base, cur);
  EXPECT_EQ(rep.status, CompareStatus::kPass);
  EXPECT_EQ(exit_code(rep.status), 0);
  auto has = [&](const std::string& text) {
    for (const auto& l : rep.lines)
      if (l.find(text) != std::string::npos) return true;
    return false;
  };
  EXPECT_TRUE(has("new metric 'preexec_episode' (no baseline)"));
  EXPECT_TRUE(has("new metric 'trace_generation_per_record' (no baseline)"));
  EXPECT_TRUE(has("metric 'trace_generation' missing"));
  EXPECT_FALSE(has("FAIL"));
}

// ---------------------------------------------------------------------------
// Warn-and-skip semantics: a PR must never be blocked by an absent or
// foreign baseline, only by a measured regression.

TEST(BenchCompare, MissingBaselineWarnsAndSkips) {
  Snapshot cur = make_baseline();
  CompareReport rep = compare_against_file(
      testing::TempDir() + "/definitely_not_there.json", cur);
  EXPECT_EQ(rep.status, CompareStatus::kSkippedMissing);
  EXPECT_EQ(exit_code(rep.status), 0);
  ASSERT_FALSE(rep.lines.empty());
  EXPECT_NE(rep.lines[0].find("skip"), std::string::npos);
}

TEST(BenchCompare, CorruptBaselineFileWarnsAndSkips) {
  std::string path = testing::TempDir() + "/bench_gate_corrupt.json";
  std::ofstream(path) << "{ not json";
  Snapshot cur = make_baseline();
  CompareReport rep = compare_against_file(path, cur);
  EXPECT_EQ(rep.status, CompareStatus::kSkippedSchema);
  EXPECT_EQ(exit_code(rep.status), 0);
  std::remove(path.c_str());
}

TEST(BenchCompare, FingerprintMismatchWarnsAndSkips) {
  Snapshot base = make_baseline();
  Snapshot cur = base;
  for (Metric& m : cur.micro) m.ns_per_op *= 10.0;  // huge "regression"...
  cur.machine.cpus = 1;                             // ...on another machine
  CompareReport rep = compare_snapshots(base, cur);
  EXPECT_EQ(rep.status, CompareStatus::kSkippedFingerprint);
  EXPECT_EQ(exit_code(rep.status), 0);

  cur.machine = base.machine;
  cur.machine.compiler = "clang 17.0";
  EXPECT_EQ(compare_snapshots(base, cur).status,
            CompareStatus::kSkippedFingerprint);

  cur.machine = base.machine;
  cur.machine.build = "Debug";
  EXPECT_EQ(compare_snapshots(base, cur).status,
            CompareStatus::kSkippedFingerprint);
}

TEST(BenchCompare, SchemaVersionMismatchWarnsAndSkips) {
  Snapshot base = make_baseline();
  Snapshot cur = base;
  cur.schema_version = kSchemaVersion + 1;
  for (Metric& m : cur.micro) m.ns_per_op *= 10.0;
  CompareReport rep = compare_snapshots(base, cur);
  EXPECT_EQ(rep.status, CompareStatus::kSkippedSchema);
  EXPECT_EQ(exit_code(rep.status), 0);
}

TEST(BenchSnapshot, HostMachineIsPopulated) {
  Machine m = host_machine();
  EXPECT_GE(m.cpus, 1u);
  EXPECT_FALSE(m.compiler.empty());
  EXPECT_FALSE(m.build.empty());
}

}  // namespace
}  // namespace its::perf
