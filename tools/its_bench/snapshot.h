// its_bench snapshot library — the schema behind BENCH_<rev>.json.
//
// A Snapshot records one perf measurement of the repo: per-substrate
// micro-benchmark costs (ns/op) plus one macro figure-regen run on the
// run farm (wall clock, runs/sec, speedup over serial).  The
// machine fingerprint rides along so the comparator can refuse to compare
// numbers taken on different hardware or build types: cross-machine deltas
// are noise, not regressions, so they warn-and-skip instead of failing.
//
// The JSON reader/writer is deliberately self-contained (no third-party
// JSON dependency) and round-trips exactly the subset the schema needs.
// docs/performance.md documents the workflow; tests/bench_gate_test.cpp
// pins the round-trip and the tolerance/skip semantics.
#pragma once

#include <string>
#include <vector>

namespace its::perf {

/// Bump when a field changes meaning; the comparator skips (with a warning)
/// rather than comparing across schema generations.
inline constexpr int kSchemaVersion = 1;

/// Where the numbers were taken.  Two snapshots are comparable only when
/// every field matches.
struct Machine {
  unsigned cpus = 0;      ///< std::thread::hardware_concurrency at run time.
  std::string compiler;   ///< e.g. "gcc 13.2.0".
  std::string build;      ///< CMAKE_BUILD_TYPE, e.g. "RelWithDebInfo".

  bool operator==(const Machine&) const = default;
};

/// One micro-benchmark result: the amortised cost of a substrate operation.
struct Metric {
  std::string name;
  double ns_per_op = 0.0;
};

/// The macro benchmark: one full figure-regen grid (4 batches x 5 policies)
/// through the run farm, with the serial reference for the speedup column.
struct MacroResult {
  unsigned jobs = 0;           ///< Farm width used for the parallel run.
  unsigned runs = 0;           ///< Independent simulations in the grid.
  double wall_ms = 0.0;        ///< Parallel wall clock.
  double runs_per_sec = 0.0;   ///< runs / (wall_ms / 1e3).
  double serial_wall_ms = 0.0; ///< Same grid at jobs=1.
  double speedup = 0.0;        ///< serial_wall_ms / wall_ms.
};

/// The serving macro: one open-loop serving run (serve/scenario.h) at the
/// fig_serve_latency operating point under ITS.  `req_per_sec` is the
/// sim-domain sustained throughput — and it only counts when the run's p99
/// held the fixed gate, so a tail-latency regression reads as 0 req/sec
/// rather than hiding behind an unchanged completion count.  Additive to
/// schema v1: absent from older snapshots, which parse as all-zero and are
/// simply not compared on this axis.
struct ServeResult {
  unsigned requests = 0;     ///< Completed requests in the measured window.
  double p99_ms = 0.0;       ///< Sim-time aggregate p99 latency.
  double req_per_sec = 0.0;  ///< Sustained sim-domain throughput (0 = gate broke).
  double wall_ms = 0.0;      ///< Host wall clock of the run.
};

struct Snapshot {
  int schema_version = kSchemaVersion;
  std::string revision;  ///< Git revision (or a caller-chosen tag).
  Machine machine;
  std::vector<Metric> micro;
  MacroResult macro;
  ServeResult serve;
};

/// Fingerprint of the machine running this process.
Machine host_machine();

/// Serialises a snapshot to pretty-printed JSON (stable field order).
std::string to_json(const Snapshot& s);

/// Parses JSON produced by to_json (or hand-edited equivalents).
/// Throws std::runtime_error with a position-annotated message on
/// malformed input or missing required fields.
Snapshot parse_snapshot(const std::string& json);

/// Reads and parses a snapshot file.  Throws std::runtime_error when the
/// file is unreadable or malformed.
Snapshot load_snapshot(const std::string& path);

/// Writes `to_json(s)` to `path`; returns false on I/O failure.
bool save_snapshot(const std::string& path, const Snapshot& s);

enum class CompareStatus {
  kPass,                ///< All metrics within tolerance.
  kRegressed,           ///< At least one metric regressed past tolerance.
  kSkippedMissing,      ///< Baseline file absent/unreadable — warn and skip.
  kSkippedSchema,       ///< Baseline parses but has a different schema.
  kSkippedFingerprint,  ///< Different machine/compiler/build — warn and skip.
};

struct CompareReport {
  CompareStatus status = CompareStatus::kPass;
  std::vector<std::string> lines;  ///< Human-readable per-metric verdicts.
};

/// The CI gate: exit 0 unless a genuine regression was measured.  Skips are
/// deliberate passes — a missing or foreign baseline must not block a PR.
int exit_code(CompareStatus s);

/// Compares `current` against `baseline`.  A micro metric regresses when
/// its ns/op grows by more than `tolerance` (0.15 = +15%); the macro run
/// regresses when runs/sec drops by more than `tolerance`.  Metrics present
/// on only one side are reported but never fail the gate (renames must not
/// masquerade as regressions).
CompareReport compare_snapshots(const Snapshot& baseline, const Snapshot& current,
                                double tolerance = 0.15);

/// compare_snapshots against a baseline file, mapping an unreadable file to
/// kSkippedMissing and a malformed/foreign-schema one to kSkippedSchema.
CompareReport compare_against_file(const std::string& baseline_path,
                                   const Snapshot& current, double tolerance = 0.15);

}  // namespace its::perf
