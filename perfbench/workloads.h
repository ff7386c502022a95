// The benchmark's five workloads: their inputs, one timed round each, and
// the checks that make a round's outputs trustworthy.
//
// A round is a fixed amount of simulation work built from the seed; the
// benchmark repeats rounds for the requested time and reports medians.
// Every round is checked: each simulation must satisfy the §4.2.1 idle-time
// identity, and the FNV-1a digest of its simulated outputs (the core/report
// CSV rows, or the serve CSV rows with p50/p99/p999) must equal the first
// round's and, where one is committed, the expected digest.
#pragma once

#include "spans.h"

#include "core/batch.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "core/policy.h"
#include "serve/scenario.h"
#include "trace/trace.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload : std::uint8_t {
  kPaperGrid,
  kSwapStorm,
  kFaultyDevice,
  kServeSteady,
  kGridFarm,
};

/// Why each workload exists is recorded in BENCHMARK.json and README.md.
struct WorkloadInfo {
  Workload id;
  std::string_view name;
};

std::span<const WorkloadInfo> workloads();
std::optional<Workload> find_workload(std::string_view name);
std::string_view workload_name(Workload w);

/// One batch simulation of a round.
struct SimJob {
  const its::core::BatchSpec* batch = nullptr;
  its::core::PolicyKind policy = its::core::PolicyKind::kIts;
  its::core::ExperimentConfig cfg;
  std::size_t traces = 0;  ///< Index into Inputs::traces.
};

using TraceSet = std::vector<std::shared_ptr<const its::trace::Trace>>;

/// What set_up() builds from the seed and every round consumes.
struct Inputs {
  Workload workload = Workload::kPaperGrid;
  std::vector<SimJob> sims;     ///< Batch workloads; empty for serve.
  std::vector<TraceSet> traces; ///< Per batch used by `sims`.
  /// The first `ledger_sims` of `sims` are the ones the traced pass replays:
  /// all of them, except grid_farm's second grid, which repeats the first
  /// at another priority seed and would push the pass past its time limit.
  std::size_t ledger_sims = 0;
  its::serve::ServeConfig serve;          ///< serve_steady only.
  std::vector<std::uint64_t> tier_records;  ///< Template length per tier.
  std::uint64_t generated_records = 0;  ///< Records trace::generate produced.
  double generate_s = 0.0;              ///< Host time inside trace::generate.
};

/// Generates the traces (or serve templates and arrival schedule) and
/// builds every simulation's processes once, as the untimed work of a
/// figure regen or serving run would.  `spans` may be null.
Inputs set_up(Workload w, std::uint64_t seed, SpanLog* spans = nullptr);

/// Farm width a workload runs at: 2 for grid_farm, 1 for the rest.
unsigned default_jobs(Workload w);

struct Round {
  std::vector<double> unit_s;  ///< Wall per timed unit (see run_round).
  double wall_s = 0.0;         ///< Wall of the whole round.
  double task_s = 0.0;         ///< Σ wall measured inside farm tasks.
  unsigned jobs = 1;
  std::uint64_t sims = 0;       ///< Simulations attempted.
  std::uint64_t failed = 0;     ///< Simulations whose checks failed.
  std::uint64_t processes = 0;  ///< Processes (requests) run to completion.
  std::uint64_t records = 0;    ///< Trace records simulated.
  std::uint64_t digest = 0;
  std::vector<std::string> errors;
};

/// Runs one round untraced.  The timed units are the simulations of a
/// serial batch round, each farm call of a farmed one (one per paper
/// grid), or the serve run.  `jobs` 0 = default_jobs(workload).
Round run_round(const Inputs& in, unsigned jobs = 0, SpanLog* spans = nullptr,
                std::size_t parent = kNoParent);

double median(std::vector<double> v);

/// The host wall of one round: Σ over the timed units of each unit's
/// fastest time across `rounds`.  The work is deterministic, so other
/// tenants of the machine can only slow a unit down; the fastest of several
/// rounds is the steadiest reading of its own cost.
double round_wall_s(std::span<const Round> rounds);

/// §4.2.1: cpu_busy + busy_wait + ctx_switch + no_runnable == makespan and
/// mem_stall <= cpu_busy.  Returns an empty string when both hold.
std::string check_identity(const its::core::SimMetrics& m);

/// Digest of a batch round's results (one SimMetrics per Inputs::sims).
std::uint64_t batch_digest(const Inputs& in,
                           const std::vector<its::core::SimMetrics>& results);
/// Digest of a serve round's result.
std::uint64_t serve_digest(const its::serve::ServeMetrics& m);

/// Trace records a serve run simulated (completed requests × template).
std::uint64_t serve_records(const Inputs& in, const its::serve::ServeMetrics& m);

/// 64-bit FNV-1a.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/// The committed digest for (workload, seed) from digests.txt in this
/// directory (one "workload seed hex" line each, '#' comments), or nullopt
/// when it holds none.  Throws when the file cannot be read.
std::optional<std::uint64_t> committed_digest(Workload w, std::uint64_t seed);

}  // namespace perfbench
