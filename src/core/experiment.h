// Experiment runner — shared harness for the bench binaries and examples.
//
// Runs one batch under one or all policies with identical traces, DRAM
// sizing and priority assignment, so the only varying factor is the I/O
// mode policy — the paper's comparison methodology.
#pragma once

#include "core/batch.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/policy.h"
#include "fault/fault_injector.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/stats.h"

#include <cstddef>
#include <cstdlib>
#include <functional>
#include <map>
#include <vector>

namespace its::obs {
class EventTrace;
}

namespace its::core {

struct ExperimentConfig {
  trace::GeneratorConfig gen{};  ///< Trace scaling knobs.
  SimConfig sim{};               ///< Base config; dram_bytes set per batch.
  double dram_headroom = 1.12;   ///< DRAM = Σ working sets × headroom.
  /// Run-farm width for multi-run entry points (run_batch_all, run_grid_all,
  /// run_sim_tasks, run_batch_policy_repeated): 0 = farm::default_jobs()
  /// (ITS_JOBS env or hardware_concurrency), 1 = serial reference execution.
  /// Results are bit-identical at every value (docs/performance.md).
  unsigned jobs = 0;

  ExperimentConfig() {
    // The mini traces are ~100x shorter than the paper's Valgrind captures;
    // scale the SCHED_RR slice range (paper: 5–800 ms) by the same factor so
    // the slice-to-runtime ratio — and hence multiprogrammed interleaving —
    // matches the original setup.
    sim.slice_min = 50_us;  // paper 5 ms / 100
    sim.slice_max = 8_ms;   // paper 800 ms / 100
    // CI's hostile job forces every experiment under a named fault profile
    // (docs/robustness.md).  Callers that assign sim.fault afterwards —
    // profile-specific tests, the golden fault run — still win.
    if (const char* env = std::getenv("ITS_FAULT_PROFILE"))
      if (auto p = fault::profile_by_name(env)) sim.fault = *p;
  }
};

/// Runs `batch` under `policy`, generating traces on the fly.
SimMetrics run_batch_policy(const BatchSpec& batch, PolicyKind policy,
                            const ExperimentConfig& cfg = {});

/// Same, but with pre-generated traces (reuse across policies).  When
/// `etrace` is non-null the simulator records its event timeline into it
/// (see obs/event_trace.h); pass nullptr for the zero-overhead default.
SimMetrics run_batch_policy(
    const BatchSpec& batch, PolicyKind policy, const ExperimentConfig& cfg,
    const std::vector<std::shared_ptr<const trace::Trace>>& traces,
    obs::EventTrace* etrace = nullptr);

struct BatchResult {
  const BatchSpec* spec = nullptr;
  std::map<PolicyKind, SimMetrics> by_policy;

  /// value / ITS-value convenience for the normalised figures.
  double normalized(PolicyKind k, double (*extract)(const SimMetrics&)) const;
};

/// Runs every policy over one batch with shared traces.
BatchResult run_batch_all(const BatchSpec& batch, const ExperimentConfig& cfg = {});

/// Runs every paper batch under every policy on the run farm: per-batch
/// trace generation fans out first, then all (batch, policy) simulations
/// execute as independent farm tasks.  Results are
/// collected by submission index, so the grid is byte-identical at any
/// `cfg.jobs` — this is the engine behind every figure bench and
/// `its_cli --policy=all` (see docs/performance.md).
std::vector<BatchResult> run_grid_all(const ExperimentConfig& cfg = {});

/// Farms `n` independent simulation tasks over `jobs` workers (0 =
/// default width) and returns the metrics keyed by submission index —
/// the harness the ablation sweeps run on.  `task` must not depend on
/// execution order; nested calls from inside a farm task run inline.
std::vector<SimMetrics> run_sim_tasks(
    std::size_t n, unsigned jobs,
    const std::function<SimMetrics(std::size_t)>& task);

/// Aggregates over repeated runs with different seeds (the paper assigns
/// priorities randomly; this measures how sensitive a result is to the
/// assignment).  Traces are shared; only the priority shuffle varies.
struct RepeatedMetrics {
  util::RunningStat idle_total;     ///< ns
  util::RunningStat major_faults;
  util::RunningStat llc_misses;
  util::RunningStat top_finish;     ///< ns
  util::RunningStat bottom_finish;  ///< ns
};

RepeatedMetrics run_batch_policy_repeated(const BatchSpec& batch, PolicyKind policy,
                                          const ExperimentConfig& cfg,
                                          unsigned repeats);

// Extractors used by the figure benches.
double total_idle_ns(const SimMetrics& m);
double major_faults(const SimMetrics& m);
double llc_misses(const SimMetrics& m);
double top_half_finish(const SimMetrics& m);
double bottom_half_finish(const SimMetrics& m);

}  // namespace its::core
