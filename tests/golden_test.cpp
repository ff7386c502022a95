// Golden-run regression suite.
//
// Runs every paper batch under every policy at a fixed seed and compares
// the integer SimMetrics fields against a checked-in snapshot
// (tests/golden/metrics.golden).  Any change to fault handling, idle
// accounting, prefetching, stealing or scheduling shows up as a concrete
// per-field diff instead of a silently shifted figure.  A second snapshot
// (tests/golden/metrics_csv.golden) pins the exact bytes of both CSV
// reports.  A third (tests/golden/paths_metrics.golden) pins the fault-path
// branches the paper grid never takes: swap clusters, the polling recovery
// trigger, the file-I/O path and the outage fallback pool.
//
// To regenerate after an intentional behaviour change:
//
//   ITS_UPDATE_GOLDEN=1 ./build/tests/golden_test
//
// then review the golden-file diff like any other code change.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "core/batch.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "core/report.h"
#include "core/simulator.h"
#include "cpu/preexec_engine.h"
#include "fault/fault_injector.h"
#include "fs/workloads.h"
#include "golden.h"
#include "obs/event_trace.h"
#include "obs/invariant_checker.h"
#include "sched/process.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "util/types.h"

namespace its::core {
namespace {

using test::golden_config;

/// The full snapshot: 4 batches × 5 policies at the fixed seed, traces
/// shared across policies exactly as the figure benches share them.
std::string snapshot() {
  ExperimentConfig cfg = golden_config();
  std::ostringstream os;
  os << test::kMetricsGoldenHeader;
  for (std::size_t bi = 0; bi < paper_batches().size(); ++bi) {
    const BatchSpec& batch = paper_batches()[bi];
    auto traces = batch_traces(batch, cfg.gen);
    for (PolicyKind k : kAllPolicies) {
      SimMetrics m = run_batch_policy(batch, k, cfg, traces);
      test::emit_metrics(os,
                         "batch" + std::to_string(bi) + "." +
                             std::string(policy_name(k)),
                         m);
    }
  }
  return os.str();
}

TEST(GoldenRun, MetricsMatchCheckedInSnapshot) {
  // The snapshot is defined for the fault-free simulator; the CI job that
  // forces a fault profile over the whole suite legitimately diverges.
  if (test::fault_profile_forced())
    GTEST_SKIP() << "golden snapshot is fault-free";
  test::expect_golden("metrics.golden", snapshot(), "golden_test");
}

TEST(GoldenRun, MetricsCsvMatchesCheckedInSnapshot) {
  // Every column of both reports, header included, for batch 0 under all
  // five policies: a reordered, renamed or dropped column moves a byte.
  if (test::fault_profile_forced())
    GTEST_SKIP() << "golden snapshot is fault-free";
  const BatchResult r = run_batch_all(paper_batches()[0], golden_config());
  std::ostringstream os;
  write_metrics_csv(os, {&r, 1});
  write_processes_csv(os, {&r, 1});
  test::expect_golden("metrics_csv.golden", os.str(), "golden_test");
}

/// golden_config() under the named fault profile, set here so that a
/// profile forced over the whole suite cannot change it.
ExperimentConfig paths_config(const char* profile) {
  ExperimentConfig cfg = golden_config();
  cfg.sim.fault = *fault::profile_by_name(profile);
  return cfg;
}

/// `scenario` under every policy, its rows filed under `spec`'s name.
BatchResult run_all_policies(const BatchSpec& spec,
                             const std::function<SimMetrics(PolicyKind)>& scenario) {
  BatchResult r{&spec, {}};
  for (PolicyKind k : kAllPolicies) r.by_policy[k] = scenario(k);
  return r;
}

/// The most data-intensive paper batch under `cfg`.
BatchResult run_batch3(const BatchSpec& spec, const ExperimentConfig& cfg) {
  const BatchSpec& batch = paper_batches()[3];
  auto traces = batch_traces(batch, cfg.gen);
  return run_all_policies(spec, [&](PolicyKind k) {
    return run_batch_policy(batch, k, cfg, traces);
  });
}

/// A log scan, a key-value store and an analytics mix sharing one device:
/// page-cache misses, readahead, dirty writebacks and the asynchronous file
/// path, with the mix's heap faulting through 1 MiB of DRAM.
SimMetrics run_files(PolicyKind k) {
  SimConfig sc = paths_config("none").sim;
  sc.dram_bytes = 1_MiB;
  sc.page_cache_bytes = 128 * its::kPageSize;
  fs::FileWorkloadConfig fc;
  fc.records = 6000;
  const std::array<std::shared_ptr<const trace::Trace>, 3> traces = {
      std::make_shared<const trace::Trace>(fs::make_log_scan(2_MiB, fc)),
      std::make_shared<const trace::Trace>(fs::make_kv_store(2_MiB, 0.3, fc)),
      std::make_shared<const trace::Trace>(
          fs::make_analytics_mix(2_MiB, 2_MiB, fc))};
  const std::array<int, 3> priority = {20, 10, 30};
  Simulator sim(sc, k);
  for (std::size_t i = 0; i < traces.size(); ++i)
    sim.add_process(std::make_unique<sched::Process>(
        static_cast<its::Pid>(i), traces[i]->name(), priority[i], traces[i]));
  return sim.run();
}

/// Six processes storing to random pages of their own 16-page heaps, with
/// DRAM three frames short of the sum once the fallback pool is carved, under
/// the `outage` profile and short slices so that they interleave: a dirty
/// page evicted while the device is offline goes to the pool, and its owner
/// often wants it back before the device returns.
SimMetrics run_pool(PolicyKind k, obs::EventTrace* trace = nullptr) {
  SimConfig sc = paths_config("outage").sim;
  sc.slice_max = 200_us;
  sc.dram_bytes = 124 * its::kPageSize;
  Simulator sim(sc, k);
  sim.set_trace(trace);
  for (its::Pid pid = 0; pid < 6; ++pid) {
    util::Rng rng(pid + 1, 7);
    auto t = std::make_shared<trace::Trace>("random_store");
    for (int i = 0; i < 20000; ++i) {
      t->push_back(trace::Instr::store(
          trace::kHeapBase + rng.below(16) * its::kPageSize, 8, 1));
      t->push_back(trace::Instr::compute(200, 1, 1, 0));
    }
    sim.add_process(std::make_unique<sched::Process>(
        pid, t->name(), static_cast<int>(10 * (pid + 1)), std::move(t)));
  }
  return sim.run();
}

TEST(GoldenRun, PathsMatchCheckedInSnapshot) {
  BatchSpec cluster4 = paper_batches()[3];
  cluster4.name = "cluster4";
  BatchSpec polling = cluster4;
  polling.name = "polling";
  BatchSpec outage = cluster4;
  outage.name = "outage";
  BatchSpec pool = cluster4;
  pool.name = "pool";
  BatchSpec files = cluster4;
  files.name = "files";

  ExperimentConfig cluster_cfg = paths_config("none");
  cluster_cfg.sim.swap_cluster_pages = 4;
  ExperimentConfig polling_cfg = paths_config("none");
  polling_cfg.sim.preexec.recovery_trigger = cpu::RecoveryTrigger::kPolling;

  const std::array<BatchResult, 5> grid = {
      run_batch3(cluster4, cluster_cfg), run_batch3(polling, polling_cfg),
      run_all_policies(files, run_files),
      run_batch3(outage, paths_config("outage")),
      run_all_policies(pool, [](PolicyKind k) { return run_pool(k); })};

  // Not vacuous: each scenario reaches the branch it is here for.
  EXPECT_GT(grid[0].by_policy.at(PolicyKind::kSync).minor_faults, 0u);
  EXPECT_GT(grid[2].by_policy.at(PolicyKind::kIts).page_cache_hits, 0u);
  EXPECT_GT(grid[2].by_policy.at(PolicyKind::kIts).async_switches, 0u);
  EXPECT_GT(grid[2].by_policy.at(PolicyKind::kIts).file_writebacks, 0u);
  EXPECT_GT(grid[2].by_policy.at(PolicyKind::kIts).major_faults, 0u);
  EXPECT_GT(grid[3].by_policy.at(PolicyKind::kSync).deadline_aborts, 0u);
  EXPECT_GT(grid[4].by_policy.at(PolicyKind::kSync).pool_hits, 0u);
  EXPECT_GT(grid[4].by_policy.at(PolicyKind::kSync).pool_drains, 0u);
  EXPECT_GT(grid[4].by_policy.at(PolicyKind::kSyncPrefetch).pool_hits, 0u);

  std::ostringstream os;
  write_metrics_csv(os, grid);
  write_processes_csv(os, grid);
  test::expect_golden("paths_metrics.golden", os.str(), "golden_test");
}

TEST(GoldenRun, PoolScenarioServesFaultsFromThePool) {
  // handle_major_fault's fallback-pool hit, which no paper batch reaches,
  // under both policies whose pool scenario hits: the §4.2.1 partition
  // holds, and the event checker (pool loads counted against pool_hits
  // among the rest) accepts the run.
  for (PolicyKind k : {PolicyKind::kSync, PolicyKind::kSyncPrefetch}) {
    obs::EventTrace trace;
    const SimMetrics m = run_pool(k, &trace);
    EXPECT_GT(m.pool_hits, 0u) << policy_name(k);
    EXPECT_LE(m.pool_hits + m.pool_drains, m.pool_stores) << policy_name(k);
    EXPECT_TRUE(m.identity_violations().empty()) << policy_name(k);
    const obs::CheckResult res = obs::check_invariants(trace, m);
    EXPECT_TRUE(res.ok()) << policy_name(k) << ": " << res.summary();
  }
}

}  // namespace
}  // namespace its::core
