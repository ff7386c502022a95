// Run-farm suite (ctest label: farm).
//
// Two layers of guarantees:
//   * farm execution semantics — every task runs exactly once at any
//     width, results collect by index, nested calls run inline, the
//     lowest-index exception propagates after every task ran, thousands
//     of no-op tasks drain (stress), ITS_JOBS is honoured only when it is
//     a plain positive decimal;
//   * the bit-determinism matrix — the same experiments at --jobs 1/2/8
//     and under a shuffled submission order produce byte-identical metrics
//     CSVs, and a --jobs 8 run reproduces the checked-in golden files
//     (tests/golden/metrics.golden, fault_metrics.golden) byte for byte.
//
// The whole suite also runs under TSAN in CI (-DITS_SANITIZE=thread);
// docs/concurrency.md states the farm contract these tests pin down.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "core/report.h"
#include "farm/farm.h"
#include "fault/fault_injector.h"
#include "sched/process.h"
#include "trace/instr.h"
#include "trace/trace.h"
#include "golden.h"

namespace its {
namespace {

using core::PolicyKind;
using core::SimMetrics;
using test::golden_config;

// ---------------------------------------------------------------------------
// Farm execution semantics.

TEST(Farm, EveryTaskRunsExactlyOnceAtAnyWidth) {
  for (unsigned jobs : {1u, 2u, 8u}) {
    std::vector<std::atomic<int>> hits(257);
    farm::run_indexed(jobs, hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " at jobs=" << jobs;
  }
}

TEST(Farm, RunCollectKeysResultsBySubmissionIndex) {
  std::vector<std::uint64_t> got = farm::run_collect<std::uint64_t>(
      4, 100, [](std::size_t i) { return static_cast<std::uint64_t>(i * i); });
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], i * i);
}

TEST(Farm, NestedCallsRunInline) {
  std::vector<std::atomic<int>> hits(64);
  farm::run_indexed(4, 8, [&](std::size_t o) {
    EXPECT_TRUE(farm::in_worker());
    // A farmed helper invoked from inside a farm task runs inline on this
    // thread, in ascending order, instead of spawning threads of its own.
    std::vector<std::size_t> order;
    farm::run_indexed(4, 8, [&](std::size_t i) {
      order.push_back(i);
      hits[o * 8 + i].fetch_add(1);
    });
    EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  });
  EXPECT_FALSE(farm::in_worker());
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Farm, FirstExceptionPropagatesAfterDrain) {
  for (unsigned jobs : {1u, 4u}) {
    std::atomic<int> ran{0};
    try {
      farm::run_indexed(jobs, 40, [&](std::size_t i) {
        if (i == 17) throw std::runtime_error("task 17 failed");
        ran.fetch_add(1);
      });
      FAIL() << "expected the task exception to propagate (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 17 failed");
    }
    // The batch drains: every non-throwing task still ran.
    EXPECT_EQ(ran.load(), 39);
  }
}

TEST(Farm, LowestIndexExceptionWinsAtAnyWidth) {
  // Tasks 5 and 17 both throw.  Whichever fails first in time, the caller
  // sees task 5's exception, so a failing run reports the same error at
  // every width.
  for (unsigned jobs : {1u, 4u, 8u}) {
    std::vector<std::atomic<int>> ran(40);
    try {
      farm::run_indexed(jobs, ran.size(), [&](std::size_t i) {
        ran[i].fetch_add(1);
        if (i == 5 || i == 17)
          throw std::runtime_error("task " + std::to_string(i) + " failed");
      });
      FAIL() << "expected a task exception to propagate (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 5 failed") << "jobs=" << jobs;
    }
    for (std::size_t i = 0; i < ran.size(); ++i)
      EXPECT_EQ(ran[i].load(), 1) << "task " << i << " at jobs=" << jobs;
  }
}

TEST(Farm, StressThousandsOfNoopTasks) {
  for (int round = 0; round < 3; ++round) {
    std::atomic<std::uint64_t> sum{0};
    const std::size_t n = 5000;
    farm::run_indexed(8, n, [&](std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(n) * (n + 1) / 2);
  }
}

TEST(Farm, SharedTraceFootprintIsOneResultForEveryWorker) {
  // Farm workers build processes from one shared const trace; the first
  // touched_pages()/file_sizes() call fills the trace's memo while other
  // workers may be reading it (the TSAN job runs this).
  auto t = std::make_shared<trace::Trace>("shared");
  for (std::uint64_t i = 0; i < 512; ++i)
    t->push_back(trace::Instr::load(0x560000000000ull + (i % 97) * 3 * its::kPageSize, 8, 1, 0));
  t->push_back(trace::Instr::file_read(2, 0, 4096, 1));
  const std::shared_ptr<const trace::Trace> shared = t;
  const trace::Trace fresh = *shared;  // a copy starts without the memo
  const std::vector<its::Vpn> want = fresh.touched_pages();
  ASSERT_EQ(want.size(), 97u);

  // The first four tasks to start wait for each other, so four workers
  // reach the trace together instead of one draining every task.
  std::atomic<int> started{0};
  const std::vector<const std::vector<its::Vpn>*> seen =
      farm::run_collect<const std::vector<its::Vpn>*>(4, 32, [&](std::size_t i) {
        if (started.fetch_add(1) < 4)
          while (started.load() < 4) std::this_thread::yield();
        const sched::Process p(static_cast<its::Pid>(i), "p", 30, shared);
        EXPECT_EQ(p.trace().file_sizes().size(), 1u);
        return &shared->touched_pages();
      });
  for (const auto* pages : seen) {
    EXPECT_EQ(pages, seen[0]);  // one memo, filled once
    EXPECT_EQ(*pages, want);
  }

  // A copy that grows sees its new page; the shared original does not.
  trace::Trace grown = *shared;
  grown.push_back(trace::Instr::load(0x7f0000000000ull, 8, 1, 0));
  EXPECT_EQ(grown.touched_pages().size(), want.size() + 1);
  EXPECT_EQ(grown.touched_pages().back(), its::vpn_of(0x7f0000000000ull));
  EXPECT_EQ(shared->touched_pages(), want);
  EXPECT_TRUE(grown != *shared);
}

TEST(Farm, DefaultJobsHonoursItsJobsEnv) {
  ASSERT_EQ(unsetenv("ITS_JOBS"), 0);
  const unsigned hardware = farm::default_jobs();
  EXPECT_GE(hardware, 1u);  // never 0
  ASSERT_EQ(setenv("ITS_JOBS", "3", 1), 0);
  EXPECT_EQ(farm::default_jobs(), 3u);
  // Anything but a plain positive decimal that fits `unsigned` falls back
  // to the hardware width: no sign wrap, no trailing junk, no truncation.
  for (const char* bad : {"not-a-number", "-1", "3x", "99999999999", "0", ""}) {
    ASSERT_EQ(setenv("ITS_JOBS", bad, 1), 0);
    EXPECT_EQ(farm::default_jobs(), hardware) << "ITS_JOBS=" << bad;
  }
  ASSERT_EQ(unsetenv("ITS_JOBS"), 0);
}

// ---------------------------------------------------------------------------
// The bit-determinism matrix (the farm's reason to exist).

std::string grid_csv(unsigned jobs) {
  core::ExperimentConfig cfg = golden_config();
  cfg.jobs = jobs;
  std::vector<core::BatchResult> grid = core::run_grid_all(cfg);
  return core::metrics_csv(grid);
}

TEST(FarmDeterminism, MetricsCsvByteIdenticalAtJobs1_2_8) {
  const std::string serial = grid_csv(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(grid_csv(2), serial) << "--jobs 2 diverged from serial reference";
  EXPECT_EQ(grid_csv(8), serial) << "--jobs 8 diverged from serial reference";
}

TEST(FarmDeterminism, ShuffledSubmissionOrderIsByteIdentical) {
  // Submit the same (batch, policy) tasks in a permuted order and place
  // each result back at its original index: any dependence on execution
  // or submission order would move a byte.
  core::ExperimentConfig cfg = golden_config();
  const auto& batches = core::paper_batches();
  const std::size_t np = std::size(core::kAllPolicies);
  const std::size_t n = batches.size() * np;

  std::vector<std::vector<std::shared_ptr<const trace::Trace>>> traces;
  for (const auto& b : batches) traces.push_back(core::batch_traces(b, cfg.gen));

  auto run_cell = [&](std::size_t cell) {
    return core::run_batch_policy(batches[cell / np],
                                  core::kAllPolicies[cell % np], cfg,
                                  traces[cell / np]);
  };
  auto emit = [&](const std::vector<SimMetrics>& ms) {
    std::vector<core::BatchResult> grid(batches.size());
    for (std::size_t b = 0; b < batches.size(); ++b) {
      grid[b].spec = &batches[b];
      for (std::size_t p = 0; p < np; ++p)
        grid[b].by_policy.emplace(core::kAllPolicies[p], ms[b * np + p]);
    }
    return core::metrics_csv(grid);
  };

  std::vector<SimMetrics> in_order =
      core::run_sim_tasks(n, 8, [&](std::size_t i) { return run_cell(i); });

  // A fixed full-cycle permutation (stride 7 is coprime to 20).
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = (i * 7 + 3) % n;
  std::vector<std::size_t> check = perm;
  std::sort(check.begin(), check.end());
  ASSERT_TRUE(std::adjacent_find(check.begin(), check.end()) == check.end());

  std::vector<SimMetrics> shuffled_raw = core::run_sim_tasks(
      n, 8, [&](std::size_t i) { return run_cell(perm[i]); });
  std::vector<SimMetrics> shuffled(n);
  for (std::size_t i = 0; i < n; ++i) shuffled[perm[i]] = shuffled_raw[i];

  EXPECT_EQ(emit(shuffled), emit(in_order))
      << "a shuffled submission order changed the metrics CSV";
}

// The checked-in golden files are the strongest witness: they were
// recorded by the serial runner, so matching them from a farmed run proves
// the farm is invisible in the output.

TEST(FarmDeterminism, Jobs8ReproducesGoldenMetricsFile) {
  if (test::fault_profile_forced())
    GTEST_SKIP() << "golden snapshot is fault-free";

  core::ExperimentConfig cfg = golden_config();
  cfg.jobs = 8;
  std::vector<core::BatchResult> grid = core::run_grid_all(cfg);

  std::ostringstream os;
  os << test::kMetricsGoldenHeader;
  for (std::size_t bi = 0; bi < grid.size(); ++bi)
    for (PolicyKind k : core::kAllPolicies)
      test::emit_metrics(os,
                         "batch" + std::to_string(bi) + "." +
                             std::string(core::policy_name(k)),
                         grid[bi].by_policy.at(k));

  const std::string expected = test::read_golden("metrics.golden");
  ASSERT_FALSE(expected.empty()) << "missing metrics.golden";
  EXPECT_EQ(os.str(), expected)
      << "a --jobs 8 farmed grid diverged from the serial-recorded golden "
         "file: the farm leaked into simulation results";
}

TEST(FarmDeterminism, Jobs8ReproducesFaultGoldenFile) {
  // The hostile-profile golden: per-sim FaultInjector streams must be
  // untouched by concurrency.  cfg.sim.fault is assigned explicitly, so
  // the CI-wide ITS_FAULT_PROFILE default cannot interfere.
  core::ExperimentConfig cfg = golden_config();
  cfg.sim.fault = *fault::profile_by_name("hostile");
  cfg.sim.fault.seed = 7;
  const core::BatchSpec& batch = core::paper_batches()[1];
  auto traces = core::batch_traces(batch, cfg.gen);

  std::vector<SimMetrics> ms = core::run_sim_tasks(
      std::size(core::kAllPolicies), 8, [&](std::size_t i) {
        return core::run_batch_policy(batch, core::kAllPolicies[i], cfg, traces);
      });

  std::ostringstream os;
  os << test::kFaultGoldenHeader;
  for (std::size_t i = 0; i < std::size(core::kAllPolicies); ++i)
    test::emit_fault_metrics(
        os, std::string(core::policy_name(core::kAllPolicies[i])), ms[i]);

  const std::string expected = test::read_golden("fault_metrics.golden");
  ASSERT_FALSE(expected.empty()) << "missing fault_metrics.golden";
  EXPECT_EQ(os.str(), expected)
      << "a --jobs 8 farmed hostile run diverged from the fault golden file";
}

TEST(FarmDeterminism, HostileProfileCsvByteIdenticalAtJobs1_2_8) {
  // The hostile profile now schedules device outages, so every sim carries
  // the health monitor and fallback pool — state that must stay strictly
  // per-simulator.  Running the full grid under fault injection at three
  // widths is the sharpest probe for shared mutable state in that path.
  auto hostile_csv = [](unsigned jobs) {
    core::ExperimentConfig cfg = golden_config();
    cfg.sim.fault = *fault::profile_by_name("hostile");
    cfg.sim.fault.seed = 7;
    cfg.jobs = jobs;
    std::vector<core::BatchResult> grid = core::run_grid_all(cfg);
    return core::metrics_csv(grid);
  };
  const std::string serial = hostile_csv(1);
  ASSERT_FALSE(serial.empty());
  ASSERT_NE(serial.find("health_offline_time_ns"), std::string::npos)
      << "metrics CSV is missing the availability columns";
  EXPECT_EQ(hostile_csv(2), serial)
      << "--jobs 2 hostile run diverged from serial reference";
  EXPECT_EQ(hostile_csv(8), serial)
      << "--jobs 8 hostile run diverged from serial reference";
}

}  // namespace
}  // namespace its
