// Edge-case regression tests for the metrics helpers: the priority-half
// finish-time split (Fig. 5a/5b) on degenerate process lists, the §4.2.1
// idle-time identity every run checks, and the DRAM sizing round-up used
// by every experiment.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/batch.h"
#include "core/metrics.h"
#include "obs/invariant_checker.h"

namespace its::core {
namespace {

ProcessOutcome proc(its::Pid pid, int priority, its::SimTime finish) {
  ProcessOutcome p;
  p.pid = pid;
  p.priority = priority;
  p.metrics.finish_time = finish;
  return p;
}

/// Totals whose partition balances exactly: 600 + 200 + 150 + 50 == 1000.
obs::RunTotals balanced() {
  obs::RunTotals t;
  t.makespan = 1000;
  t.cpu_busy = 600;
  t.idle = obs::IdleBreakdown{.mem_stall = 100,
                              .busy_wait = 200,
                              .ctx_switch = 150,
                              .no_runnable = 50};
  return t;
}

TEST(IdleIdentity, BalancedTotalsHold) {
  EXPECT_TRUE(balanced().identity_violations().empty());
  obs::RunTotals all_busy = balanced();
  all_busy.idle.mem_stall = all_busy.cpu_busy;  // mem_stall ⊆ cpu_busy
  EXPECT_TRUE(all_busy.identity_violations().empty());
}

TEST(IdleIdentity, OffByOneCpuBusyIsALeak) {
  for (its::Duration cpu_busy : {599u, 601u}) {
    obs::RunTotals t = balanced();
    t.cpu_busy = cpu_busy;
    const std::vector<std::string> v = t.identity_violations();
    ASSERT_EQ(v.size(), 1u) << cpu_busy;
    EXPECT_NE(v[0].find("accounting leak: cpu_busy + busy_wait + ctx_switch + "
                        "no_runnable"),
              std::string::npos)
        << v[0];
    // The checker's one-granule slack forgives exactly this much.
    EXPECT_TRUE(t.identity_violations(1).empty()) << cpu_busy;
  }
}

TEST(IdleIdentity, MemStallBeyondCpuBusyIsFlagged) {
  obs::RunTotals t = balanced();
  t.idle.mem_stall = t.cpu_busy + 1;
  const std::vector<std::string> v = t.identity_violations(1000);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "mem_stall 601 exceeds total busy CPU time 600");
}

TEST(AvgFinish, EmptyListIsZeroNotNan) {
  SimMetrics m;
  EXPECT_EQ(m.avg_finish_top_half(), 0.0);
  EXPECT_EQ(m.avg_finish_bottom_half(), 0.0);
}

TEST(AvgFinish, SingleProcessBelongsToTopHalfOnly) {
  SimMetrics m;
  m.processes.push_back(proc(0, 30, 1000));
  EXPECT_DOUBLE_EQ(m.avg_finish_top_half(), 1000.0);
  // A one-element list has an empty bottom half — not a copy of the top.
  EXPECT_EQ(m.avg_finish_bottom_half(), 0.0);
}

TEST(AvgFinish, OddCountMiddleProcessCountedExactlyOnce) {
  SimMetrics m;
  m.processes.push_back(proc(0, 30, 300));  // highest priority
  m.processes.push_back(proc(1, 20, 200));  // middle
  m.processes.push_back(proc(2, 10, 100));  // lowest
  // Top half = ceil(3/2) = 2 highest-priority processes; bottom = the rest.
  EXPECT_DOUBLE_EQ(m.avg_finish_top_half(), (300.0 + 200.0) / 2.0);
  EXPECT_DOUBLE_EQ(m.avg_finish_bottom_half(), 100.0);
}

TEST(AvgFinish, EvenCountSplitsCleanly) {
  SimMetrics m;
  for (int i = 0; i < 4; ++i)
    m.processes.push_back(proc(static_cast<its::Pid>(i), 40 - 10 * i,
                               100u * static_cast<its::SimTime>(i + 1)));
  EXPECT_DOUBLE_EQ(m.avg_finish_top_half(), (100.0 + 200.0) / 2.0);
  EXPECT_DOUBLE_EQ(m.avg_finish_bottom_half(), (300.0 + 400.0) / 2.0);
}

TEST(AvgFinish, PriorityTiesBreakByPid) {
  SimMetrics m;
  m.processes.push_back(proc(1, 30, 500));
  m.processes.push_back(proc(0, 30, 100));
  // Same priority: pid 0 sorts first, so it alone forms the top half.
  EXPECT_DOUBLE_EQ(m.avg_finish_top_half(), 100.0);
  EXPECT_DOUBLE_EQ(m.avg_finish_bottom_half(), 500.0);
}

TEST(DramBytesFor, AlwaysPageAligned) {
  for (const BatchSpec& b : paper_batches()) {
    for (double scale : {1.0, 0.25, 0.1, 0.013}) {
      std::uint64_t bytes = dram_bytes_for(b, 1.12, scale);
      EXPECT_EQ(bytes % its::kPageSize, 0u)
          << b.name << " scale=" << scale;
    }
  }
}

TEST(DramBytesFor, RoundsUpNotDown) {
  const BatchSpec& b = paper_batches()[0];
  std::uint64_t exact = dram_bytes_for(b, 1.0, 1.0);
  // Nudging the headroom up by less than a page's worth must never shrink
  // the allocation below the unrounded product.
  std::uint64_t nudged = dram_bytes_for(b, 1.0 + 1e-9, 1.0);
  EXPECT_GE(nudged, exact);
  EXPECT_GE(dram_bytes_for(b, 1.12, 1.0),
            static_cast<std::uint64_t>(
                static_cast<double>(dram_bytes_for(b, 1.0, 1.0)) * 1.11));
}

TEST(DramBytesFor, NeverReturnsZeroFrames) {
  // An extreme footprint scale used to truncate to zero bytes, handing the
  // simulator a DRAM with no frames at all.
  const BatchSpec& b = paper_batches()[0];
  EXPECT_GE(dram_bytes_for(b, 1.0, 1e-18), its::kPageSize);
  EXPECT_GE(dram_bytes_for(b, 1e-18, 1e-18), its::kPageSize);
}

}  // namespace
}  // namespace its::core
