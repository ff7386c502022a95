// Property tests: invariants that must hold for every (policy, scheduler,
// seed, cluster) combination — conservation of work, fault accounting
// identities, metric sanity.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <type_traits>

#include "core/simulator.h"
#include "trace/workloads.h"

namespace its::core {
namespace {

// gtest prints a parameter without a printer as its raw bytes, and those
// bytes end up in the test names. The padding is therefore spelled out and
// zeroed, so names do not carry leftover stack contents that change per run.
struct Combo {
  Combo(PolicyKind p, SchedulerKind s, std::uint64_t sd, unsigned c)
      : policy(p), scheduler(s), seed(sd), cluster(c) {}

  PolicyKind policy;
  SchedulerKind scheduler;
  std::uint8_t pad0[6] = {};
  std::uint64_t seed;
  unsigned cluster;
  std::uint32_t pad1 = 0;
};
static_assert(sizeof(Combo) == 24 &&
                  std::has_unique_object_representations_v<Combo>,
              "Combo must have no implicit padding");

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  std::string s{policy_name(info.param.policy)};
  s += info.param.scheduler == SchedulerKind::kCfs ? "_cfs" : "_rr";
  s += "_s" + std::to_string(info.param.seed);
  s += "_c" + std::to_string(info.param.cluster);
  return s;
}

class SimulatorProperty : public ::testing::TestWithParam<Combo> {
 protected:
  /// Two small real workloads with contended DRAM.
  static SimMetrics run(const Combo& c, std::uint64_t* trace_instructions) {
    trace::GeneratorConfig gen;
    gen.length_scale = 0.03;
    gen.footprint_scale = 0.25;
    gen.seed = c.seed;

    SimConfig cfg;
    cfg.slice_min = 50'000;
    cfg.slice_max = 2'000'000;
    cfg.scheduler = c.scheduler;
    cfg.swap_cluster_pages = c.cluster;
    cfg.seed = c.seed;
    cfg.dram_bytes = 8ull << 20;  // tight: forces evictions

    Simulator sim(cfg, c.policy);
    std::uint64_t instrs = 0;
    const trace::WorkloadId ids[] = {trace::WorkloadId::kXz,
                                     trace::WorkloadId::kRandomWalk,
                                     trace::WorkloadId::kDeepSjeng};
    for (unsigned i = 0; i < 3; ++i) {
      auto t = std::make_shared<const trace::Trace>(trace::generate(ids[i], gen));
      instrs += t->stats().instructions;
      sim.add_process(std::make_unique<sched::Process>(
          static_cast<its::Pid>(i), std::string(trace::spec_for(ids[i]).name),
          static_cast<int>(10 + 20 * i), t));
    }
    if (trace_instructions != nullptr) *trace_instructions = instrs;
    return sim.run();
  }
};

TEST_P(SimulatorProperty, InstructionConservation) {
  // Every trace instruction executes architecturally exactly once,
  // regardless of policy, scheduler, faults, or pre-execution.
  std::uint64_t expected = 0;
  SimMetrics m = run(GetParam(), &expected);
  std::uint64_t executed = 0;
  for (const auto& p : m.processes) executed += p.metrics.instructions;
  EXPECT_EQ(executed, expected);
}

TEST_P(SimulatorProperty, EveryTouchedPageFaultsAtLeastOnce) {
  SimMetrics m = run(GetParam(), nullptr);
  for (const auto& p : m.processes) {
    // First touch of each page is a major or minor fault; evictions can
    // only add re-faults.
    EXPECT_GE(p.metrics.major_faults + p.metrics.minor_faults, 1u) << p.name;
  }
  EXPECT_GT(m.major_faults, 0u);
}

TEST_P(SimulatorProperty, PrefetchAccountingBounds) {
  SimMetrics m = run(GetParam(), nullptr);
  // Cluster siblings count as issued readahead, so usefulness is a true
  // ratio: every consumed swap-cache page was issued first.
  EXPECT_LE(m.prefetch_useful, m.prefetch_issued);
  if ((GetParam().policy == PolicyKind::kSync ||
       GetParam().policy == PolicyKind::kAsync ||
       GetParam().policy == PolicyKind::kSyncRunahead) &&
      GetParam().cluster <= 1) {
    EXPECT_EQ(m.prefetch_issued, 0u);
  }
}

TEST_P(SimulatorProperty, FinishTimesWithinMakespan) {
  SimMetrics m = run(GetParam(), nullptr);
  its::SimTime last = 0;
  for (const auto& p : m.processes) {
    EXPECT_GT(p.metrics.finish_time, 0u);
    EXPECT_LE(p.metrics.finish_time, m.makespan);
    last = std::max(last, p.metrics.finish_time);
  }
  EXPECT_EQ(last, m.makespan);
}

TEST_P(SimulatorProperty, IdleComponentsNonNegativeAndBounded) {
  SimMetrics m = run(GetParam(), nullptr);
  EXPECT_EQ(m.idle.total(), m.idle.mem_stall + m.idle.busy_wait +
                                m.idle.ctx_switch + m.idle.no_runnable);
  // Idle time cannot exceed the whole run.
  EXPECT_LE(m.idle.total(), m.makespan);
}

TEST_P(SimulatorProperty, AsyncSwitchesOnlyFromGiveWayPolicies) {
  SimMetrics m = run(GetParam(), nullptr);
  switch (GetParam().policy) {
    case PolicyKind::kSync:
    case PolicyKind::kSyncRunahead:
    case PolicyKind::kSyncPrefetch:
      EXPECT_EQ(m.async_switches, 0u);
      break;
    case PolicyKind::kAsync:
      EXPECT_EQ(m.async_switches, m.major_faults);
      break;
    case PolicyKind::kIts:
      EXPECT_LE(m.async_switches, m.major_faults);
      break;
  }
}

TEST_P(SimulatorProperty, DeterministicReplay) {
  SimMetrics a = run(GetParam(), nullptr);
  SimMetrics b = run(GetParam(), nullptr);
  EXPECT_EQ(a.idle.total(), b.idle.total());
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.major_faults, b.major_faults);
  EXPECT_EQ(a.llc_misses, b.llc_misses);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimulatorProperty,
    ::testing::Values(
        Combo{PolicyKind::kAsync, SchedulerKind::kRoundRobin, 1, 1},
        Combo{PolicyKind::kSync, SchedulerKind::kRoundRobin, 1, 1},
        Combo{PolicyKind::kSyncRunahead, SchedulerKind::kRoundRobin, 1, 1},
        Combo{PolicyKind::kSyncPrefetch, SchedulerKind::kRoundRobin, 1, 1},
        Combo{PolicyKind::kIts, SchedulerKind::kRoundRobin, 1, 1},
        Combo{PolicyKind::kIts, SchedulerKind::kRoundRobin, 2, 1},
        Combo{PolicyKind::kIts, SchedulerKind::kRoundRobin, 3, 4},
        Combo{PolicyKind::kSync, SchedulerKind::kRoundRobin, 2, 8},
        Combo{PolicyKind::kIts, SchedulerKind::kCfs, 1, 1},
        Combo{PolicyKind::kSync, SchedulerKind::kCfs, 1, 1},
        Combo{PolicyKind::kAsync, SchedulerKind::kCfs, 2, 2}),
    combo_name);

}  // namespace
}  // namespace its::core
