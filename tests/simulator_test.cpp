// Integration tests for the core simulation engine: fault classification,
// idle-time accounting per policy, prefetch arrival → minor faults,
// eviction under memory pressure, determinism, and scheduling dynamics.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "core/simulator.h"
#include "mem/hierarchy.h"
#include "trace/instr.h"

namespace its::core {
namespace {

using trace::Instr;

constexpr its::VirtAddr kBase = 0x560000000000ull;

std::shared_ptr<const trace::Trace> make_trace(
    std::initializer_list<Instr> instrs, const std::string& name = "t") {
  auto t = std::make_shared<trace::Trace>(name);
  for (const auto& i : instrs) t->push_back(i);
  return t;
}

/// Sequential page-touch trace with `gap_ns` of compute between touches.
std::shared_ptr<const trace::Trace> page_walker(unsigned pages, unsigned gap_ns) {
  auto t = std::make_shared<trace::Trace>("walker");
  for (unsigned i = 0; i < pages; ++i) {
    t->push_back(Instr::load(kBase + i * its::kPageSize, 8, 1, 0));
    if (gap_ns)
      t->push_back(Instr::compute(static_cast<std::uint16_t>(gap_ns), 2, 0, 0));
  }
  return t;
}

SimConfig small_config() {
  SimConfig cfg;
  cfg.slice_min = 50'000;
  cfg.slice_max = 8'000'000;
  return cfg;
}

/// Uncontended page swap-in time under the default storage model.
its::Duration page_io_ns(const SimConfig& cfg) {
  storage::DmaController dma(cfg.ull, cfg.pcie);
  return dma.post_page(0, storage::Dir::kRead);
}

TEST(Simulator, RejectsMoreProcessesThanPidKeysHold) {
  // pid_key() keeps 16 bits of pid: pid 65536 would share pid 0's TLB,
  // swap-slot and pre-execute keys.  One compute record per process keeps
  // each page table empty, so 65536 processes stay cheap.
  Simulator sim(small_config(), PolicyKind::kSync);
  const auto t = make_trace({Instr::compute(1, 2, 0, 0)});
  for (its::Pid pid = 0; pid < its::kMaxProcesses; ++pid)
    sim.add_process(std::make_unique<sched::Process>(pid, "p", 30, t));
  const auto pid = static_cast<its::Pid>(its::kMaxProcesses);
  try {
    sim.add_process(std::make_unique<sched::Process>(pid, "p", 30, t));
    FAIL() << "pid 65536 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("65536"), std::string::npos) << e.what();
  }
}

/// The invalid_argument message from constructing a Sync simulator on `cfg`.
std::string construction_error(const SimConfig& cfg) {
  try {
    Simulator sim(cfg, PolicyKind::kSync);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Simulator, RejectsDramPastTheCachesTagRange) {
  // Past max_phys_bytes a line's tag needs more than 32 bits; the check
  // runs before the frame pool would allocate state for every frame.
  SimConfig cfg = small_config();
  cfg.dram_bytes = mem::CacheHierarchy(cfg.hierarchy).max_phys_bytes() + its::kPageSize;
  std::string err = construction_error(cfg);
  EXPECT_NE(err.find("past the L1's"), std::string::npos) << err;
  // 32 sets: now the LLC has the fewest sets, and the lowest limit.
  cfg.hierarchy.llc = {32_KiB, 16, 64, 14};
  cfg.dram_bytes = mem::CacheHierarchy(cfg.hierarchy).max_phys_bytes() + its::kPageSize;
  err = construction_error(cfg);
  EXPECT_NE(err.find("past the LLC's"), std::string::npos) << err;
}

TEST(Simulator, SingleProcessRunsToCompletion) {
  Simulator sim(small_config(), PolicyKind::kSync);
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(4, 100)));
  SimMetrics m = sim.run();
  ASSERT_EQ(m.processes.size(), 1u);
  EXPECT_EQ(m.major_faults, 4u);  // every cold touch is a major fault
  EXPECT_EQ(m.minor_faults, 0u);
  EXPECT_GT(m.processes[0].metrics.finish_time, 0u);
  EXPECT_EQ(m.makespan, m.processes[0].metrics.finish_time);
  // 4 loads + 4 folded compute records of 100 ops each.
  EXPECT_EQ(m.processes[0].metrics.instructions, 4u + 4u * 100u);
}

TEST(Simulator, SyncBusyWaitEqualsIoTime) {
  SimConfig cfg = small_config();
  Simulator sim(cfg, PolicyKind::kSync);
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(3, 50)));
  SimMetrics m = sim.run();
  EXPECT_EQ(m.idle.busy_wait, 3 * page_io_ns(cfg));
  EXPECT_EQ(m.idle.ctx_switch, 0u);     // nothing to switch to
  EXPECT_EQ(m.idle.no_runnable, 0u);    // never blocks
  EXPECT_EQ(m.async_switches, 0u);
}

TEST(Simulator, AsyncChargesOneSwitchPerFault) {
  SimConfig cfg = small_config();
  Simulator sim(cfg, PolicyKind::kAsync);
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(5, 50)));
  SimMetrics m = sim.run();
  EXPECT_EQ(m.async_switches, 5u);
  EXPECT_EQ(m.idle.ctx_switch, 5 * cfg.ctx_switch_cost);
  EXPECT_EQ(m.idle.busy_wait, 0u);
  // The 7 µs switch fully covers the 3.3 µs swap-in: no residual idle.
  EXPECT_EQ(m.idle.no_runnable, 0u);
}

TEST(Simulator, AsyncSlowDeviceLeavesResidualIdle) {
  SimConfig cfg = small_config();
  cfg.ull.read_latency = 20'000;  // 20 µs media: slower than the switch
  Simulator sim(cfg, PolicyKind::kAsync);
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(5, 50)));
  SimMetrics m = sim.run();
  // Alone on the machine, the part of the I/O the switch does not cover is
  // genuine whole-machine idle.
  EXPECT_GT(m.idle.no_runnable, 0u);
}

TEST(Simulator, SecondTouchHitsCache) {
  Simulator sim(small_config(), PolicyKind::kSync);
  sim.add_process(std::make_unique<sched::Process>(
      0, "p", 30,
      make_trace({Instr::load(kBase, 8, 1, 0), Instr::compute(10, 2, 0, 0),
                  Instr::load(kBase, 8, 3, 0)})));
  SimMetrics m = sim.run();
  EXPECT_EQ(m.major_faults, 1u);
  EXPECT_EQ(m.llc_misses, 1u);  // second touch is an L1 hit
}

TEST(Simulator, ItsPrefetchTurnsMajorsIntoMinors) {
  SimConfig cfg = small_config();
  Simulator sim(cfg, PolicyKind::kIts);
  // Alone ⇒ self-improving: the VA prefetcher fetches the next pages during
  // the first fault; 20 µs of compute gives the DMA time to land them.
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(4, 20000)));
  SimMetrics m = sim.run();
  EXPECT_EQ(m.major_faults, 1u);
  EXPECT_EQ(m.minor_faults, 3u);
  EXPECT_GE(m.prefetch_issued, 3u);
  EXPECT_EQ(m.prefetch_useful, 3u);
  EXPECT_GE(m.preexec_episodes, 1u);
}

TEST(Simulator, SyncPrefetchUsesAlignedUnits) {
  SimConfig cfg = small_config();
  cfg.pop_prefetch.unit_pages = 4;
  Simulator sim(cfg, PolicyKind::kSyncPrefetch);
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(4, 20000)));
  SimMetrics m = sim.run();
  EXPECT_EQ(m.major_faults, 1u);
  EXPECT_EQ(m.minor_faults, 3u);
}

TEST(Simulator, EvictionUnderMemoryPressure) {
  SimConfig cfg = small_config();
  cfg.dram_bytes = 8 * its::kPageSize;
  Simulator sim(cfg, PolicyKind::kSync);
  auto t = std::make_shared<trace::Trace>("thrash");
  for (int round = 0; round < 2; ++round)
    for (unsigned i = 0; i < 16; ++i)
      t->push_back(Instr::load(kBase + i * its::kPageSize, 8, 1, 0));
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, t));
  SimMetrics m = sim.run();
  EXPECT_GT(m.evictions, 0u);
  EXPECT_GT(m.major_faults, 16u);  // re-touches of evicted pages fault again
}

TEST(Simulator, DirtyEvictionWritesBack) {
  SimConfig cfg = small_config();
  cfg.dram_bytes = 4 * its::kPageSize;
  Simulator sim(cfg, PolicyKind::kSync);
  auto t = std::make_shared<trace::Trace>("dirty");
  for (unsigned i = 0; i < 8; ++i)
    t->push_back(Instr::store(kBase + i * its::kPageSize, 8, 1, 0));
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, t));
  sim.run();
  EXPECT_GT(sim.swap().stats().swap_outs, 0u);
}

TEST(Simulator, CleanEvictionDoesNotWriteBack) {
  SimConfig cfg = small_config();
  cfg.dram_bytes = 4 * its::kPageSize;
  Simulator sim(cfg, PolicyKind::kSync);
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(8, 10)));
  sim.run();
  EXPECT_EQ(sim.swap().stats().swap_outs, 0u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = []() {
    Simulator sim(small_config(), PolicyKind::kIts);
    sim.add_process(std::make_unique<sched::Process>(0, "a", 30, page_walker(16, 500)));
    sim.add_process(std::make_unique<sched::Process>(1, "b", 50, page_walker(16, 700)));
    return sim.run();
  };
  SimMetrics a = run_once();
  SimMetrics b = run_once();
  EXPECT_EQ(a.idle.total(), b.idle.total());
  EXPECT_EQ(a.major_faults, b.major_faults);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.processes[0].metrics.finish_time, b.processes[0].metrics.finish_time);
}

TEST(Simulator, RoundRobinSharesCpu) {
  SimConfig cfg = small_config();
  cfg.slice_min = 1000;
  cfg.slice_max = 2000;
  Simulator sim(cfg, PolicyKind::kSync);
  sim.add_process(std::make_unique<sched::Process>(0, "a", 10, page_walker(4, 2000)));
  sim.add_process(std::make_unique<sched::Process>(1, "b", 20, page_walker(4, 2000)));
  SimMetrics m = sim.run();
  // Slice expiries force real context switches between the two processes.
  EXPECT_GT(m.idle.ctx_switch, 0u);
  EXPECT_GT(m.processes[0].metrics.finish_time, 0u);
  EXPECT_GT(m.processes[1].metrics.finish_time, 0u);
}

TEST(Simulator, ItsLowPriorityGivesWay) {
  SimConfig cfg = small_config();
  cfg.slice_min = 100'000;
  cfg.slice_max = 200'000;
  Simulator sim(cfg, PolicyKind::kIts);
  // Low-priority process faults a lot; high-priority computes a lot so it
  // sits in the run queue when the low-priority process faults.
  sim.add_process(std::make_unique<sched::Process>(0, "low", 10, page_walker(8, 100)));
  auto heavy = std::make_shared<trace::Trace>("heavy");
  for (int i = 0; i < 200; ++i) heavy->push_back(Instr::compute(5000, 1, 0, 0));
  sim.add_process(std::make_unique<sched::Process>(1, "high", 60, heavy));
  SimMetrics m = sim.run();
  EXPECT_GT(m.async_switches, 0u);  // self-sacrificing engaged
}

TEST(Simulator, ExitReclaimReleasesAllFrames) {
  Simulator sim(small_config(), PolicyKind::kSync);
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(8, 10)));
  sim.run();
  EXPECT_EQ(sim.frames().used_frames(), 0u);
}

TEST(Simulator, RejectsSparsePids) {
  Simulator sim(small_config(), PolicyKind::kSync);
  EXPECT_THROW(sim.add_process(std::make_unique<sched::Process>(
                   5, "p", 30, page_walker(1, 0))),
               std::invalid_argument);
}

TEST(Simulator, RunWithoutProcessesThrows) {
  Simulator sim(small_config(), PolicyKind::kSync);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, EveryRunChecksTheIdleTimeIdentity) {
  // run() verifies the §4.2.1 partition before it returns and throws
  // AccountingError, a logic_error, if a run ever leaks time.
  static_assert(std::is_base_of_v<std::logic_error, AccountingError>);
  for (PolicyKind k : kAllPolicies) {
    Simulator sim(small_config(), k);
    sim.add_process(std::make_unique<sched::Process>(0, "a", 30, page_walker(6, 50)));
    sim.add_process(std::make_unique<sched::Process>(1, "b", 10, page_walker(6, 0)));
    SimMetrics m;
    EXPECT_NO_THROW(m = sim.run()) << policy_name(k);
    EXPECT_TRUE(m.identity_violations().empty()) << policy_name(k);
  }
}

TEST(Simulator, PreexecCachePoliciesHalveLlc) {
  SimConfig cfg = small_config();
  Simulator with(cfg, PolicyKind::kIts);
  Simulator without(cfg, PolicyKind::kSync);
  EXPECT_EQ(with.caches().config().llc.size_bytes,
            cfg.hierarchy.llc.size_bytes / 2);
  EXPECT_EQ(without.caches().config().llc.size_bytes,
            cfg.hierarchy.llc.size_bytes);
}

TEST(Simulator, TlbFlushOnContextSwitch) {
  SimConfig cfg = small_config();
  cfg.slice_min = 1000;
  cfg.slice_max = 1500;
  Simulator sim(cfg, PolicyKind::kSync);
  sim.add_process(std::make_unique<sched::Process>(0, "a", 10, page_walker(3, 1000)));
  sim.add_process(std::make_unique<sched::Process>(1, "b", 20, page_walker(3, 1000)));
  sim.run();
  EXPECT_GT(sim.tlb().stats().flushes, 0u);
}

TEST(Simulator, StolenTimeOnlyForStealingPolicies) {
  auto run_policy = [](PolicyKind k) {
    Simulator sim(small_config(), k);
    sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(6, 300)));
    return sim.run();
  };
  EXPECT_EQ(run_policy(PolicyKind::kSync).stolen_time, 0u);
  EXPECT_EQ(run_policy(PolicyKind::kAsync).stolen_time, 0u);
  EXPECT_GT(run_policy(PolicyKind::kIts).stolen_time, 0u);
}

TEST(Simulator, CustomPolicyInjection) {
  // A policy that always goes async regardless of priority (sanity for the
  // injectable-policy constructor).
  class AlwaysAsync final : public IoPolicy {
   public:
    PolicyKind kind() const override { return PolicyKind::kAsync; }
    FaultPlan plan_major_fault(const sched::Process&, const sched::Scheduler&,
                               storage::DeviceHealth) override {
      return {.go_async = true};
    }
  };
  Simulator sim(small_config(), std::make_unique<AlwaysAsync>());
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(3, 10)));
  SimMetrics m = sim.run();
  EXPECT_EQ(m.async_switches, 3u);
}

TEST(Simulator, PollingRecoveryQuantisesWaits) {
  SimConfig interrupt_cfg = small_config();
  SimConfig polling_cfg = small_config();
  polling_cfg.preexec.recovery_trigger = cpu::RecoveryTrigger::kPolling;
  polling_cfg.preexec.poll_period = 2000;

  auto run_with = [](const SimConfig& cfg) {
    Simulator sim(cfg, PolicyKind::kIts);
    sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(6, 30000)));
    return sim.run();
  };
  SimMetrics intr = run_with(interrupt_cfg);
  SimMetrics poll = run_with(polling_cfg);
  // §3.4.3: polling resumes at the next timer check, so waits round up.
  EXPECT_GT(poll.idle.busy_wait, intr.idle.busy_wait);
  EXPECT_GE(poll.makespan, intr.makespan);
}

TEST(Simulator, CfsSchedulerRunsBatchesToCompletion) {
  SimConfig cfg = small_config();
  cfg.scheduler = SchedulerKind::kCfs;
  cfg.cfs.sched_latency = 1'000'000;
  cfg.cfs.min_granularity = 50'000;
  Simulator sim(cfg, PolicyKind::kIts);
  sim.add_process(std::make_unique<sched::Process>(0, "a", 10, page_walker(8, 2000)));
  sim.add_process(std::make_unique<sched::Process>(1, "b", 30, page_walker(8, 2000)));
  SimMetrics m = sim.run();
  EXPECT_EQ(m.processes.size(), 2u);
  for (const auto& p : m.processes) EXPECT_GT(p.metrics.finish_time, 0u);
}

TEST(Simulator, StridePrefetcherPolicyWorksEndToEnd) {
  SimConfig cfg = small_config();
  Simulator sim(cfg, make_its_policy({.prefetcher = PrefetchKind::kStride}));
  // Sequential page walker: stride 1 trains after two faults.
  sim.add_process(std::make_unique<sched::Process>(0, "p", 30, page_walker(8, 20000)));
  SimMetrics m = sim.run();
  EXPECT_GT(m.prefetch_issued, 0u);
  EXPECT_LT(m.major_faults, 8u);  // some touches became minor faults
}

TEST(Simulator, InFlightFaultWaitsOnlyRemainder) {
  // Touching a page whose prefetch is still in flight must cost less than a
  // full swap-in.
  SimConfig cfg = small_config();
  Simulator sim(cfg, PolicyKind::kIts);
  // Touch page 0, then immediately page 1 (prefetch landed it in flight).
  sim.add_process(std::make_unique<sched::Process>(
      0, "p", 30,
      make_trace({Instr::load(kBase, 8, 1, 0),
                  Instr::load(kBase + its::kPageSize, 8, 2, 0)})));
  SimMetrics m = sim.run();
  // Both touches are majors (the second hits an in-flight page), but the
  // second wait is only the transfer remainder.
  EXPECT_EQ(m.major_faults, 2u);
  EXPECT_LT(m.idle.busy_wait, 2 * page_io_ns(cfg));
}

}  // namespace
}  // namespace its::core
