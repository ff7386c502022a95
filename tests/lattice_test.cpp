// The policy lattice's exact relations (ctest label: core).
//
// ITS is built from knock-out switches (core::ItsOptions), and two corners
// of that lattice are the paper's baselines exactly:
//   * every component off            == Sync
//   * page prefetch only, POP kind   == Sync_Prefetch
// and with every process at one priority, ITS never gives way, so it is
// ITS without the self-sacrificing thread.
// "==" is byte identity of both CSV exports over all four paper batches,
// with faults off and under the hostile profile (errors, tails, outages),
// where the degraded-device routing must agree too.  Async, the other end
// of the lattice, never busy-waits.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/batch.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "core/report.h"
#include "core/simulator.h"
#include "fault/fault_injector.h"
#include "sched/process.h"

namespace its::core {
namespace {

class PolicyLattice
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::string>> {
 protected:
  void SetUp() override {
    batch_ = &paper_batches()[std::get<0>(GetParam())];
    cfg_.gen.length_scale = 0.05;
    cfg_.sim.fault = *fault::profile_by_name(std::get<1>(GetParam()));
    traces_ = batch_traces(*batch_, cfg_.gen);
  }

  /// The batch under `policy`; with `equal_priority` every process gets
  /// the same priority instead of the seeded shuffle.
  SimMetrics run(std::unique_ptr<IoPolicy> policy,
                 bool equal_priority = false) const {
    SimConfig sc = cfg_.sim;
    sc.dram_bytes =
        dram_bytes_for(*batch_, cfg_.dram_headroom, cfg_.gen.footprint_scale);
    Simulator sim(sc, std::move(policy));
    auto procs = build_processes(*batch_, traces_, sc.seed);
    for (std::size_t i = 0; i < procs.size(); ++i) {
      if (equal_priority)
        procs[i] = std::make_unique<sched::Process>(
            procs[i]->pid(), procs[i]->name(), 30, traces_[i]);
      sim.add_process(std::move(procs[i]));
    }
    return sim.run();
  }

  /// Both CSV exports of a run, its rows filed under `as` so that two
  /// policies' rows compare byte for byte.
  std::string csv(SimMetrics m, PolicyKind as) const {
    BatchResult r{batch_, {{as, std::move(m)}}};
    std::ostringstream os;
    write_metrics_csv(os, {&r, 1});
    write_processes_csv(os, {&r, 1});
    return os.str();
  }

  const BatchSpec* batch_ = nullptr;
  ExperimentConfig cfg_;
  std::vector<std::shared_ptr<const trace::Trace>> traces_;
};

TEST_P(PolicyLattice, ItsWithEveryComponentOffIsSync) {
  EXPECT_EQ(csv(run(make_its_policy({.self_sacrificing = false,
                                     .page_prefetch = false,
                                     .pre_execute = false})),
                PolicyKind::kSync),
            csv(run(make_policy(PolicyKind::kSync)), PolicyKind::kSync));
}

TEST_P(PolicyLattice, ItsWithPopPrefetchOnlyIsSyncPrefetch) {
  EXPECT_EQ(csv(run(make_its_policy({.self_sacrificing = false,
                                     .page_prefetch = true,
                                     .pre_execute = false,
                                     .prefetcher = PrefetchKind::kPop})),
                PolicyKind::kSyncPrefetch),
            csv(run(make_policy(PolicyKind::kSyncPrefetch)),
                PolicyKind::kSyncPrefetch));
}

TEST_P(PolicyLattice, ItsWithEqualPrioritiesNeverSacrifices) {
  const SimMetrics its = run(make_policy(PolicyKind::kIts),
                             /*equal_priority=*/true);
  // Without faults nothing else turns a fault asynchronous; under hostile
  // an offline device still does, on both sides alike.
  if (!cfg_.sim.fault.enabled) {
    EXPECT_EQ(its.async_switches, 0u);
  }
  EXPECT_EQ(csv(its, PolicyKind::kIts),
            csv(run(make_its_policy({.self_sacrificing = false}),
                    /*equal_priority=*/true),
                PolicyKind::kIts));
}

TEST_P(PolicyLattice, AsyncNeverBusyWaits) {
  SimMetrics m = run(make_policy(PolicyKind::kAsync));
  EXPECT_EQ(m.idle.busy_wait, 0u);
  // The relations above are not vacuous: the batch faults, and under
  // hostile faults are served with the device unhealthy.
  EXPECT_GT(m.async_switches, 0u);
  if (cfg_.sim.fault.enabled) {
    EXPECT_GT(m.faults_served_degraded, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBatchesBothProfiles, PolicyLattice,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u),
                       ::testing::Values(std::string("none"),
                                         std::string("hostile"))),
    [](const auto& test_info) {
      return "batch" + std::to_string(std::get<0>(test_info.param)) + "_" +
             std::get<1>(test_info.param);
    });

}  // namespace
}  // namespace its::core
