// Fault-injection resilience suite (ctest label: fault).
//
// Pins down the tentpole guarantees of the fault subsystem:
//   * RetryPolicy arithmetic (exponential growth, cap, floors);
//   * FaultInjector determinism, the disabled-identity property, tail
//     clamping and burst windows;
//   * deterministic replay — a fixed (seed, profile) pair reproduces the
//     exact same SimMetrics and event timeline twice;
//   * invariant-checker acceptance of injected timelines, including the
//     watchdog's sync→async fallback and the pre-execute recovery that
//     precedes a deadline abort;
//   * the bounded-retry and makespan-reconciliation properties under every
//     named profile;
//   * a golden snapshot of one canonical hostile run
//     (tests/golden/fault_metrics.golden, ITS_UPDATE_GOLDEN=1 regenerates);
//   * CSV and Chrome-trace export round-trips of the resilience fields.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "core/report.h"
#include "fault/fault_injector.h"
#include "obs/event_trace.h"
#include "obs/invariant_checker.h"
#include "obs/trace_json.h"
#include "vm/swap.h"
#include "golden.h"

namespace its {
namespace {

using core::PolicyKind;
using core::SimMetrics;
using obs::EventKind;

// ---------------------------------------------------------------------------
// RetryPolicy arithmetic.

TEST(RetryPolicy, ExponentialBackoffWithCap) {
  vm::RetryPolicy rp(5, 1000, 2.0, 6000);
  EXPECT_EQ(rp.max_retries(), 5u);
  EXPECT_EQ(rp.backoff(1), 1000);
  EXPECT_EQ(rp.backoff(2), 2000);
  EXPECT_EQ(rp.backoff(3), 4000);
  EXPECT_EQ(rp.backoff(4), 6000);  // 8000 capped
  EXPECT_EQ(rp.backoff(5), 6000);
  EXPECT_EQ(rp.max_total_backoff(), 1000 + 2000 + 4000 + 6000 + 6000);
}

TEST(RetryPolicy, FloorsAndClamps) {
  // A zero base still waits ≥ 1 ns; a shrinking multiplier is clamped to
  // 1.0 so the ladder never decreases.
  vm::RetryPolicy zero_base(3, 0, 2.0, 1000);
  EXPECT_GE(zero_base.backoff(1), 1);
  vm::RetryPolicy shrinking(3, 500, 0.25, 1000);
  EXPECT_EQ(shrinking.backoff(1), 500);
  EXPECT_EQ(shrinking.backoff(3), 500);
  vm::RetryPolicy none(0, 1000, 2.0, 1000);
  EXPECT_EQ(none.max_total_backoff(), 0);
}

// ---------------------------------------------------------------------------
// FaultInjector unit behaviour.

TEST(FaultInjector, DisabledIsInert) {
  fault::FaultInjector inj;  // default: disabled
  EXPECT_FALSE(inj.enabled());
  EXPECT_EQ(inj.inflate_media_latency(0, 3000, false), 3000);
  EXPECT_FALSE(inj.media_error(false, true));
  EXPECT_FALSE(inj.link_error(true));
  EXPECT_EQ(inj.stats().extra_latency, 0);
  EXPECT_EQ(inj.stats().media_errors + inj.stats().link_errors +
                inj.stats().internal_redos,
            0u);
}

TEST(FaultInjector, DeterministicPerSeed) {
  fault::FaultProfile p = *fault::profile_by_name("hostile");
  p.seed = 99;
  fault::FaultInjector a(p), b(p);
  for (int i = 0; i < 2000; ++i) {
    const its::SimTime base = static_cast<its::SimTime>(i) * 100;
    EXPECT_EQ(a.inflate_media_latency(base, 3000, i % 2),
              b.inflate_media_latency(base, 3000, i % 2));
    EXPECT_EQ(a.media_error(false, true), b.media_error(false, true));
    EXPECT_EQ(a.link_error(true), b.link_error(true));
  }
  EXPECT_EQ(a.stats().tail_events, b.stats().tail_events);
  EXPECT_EQ(a.stats().extra_latency, b.stats().extra_latency);

  // A different seed must diverge somewhere over 2000 draws.
  fault::FaultProfile q = p;
  q.seed = 100;
  fault::FaultInjector c(p), d(q);
  bool diverged = false;
  for (int i = 0; i < 2000 && !diverged; ++i)
    diverged = c.inflate_media_latency(0, 3000, false) !=
               d.inflate_media_latency(0, 3000, false);
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, TailDrawsAreClampedAndNeverShrinkLatency) {
  fault::FaultProfile p;
  p.enabled = true;
  p.latency.tail = fault::TailKind::kPareto;
  p.latency.tail_prob = 1.0;  // every draw is a tail
  p.latency.pareto_alpha = 0.5;  // heavy: unclamped draws would be huge
  p.latency.pareto_xm = 1000.0;
  p.latency.max_extra = 50'000;
  fault::FaultInjector inj(p);
  for (int i = 0; i < 500; ++i) {
    its::Duration t = inj.inflate_media_latency(0, 3000, false);
    EXPECT_GE(t, 3000);
    EXPECT_LE(t, 3000 + 50'000);
  }
  EXPECT_EQ(inj.stats().tail_events, 500u);
}

TEST(FaultInjector, BurstWindows) {
  fault::FaultProfile p;
  p.enabled = true;
  p.latency.burst_period = 1000;
  p.latency.burst_len = 200;
  p.latency.burst_multiplier = 4.0;
  fault::FaultInjector inj(p);
  EXPECT_TRUE(inj.in_burst(0));
  EXPECT_TRUE(inj.in_burst(199));
  EXPECT_FALSE(inj.in_burst(200));
  EXPECT_FALSE(inj.in_burst(999));
  EXPECT_TRUE(inj.in_burst(1000));
  // Inside a burst the whole service time is multiplied; outside it is not.
  EXPECT_GE(inj.inflate_media_latency(100, 3000, false), 3000 * 4);
  EXPECT_EQ(inj.inflate_media_latency(500, 3000, false), 3000);
}

TEST(FaultInjector, NamedProfiles) {
  for (auto name : fault::profile_names())
    EXPECT_TRUE(fault::profile_by_name(name).has_value()) << name;
  EXPECT_FALSE(fault::profile_by_name("none")->enabled);
  EXPECT_TRUE(fault::profile_by_name("hostile")->enabled);
  EXPECT_TRUE(fault::profile_by_name("outage")->outage.enabled());
  EXPECT_TRUE(fault::profile_by_name("hostile")->outage.enabled());
  EXPECT_FALSE(fault::profile_by_name("tail")->outage.enabled());
  EXPECT_FALSE(fault::profile_by_name("no-such-profile").has_value());
}

TEST(FaultInjector, OutageWindowsStallTheDevice) {
  fault::FaultProfile p;
  p.enabled = true;
  p.outage.period = 1000;
  p.outage.length = 200;
  fault::FaultInjector inj(p);
  EXPECT_TRUE(inj.in_outage(0));
  EXPECT_TRUE(inj.in_outage(199));
  EXPECT_FALSE(inj.in_outage(200));
  EXPECT_FALSE(inj.in_outage(999));
  EXPECT_TRUE(inj.in_outage(1000));
  // A request posted inside the window queues until the window closes; one
  // posted outside starts immediately.
  EXPECT_EQ(inj.outage_clear(100), 200u);
  EXPECT_EQ(inj.outage_clear(500), 500u);

  // Past the death point the outage never clears — callers must consult
  // in_outage and treat the device as gone.
  fault::FaultProfile dead;
  dead.enabled = true;
  dead.outage.dead_at = 5000;
  fault::FaultInjector dinj(dead);
  EXPECT_FALSE(dinj.in_outage(4999));
  EXPECT_TRUE(dinj.in_outage(5000));
  EXPECT_EQ(dinj.outage_clear(6000), 6000u);
}

// ---------------------------------------------------------------------------
// Whole-simulation properties.  One small batch keeps each run ~a second.

const core::BatchSpec& test_batch() { return core::paper_batches()[1]; }

SimMetrics run_profile(const char* profile, PolicyKind policy,
                       obs::EventTrace* et = nullptr,
                       std::uint64_t fault_seed = 7) {
  core::ExperimentConfig cfg = test::golden_config();
  cfg.sim.fault = *fault::profile_by_name(profile);
  cfg.sim.fault.seed = fault_seed;
  auto traces = core::batch_traces(test_batch(), cfg.gen);
  return core::run_batch_policy(test_batch(), policy, cfg, traces, et);
}

bool metrics_equal(const SimMetrics& a, const SimMetrics& b) {
  return a.makespan == b.makespan && a.cpu_busy == b.cpu_busy &&
         a.idle.mem_stall == b.idle.mem_stall &&
         a.idle.busy_wait == b.idle.busy_wait &&
         a.idle.ctx_switch == b.idle.ctx_switch &&
         a.idle.no_runnable == b.idle.no_runnable &&
         a.major_faults == b.major_faults && a.io_errors == b.io_errors &&
         a.io_retries == b.io_retries &&
         a.retry_exhausted == b.retry_exhausted &&
         a.deadline_aborts == b.deadline_aborts &&
         a.mode_fallbacks == b.mode_fallbacks &&
         a.degraded_time == b.degraded_time &&
         a.stolen_time == b.stolen_time;
}

TEST(FaultSim, DeterministicReplay) {
  obs::EventTrace t1, t2;
  SimMetrics m1 = run_profile("hostile", PolicyKind::kIts, &t1);
  SimMetrics m2 = run_profile("hostile", PolicyKind::kIts, &t2);
  EXPECT_TRUE(metrics_equal(m1, m2));
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    const obs::Event &a = t1.events()[i], &b = t2.events()[i];
    ASSERT_TRUE(a.ts == b.ts && a.kind == b.kind && a.pid == b.pid &&
                a.a == b.a && a.b == b.b && a.c == b.c)
        << "event " << i << " differs between identical replays";
  }
  // And the injection did something worth replaying.
  EXPECT_GT(m1.io_errors, 0u);

  // A different injector seed must not produce the same timeline.
  SimMetrics m3 = run_profile("hostile", PolicyKind::kIts, nullptr, 8);
  EXPECT_FALSE(metrics_equal(m1, m3));
}

TEST(FaultSim, InvariantsHoldUnderEveryProfile) {
  for (auto name : fault::profile_names()) {
    for (PolicyKind k : {PolicyKind::kSync, PolicyKind::kIts}) {
      obs::EventTrace et;
      SimMetrics m = run_profile(std::string(name).c_str(), k, &et);
      obs::CheckResult res = obs::check_invariants(et, m);
      EXPECT_TRUE(res.ok()) << "profile " << name << ", policy "
                            << core::policy_name(k) << ":\n"
                            << res.summary();
      // Exact makespan reconciliation, asserted directly as well.
      EXPECT_EQ(m.cpu_busy + m.idle.busy_wait + m.idle.ctx_switch +
                    m.idle.no_runnable,
                m.makespan)
          << "profile " << name << ", policy " << core::policy_name(k);
    }
  }
}

TEST(FaultSim, InvariantsHoldForAllPoliciesUnderHostile) {
  for (PolicyKind k : core::kAllPolicies) {
    obs::EventTrace et;
    SimMetrics m = run_profile("hostile", k, &et);
    obs::CheckResult res = obs::check_invariants(et, m);
    EXPECT_TRUE(res.ok()) << core::policy_name(k) << ":\n" << res.summary();
  }
}

TEST(FaultSim, WatchdogFallsBackAndRecoversPreexecState) {
  obs::EventTrace et;
  SimMetrics m = run_profile("hostile", PolicyKind::kIts, &et);
  // The watchdog fired: at least one sync wait aborted and fell back.
  EXPECT_GT(m.deadline_aborts, 0u);
  EXPECT_GT(m.mode_fallbacks, 0u);
  EXPECT_EQ(m.deadline_aborts, m.mode_fallbacks);
  EXPECT_GT(m.degraded_time, 0);

  // At least one abort recovered from a pre-execute episode: the engine ran
  // inside the watchdog window, its state was discarded, and the abort
  // followed immediately (PreexecEnd directly before DeadlineAbort, same
  // pid — the recovery the acceptance criteria require).
  bool recovered = false;
  const auto& ev = et.events();
  for (std::size_t i = 1; i < ev.size() && !recovered; ++i)
    recovered = ev[i].kind == EventKind::kDeadlineAbort &&
                ev[i - 1].kind == EventKind::kPreexecEnd &&
                ev[i].pid == ev[i - 1].pid;
  EXPECT_TRUE(recovered);

  // Every fallback pairs with an abort at the same instant on the same pid
  // (the checker enforces this too; keep a direct witness here).
  EXPECT_EQ(et.count(EventKind::kDeadlineAbort),
            et.count(EventKind::kModeFallback));
}

TEST(FaultSim, RetriesAreBounded) {
  for (auto name : fault::profile_names()) {
    SimMetrics m = run_profile(std::string(name).c_str(), PolicyKind::kIts);
    const std::uint64_t posts =
        m.major_faults + m.prefetch_issued + m.page_cache_misses;
    const fault::FaultProfile fp = *fault::profile_by_name(name);
    EXPECT_LE(m.io_retries, std::uint64_t{fp.max_retries} * posts)
        << "profile " << name;
    EXPECT_EQ(m.io_errors, m.io_retries) << "profile " << name;
  }
}

TEST(FaultSim, DisabledProfileLeavesResilienceCountersZero) {
  SimMetrics m = run_profile("none", PolicyKind::kIts);
  EXPECT_EQ(m.io_errors, 0u);
  EXPECT_EQ(m.io_retries, 0u);
  EXPECT_EQ(m.retry_exhausted, 0u);
  EXPECT_EQ(m.deadline_aborts, 0u);
  EXPECT_EQ(m.mode_fallbacks, 0u);
  EXPECT_EQ(m.degraded_time, 0);
  // The outage substrate is fully inert too: no health time is accounted,
  // no frames are carved, no pool traffic exists.
  EXPECT_EQ(m.health_healthy_time + m.health_degraded_time +
                m.health_offline_time + m.health_recovering_time,
            0);
  EXPECT_EQ(m.pool_stores + m.pool_hits + m.pool_drains + m.drain_bytes, 0u);
  EXPECT_EQ(m.faults_served_degraded, 0u);
}

// ---------------------------------------------------------------------------
// Device-outage state machine + fallback pool (docs/robustness.md).

TEST(OutageSim, DeterministicReplayIncludingHealthTransitions) {
  obs::EventTrace t1, t2;
  SimMetrics m1 = run_profile("outage", PolicyKind::kIts, &t1);
  SimMetrics m2 = run_profile("outage", PolicyKind::kIts, &t2);
  EXPECT_TRUE(metrics_equal(m1, m2));
  EXPECT_EQ(m1.health_offline_time, m2.health_offline_time);
  EXPECT_EQ(m1.pool_stores, m2.pool_stores);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    const obs::Event &a = t1.events()[i], &b = t2.events()[i];
    ASSERT_TRUE(a.ts == b.ts && a.kind == b.kind && a.pid == b.pid &&
                a.a == b.a && a.b == b.b && a.c == b.c)
        << "event " << i << " differs between identical outage replays";
  }
  // The outage schedule actually fired, and every transition is on record.
  EXPECT_GT(m1.health_offline_time, 0);
  EXPECT_GT(t1.count(EventKind::kHealthTransition), 0u);
}

TEST(OutageSim, AvailabilityCountersPartitionTheMakespan) {
  for (PolicyKind k : core::kAllPolicies) {
    obs::EventTrace et;
    SimMetrics m = run_profile("outage", k, &et);
    EXPECT_EQ(m.health_healthy_time + m.health_degraded_time +
                  m.health_offline_time + m.health_recovering_time,
              m.makespan)
        << core::policy_name(k);
    obs::CheckResult res = obs::check_invariants(et, m);
    EXPECT_TRUE(res.ok()) << core::policy_name(k) << ":\n" << res.summary();
  }
}

TEST(OutageSim, FaultsEnteredUnhealthyAreCounted) {
  obs::EventTrace et;
  SimMetrics m = run_profile("outage", PolicyKind::kSync, &et);
  std::uint64_t unhealthy_begins = 0;
  for (const auto& e : et.events())
    if (e.kind == EventKind::kFaultBegin && e.b != 0) ++unhealthy_begins;
  EXPECT_EQ(m.faults_served_degraded, unhealthy_begins);
  // The scheduled windows are long enough that some faults land in them.
  EXPECT_GT(m.faults_served_degraded, 0u);
}

TEST(OutageSim, HostileProfileExercisesThePool) {
  obs::EventTrace et;
  SimMetrics m = run_profile("hostile", PolicyKind::kIts, &et);
  obs::CheckResult res = obs::check_invariants(et, m);
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_EQ(et.count(EventKind::kPoolStore), m.pool_stores);
  EXPECT_EQ(et.count(EventKind::kPoolLoad), m.pool_hits);
  EXPECT_EQ(et.count(EventKind::kPoolDrain), m.pool_drains);
  EXPECT_EQ(m.drain_bytes, m.pool_drains * its::kPageSize);
}

// ---------------------------------------------------------------------------
// Golden snapshot of the canonical hostile run.
//
// One batch × all five policies under the `hostile` profile at fixed sim
// and injector seeds.  Regenerate after an intentional behaviour change:
//   ITS_UPDATE_GOLDEN=1 ./build/tests/fault_test

TEST(FaultGolden, HostileRunMatchesSnapshot) {
  std::ostringstream os;
  os << test::kFaultGoldenHeader;
  for (PolicyKind k : core::kAllPolicies)
    test::emit_fault_metrics(os, std::string(core::policy_name(k)),
                             run_profile("hostile", k));
  test::expect_golden("fault_metrics.golden", os.str(), "fault_test");
}

// ---------------------------------------------------------------------------
// Export round-trips.

TEST(FaultExport, CsvCarriesResilienceColumns) {
  core::BatchResult r;
  r.spec = &test_batch();
  SimMetrics m = run_profile("hostile", PolicyKind::kIts);
  r.by_policy.emplace(PolicyKind::kIts, m);
  std::string csv = core::metrics_csv({&r, 1});

  std::istringstream is(csv);
  std::string header, row;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  ASSERT_NE(header.find(
                "io_errors,io_retries,retry_exhausted,deadline_aborts,"
                "mode_fallbacks,degraded_ns"),
            std::string::npos);
  // Look columns up by header name so appending new counters to the CSV
  // does not invalidate this test.
  auto split = [](const std::string& line) {
    std::vector<std::string> fields;
    std::istringstream ls(line);
    for (std::string f; std::getline(ls, f, ',');) fields.push_back(f);
    return fields;
  };
  const std::vector<std::string> cols = split(header);
  const std::vector<std::string> fields = split(row);
  ASSERT_EQ(cols.size(), fields.size());
  auto field = [&](const std::string& name) {
    auto it = std::find(cols.begin(), cols.end(), name);
    EXPECT_NE(it, cols.end()) << "no CSV column named " << name;
    return std::stoull(
        fields[static_cast<std::size_t>(it - cols.begin())]);
  };
  EXPECT_EQ(field("io_errors"), m.io_errors);
  EXPECT_EQ(field("io_retries"), m.io_retries);
  EXPECT_EQ(field("retry_exhausted"), m.retry_exhausted);
  EXPECT_EQ(field("deadline_aborts"), m.deadline_aborts);
  EXPECT_EQ(field("mode_fallbacks"), m.mode_fallbacks);
  EXPECT_EQ(field("degraded_ns"),
            static_cast<std::uint64_t>(m.degraded_time));
}

TEST(FaultExport, ChromeTraceRoundTripsResilienceEvents) {
  obs::EventTrace et;
  SimMetrics m = run_profile("hostile", PolicyKind::kIts, &et);
  ASSERT_GT(m.io_errors, 0u);
  ASSERT_GT(m.deadline_aborts, 0u);

  std::stringstream json;
  obs::write_chrome_trace(json, et);
  auto parsed = obs::parse_chrome_trace(json);

  auto count_named = [&](std::string_view name) {
    std::uint64_t n = 0;
    for (const auto& e : parsed)
      if (e.ph != "M" && e.name == name) ++n;
    return n;
  };
  EXPECT_EQ(count_named("io_error"), m.io_errors);
  EXPECT_EQ(count_named("io_retry"), m.io_retries);
  EXPECT_EQ(count_named("deadline_abort"), m.deadline_aborts);
  EXPECT_EQ(count_named("mode_fallback"), m.mode_fallbacks);
}

// ---------------------------------------------------------------------------
// The checker rejects malformed resilience timelines.

TEST(FaultChecker, RejectsRetryWithoutError) {
  obs::EventTrace et;
  et.record(EventKind::kIoRetry, 100, obs::kDevicePid, 1, 1, 50);
  SimMetrics m;
  m.io_retries = 1;
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, RejectsMismatchedRetryPair) {
  obs::EventTrace et;
  et.record(EventKind::kIoError, 100, obs::kDevicePid, 1, 1, 0);
  // Wrong repost time: ts != error.ts + backoff.
  et.record(EventKind::kIoRetry, 300, obs::kDevicePid, 1, 1, 50);
  SimMetrics m;
  m.io_errors = 1;
  m.io_retries = 1;
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, RejectsDanglingError) {
  obs::EventTrace et;
  et.record(EventKind::kIoError, 100, obs::kDevicePid, 1, 1, 0);
  SimMetrics m;
  m.io_errors = 1;
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, RejectsFallbackWithoutAbort) {
  obs::EventTrace et;
  et.record(EventKind::kModeFallback, 100, 0, 1, 500, 0);
  SimMetrics m;
  m.mode_fallbacks = 1;
  m.degraded_time = 500;
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, RejectsDegradedTimeMismatch) {
  obs::EventTrace et;
  SimMetrics m;
  m.degraded_time = 123;  // no kModeFallback events back this up
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, AcceptsWellFormedResilienceTimeline) {
  obs::EventTrace et;
  SimMetrics m;
  et.record(EventKind::kIoError, 100, obs::kDevicePid, 7, 1, 0);
  et.record(EventKind::kIoRetry, 150, obs::kDevicePid, 7, 1, 50);
  m.io_errors = 1;
  m.io_retries = 1;
  obs::CheckResult res = obs::check_invariants(et, m);
  EXPECT_TRUE(res.ok()) << res.summary();
}

// ---------------------------------------------------------------------------
// ... and malformed availability timelines.

namespace hk {
constexpr std::uint64_t kHealthy = 0, kDegraded = 1, kOffline = 2,
                        kRecovering = 3;
}  // namespace hk

TEST(FaultChecker, RejectsIllegalHealthEdge) {
  obs::EventTrace et;
  // healthy → offline skips the mandatory degraded hop.
  et.record(EventKind::kHealthTransition, 100, obs::kDevicePid, hk::kHealthy,
            hk::kOffline);
  SimMetrics m;
  m.makespan = 1000;
  m.cpu_busy = 1000;
  m.health_healthy_time = 100;
  m.health_offline_time = 900;
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, RejectsBrokenHealthChain) {
  obs::EventTrace et;
  et.record(EventKind::kHealthTransition, 100, obs::kDevicePid, hk::kHealthy,
            hk::kDegraded);
  // Next edge claims to leave offline — but the device was degraded.
  et.record(EventKind::kHealthTransition, 200, obs::kDevicePid, hk::kOffline,
            hk::kRecovering);
  SimMetrics m;
  m.makespan = 1000;
  m.cpu_busy = 1000;
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, RejectsTimeInStateMismatch) {
  obs::EventTrace et;
  et.record(EventKind::kHealthTransition, 100, obs::kDevicePid, hk::kHealthy,
            hk::kDegraded);
  et.record(EventKind::kHealthTransition, 300, obs::kDevicePid, hk::kDegraded,
            hk::kHealthy);
  SimMetrics m;
  m.makespan = 1000;
  m.cpu_busy = 1000;
  m.health_healthy_time = 800;
  m.health_degraded_time = 123;  // the events say 200
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, RejectsPoolCountMismatch) {
  obs::EventTrace et;
  et.record(EventKind::kPoolStore, 100, 0, 7, 2000);
  SimMetrics m;
  m.pool_stores = 2;  // only one kPoolStore on record
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, RejectsDrainByteMismatch) {
  obs::EventTrace et;
  et.record(EventKind::kPoolDrain, 100, 0, 7, its::kPageSize);
  SimMetrics m;
  m.pool_drains = 1;
  m.drain_bytes = 17;  // the event says kPageSize
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, RejectsDegradedFaultCountMismatch) {
  obs::EventTrace et;
  et.record(EventKind::kHealthTransition, 0, obs::kDevicePid, hk::kHealthy,
            hk::kDegraded);
  et.record(EventKind::kFaultBegin, 100, 0, 7, hk::kDegraded);
  et.record(EventKind::kFaultEnd, 200, 0, 7);
  SimMetrics m;
  m.makespan = 1000;
  m.cpu_busy = 1000;
  m.major_faults = 1;
  m.health_degraded_time = 1000;
  m.faults_served_degraded = 0;  // the FaultBegin operand says 1
  EXPECT_FALSE(obs::check_invariants(et, m).ok());
}

TEST(FaultChecker, AcceptsWellFormedAvailabilityTimeline) {
  obs::EventTrace et;
  et.record(EventKind::kHealthTransition, 100, obs::kDevicePid, hk::kHealthy,
            hk::kDegraded);
  et.record(EventKind::kHealthTransition, 100, obs::kDevicePid, hk::kDegraded,
            hk::kOffline);
  et.record(EventKind::kHealthTransition, 300, obs::kDevicePid, hk::kOffline,
            hk::kRecovering);
  et.record(EventKind::kHealthTransition, 400, obs::kDevicePid,
            hk::kRecovering, hk::kHealthy);
  et.record(EventKind::kPoolStore, 150, 0, 7, 2000);
  et.record(EventKind::kPoolLoad, 200, 0, 7, 1000);
  SimMetrics m;
  m.makespan = 1000;
  m.cpu_busy = 1000;
  m.health_healthy_time = 700;  // [0,100) + [400,1000)
  m.health_offline_time = 200;  // [100,300)
  m.health_recovering_time = 100;  // [300,400)
  m.pool_stores = 1;
  m.pool_hits = 1;
  obs::CheckResult res = obs::check_invariants(et, m);
  EXPECT_TRUE(res.ok()) << res.summary();
}

}  // namespace
}  // namespace its
