// Observability-layer tests: EventTrace mechanics, the InvariantChecker
// over every paper batch × policy and over fuzzed configurations, rejection
// of corrupted/truncated timelines, and the Chrome JSON round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

#include "core/batch.h"
#include "core/experiment.h"
#include "obs/event_trace.h"
#include "obs/invariant_checker.h"
#include "obs/trace_json.h"
#include "golden.h"

namespace its::obs {
namespace {

using core::ExperimentConfig;
using core::PolicyKind;
using core::SimMetrics;

ExperimentConfig tiny_experiment() {
  ExperimentConfig cfg;
  cfg.gen.length_scale = 0.02;
  cfg.gen.footprint_scale = 0.25;
  return cfg;
}

SimMetrics run_traced(std::size_t batch_idx, PolicyKind policy,
                      const ExperimentConfig& cfg, EventTrace& et) {
  const core::BatchSpec& b = core::paper_batches()[batch_idx];
  return core::run_batch_policy(b, policy, cfg,
                                core::batch_traces(b, cfg.gen), &et);
}

// ---------------------------------------------------------------------------
// EventTrace mechanics.

TEST(EventTrace, RecordsAndAggregates) {
  EventTrace et(8);
  et.set_policy(3);
  et.record(EventKind::kCtxSwitch, 10, 1, 0, 7000);
  et.record(EventKind::kCtxSwitch, 20, 2, 0, 7000);
  et.record(EventKind::kFaultEnd, 30, 1, 99, 500, 200);
  EXPECT_EQ(et.size(), 3u);
  EXPECT_EQ(et.count(EventKind::kCtxSwitch), 2u);
  EXPECT_EQ(et.sum_b(EventKind::kCtxSwitch), 14000u);
  EXPECT_EQ(et.sum_c(EventKind::kFaultEnd), 200u);
  EXPECT_EQ(et.events()[0].policy, 3);
  EXPECT_EQ(et.dropped(), 0u);
  et.clear();
  EXPECT_TRUE(et.empty());
}

TEST(EventTrace, CapCountsDroppedInsteadOfGrowing) {
  EventTrace et(4, 2);
  for (int i = 0; i < 5; ++i)
    et.record(EventKind::kEvict, static_cast<its::SimTime>(i), 0,
              static_cast<std::uint64_t>(i));
  EXPECT_EQ(et.size(), 2u);
  EXPECT_EQ(et.dropped(), 3u);
}

TEST(EventTrace, KindNamesAreUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kNumEventKinds; ++i) {
    std::string_view n = kind_name(static_cast<EventKind>(i));
    EXPECT_FALSE(n.empty()) << i;
    EXPECT_TRUE(names.insert(n).second) << "duplicate name " << n;
  }
}

// ---------------------------------------------------------------------------
// Invariants hold on every paper batch under every policy.

class InvariantsGrid
    : public ::testing::TestWithParam<std::tuple<int, PolicyKind>> {};

TEST_P(InvariantsGrid, TimelineReconcilesWithMetrics) {
  auto [batch_idx, policy] = GetParam();
  EventTrace et(std::size_t{1} << 18);
  SimMetrics m = run_traced(static_cast<std::size_t>(batch_idx), policy,
                            tiny_experiment(), et);
  ASSERT_GT(et.size(), 0u);
  CheckResult res = check_invariants(et, m);
  EXPECT_TRUE(res.ok()) << res.summary();
}

INSTANTIATE_TEST_SUITE_P(
    AllBatchesAllPolicies, InvariantsGrid,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::ValuesIn(core::kAllPolicies)),
    [](const auto& param_info) {
      return "batch" + std::to_string(std::get<0>(param_info.param)) + "_" +
             std::string(core::policy_name(std::get<1>(param_info.param)));
    });

// ---------------------------------------------------------------------------
// Fuzz: random configurations (policy, scheduler, clustering, prefetch
// degree, DRAM pressure, seed) all produce invariant-clean timelines.

class InvariantsFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(InvariantsFuzz, RandomConfigTimelineReconciles) {
  std::mt19937_64 rng(0x0b5eed00ull + GetParam());
  ExperimentConfig cfg = tiny_experiment();
  cfg.gen.length_scale = 0.01;
  cfg.sim.seed = rng();
  cfg.sim.swap_cluster_pages = 1u << (rng() % 3);        // 1, 2 or 4
  cfg.sim.va_prefetch.degree = 1 + static_cast<unsigned>(rng() % 12);
  cfg.sim.ctx_switch_cost = 1000 + rng() % 12000;
  cfg.sim.ull.read_latency = 1000 + rng() % 9000;
  cfg.sim.ull.write_latency = cfg.sim.ull.read_latency;
  if (rng() % 2) cfg.sim.scheduler = core::SchedulerKind::kCfs;
  // Occasionally starve DRAM so eviction/steal paths get exercised hard.
  cfg.dram_headroom = (rng() % 3 == 0) ? 0.45 : 1.12;
  PolicyKind policy = core::kAllPolicies[rng() % std::size(core::kAllPolicies)];
  std::size_t batch_idx = rng() % core::paper_batches().size();

  EventTrace et(std::size_t{1} << 18);
  SimMetrics m = run_traced(batch_idx, policy, cfg, et);
  ASSERT_GT(et.size(), 0u);
  CheckResult res = check_invariants(et, m);
  EXPECT_TRUE(res.ok())
      << "policy=" << core::policy_name(policy) << " batch=" << batch_idx
      << " cluster=" << cfg.sim.swap_cluster_pages
      << " headroom=" << cfg.dram_headroom << '\n'
      << res.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantsFuzz, ::testing::Range(0u, 24u));

// ---------------------------------------------------------------------------
// The checker must reject broken timelines, not just accept good ones.

TEST(InvariantChecker, RejectsDroppedFaultEnd) {
  EventTrace et(std::size_t{1} << 18);
  SimMetrics m = run_traced(1, PolicyKind::kSync, tiny_experiment(), et);
  CheckResult clean = check_invariants(et, m);
  ASSERT_TRUE(clean.ok()) << clean.summary();

  auto& events = et.events_mut();
  auto it = std::find_if(events.begin(), events.end(), [](const Event& e) {
    return e.kind == EventKind::kFaultEnd;
  });
  ASSERT_NE(it, events.end()) << "expected at least one fault in the run";
  events.erase(it);
  CheckResult res = check_invariants(et, m);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("fault"), std::string::npos) << res.summary();
}

TEST(InvariantChecker, RejectsOutOfOrderTimeline) {
  EventTrace et(std::size_t{1} << 18);
  SimMetrics m = run_traced(1, PolicyKind::kIts, tiny_experiment(), et);
  auto& events = et.events_mut();
  // Find two same-pid events (DMA completions are exempt from ordering)
  // and swap their timestamps.
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i].kind == EventKind::kDmaComplete ||
        events[i - 1].kind == EventKind::kDmaComplete)
      continue;
    if (events[i].pid == events[i - 1].pid &&
        events[i].ts > events[i - 1].ts) {
      std::swap(events[i].ts, events[i - 1].ts);
      break;
    }
  }
  EXPECT_FALSE(check_invariants(et, m).ok());
}

TEST(InvariantChecker, RejectsUnknownKindByte) {
  EventTrace et(std::size_t{1} << 18);
  SimMetrics m = run_traced(1, PolicyKind::kIts, tiny_experiment(), et);
  ASSERT_FALSE(et.empty());
  et.events_mut()[0].kind = static_cast<EventKind>(200);
  CheckResult res = check_invariants(et, m);
  EXPECT_NE(res.summary().find("event 0: unknown EventKind 200"),
            std::string::npos)
      << res.summary();
}

TEST(InvariantChecker, RejectsPerturbedMetrics) {
  EventTrace et(std::size_t{1} << 18);
  SimMetrics m = run_traced(1, PolicyKind::kIts, tiny_experiment(), et);
  ASSERT_TRUE(check_invariants(et, m).ok());
  SimMetrics bad = m;
  bad.major_faults += 1;
  EXPECT_FALSE(check_invariants(et, bad).ok());
  bad = m;
  bad.stolen_time += 12345;
  EXPECT_FALSE(check_invariants(et, bad).ok());
  bad = m;
  bad.idle.busy_wait += 777;
  EXPECT_FALSE(check_invariants(et, bad).ok());
}

TEST(InvariantChecker, RejectsTruncatedTrace) {
  EventTrace et(16, 16);  // absurdly small cap: guaranteed to drop events
  SimMetrics m = run_traced(0, PolicyKind::kSync, tiny_experiment(), et);
  ASSERT_GT(et.dropped(), 0u);
  CheckResult res = check_invariants(et, m);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("dropped"), std::string::npos) << res.summary();
}

TEST(InvariantChecker, DmaCompletionsStampedAfterIssue) {
  EventTrace et(std::size_t{1} << 18);
  run_traced(1, PolicyKind::kAsync, tiny_experiment(), et);
  std::size_t dma = 0;
  for (const Event& e : et.events()) {
    if (e.kind != EventKind::kDmaComplete) continue;
    ++dma;
    EXPECT_EQ(e.pid, kDevicePid);
    EXPECT_GE(e.ts, static_cast<its::SimTime>(e.b))
        << "completion before issue";
    EXPECT_GT(e.a, 0u) << "zero-byte DMA";
  }
  EXPECT_GT(dma, 0u);
}

// ---------------------------------------------------------------------------
// Chrome trace JSON round-trip.

TEST(TraceJson, RoundTripPreservesEveryEvent) {
  EventTrace et(std::size_t{1} << 18);
  SimMetrics m = run_traced(1, PolicyKind::kIts, tiny_experiment(), et);
  ASSERT_TRUE(check_invariants(et, m).ok());

  ExportOptions opts;
  opts.policy = "ITS";
  opts.process_names = {"wrf", "blender", "community",
                        "caffe", "deepsjeng", "random_walk"};
  std::stringstream ss;
  write_chrome_trace(ss, et, opts);

  std::vector<ParsedEvent> parsed = parse_chrome_trace(ss);
  std::size_t meta = 0, data = 0, begins = 0, ends = 0;
  for (const ParsedEvent& e : parsed) {
    if (e.ph == "M") {
      ++meta;
      continue;
    }
    ++data;
    if (e.ph == "B") ++begins;
    if (e.ph == "E") ++ends;
  }
  // Every recorded event maps to exactly one non-metadata entry except
  // fault/pre-execute windows, which become a B/E pair.
  std::uint64_t windows = et.count(EventKind::kFaultBegin) +
                          et.count(EventKind::kFaultEnd) +
                          et.count(EventKind::kPreexecBegin) +
                          et.count(EventKind::kPreexecEnd);
  EXPECT_EQ(data, et.size());
  EXPECT_EQ(begins + ends, windows);
  EXPECT_EQ(begins, ends);
  EXPECT_GE(meta, opts.process_names.size());
  EXPECT_EQ(parsed.front().ph, "M");
}

TEST(TraceJson, TimestampsKeepNanosecondPrecision) {
  EventTrace et;
  et.record(EventKind::kEvict, 1234567, 0, 1, 2);  // 1234.567 µs
  et.record(EventKind::kEvict, 1, 0, 1, 2);        // 0.001 µs
  std::stringstream ss;
  write_chrome_trace(ss, et);
  std::vector<ParsedEvent> parsed = parse_chrome_trace(ss);
  std::vector<double> ts;
  for (const ParsedEvent& e : parsed)
    if (e.ph != "M") ts.push_back(e.ts_us);
  ASSERT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts[0], 1234.567);
  EXPECT_DOUBLE_EQ(ts[1], 0.001);
}

TEST(TraceJson, EscapesProcessNames) {
  EventTrace et;
  et.record(EventKind::kSchedPick, 5, 0);
  ExportOptions opts;
  opts.policy = "ITS";
  opts.process_names = {"we\"ird\\name"};
  std::stringstream ss;
  write_chrome_trace(ss, et, opts);
  std::string out = ss.str();
  EXPECT_NE(out.find("we\\\"ird\\\\name"), std::string::npos);
  // Still parseable.
  std::stringstream in(out);
  EXPECT_FALSE(parse_chrome_trace(in).empty());
}

// Pins the per-kind Chrome mapping (slice name, phase, track) byte for
// byte: one event of every kind plus one out-of-range kind byte, as a
// corrupted trace would carry.  Regenerate after an intentional change:
//   ITS_UPDATE_GOLDEN=1 ./build/tests/obs_test
TEST(TraceJson, EveryKindMatchesGolden) {
  const auto bad = static_cast<EventKind>(200);
  EXPECT_EQ(kind_name(bad), "unknown");

  EventTrace et;
  for (std::size_t i = 0; i <= kNumEventKinds; ++i) {
    const EventKind k = i < kNumEventKinds ? static_cast<EventKind>(i) : bad;
    const std::uint64_t n = i + 1;
    et.record(k, 10000 * n + 7, static_cast<its::Pid>(i % 3), n, 100 * n,
              1000 * n);
  }
  ExportOptions opts;
  opts.policy = "ITS";
  opts.process_names = {"p0", "p1"};
  std::ostringstream os;
  write_chrome_trace(os, et, opts);
  test::expect_golden("chrome_kinds.golden", os.str(), "obs_test");
}

}  // namespace
}  // namespace its::obs
