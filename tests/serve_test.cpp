// Serving-scenario determinism + SLO accounting (`ctest -L serve`).
//
// Pins the serve/ contracts ISSUE-level acceptance depends on: the arrival
// schedule replays bit-identically from the seed, farmed sweeps emit
// byte-identical CSVs at any --jobs width, the per-tier metric snapshot
// matches tests/golden/serve_metrics.golden, the request-lifecycle
// invariants hold on a traced run (and the checker rejects corrupted
// request timelines), and its_cli's --slo-p99 gate exits with code 6.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "obs/event_trace.h"
#include "obs/invariant_checker.h"
#include "serve/arrival.h"
#include "serve/report.h"
#include "serve/scenario.h"
#include "serve/sweep.h"
#include "util/quantile.h"
#include "util/types.h"
#include "golden.h"

namespace its::serve {
namespace {

/// A small, fast serving point: a bursty 10 ms window at ~2000 req/s over
/// an overcommitted pool — a couple dozen requests, enough to exercise
/// admission, retirement and SLO scoring under every policy.
ServeConfig tiny_serve() {
  ServeConfig cfg;
  cfg.arrivals.model = ArrivalModel::kMmpp;
  cfg.arrivals.rate_rps = 2'000.0;
  cfg.duration = 10'000'000;
  cfg.admit_limit = 12;
  cfg.overcommit = 2.0;
  return cfg;
}

// ---------------------------------------------------------------------------
// Arrival schedule: pure in the config, replayable from the seed.

TEST(ServeArrivals, ScheduleReplaysBitIdenticallyFromSeed) {
  ServeConfig cfg = tiny_serve();
  std::vector<Request> a = generate_requests(cfg);
  std::vector<Request> b = generate_requests(cfg);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrive, b[i].arrive);
    EXPECT_EQ(a[i].tier, b[i].tier);
  }
}

TEST(ServeArrivals, ScheduleIsWellFormed) {
  ServeConfig cfg = tiny_serve();
  std::vector<Request> reqs = generate_requests(cfg);
  ASSERT_FALSE(reqs.empty());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(reqs[i].id, i) << "ids must be dense 0..n-1";
    EXPECT_LT(reqs[i].arrive, static_cast<its::SimTime>(cfg.duration));
    EXPECT_LT(reqs[i].tier, cfg.tiers.size());
    if (i > 0) {
      EXPECT_GE(reqs[i].arrive, reqs[i - 1].arrive);
    }
  }
}

TEST(ServeArrivals, DifferentSeedsProduceDifferentSchedules) {
  ServeConfig cfg = tiny_serve();
  std::vector<Request> a = generate_requests(cfg);
  cfg.arrivals.seed = 43;
  std::vector<Request> b = generate_requests(cfg);
  bool differ = a.size() != b.size();
  for (std::size_t i = 0; !differ && i < a.size(); ++i)
    differ = a[i].arrive != b[i].arrive || a[i].tier != b[i].tier;
  EXPECT_TRUE(differ) << "seed must steer the arrival schedule";
}

TEST(ServeArrivals, MaxRequestsCapsTheSchedule) {
  ServeConfig cfg = tiny_serve();
  cfg.max_requests = 5;
  EXPECT_EQ(generate_requests(cfg).size(), 5u);
}

TEST(ServeArrivals, PoissonAndMmppDrawDistinctStreams) {
  ServeConfig cfg = tiny_serve();
  cfg.arrivals.model = ArrivalModel::kPoisson;
  std::vector<Request> poisson = generate_requests(cfg);
  cfg.arrivals.model = ArrivalModel::kMmpp;
  std::vector<Request> mmpp = generate_requests(cfg);
  ASSERT_FALSE(poisson.empty());
  ASSERT_FALSE(mmpp.empty());
  bool differ = poisson.size() != mmpp.size();
  for (std::size_t i = 0; !differ && i < poisson.size(); ++i)
    differ = poisson[i].arrive != mmpp[i].arrive;
  EXPECT_TRUE(differ) << "burst modulation must reshape the gaps";
}

// ---------------------------------------------------------------------------
// Config plumbing.

TEST(ServeConfigTest, DefaultTiersSharesSumToOne) {
  std::vector<TierSpec> tiers = default_tiers();
  ASSERT_EQ(tiers.size(), 3u);
  double total = 0.0;
  for (const TierSpec& t : tiers) {
    EXPECT_FALSE(t.name.empty());
    EXPECT_GT(t.share, 0.0);
    EXPECT_GT(t.slo_ns, 0) << t.name << " must promise an SLO";
    total += t.share;
  }
  EXPECT_DOUBLE_EQ(total, 1.0);
  // Gold is the latency-sensitive tier: tightest SLO, highest priority.
  EXPECT_LT(tiers[0].slo_ns, tiers[1].slo_ns);
  EXPECT_LT(tiers[1].slo_ns, tiers[2].slo_ns);
  EXPECT_GT(tiers[0].priority, tiers[2].priority);
}

TEST(ServeConfigTest, DramBytesScaleInverselyWithOvercommit) {
  ServeConfig cfg = tiny_serve();
  cfg.overcommit = 1.0;
  std::uint64_t fits = serve_dram_bytes(cfg);
  cfg.overcommit = 4.0;
  std::uint64_t quarter = serve_dram_bytes(cfg);
  ASSERT_GT(fits, 0u);
  ASSERT_GT(quarter, 0u);
  // Integer page rounding allows slack; the ratio must still be ~4×.
  EXPECT_GT(fits, 3 * quarter);
  EXPECT_LT(fits, 5 * quarter);
}

// ---------------------------------------------------------------------------
// run_serve: lifecycle accounting.

TEST(ServeRun, LifecycleCountsReconcile) {
  ServeMetrics m = run_serve(tiny_serve(), core::PolicyKind::kIts);
  EXPECT_GT(m.arrivals, 0u);
  EXPECT_EQ(m.arrivals, m.admits + m.rejects);
  EXPECT_EQ(m.completed, m.admits);
  EXPECT_EQ(m.completed, m.latency.count());
  EXPECT_LE(m.slo_violations, m.completed);
  std::uint64_t arrivals = 0, admits = 0, violations = 0, completed = 0;
  for (const TierMetrics& t : m.tiers) {
    EXPECT_EQ(t.arrivals, t.admits + t.rejects);
    EXPECT_EQ(t.completed, t.latency.count());
    arrivals += t.arrivals;
    admits += t.admits;
    completed += t.completed;
    violations += t.slo_violations;
  }
  EXPECT_EQ(arrivals, m.arrivals);
  EXPECT_EQ(admits, m.admits);
  EXPECT_EQ(completed, m.completed);
  EXPECT_EQ(violations, m.slo_violations);
  EXPECT_GT(m.requests_per_sec(), 0.0);
}

TEST(ServeRun, AdmitLimitForcesRejectsUnderOverload) {
  ServeConfig cfg = tiny_serve();
  cfg.admit_limit = 2;  // throttle hard: the burst must overflow the gate
  ServeMetrics m = run_serve(cfg, core::PolicyKind::kSync);
  EXPECT_GT(m.rejects, 0u);
  EXPECT_EQ(m.arrivals, m.admits + m.rejects);
}

TEST(ServeRun, RejectsMoreRequestsThanProcessesBeforeBuildingAny) {
  // ~100k arrivals: each would be a process, past the 65536 a simulation
  // holds.  The schedule alone decides, so this fails in milliseconds.
  ServeConfig cfg = tiny_serve();
  cfg.arrivals.model = ArrivalModel::kPoisson;
  cfg.arrivals.rate_rps = 100'000.0;
  cfg.duration = 1'000'000'000;
  ASSERT_GT(generate_requests(cfg).size(), its::kMaxProcesses);
  EXPECT_THROW(run_serve(cfg, core::PolicyKind::kIts), std::invalid_argument);
  cfg.max_requests = its::kMaxProcesses;
  EXPECT_EQ(generate_requests(cfg).size(), its::kMaxProcesses);
}

// ---------------------------------------------------------------------------
// Farmed sweeps: byte-identical CSVs at any --jobs width.

TEST(ServeSweep, CsvBytesIdenticalAcrossJobsWidths) {
  ServeConfig base = tiny_serve();
  const double overcommits[] = {1.0, 2.0};
  const core::PolicyKind policies[] = {core::PolicyKind::kSync,
                                       core::PolicyKind::kIts};
  std::string serial =
      serve_csv(run_serve_sweep(base, overcommits, policies, 1));
  ASSERT_FALSE(serial.empty());
  for (unsigned jobs : {2u, 8u}) {
    std::string farmed =
        serve_csv(run_serve_sweep(base, overcommits, policies, jobs));
    EXPECT_EQ(serial, farmed) << "--jobs=" << jobs
                              << " must not change a single byte";
  }
}

TEST(ServeSweep, CsvShapeIsOneRowPerTierPlusAggregate) {
  ServeConfig base = tiny_serve();
  const double overcommits[] = {2.0};
  const core::PolicyKind policies[] = {core::PolicyKind::kIts};
  std::vector<ServePoint> points =
      run_serve_sweep(base, overcommits, policies, 1);
  ASSERT_EQ(points.size(), 1u);
  std::ostringstream os;
  write_serve_csv(os, points);
  std::istringstream is(os.str());
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header,
            "policy,overcommit,tier,slo_ns,arrivals,admits,rejects,completed,"
            "slo_violations,p50_ns,p99_ns,p999_ns,max_ns,makespan_ns");
  std::size_t rows = 0;
  std::string line;
  bool saw_all = false;
  while (std::getline(is, line)) {
    ++rows;
    saw_all = saw_all || line.find(",all,") != std::string::npos;
  }
  EXPECT_EQ(rows, base.tiers.size() + 1);
  EXPECT_TRUE(saw_all) << "aggregate `all` row missing:\n" << os.str();
}

// ---------------------------------------------------------------------------
// Golden snapshot: per-tier serving metrics at the fixed seed.

void emit_tier(std::ostream& os, const std::string& key,
               const TierMetrics& t) {
  os << key << ".arrivals=" << t.arrivals << '\n';
  os << key << ".admits=" << t.admits << '\n';
  os << key << ".rejects=" << t.rejects << '\n';
  os << key << ".completed=" << t.completed << '\n';
  os << key << ".slo_violations=" << t.slo_violations << '\n';
  os << key << ".p50=" << t.latency.quantile(0.50) << '\n';
  os << key << ".p99=" << t.latency.quantile(0.99) << '\n';
  os << key << ".p999=" << t.latency.quantile(0.999) << '\n';
  os << key << ".max=" << t.latency.max() << '\n';
}

std::string snapshot() {
  ServeConfig cfg = tiny_serve();
  std::ostringstream os;
  os << "# serve golden metrics — regenerate with ITS_UPDATE_GOLDEN=1 "
        "./serve_test\n";
  os << "# config: mmpp rate=2000 duration=10ms admit=12 overcommit=2 "
        "seed=42\n";
  for (core::PolicyKind k : core::kAllPolicies) {
    ServeMetrics m = run_serve(cfg, k);
    std::string key(core::policy_name(k));
    os << key << ".makespan=" << m.sim.makespan << '\n';
    for (const TierMetrics& t : m.tiers) emit_tier(os, key + "." + t.name, t);
    TierMetrics all;
    all.arrivals = m.arrivals;
    all.admits = m.admits;
    all.rejects = m.rejects;
    all.completed = m.completed;
    all.slo_violations = m.slo_violations;
    all.latency = m.latency;
    emit_tier(os, key + ".all", all);
  }
  return os.str();
}

TEST(ServeGolden, MetricsMatchCheckedInSnapshot) {
  if (test::fault_profile_forced())
    GTEST_SKIP() << "golden snapshot is fault-free";

  test::expect_golden("serve_metrics.golden", snapshot(), "serve_test");
}

// ---------------------------------------------------------------------------
// Request-lifecycle invariants on a traced run, plus checker negatives.

obs::EventTrace traced_run(ServeMetrics* out,
                           core::PolicyKind policy = core::PolicyKind::kIts) {
  obs::EventTrace et(std::size_t{1} << 18);
  *out = run_serve(tiny_serve(), policy, &et);
  return et;
}

TEST(ServeInvariants, TracedRunPassesTheChecker) {
  ServeMetrics m;
  obs::EventTrace et = traced_run(&m);
  EXPECT_EQ(et.count(obs::EventKind::kRequestArrive), m.arrivals);
  EXPECT_EQ(et.count(obs::EventKind::kRequestAdmit), m.admits);
  EXPECT_EQ(et.count(obs::EventKind::kRequestDone), m.completed);
  EXPECT_EQ(et.count(obs::EventKind::kSloViolation), m.slo_violations);
  obs::CheckResult res = obs::check_invariants(et, m.sim);
  EXPECT_TRUE(res.ok()) << res.summary();
}

TEST(ServeInvariants, CheckerRejectsUnreconciledLatency) {
  ServeMetrics m;
  obs::EventTrace et = traced_run(&m);
  auto& events = et.events_mut();
  auto it = std::find_if(events.begin(), events.end(), [](const obs::Event& e) {
    return e.kind == obs::EventKind::kRequestDone;
  });
  ASSERT_NE(it, events.end());
  it->b += 1;  // latency no longer equals done.ts − arrive.ts
  obs::CheckResult res = obs::check_invariants(et, m.sim);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("reconcile"), std::string::npos)
      << res.summary();
}

TEST(ServeInvariants, CheckerRejectsRetireWithoutAdmission) {
  ServeMetrics m;
  obs::EventTrace et = traced_run(&m);
  auto& events = et.events_mut();
  auto it = std::find_if(events.begin(), events.end(), [](const obs::Event& e) {
    return e.kind == obs::EventKind::kRequestAdmit;
  });
  ASSERT_NE(it, events.end());
  events.erase(it);
  obs::CheckResult res = obs::check_invariants(et, m.sim);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("admission"), std::string::npos)
      << res.summary();
}

TEST(ServeInvariants, CheckerRejectsDuplicateArrival) {
  ServeMetrics m;
  obs::EventTrace et = traced_run(&m);
  auto& events = et.events_mut();
  auto it = std::find_if(events.begin(), events.end(), [](const obs::Event& e) {
    return e.kind == obs::EventKind::kRequestArrive;
  });
  ASSERT_NE(it, events.end());
  events.insert(it, *it);  // same id arrives twice
  obs::CheckResult res = obs::check_invariants(et, m.sim);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("twice"), std::string::npos) << res.summary();
}

TEST(ServeInvariants, CheckerRejectsSloViolationWithinSlo) {
  // Plain sync burns the burst backlog as idle time, so this run reliably
  // breaks SLOs — which is exactly what this negative needs to corrupt.
  ServeMetrics m;
  obs::EventTrace et = traced_run(&m, core::PolicyKind::kSync);
  auto& events = et.events_mut();
  auto it = std::find_if(events.begin(), events.end(), [](const obs::Event& e) {
    return e.kind == obs::EventKind::kSloViolation;
  });
  ASSERT_NE(it, events.end()) << "sync run produced no SLO violations";
  it->c = it->b + 1;  // claim the SLO was wider than the latency
  obs::CheckResult res = obs::check_invariants(et, m.sim);
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.summary().find("within"), std::string::npos) << res.summary();
}

// ---------------------------------------------------------------------------
// its_cli --slo-p99 gate: exit code 6 on breach, 0 when the gate holds.

#ifdef ITS_CLI_BIN
/// Exit status of its_cli run with exactly `flags`; `err`, if given,
/// receives what it printed to stderr.
int cli_exit(const std::string& flags, std::string* err = nullptr) {
  // Pin the fault profile so a hostile CI environment cannot turn the gate
  // exit into an outage exit (codes 4/5).
  std::string cmd = std::string("ITS_FAULT_PROFILE=none \"") + ITS_CLI_BIN +
                    "\" " + flags + " 2>&1 > /dev/null";
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  std::string out;
  for (int c; (c = std::fgetc(pipe)) != EOF;) out += static_cast<char>(c);
  int rc = ::pclose(pipe);
  if (err != nullptr) *err = out;
  if (rc == -1 || !WIFEXITED(rc)) return -1;
  return WEXITSTATUS(rc);
}

int run_cli(const std::string& flags) {
  return cli_exit(
      "--scenario=serve --policy=ITS --duration-ms=5 --arrival-rate=1000 "
      "--admit-limit=8 " +
      flags);
}

TEST(ServeCli, SloGateBreachExitsSix) {
  EXPECT_EQ(run_cli("--slo-p99=1"), 6)
      << "a 1 ns p99 gate cannot hold — the CLI must exit kSloGateFailed";
}

TEST(ServeCli, SloGateHoldsExitsZero) {
  EXPECT_EQ(run_cli("--slo-p99=1000000000000"), 0);
}

// ---------------------------------------------------------------------------
// its_cli numeric flags: a value that does not fit is a usage error (exit
// 2) before any run starts, never a silent wrap.

TEST(CliFlags, OutOfRangeValuesExitTwo) {
  const std::string lk =
      (std::filesystem::temp_directory_path() / "its_cli_flags.lk").string();
  std::ofstream(lk) << " L 4000,8\n S 4008,8\n";
  const std::string serve = "--scenario=serve --policy=ITS ";
  const std::string batch = "--batch=1 --policy=ITS --length-scale=0.02 ";
  const std::string trace = "--trace=" + lk + " ";
  for (const std::string& flags : {
           // Past UINT_MAX: 2^32 + 1 used to narrow to 1.
           serve + "--admit-limit=4294967297",
           batch + "--degree=4294967297",
           // Scaled products past 2^64 - 1; 2^44 + 1 MiB used to wrap to
           // 1 MiB.
           serve + "--duration-ms=18446744073710",
           batch + "--media-us=18446744073709552",
           batch + "--ctx-us=18446744073709552",
           trace + "--dram-mb=17592186044417",
           // Signed input: "-1" used to parse as 2^64 - 1.
           serve + "--max-requests=-1",
           batch + "--seed=-1",
       })
    EXPECT_EQ(cli_exit(flags), 2) << flags;
  EXPECT_EQ(cli_exit(trace + "--dram-mb=64"), 0);
  std::filesystem::remove(lk);
}

// A non-finite or non-positive scale is a usage error naming the flag or
// generator field; each used to reach a float-to-integer cast.
TEST(CliFlags, NonFiniteOrNonPositiveScalesExitTwoNamingTheFlag) {
  const std::string batch = "--batch=1 --policy=ITS ";
  const std::pair<std::string, std::string> cases[] = {
      {batch + "--length-scale=nan", "--length-scale"},
      {batch + "--length-scale=-1", "length_scale"},
      {"--scenario=serve --policy=ITS --overcommit=nan", "--overcommit"},
  };
  for (const auto& [flags, name] : cases) {
    std::string err;
    EXPECT_EQ(cli_exit(flags, &err), 2) << flags;
    EXPECT_NE(err.find(name), std::string::npos) << flags << ": " << err;
  }
}
#endif  // ITS_CLI_BIN

}  // namespace
}  // namespace its::serve
