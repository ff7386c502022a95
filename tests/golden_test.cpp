// Golden-run regression suite.
//
// Runs every paper batch under every policy at a fixed seed and compares
// the integer SimMetrics fields against a checked-in snapshot
// (tests/golden/metrics.golden).  Any change to fault handling, idle
// accounting, prefetching, stealing or scheduling shows up as a concrete
// per-field diff instead of a silently shifted figure.  A second snapshot
// (tests/golden/metrics_csv.golden) pins the exact bytes of both CSV
// reports.
//
// To regenerate after an intentional behaviour change:
//
//   ITS_UPDATE_GOLDEN=1 ./build/tests/golden_test
//
// then review the golden-file diff like any other code change.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/batch.h"
#include "core/experiment.h"
#include "core/policy.h"
#include "core/report.h"
#include "golden.h"

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

}  // namespace
}  // namespace its::core
