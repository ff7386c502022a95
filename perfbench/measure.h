// One benchmark run: the untraced pass (end-to-end metrics) or the traced
// pass (per-layer metrics), its correctness verdict, and the JSON line the
// run prints last.
#pragma once

#include "ledger.h"
#include "spans.h"
#include "workloads.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// The end-to-end metrics the untraced pass reports, in output order.
std::span<const MetricSpec> end_to_end_metrics();

struct RunOptions {
  Workload workload = Workload::kPaperGrid;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< BENCHMARK.json's run_seconds.
  bool quick = false;     ///< One set-up and one round (one pass when traced).
  /// The committed digest for (workload, seed), when digests.txt has one;
  /// without it the rounds are only checked against each other.
  std::optional<std::uint64_t> expected_digest;
};

/// Sets up several times (median = setup_s), then repeats rounds for
/// opt.seconds and reports the end-to-end metrics.
RunResult run_untraced(const RunOptions& opt);

/// Sets up once, then runs the traced pass (ledger.h) for opt.seconds.
RunResult run_traced_pass(const RunOptions& opt, SpanLog& spans);

/// {"correct": …, "attempted": …, "failed": …, "metrics": {…}} on one line.
std::string to_json(const RunResult& r);

}  // namespace perfbench
