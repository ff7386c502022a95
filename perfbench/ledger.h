// The traced pass: exact per-layer counts and replayed per-call costs.
//
// Layers are measured from outside the simulator only.  Counts come from
// SimMetrics, the Simulator accessors and the obs::EventTrace of a traced
// run.  A layer's `*_ns` is the host time of calls into its public
// functions, replayed on inputs taken from that same simulation: the
// processes' own address stream and the event operands the trace recorded.
// A layer's share is count × ns ÷ the untraced wall of the same
// simulations; whatever the shares do not cover is reported as
// core.residual_share, not forced to balance.
#pragma once

#include "spans.h"
#include "workloads.h"

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric the traced pass reports, in output order.
std::span<const MetricSpec> per_layer_metrics();

/// One run's outcome: what the result line reports, plus the digest and
/// the failures behind it.
struct RunResult {
  std::uint64_t attempted = 0;  ///< Simulations run.
  std::uint64_t failed = 0;     ///< Simulations whose checks failed.
  std::uint64_t digest = 0;     ///< Digest of the first round (or pass).
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  bool correct() const { return failed == 0 && errors.empty(); }
};

/// Runs passes over `in` for about `seconds` (at least one).  A pass runs
/// each of the first Inputs::ledger_sims simulations untraced and then
/// traced, checks the traced run with obs::check_invariants, and requires
/// every run's digest to agree; the first pass also replays each layer on
/// each of those simulations.  A farmed workload's pass starts with one
/// farmed round of all its simulations, for farm.efficiency and the digest.
/// `quick` runs one pass with short replays.
RunResult run_traced(const Inputs& in, double seconds, bool quick,
                        SpanLog& spans);

}  // namespace perfbench
