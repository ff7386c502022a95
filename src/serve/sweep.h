// Farmed serving sweeps — the engine behind bench/fig_serve_latency and
// bench/abl_serve_overcommit.
//
// Each (policy, overcommit) point is one independent run_serve task on the
// run farm; results are collected by submission index, so the
// sweep is byte-identical at any --jobs width (the same contract as
// core::run_grid_all — tests/serve_test.cpp pins it on the CSV bytes).
#pragma once

#include "core/policy.h"
#include "serve/scenario.h"

#include <span>
#include <vector>

namespace its::serve {

struct ServePoint {
  core::PolicyKind policy = core::PolicyKind::kIts;
  double overcommit = 1.0;
  ServeMetrics metrics;
};

/// Runs `base` at every (policy × overcommit ratio) combination on the run
/// farm.  `jobs` = 0 uses the default width, 1 the serial reference; the
/// result order is policies-major, ratios-minor regardless of width.
std::vector<ServePoint> run_serve_sweep(
    const ServeConfig& base, std::span<const double> overcommits,
    std::span<const core::PolicyKind> policies, unsigned jobs = 0);

}  // namespace its::serve
