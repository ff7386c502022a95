#include "serve/sweep.h"

#include "core/policy.h"
#include "farm/farm.h"
#include "serve/scenario.h"

#include <cstddef>
#include <functional>

namespace its::serve {

std::vector<ServePoint> run_serve_sweep(
    const ServeConfig& base, std::span<const double> overcommits,
    std::span<const core::PolicyKind> policies, unsigned jobs) {
  const std::size_t n = overcommits.size() * policies.size();
  std::vector<ServePoint> out(n);
  farm::run_indexed(jobs, n, [&](std::size_t i) {
    const std::size_t pi = i / overcommits.size();
    const std::size_t oi = i % overcommits.size();
    ServeConfig cfg = base;
    cfg.overcommit = overcommits[oi];
    ServePoint& pt = out[i];
    pt.policy = policies[pi];
    pt.overcommit = overcommits[oi];
    pt.metrics = run_serve(cfg, policies[pi]);
  });
  return out;
}

}  // namespace its::serve
