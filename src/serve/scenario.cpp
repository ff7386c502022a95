#include "serve/scenario.h"

#include "core/config.h"
#include "core/policy.h"
#include "core/simulator.h"
#include "fault/fault_injector.h"
#include "obs/event_trace.h"
#include "sched/process.h"
#include "serve/arrival.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/rng.h"
#include "util/types.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace its::serve {

std::vector<TierSpec> default_tiers() {
  // Gold pays for latency on a small working set; bronze's data-intensive
  // requests are exactly the memory hogs an overcommitted pool punishes.
  return {
      {"gold", trace::WorkloadId::kDeepSjeng, 0.5, 60, 2'000'000},
      {"silver", trace::WorkloadId::kXz, 0.3, 40, 8'000'000},
      {"bronze", trace::WorkloadId::kRandomWalk, 0.2, 20, 30'000'000},
  };
}

ServeConfig::ServeConfig() {
  // Serving requests run mini-scale templates; scale the SCHED_RR slice
  // range the same way ExperimentConfig does so interleaving matches.
  sim.slice_min = 50_us;
  sim.slice_max = 8_ms;
  // CI's hostile job forces every scenario under a named fault profile,
  // exactly like the batch experiments (docs/robustness.md).
  if (const char* env = std::getenv("ITS_FAULT_PROFILE"))
    if (auto p = fault::profile_by_name(env)) sim.fault = *p;
}

namespace {

double total_share(const std::vector<TierSpec>& tiers) {
  double s = 0.0;
  for (const TierSpec& t : tiers) s += std::max(t.share, 0.0);
  return s > 0.0 ? s : 1.0;
}

}  // namespace

std::vector<Request> generate_requests(const ServeConfig& cfg) {
  ArrivalGenerator gaps(cfg.arrivals);
  // Tier draws ride an independent stream of the same seed so adding a
  // tier never perturbs the arrival instants.
  util::Rng tier_rng(cfg.arrivals.seed, 0x73657276656e74ull);
  const double shares = total_share(cfg.tiers);

  std::vector<Request> out;
  // The scenario clock starts at 0, so the open-loop window's Duration is
  // also the last admissible arrival instant.
  const its::SimTime horizon = its::SimTime{0} + cfg.duration;
  its::SimTime t = 0;
  for (;;) {
    t += gaps.next_gap();
    if (t > horizon) break;
    if (cfg.max_requests != 0 && out.size() >= cfg.max_requests) break;
    const double r = tier_rng.next_double() * shares;
    double cum = 0.0;
    std::uint32_t tier = 0;
    for (std::uint32_t i = 0; i < cfg.tiers.size(); ++i) {
      cum += std::max(cfg.tiers[i].share, 0.0);
      if (r < cum) {
        tier = i;
        break;
      }
      tier = i;  // numeric slack lands in the last tier
    }
    out.push_back(Request{out.size(), t, tier});
  }
  return out;
}

std::uint64_t serve_dram_bytes(const ServeConfig& cfg) {
  const double shares = total_share(cfg.tiers);
  double mean_hot = 0.0;
  for (const TierSpec& t : cfg.tiers) {
    const trace::WorkloadSpec& spec = trace::spec_for(t.workload);
    mean_hot += (std::max(t.share, 0.0) / shares) *
                // its-lint: allow(units-narrow): share-weighted sizing estimate
                static_cast<double>(spec.hot_bytes) * cfg.footprint_scale;
  }
  const double slots = cfg.admit_limit != 0 ? cfg.admit_limit : 1.0;
  const double bytes = mean_hot * slots / std::max(cfg.overcommit, 0.01);
  const std::uint64_t page_aligned =
      (static_cast<std::uint64_t>(bytes) + its::kPageSize - 1) &
      ~(its::kPageSize - 1);
  // Floor: enough frames that pinned in-flight transfers can never starve
  // the allocator even under the widest prefetch degree.
  return std::max<std::uint64_t>(page_aligned, 64 * its::kPageSize);
}

double ServeMetrics::requests_per_sec() const {
  if (sim.makespan == 0) return 0.0;
  return static_cast<double>(completed) /
         // its-lint: allow(units-narrow): throughput rate, not ns accounting
         (static_cast<double>(sim.makespan) * 1e-9);
}

ServeMetrics run_serve(const ServeConfig& cfg, core::PolicyKind policy,
                       obs::EventTrace* etrace) {
  using obs::EventKind;

  ServeMetrics out;
  for (const TierSpec& t : cfg.tiers) {
    TierMetrics tm;
    tm.name = t.name;
    tm.slo_ns = t.slo_ns;
    out.tiers.push_back(std::move(tm));
  }

  const std::vector<Request> reqs = generate_requests(cfg);
  if (reqs.empty()) return out;
  // Each request is a process; fail before building any of them.
  if (reqs.size() > its::kMaxProcesses)
    throw std::invalid_argument("serve: " + std::to_string(reqs.size()) +
                                " requests, but a simulation holds at most 65536 "
                                "processes (cap them with max_requests)");

  core::SimConfig sim_cfg = cfg.sim;
  sim_cfg.dram_bytes = serve_dram_bytes(cfg);
  core::Simulator sim(sim_cfg, policy);
  if (etrace != nullptr) sim.set_trace(etrace);

  // One template trace per tier, shared by every request of that tier —
  // each process still owns its address space and page tables.
  std::vector<std::shared_ptr<const trace::Trace>> templates;
  templates.reserve(cfg.tiers.size());
  for (const TierSpec& t : cfg.tiers) {
    trace::GeneratorConfig g;
    g.footprint_scale = cfg.footprint_scale;
    g.length_scale = cfg.length_scale;
    g.seed = cfg.arrivals.seed;
    templates.push_back(
        std::make_shared<trace::Trace>(trace::generate(t.workload, g)));
  }

  for (const Request& rq : reqs) {
    const TierSpec& t = cfg.tiers[rq.tier];
    sim.add_process_at(
        rq.arrive,
        std::make_unique<sched::Process>(
            static_cast<its::Pid>(rq.id),
            t.name + "-" + std::to_string(rq.id), t.priority,
            templates[rq.tier]));
  }

  // The admission gate and retire hook close the request lifecycle: the
  // recorded arrive timestamp is the one retirement reconciles against, so
  // the checker's latency invariant holds to the nanosecond.
  std::vector<its::SimTime> arrived_at(reqs.size(), 0);
  unsigned in_flight = 0;
  sim.set_admission_gate([&](sched::Process& p) {
    const Request& rq = reqs[p.pid()];
    TierMetrics& tm = out.tiers[rq.tier];
    ++tm.arrivals;
    ++out.arrivals;
    if (etrace != nullptr)
      etrace->record(EventKind::kRequestArrive, sim.now(), p.pid(), rq.id,
                     rq.tier);
    if (cfg.admit_limit != 0 && in_flight >= cfg.admit_limit) {
      ++tm.rejects;
      ++out.rejects;
      return false;
    }
    ++in_flight;
    ++tm.admits;
    ++out.admits;
    arrived_at[p.pid()] = sim.now();
    if (etrace != nullptr)
      etrace->record(EventKind::kRequestAdmit, sim.now(), p.pid(), rq.id,
                     rq.tier);
    return true;
  });
  sim.set_retire_hook([&](sched::Process& p) {
    const Request& rq = reqs[p.pid()];
    const TierSpec& t = cfg.tiers[rq.tier];
    TierMetrics& tm = out.tiers[rq.tier];
    --in_flight;
    const its::Duration lat = sim.now() - arrived_at[p.pid()];
    ++tm.completed;
    ++out.completed;
    tm.latency.add(lat);
    out.latency.add(lat);
    if (etrace != nullptr)
      etrace->record(EventKind::kRequestDone, sim.now(), p.pid(), rq.id, lat,
                     rq.tier);
    if (t.slo_ns != 0 && lat > t.slo_ns) {
      ++tm.slo_violations;
      ++out.slo_violations;
      if (etrace != nullptr)
        etrace->record(EventKind::kSloViolation, sim.now(), p.pid(), rq.id,
                       lat, t.slo_ns);
    }
  });

  out.sim = sim.run();
  return out;
}

}  // namespace its::serve
