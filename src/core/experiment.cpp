#include "core/experiment.h"

#include "core/batch.h"
#include "core/config.h"
#include "core/metrics.h"
#include "core/policy.h"
#include "core/simulator.h"
#include "farm/farm.h"
#include "obs/event_trace.h"
#include "trace/trace.h"

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace its::core {

SimMetrics run_batch_policy(const BatchSpec& batch, PolicyKind policy,
                            const ExperimentConfig& cfg) {
  return run_batch_policy(batch, policy, cfg, batch_traces(batch, cfg.gen));
}

SimMetrics run_batch_policy(
    const BatchSpec& batch, PolicyKind policy, const ExperimentConfig& cfg,
    const std::vector<std::shared_ptr<const trace::Trace>>& traces,
    obs::EventTrace* etrace) {
  SimConfig sc = cfg.sim;
  sc.dram_bytes = dram_bytes_for(batch, cfg.dram_headroom, cfg.gen.footprint_scale);
  Simulator sim(sc, policy);
  sim.set_trace(etrace);
  for (auto& p : build_processes(batch, traces, sc.seed)) sim.add_process(std::move(p));
  return sim.run();
}

BatchResult run_batch_all(const BatchSpec& batch, const ExperimentConfig& cfg) {
  // Each policy's simulation is fully independent (own Simulator, shared
  // immutable traces), so the five runs are farm tasks.  Collection is
  // keyed by submission index: deterministic at any worker count.
  BatchResult r;
  r.spec = &batch;
  auto traces = batch_traces(batch, cfg.gen);
  std::vector<SimMetrics> ms = farm::run_collect<SimMetrics>(
      cfg.jobs, std::size(kAllPolicies), [&](std::size_t i) {
        return run_batch_policy(batch, kAllPolicies[i], cfg, traces);
      });
  for (std::size_t i = 0; i < std::size(kAllPolicies); ++i)
    r.by_policy.emplace(kAllPolicies[i], std::move(ms[i]));
  return r;
}

std::vector<BatchResult> run_grid_all(const ExperimentConfig& cfg) {
  const auto batches = paper_batches();

  // Phase 1: per-batch trace generation (deterministic in (workload, cfg)).
  std::vector<std::vector<std::shared_ptr<const trace::Trace>>> traces =
      farm::run_collect<std::vector<std::shared_ptr<const trace::Trace>>>(
          cfg.jobs, batches.size(),
          [&](std::size_t b) { return batch_traces(batches[b], cfg.gen); });

  // Phase 2: every (batch, policy) pair is one farm task.
  const std::size_t policies = std::size(kAllPolicies);
  std::vector<SimMetrics> ms = farm::run_collect<SimMetrics>(
      cfg.jobs, batches.size() * policies, [&](std::size_t i) {
        std::size_t b = i / policies;
        return run_batch_policy(batches[b], kAllPolicies[i % policies], cfg,
                                traces[b]);
      });

  std::vector<BatchResult> grid(batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    grid[b].spec = &batches[b];
    for (std::size_t p = 0; p < policies; ++p)
      grid[b].by_policy.emplace(kAllPolicies[p], std::move(ms[b * policies + p]));
  }
  return grid;
}

std::vector<SimMetrics> run_sim_tasks(
    std::size_t n, unsigned jobs,
    const std::function<SimMetrics(std::size_t)>& task) {
  return farm::run_collect<SimMetrics>(jobs, n, task);
}

double BatchResult::normalized(PolicyKind k, double (*extract)(const SimMetrics&)) const {
  double base = extract(by_policy.at(PolicyKind::kIts));
  double v = extract(by_policy.at(k));
  return base > 0.0 ? v / base : 0.0;
}

RepeatedMetrics run_batch_policy_repeated(const BatchSpec& batch, PolicyKind policy,
                                          const ExperimentConfig& cfg,
                                          unsigned repeats) {
  RepeatedMetrics out;
  auto traces = batch_traces(batch, cfg.gen);
  // The repeats are independent (seed offset per run), so they farm out;
  // folding into the RunningStats afterwards in submission order keeps the
  // floating-point accumulation identical to the serial loop.
  std::vector<SimMetrics> ms =
      run_sim_tasks(repeats, cfg.jobs, [&](std::size_t i) {
        ExperimentConfig c = cfg;
        c.sim.seed = cfg.sim.seed + i;
        return run_batch_policy(batch, policy, c, traces);
      });
  for (const SimMetrics& m : ms) {
    out.idle_total.add(static_cast<double>(m.idle.total()));
    out.major_faults.add(static_cast<double>(m.major_faults));
    out.llc_misses.add(static_cast<double>(m.llc_misses));
    out.top_finish.add(m.avg_finish_top_half());
    out.bottom_finish.add(m.avg_finish_bottom_half());
  }
  return out;
}

double total_idle_ns(const SimMetrics& m) {
  return static_cast<double>(m.idle.total());
}
double major_faults(const SimMetrics& m) { return static_cast<double>(m.major_faults); }
double llc_misses(const SimMetrics& m) { return static_cast<double>(m.llc_misses); }
double top_half_finish(const SimMetrics& m) { return m.avg_finish_top_half(); }
double bottom_half_finish(const SimMetrics& m) { return m.avg_finish_bottom_half(); }

}  // namespace its::core
