#include "core/report.h"

#include "core/experiment.h"
#include "core/metrics.h"
#include "core/policy.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace its::core {

namespace {

using M = SimMetrics;

/// One metrics-CSV column after `batch,policy`: its header name and how
/// to read it from a run.  The one list below writes both the header and
/// every row, so the two cannot disagree on order.
struct Column {
  std::string_view name;
  std::uint64_t (*get)(const M&);
};

constexpr Column kMetricColumns[] = {
    {"cpu_busy_ns", [](const M& m) { return m.cpu_busy; }},
    {"idle_total_ns", [](const M& m) { return m.idle.total(); }},
    {"mem_stall_ns", [](const M& m) { return m.idle.mem_stall; }},
    {"busy_wait_ns", [](const M& m) { return m.idle.busy_wait; }},
    {"ctx_switch_ns", [](const M& m) { return m.idle.ctx_switch; }},
    {"no_runnable_ns", [](const M& m) { return m.idle.no_runnable; }},
    {"major_faults", [](const M& m) { return m.major_faults; }},
    {"minor_faults", [](const M& m) { return m.minor_faults; }},
    {"llc_misses", [](const M& m) { return m.llc_misses; }},
    {"prefetch_issued", [](const M& m) { return m.prefetch_issued; }},
    {"prefetch_useful", [](const M& m) { return m.prefetch_useful; }},
    {"preexec_episodes", [](const M& m) { return m.preexec_episodes; }},
    {"preexec_lines_warmed", [](const M& m) { return m.preexec_lines_warmed; }},
    {"async_switches", [](const M& m) { return m.async_switches; }},
    {"evictions", [](const M& m) { return m.evictions; }},
    {"stolen_ns", [](const M& m) { return m.stolen_time; }},
    {"makespan_ns", [](const M& m) { return m.makespan; }},
    {"top50_finish_ns", [](const M& m) {
       return static_cast<std::uint64_t>(m.avg_finish_top_half());
     }},
    {"bottom50_finish_ns", [](const M& m) {
       return static_cast<std::uint64_t>(m.avg_finish_bottom_half());
     }},
    {"io_errors", [](const M& m) { return m.io_errors; }},
    {"io_retries", [](const M& m) { return m.io_retries; }},
    {"retry_exhausted", [](const M& m) { return m.retry_exhausted; }},
    {"deadline_aborts", [](const M& m) { return m.deadline_aborts; }},
    {"mode_fallbacks", [](const M& m) { return m.mode_fallbacks; }},
    {"degraded_ns", [](const M& m) { return m.degraded_time; }},
    {"file_reads", [](const M& m) { return m.file_reads; }},
    {"file_writes", [](const M& m) { return m.file_writes; }},
    {"file_writebacks", [](const M& m) { return m.file_writebacks; }},
    {"page_cache_hits", [](const M& m) { return m.page_cache_hits; }},
    {"page_cache_misses", [](const M& m) { return m.page_cache_misses; }},
    {"health_healthy_time_ns",
     [](const M& m) { return m.health_healthy_time; }},
    {"health_degraded_time_ns",
     [](const M& m) { return m.health_degraded_time; }},
    {"health_offline_time_ns",
     [](const M& m) { return m.health_offline_time; }},
    {"health_recovering_time_ns",
     [](const M& m) { return m.health_recovering_time; }},
    {"pool_stores", [](const M& m) { return m.pool_stores; }},
    {"pool_hits", [](const M& m) { return m.pool_hits; }},
    {"pool_drains", [](const M& m) { return m.pool_drains; }},
    {"drain_bytes", [](const M& m) { return m.drain_bytes; }},
    {"faults_served_degraded",
     [](const M& m) { return m.faults_served_degraded; }},
};

}  // namespace

void write_metrics_csv(std::ostream& os, std::span<const BatchResult> grid) {
  os << "batch,policy";
  for (const Column& c : kMetricColumns) os << ',' << c.name;
  os << '\n';
  for (const auto& r : grid) {
    for (PolicyKind k : kAllPolicies) {
      auto it = r.by_policy.find(k);
      if (it == r.by_policy.end()) continue;
      os << r.spec->name << ',' << policy_name(k);
      for (const Column& c : kMetricColumns) os << ',' << c.get(it->second);
      os << '\n';
    }
  }
}

void write_processes_csv(std::ostream& os, std::span<const BatchResult> grid) {
  os << "batch,policy,pid,process,priority,finish_ns,major_faults,minor_faults,"
        "llc_misses,mem_stall_ns,busy_wait_ns,stolen_ns\n";
  for (const auto& r : grid) {
    for (PolicyKind k : kAllPolicies) {
      auto it = r.by_policy.find(k);
      if (it == r.by_policy.end()) continue;
      for (const auto& p : it->second.processes) {
        os << r.spec->name << ',' << policy_name(k) << ',' << p.pid << ','
           << p.name << ',' << p.priority << ',' << p.metrics.finish_time << ','
           << p.metrics.major_faults << ',' << p.metrics.minor_faults << ','
           << p.metrics.llc_misses << ',' << p.metrics.mem_stall << ','
           << p.metrics.busy_wait << ',' << p.metrics.stolen << '\n';
      }
    }
  }
}

std::string metrics_csv(std::span<const BatchResult> grid) {
  std::ostringstream ss;
  write_metrics_csv(ss, grid);
  return ss.str();
}

void save_csv_files(const std::string& dir, std::span<const BatchResult> grid) {
  std::filesystem::create_directories(dir);
  auto open = [&](const std::string& name) {
    std::ofstream f(dir + "/" + name);
    if (!f) throw std::runtime_error("report: cannot write " + dir + "/" + name);
    return f;
  };
  auto m = open("its_metrics.csv");
  write_metrics_csv(m, grid);
  auto p = open("its_processes.csv");
  write_processes_csv(p, grid);
}

}  // namespace its::core
