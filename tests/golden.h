// Shared pieces of the golden-file tests: the fixed experiment config,
// the emitters whose output tests/golden/metrics.golden and
// fault_metrics.golden hold, and the compare-or-regenerate step.
//
// A golden is regenerated after an intentional behaviour change by running
// the test binary that owns it with ITS_UPDATE_GOLDEN=1, then reviewing the
// golden-file diff like any other code change.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "core/metrics.h"

#ifndef ITS_GOLDEN_DIR
#error "ITS_GOLDEN_DIR must point at the checked-in golden directory"
#endif

namespace its::test {

/// The config every batch golden is recorded at.
inline core::ExperimentConfig golden_config() {
  core::ExperimentConfig cfg;
  cfg.gen.length_scale = 0.02;
  cfg.gen.footprint_scale = 0.25;
  cfg.sim.seed = 42;
  return cfg;
}

/// True when ITS_FAULT_PROFILE forces injection over the whole suite; the
/// fault-free goldens then legitimately diverge and their tests skip.
inline bool fault_profile_forced() {
  const char* fp = std::getenv("ITS_FAULT_PROFILE");
  return fp != nullptr && std::string(fp) != "none";
}

/// metrics.golden: every batch under every policy at golden_config().
inline constexpr const char* kMetricsGoldenHeader =
    "# its_sim golden metrics — regenerate with ITS_UPDATE_GOLDEN=1 "
    "./golden_test\n"
    "# config: length_scale=0.02 footprint_scale=0.25 seed=42\n";

inline void emit_metrics(std::ostream& os, const std::string& key,
                         const core::SimMetrics& m) {
  os << key << ".makespan=" << m.makespan << '\n';
  os << key << ".cpu_busy=" << m.cpu_busy << '\n';
  os << key << ".idle.mem_stall=" << m.idle.mem_stall << '\n';
  os << key << ".idle.busy_wait=" << m.idle.busy_wait << '\n';
  os << key << ".idle.ctx_switch=" << m.idle.ctx_switch << '\n';
  os << key << ".idle.no_runnable=" << m.idle.no_runnable << '\n';
  os << key << ".major_faults=" << m.major_faults << '\n';
  os << key << ".minor_faults=" << m.minor_faults << '\n';
  os << key << ".llc_misses=" << m.llc_misses << '\n';
  os << key << ".prefetch_issued=" << m.prefetch_issued << '\n';
  os << key << ".prefetch_useful=" << m.prefetch_useful << '\n';
  os << key << ".preexec_episodes=" << m.preexec_episodes << '\n';
  os << key << ".async_switches=" << m.async_switches << '\n';
  os << key << ".evictions=" << m.evictions << '\n';
  os << key << ".stolen_time=" << m.stolen_time << '\n';
}

/// fault_metrics.golden: batch 1 under every policy with the `hostile`
/// profile at fault seed 7.
inline constexpr const char* kFaultGoldenHeader =
    "# its_sim fault golden — regenerate with ITS_UPDATE_GOLDEN=1 "
    "./fault_test\n"
    "# config: batch1 length_scale=0.02 footprint_scale=0.25 seed=42 "
    "fault=hostile fault_seed=7\n";

inline void emit_fault_metrics(std::ostream& os, const std::string& key,
                               const core::SimMetrics& m) {
  os << key << ".makespan=" << m.makespan << '\n';
  os << key << ".cpu_busy=" << m.cpu_busy << '\n';
  os << key << ".idle.busy_wait=" << m.idle.busy_wait << '\n';
  os << key << ".idle.ctx_switch=" << m.idle.ctx_switch << '\n';
  os << key << ".idle.no_runnable=" << m.idle.no_runnable << '\n';
  os << key << ".major_faults=" << m.major_faults << '\n';
  os << key << ".stolen_time=" << m.stolen_time << '\n';
  os << key << ".io_errors=" << m.io_errors << '\n';
  os << key << ".io_retries=" << m.io_retries << '\n';
  os << key << ".retry_exhausted=" << m.retry_exhausted << '\n';
  os << key << ".deadline_aborts=" << m.deadline_aborts << '\n';
  os << key << ".mode_fallbacks=" << m.mode_fallbacks << '\n';
  os << key << ".degraded_time=" << m.degraded_time << '\n';
  os << key << ".health_healthy_time=" << m.health_healthy_time << '\n';
  os << key << ".health_degraded_time=" << m.health_degraded_time << '\n';
  os << key << ".health_offline_time=" << m.health_offline_time << '\n';
  os << key << ".health_recovering_time=" << m.health_recovering_time << '\n';
  os << key << ".pool_stores=" << m.pool_stores << '\n';
  os << key << ".pool_hits=" << m.pool_hits << '\n';
  os << key << ".pool_drains=" << m.pool_drains << '\n';
  os << key << ".faults_served_degraded=" << m.faults_served_degraded << '\n';
}

/// The contents of ITS_GOLDEN_DIR/`name` ("" when it cannot be read).
inline std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(ITS_GOLDEN_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Checks `actual` against ITS_GOLDEN_DIR/`name`, or rewrites that file
/// (and skips) when ITS_UPDATE_GOLDEN=1.  `binary` is the test binary that
/// owns the golden, named in the regeneration hint.
inline void expect_golden(const std::string& name, const std::string& actual,
                          const std::string& binary) {
  const std::string path = std::string(ITS_GOLDEN_DIR) + "/" + name;
  const std::string regen = "ITS_UPDATE_GOLDEN=1 ./" + binary;
  if (const char* update = std::getenv("ITS_UPDATE_GOLDEN");
      update != nullptr && std::string(update) == "1") {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string expected = read_golden(name);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << path
                                 << " — run " << regen << " to create it";
  // gtest prints a line diff of the two multi-line strings.
  EXPECT_EQ(actual, expected) << "output diverged from " << path
                              << "; if the change is intentional, regenerate "
                                 "with " << regen << " and commit the diff";
}

}  // namespace its::test
