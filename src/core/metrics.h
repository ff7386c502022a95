// Batch-level simulation metrics.
//
// The scalar counters — the §4.2.1 idle breakdown, the makespan, fault and
// mechanism sums — are declared once, in obs::RunTotals, so the checker in
// the leaf obs module reads the same struct the simulator fills and the
// CSV report writes.  SimMetrics adds what only a whole run has: the
// per-process outcomes and the finish-time aggregates over them.
#pragma once

#include "obs/invariant_checker.h"
#include "sched/process.h"
#include "util/types.h"

#include <string>
#include <vector>

namespace its::core {

/// Snapshot of one process's outcome.
struct ProcessOutcome {
  its::Pid pid = 0;
  std::string name;
  int priority = 0;
  sched::ProcessMetrics metrics;
};

struct SimMetrics : obs::RunTotals {
  std::vector<ProcessOutcome> processes;

  /// Mean finish time over the ceil(n/2) highest-priority processes
  /// (Fig. 5a) or the floor(n/2) lowest (Fig. 5b).
  double avg_finish_top_half() const;
  double avg_finish_bottom_half() const;

  double prefetch_accuracy() const {
    return prefetch_issued
               ? static_cast<double>(prefetch_useful) / static_cast<double>(prefetch_issued)
               : 0.0;
  }
};

}  // namespace its::core
