// Timeline well-formedness checker.
//
// Replays a recorded EventTrace against the run's final totals and
// asserts that the §4.2.1 idle-time accounting actually balances event by
// event, not just in aggregate:
//
//   1. events are time-ordered per pid (DMA completions excepted — they are
//      stamped with the future completion time at issue);
//   2. every kFaultBegin has exactly one matching kFaultEnd (same pid and
//      vpn, no two faults open at once for one pid) and no kFaultEnd closes
//      a fault that never began;
//   3. stolen time never exceeds its enclosing wait window: FaultEnd and
//      FileWait events carry (window, stolen) and stolen ≤ window;
//   4. the idle breakdown reconciles with the makespan:
//      cpu_busy + busy_wait + ctx_switch + no_runnable == makespan (within
//      `granularity`), and mem_stall ⊆ cpu_busy;
//   5. per-counter totals derived from events equal the run's counters:
//      faults, prefetch issued/useful, pre-execute episodes, async
//      switches, evictions, Σ ctx-switch cost, Σ wait windows == busy_wait,
//      Σ stolen credits == stolen_time.
//
// A trace that dropped events (buffer cap) is rejected outright — a
// truncated timeline cannot vouch for anything.
#pragma once

#include "obs/event_trace.h"
#include "util/types.h"

#include <cstdint>
#include <string>
#include <vector>

namespace its::obs {

struct CheckConfig {
  /// Tolerance (ns) for the makespan reconciliation — "one event
  /// granularity".  The simulator's accounting is exact, so the default is
  /// a single nanosecond of slack.
  its::Duration granularity = 1;
};

/// "The definition of CPU idle time is the time that the CPU's progress
/// cannot proceed because it is waiting for the completion of memory or
/// storage requests" (§4.2.1).  The breakdown stays explicit so each
/// policy's behaviour is auditable: memory stalls, un-stolen busy waits,
/// context-switch overhead, and whole-machine idle (every process blocked).
struct IdleBreakdown {
  its::Duration mem_stall = 0;    ///< Cache-miss/TLB-walk service time.
  its::Duration busy_wait = 0;    ///< Sync fault wait not converted to work.
  its::Duration ctx_switch = 0;   ///< 7 µs per switch, incl. async switches.
  its::Duration no_runnable = 0;  ///< Every process blocked on I/O.

  its::Duration total() const {
    return mem_stall + busy_wait + ctx_switch + no_runnable;
  }
};

/// Every scalar counter of a finished run.  This is the one declaration of
/// them: core::SimMetrics derives from it and adds only the per-process
/// outcomes, and the checker below reconciles a trace against it.  obs is a
/// leaf module (docs/architecture.layers), so the counters live here rather
/// than in core.  Every member is one 64-bit word, so a test can set each
/// word alone and find it in the metrics CSV
/// (ReportCsv.EveryRunTotalsWordReachesTheRow).
struct RunTotals {
  IdleBreakdown idle;
  its::SimTime makespan = 0;  ///< Time the last process finished.

  /// Total time the CPU retired work on behalf of some process (compute,
  /// fault handlers, syscalls, cache service).  Memory stalls are part of
  /// this (mem_stall ⊆ cpu_busy); busy waits, context switches and
  /// no-runnable gaps are not, so by construction
  ///   cpu_busy + busy_wait + ctx_switch + no_runnable == makespan
  /// — the identity `identity_violations` checks.
  its::Duration cpu_busy = 0;

  // Batch-wide sums (Fig. 4b / 4c).
  std::uint64_t major_faults = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t llc_misses = 0;

  // Mechanism accounting.
  // File-I/O path (zero unless traces issue read/write syscalls).
  std::uint64_t file_reads = 0;
  std::uint64_t file_writes = 0;
  std::uint64_t page_cache_hits = 0;
  std::uint64_t page_cache_misses = 0;
  std::uint64_t file_writebacks = 0;

  std::uint64_t prefetch_issued = 0;    ///< Pages posted to DMA by prefetchers.
  std::uint64_t prefetch_useful = 0;    ///< Prefetched pages later touched.
  std::uint64_t preexec_episodes = 0;
  std::uint64_t preexec_lines_warmed = 0;
  std::uint64_t async_switches = 0;     ///< Faults serviced asynchronously.
  std::uint64_t evictions = 0;          ///< Frames reclaimed under pressure.
  its::Duration stolen_time = 0;        ///< Wait time converted to work.

  // Fault-injection resilience (all zero with injection disabled).
  std::uint64_t io_errors = 0;          ///< Demand-read attempts that failed.
  std::uint64_t io_retries = 0;         ///< Failed attempts reposted (with backoff).
  std::uint64_t retry_exhausted = 0;    ///< Reads that burned the whole retry budget.
  std::uint64_t deadline_aborts = 0;    ///< Sync busy-waits aborted by the watchdog.
  std::uint64_t mode_fallbacks = 0;     ///< Aborts that fell back to async mode.
  its::Duration degraded_time = 0;      ///< ns faults spent completing in background
                                        ///< after a deadline abort.

  // Device-outage availability (all zero with the outage model disabled;
  // reconciled exactly against kHealthTransition/kPool* events by the
  // checker — see docs/robustness.md).
  its::Duration health_healthy_time = 0;    ///< ns device spent healthy.
  its::Duration health_degraded_time = 0;   ///< ns device spent degraded.
  its::Duration health_offline_time = 0;    ///< ns device spent offline.
  its::Duration health_recovering_time = 0; ///< ns device spent recovering.
  std::uint64_t pool_stores = 0;            ///< Pages compressed to the fallback pool.
  std::uint64_t pool_hits = 0;              ///< Demand reads served from the pool.
  std::uint64_t pool_drains = 0;            ///< Pooled pages drained back on recovery.
  its::Bytes drain_bytes = 0;               ///< Bytes written back by the drain.
  std::uint64_t faults_served_degraded = 0; ///< Major faults entered while unhealthy.

  /// The §4.2.1 partition: cpu_busy + busy_wait + ctx_switch + no_runnable
  /// equals the makespan (within `slack` ns either way) and mem_stall ⊆
  /// cpu_busy.  Returns one message per broken identity, empty when both
  /// hold.  O(1): every run checks it on exit.
  std::vector<std::string> identity_violations(its::Duration slack = 0) const;
};

struct CheckResult {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  /// All violations joined with newlines ("ok" when none).
  std::string summary() const;
};

/// Replays `trace` and cross-checks it against the run's totals.
CheckResult check_invariants(const EventTrace& trace, const RunTotals& totals,
                             const CheckConfig& cfg = {});

}  // namespace its::obs
