// The ITS simulation engine.
//
// A discrete-event, trace-driven, multiprogrammed single-CPU simulator: the
// clock advances by charging instruction, cache, fault and context-switch
// costs; a completion queue delivers DMA arrivals (asynchronous fault
// wake-ups and prefetched-page arrivals).  The active IoPolicy decides, per
// major fault, whether the process busy-waits, steals the wait (prefetch /
// pre-execute), or gives way asynchronously — everything else is shared
// mechanics, so the five policies are compared on identical substrates.
//
// See DESIGN.md for the idle-time accounting contract.
#pragma once

#include "core/config.h"
#include "core/metrics.h"
#include "core/policy.h"
#include "cpu/preexec_engine.h"
#include "fault/fault_injector.h"
#include "fs/file_system.h"
#include "fs/page_cache.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "mem/tlb.h"
#include "obs/event_trace.h"
#include "sched/process.h"
#include "sched/scheduler.h"
#include "storage/device_health.h"
#include "storage/dma.h"
#include "trace/instr.h"
#include "util/types.h"
#include "vm/fallback_pool.h"
#include "vm/frame_pool.h"
#include "vm/prefetch.h"
#include "vm/pte.h"
#include "vm/swap.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

namespace its::core {

/// Thrown by Simulator::run() when a finished run breaks the §4.2.1
/// partition (obs::RunTotals::identity_violations); the message names the
/// broken identity.  Always a simulator bug, never a property of the input.
class AccountingError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

class Simulator {
 public:
  Simulator(const SimConfig& cfg, PolicyKind policy);

  /// Injects a custom policy (ablations, user extensions).
  Simulator(const SimConfig& cfg, std::unique_ptr<IoPolicy> policy);

  /// Transfers ownership of a PCB into the simulation.  Pids must be
  /// assigned 0..n-1 in insertion order (build_processes guarantees this).
  /// Throws std::invalid_argument, changing nothing, on a pid out of order
  /// or past its::kMaxProcesses.
  void add_process(std::unique_ptr<sched::Process> p);

  /// Like add_process, but defers the process's entry into the scheduler to
  /// sim-time `start` — the open-loop arrival primitive the serving
  /// scenario (serve/scenario.h) is built on.  At `start` the admission
  /// gate decides whether the process joins the run queue or retires on the
  /// spot having run nothing.  `start == 0` is exactly add_process.
  void add_process_at(its::SimTime start, std::unique_ptr<sched::Process> p);

  /// Admission policy for deferred arrivals: return false to reject (the
  /// process retires immediately with empty metrics and the retire hook is
  /// not called).  Unset admits everything.
  void set_admission_gate(std::function<bool(sched::Process&)> gate) {
    gate_ = std::move(gate);
  }

  /// Called from finish() after a process's metrics are final — the serving
  /// layer stamps request retirement (latency, SLO verdict) here.
  void set_retire_hook(std::function<void(sched::Process&)> hook) {
    retire_ = std::move(hook);
  }

  /// Runs every process to completion and returns the metrics.  Throws
  /// AccountingError if they break the §4.2.1 identity.
  SimMetrics run();

  /// Attaches a structured event recorder (nullptr detaches).  Attach
  /// before run(): the obs::InvariantChecker reconciles event counts
  /// against the final metrics and a partial timeline will not balance.
  /// With no trace attached the instrumentation is a null-pointer check
  /// per site — benches are unaffected.
  void set_trace(obs::EventTrace* trace);
  obs::EventTrace* trace() const { return trace_; }

  // Introspection for tests.
  its::SimTime now() const { return clock_; }
  const mem::CacheHierarchy& caches() const { return caches_; }
  const mem::Tlb& tlb() const { return tlb_; }
  const vm::FramePool& frames() const { return frames_; }
  const vm::SwapArea& swap() const { return swap_; }
  const storage::DmaController& dma() const { return dma_; }
  const fault::FaultInjector& fault_injector() const { return finj_; }
  const storage::DeviceHealthMonitor& device_health() const { return health_; }
  const vm::FallbackPool& fallback_pool() const { return pool_; }
  const vm::RetryPolicy& retry_policy() const { return retry_; }
  const fs::FileSystem& filesystem() const { return files_; }
  const fs::PageCache& page_cache() const { return pcache_; }
  const IoPolicy& policy() const { return *policy_; }
  const sched::Scheduler& scheduler() const { return *sched_; }

 private:
  enum class EventType : std::uint8_t {
    kWakeFault,
    kPageArrive,
    kWakeFile,
    kProcArrive,  ///< Deferred process entry (open-loop arrivals).
  };
  struct Event {
    its::SimTime time;
    std::uint64_t seq;  ///< Tie-break for determinism.
    EventType type;
    its::Pid pid;
    its::Vpn vpn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  /// Composite (pid, vpn) key for the TLB.
  static std::uint64_t key_of(its::Pid pid, its::Vpn vpn) {
    return its::pid_key(pid, vpn);
  }

  static mem::HierarchyConfig hierarchy_for(const SimConfig& cfg, const IoPolicy& p);
  static std::unique_ptr<sched::Scheduler> make_scheduler(const SimConfig& cfg);

  sched::Process& proc(its::Pid pid) { return *procs_[pid]; }

  void run_slice(sched::Process& p);
  /// Executes one memory record to completion; false if the process blocked
  /// (asynchronous fault) and the slice must end.
  bool do_mem_access(sched::Process& p, const trace::Instr& in);
  void do_translated_access(sched::Process& p, const trace::Instr& in, its::Vpn vpn);
  /// Returns true when the fault completed synchronously (retry the touch).
  bool handle_major_fault(sched::Process& p, its::Vpn vpn);
  /// Watchdog fallback: busy-waits only up to `window`, stealing what the
  /// plan allows, then aborts the in-place wait and converts the fault to
  /// asynchronous completion (wake at `done`).  Always returns false (the
  /// process blocked).
  bool abort_sync_wait(sched::Process& p, its::Vpn vpn, its::SimTime done,
                       const FaultPlan& plan, its::Duration window);
  /// Busy-waits `wait` ns in place for a transfer, stealing what `plan`
  /// allows: first the plan's prefetch, entered through the ITS kernel
  /// thread (`prefetch()` issues it and returns its walk cost), then a
  /// pre-execute episode in what is left.  The whole wait is busy-wait idle
  /// time; the part filled, capped at `wait`, is also stolen time, and is
  /// returned.
  template <typename Prefetch>
  its::Duration steal_wait(sched::Process& p, const FaultPlan& plan,
                           its::Duration wait, Prefetch prefetch);
  /// Runs one pre-execute episode of at most `budget` ns from `p`'s pc and
  /// books it (episode counters, begin/end trace).  The episode itself
  /// steals at most `steal_cap` ns of what it used: runahead's cap is the
  /// DRAM shadow it runs in, while a fault's episode steals through the
  /// wait it fills (cap 0).  Returns the ns used, 0 if it could not start.
  its::Duration run_preexec(sched::Process& p, its::Duration budget,
                            its::Duration steal_cap = 0);
  /// Takes `p` off the CPU until `done`, when a `wake` event for `key`
  /// arrives: one context switch, prepaid for the dispatch that follows.
  void block_until(sched::Process& p, its::SimTime done, EventType wake,
                   std::uint64_t key);
  /// Effective watchdog deadline for a sync busy-wait; 0 = watchdog off.
  its::Duration sync_deadline() const;
  /// Posts a demand read through the fault-aware DMA path, retrying failed
  /// attempts with the swap retry policy's backoff.  Returns the final
  /// completion time; identical to a plain post when injection is off.
  its::SimTime post_read_resilient(its::SimTime t, its::Bytes bytes,
                                   std::uint64_t tag);
  /// Serves one file read/write syscall record; false if the process
  /// blocked (asynchronous page-cache miss) — the record restarts on wake.
  bool do_file_op(sched::Process& p, const trace::Instr& in);
  /// Serves one page-cache miss within a file op; false if blocked.
  bool file_miss(sched::Process& p, std::uint64_t key, fs::FileId file,
                 std::uint64_t page_index);
  /// Issues the policy prefetch of `kind` around `victim`; returns the
  /// prefetcher's walk cost.
  its::Duration issue_prefetches(sched::Process& p, its::Vpn victim,
                                 PrefetchKind kind);
  /// File readahead: the next sequential pages of `file` after `page_index`.
  void issue_readahead(sched::Process& p, fs::FileId file,
                       std::uint64_t page_index);
  /// Inserts a page-cache page; a dirty page it evicts is written back.
  void cache_page(std::uint64_t key, its::SimTime ready_at, bool dirty = false);
  /// Allocates and pins a frame and marks the PTE in-flight (the DMA post
  /// and transfer_done_ stay with the caller).
  void begin_swap_in(sched::Process& p, its::Vpn vpn);
  void complete_swap_in(sched::Process& p, its::Vpn vpn);
  /// A transfer into `pfn` for `vpn` landed: the frame unpins and the swap
  /// area records the swap-in.
  void transfer_landed(sched::Process& p, its::Vpn vpn, its::Pfn pfn);
  /// Maps `pte` to the frame it holds and counts the page resident.
  void map_resident(sched::Process& p, vm::Pte* pte);
  /// Completion time of the transfer in flight into `pfn`; throws
  /// std::logic_error if the frame is not pinned (no transfer in flight).
  its::SimTime transfer_done(its::Pfn pfn) const;

  its::Pfn alloc_frame(its::Pid pid, its::Vpn vpn);
  void evict_frame(its::Pfn pfn);

  /// Advances the device-health FSM to `clock_` and, when the device is
  /// back to serving (healthy or recovering), drains the fallback pool to
  /// the swap device.  A no-op when the outage model is disabled.
  void poll_health();
  /// Writes every pooled page back to the swap device (recovery drain).
  void drain_pool();
  /// True once the outage model's permanent-death point has passed: pages
  /// whose only copy is on the device (and not in the pool) are lost.
  bool device_dead() const;

  /// Charges `d` of useful CPU time (compute, handlers, cache service):
  /// wait_in_place plus the cpu_busy accounting.
  void advance(sched::Process& p, its::Duration d);
  /// Lets wall-clock pass for `p` without retiring work (busy waits).  The
  /// caller accounts the time to the proper idle bucket.
  void wait_in_place(sched::Process& p, its::Duration d);
  void charge_ctx_switch(its::Pid pid);
  void charge_stall(sched::Process& p, its::Duration d);
  void push_event(its::SimTime t, EventType type, its::Pid pid, its::Vpn vpn);
  void process_due_events();
  void finish(sched::Process& p);

  SimConfig cfg_;
  std::unique_ptr<IoPolicy> policy_;
  mem::CacheHierarchy caches_;
  mem::PreexecCache px_;
  cpu::PreexecEngine engine_;
  mem::Tlb tlb_;
  vm::FramePool frames_;
  vm::SwapArea swap_;
  fault::FaultInjector finj_;
  storage::DeviceHealthMonitor health_;
  vm::FallbackPool pool_;
  vm::RetryPolicy retry_;
  fs::FileSystem files_;
  fs::PageCache pcache_;
  storage::DmaController dma_;
  vm::VaPrefetcher va_pf_;
  vm::PopPrefetcher pop_pf_;
  vm::StridePrefetcher stride_pf_;
  std::unique_ptr<sched::Scheduler> sched_;

  std::vector<std::unique_ptr<sched::Process>> procs_;
  std::vector<its::SimTime> start_at_;  ///< Per-pid deferred entry time.
  std::function<bool(sched::Process&)> gate_;
  std::function<void(sched::Process&)> retire_;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  /// Per pfn: when the transfer in flight into that frame completes.  An
  /// in-flight page always holds a pinned frame, so the frame names it.
  std::vector<its::SimTime> transfer_done_;
  std::vector<its::Vpn> cluster_;  ///< The swap cluster of the current fault.

  its::SimTime clock_ = 0;
  std::uint64_t seq_ = 0;
  bool any_ran_ = false;
  bool switch_prepaid_ = false;  ///< Next cross-process dispatch already paid.
  its::Pid last_pid_ = 0;
  unsigned finished_ = 0;
  SimMetrics m_;
  obs::EventTrace* trace_ = nullptr;
};

}  // namespace its::core
