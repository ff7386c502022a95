#include "core/simulator.h"

#include "core/config.h"
#include "core/metrics.h"
#include "core/policy.h"
#include "cpu/preexec_engine.h"
#include "fs/file_system.h"
#include "fs/page_cache.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "obs/event_trace.h"
#include "sched/cfs.h"
#include "sched/process.h"
#include "sched/scheduler.h"
#include "storage/device_health.h"
#include "storage/dma.h"
#include "trace/instr.h"
#include "util/types.h"
#include "vm/fallback_pool.h"
#include "vm/frame_pool.h"
#include "vm/mm.h"
#include "vm/prefetch.h"
#include "vm/pte.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace its::core {

using obs::EventKind;
using sched::ProcState;
using sched::Process;
using trace::Instr;
using trace::Op;

mem::HierarchyConfig Simulator::hierarchy_for(const SimConfig& cfg, const IoPolicy& p) {
  mem::HierarchyConfig h = cfg.hierarchy;
  // §4.1: "a half size of the LLC will be configured as the pre-execute
  // cache for both Sync_Runahead and ITS" — the mechanism pays in LLC area.
  if (p.uses_preexec_cache()) h.llc.size_bytes /= 2;
  return h;
}

namespace {

/// `dram_bytes`, if every physical address below it has a tag at every
/// cache level.  Checked before the frame pool allocates per-frame state.
its::Bytes checked_dram_bytes(its::Bytes dram_bytes, const mem::CacheHierarchy& caches) {
  const std::pair<const char*, const mem::SetAssocCache*> levels[] = {
      {"L1", &caches.l1()}, {"L2", &caches.l2()}, {"LLC", &caches.llc()}};
  for (const auto& [name, cache] : levels)
    if (dram_bytes > cache->max_phys_bytes())
      throw std::invalid_argument("Simulator: dram_bytes " + std::to_string(dram_bytes) +
                                  " is past the " + name + "'s 32-bit tag range (max_phys_bytes " +
                                  std::to_string(cache->max_phys_bytes()) + ")");
  return dram_bytes;
}

}  // namespace

Simulator::Simulator(const SimConfig& cfg, PolicyKind policy)
    : Simulator(cfg, make_policy(policy)) {}

Simulator::Simulator(const SimConfig& cfg, std::unique_ptr<IoPolicy> policy)
    : cfg_(cfg),
      policy_(std::move(policy)),
      caches_(hierarchy_for(cfg, *policy_)),
      px_(cfg.px_cache),
      engine_(cfg.preexec, caches_, px_),
      tlb_(cfg.tlb_entries),
      frames_(checked_dram_bytes(cfg.dram_bytes, caches_)),
      swap_(),
      finj_(cfg.fault),
      retry_(cfg.fault.max_retries, cfg.fault.backoff_base,
             cfg.fault.backoff_mult, cfg.fault.backoff_cap),
      pcache_(cfg.page_cache_bytes),
      dma_(cfg.ull, cfg.pcie),
      va_pf_(cfg.va_prefetch),
      pop_pf_(cfg.pop_prefetch),
      stride_pf_(cfg.stride_prefetch),
      sched_(make_scheduler(cfg)),
      transfer_done_(frames_.num_frames()) {
  cluster_.reserve(std::max(cfg_.swap_cluster_pages, 1u));
  // The devices consult the injector on every operation; with the profile
  // disabled the injector is inert and the devices behave exactly as the
  // perfect-device model.
  dma_.attach_fault(&finj_);
  // The outage substrate exists only when the profile schedules outages:
  // the health monitor arms and the fallback pool carves DRAM frames off
  // the pool tail.  Otherwise both stay default-constructed (inert) and the
  // simulation is bit-identical to a build without them.
  if (finj_.enabled() && cfg_.fault.outage.enabled()) {
    health_ = storage::DeviceHealthMonitor(cfg_.fault.outage);
    const std::uint64_t want = std::min<std::uint64_t>(
        cfg_.fallback_pool.frames, frames_.num_frames() / 4);
    pool_ = vm::FallbackPool(cfg_.fallback_pool, frames_.carve_tail(want));
  }
}

std::unique_ptr<sched::Scheduler> Simulator::make_scheduler(const SimConfig& cfg) {
  switch (cfg.scheduler) {
    case SchedulerKind::kCfs:
      return std::make_unique<sched::CfsScheduler>(cfg.cfs);
    case SchedulerKind::kRoundRobin:
      break;
  }
  return std::make_unique<sched::RRScheduler>(cfg.slice_min, cfg.slice_max);
}

void Simulator::set_trace(obs::EventTrace* trace) {
  trace_ = trace;
  if (trace != nullptr)
    trace->set_policy(static_cast<std::uint8_t>(policy_->kind()));
  // Components that emit their own events share the recorder and the clock.
  sched_->attach_trace(trace, &clock_);
  swap_.attach_trace(trace, &clock_);
  dma_.attach_trace(trace);
  health_.attach_trace(trace);
  pool_.attach_trace(trace, &clock_);
  va_pf_.attach_trace(trace, &clock_);
  pop_pf_.attach_trace(trace, &clock_);
  stride_pf_.attach_trace(trace, &clock_);
}

void Simulator::add_process(std::unique_ptr<Process> p) {
  add_process_at(0, std::move(p));
}

void Simulator::add_process_at(its::SimTime start, std::unique_ptr<Process> p) {
  if (p->pid() != procs_.size())
    throw std::invalid_argument("Simulator: pids must be dense 0..n-1");
  if (procs_.size() >= its::kMaxProcesses)
    throw std::invalid_argument(
        "Simulator: at most 65536 processes (pid keys hold 16 bits of pid)");
  // Register any files the trace reads or writes (shared namespace).
  for (auto [file, size] : p->trace().file_sizes()) files_.ensure_file(file, size);
  procs_.push_back(std::move(p));
  start_at_.push_back(start);
}

SimMetrics Simulator::run() {
  if (procs_.empty()) throw std::logic_error("Simulator: no processes");
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    if (start_at_[i] == 0)
      sched_->add(procs_[i].get());
    else
      push_event(start_at_[i], EventType::kProcArrive,
                 static_cast<its::Pid>(i), 0);
  }

  while (finished_ < procs_.size()) {
    Process* p = sched_->pick();
    if (p == nullptr) {
      // Whole machine blocked on I/O: jump to the next completion.
      if (events_.empty()) throw std::logic_error("Simulator: deadlock (no events)");
      its::SimTime t = events_.top().time;
      if (t > clock_) {
        m_.idle.no_runnable += t - clock_;
        clock_ = t;
      }
      process_due_events();
      continue;
    }
    // A blocking fault pre-pays exactly the dispatch that follows it; the
    // credit never carries past this pick (if the blocked process itself
    // resumes first, the machine went through the idle thread and no
    // further switch happened).
    const bool prepaid = switch_prepaid_;
    switch_prepaid_ = false;
    if (any_ran_ && p->pid() != last_pid_ && !prepaid) charge_ctx_switch(p->pid());
    any_ran_ = true;
    last_pid_ = p->pid();
    run_slice(*p);
  }

  m_.makespan = clock_;
  if (health_.enabled()) {
    // Close the availability books: integrate the FSM to the makespan so
    // the four time-in-state counters partition it exactly (the
    // obs::InvariantChecker reconciles this to the nanosecond).
    health_.finalize(clock_);
    m_.health_healthy_time = health_.time_in(storage::DeviceHealth::kHealthy);
    m_.health_degraded_time = health_.time_in(storage::DeviceHealth::kDegraded);
    m_.health_offline_time = health_.time_in(storage::DeviceHealth::kOffline);
    m_.health_recovering_time =
        health_.time_in(storage::DeviceHealth::kRecovering);
  }
  m_.pool_stores = pool_.stats().stores;
  m_.pool_hits = pool_.stats().hits;
  m_.pool_drains = pool_.stats().drains;
  m_.drain_bytes = pool_.stats().drains * its::kPageSize;
  m_.file_reads = files_.stats().reads;
  m_.file_writes = files_.stats().writes;
  m_.page_cache_hits = pcache_.stats().hits;
  m_.page_cache_misses = pcache_.stats().misses;
  m_.file_writebacks = pcache_.stats().dirty_writebacks;
  m_.processes.clear();
  for (const auto& p : procs_)
    m_.processes.push_back({p->pid(), p->name(), p->priority(), p->metrics()});
  if (const std::vector<std::string> broken = m_.identity_violations();
      !broken.empty()) {
    std::string msg = "Simulator: " + broken.front();
    for (std::size_t i = 1; i < broken.size(); ++i) {
      msg += "; ";
      msg += broken[i];
    }
    throw AccountingError(msg);
  }
  return m_;
}

void Simulator::run_slice(Process& p) {
  for (;;) {
    process_due_events();
    if (p.at_end()) {
      finish(p);
      return;
    }
    if (p.slice_remaining() == 0 && sched_->any_ready()) {
      sched_->yield(&p);
      return;
    }
    const Instr& in = p.trace()[p.pc()];
    if (in.op == Op::kCompute) {
      auto cost = static_cast<its::Duration>(static_cast<double>(in.repeat) *
                                             cfg_.ns_per_instr);
      advance(p, std::max<its::Duration>(cost, 1));
      p.metrics().instructions += in.repeat;
      p.advance_pc();
      continue;
    }
    if (in.is_file()) {
      if (!do_file_op(p, in)) return;  // blocked asynchronously
      p.metrics().instructions += 1;
      p.advance_pc();
      continue;
    }
    if (!do_mem_access(p, in)) return;  // blocked asynchronously
    p.metrics().instructions += 1;
    p.metrics().mem_refs += 1;
    p.advance_pc();
  }
}

bool Simulator::do_mem_access(Process& p, const Instr& in) {
  const its::Vpn vpn = its::vpn_of(in.addr);
  for (;;) {
    switch (p.mm().classify(vpn)) {
      case vm::FaultType::kNone:
        do_translated_access(p, in, vpn);
        return true;
      case vm::FaultType::kMinor: {
        // Prefetched page sitting in the swap cache: map it (metadata only).
        advance(p, cfg_.minor_fault_cost);
        ++p.metrics().minor_faults;
        ++m_.minor_faults;
        ++p.metrics().prefetches_received;
        ++m_.prefetch_useful;
        if (trace_) trace_->record(EventKind::kPrefetchHit, clock_, p.pid(), vpn);
        map_resident(p, p.mm().pte(vpn));
        break;  // retry: now mapped
      }
      case vm::FaultType::kMajor:
        if (!handle_major_fault(p, vpn)) return false;
        break;  // retry: now mapped
    }
  }
}

void Simulator::do_translated_access(Process& p, const Instr& in, its::Vpn vpn) {
  if (!tlb_.lookup(key_of(p.pid(), vpn))) {
    advance(p, cfg_.tlb_walk_cost);
    charge_stall(p, cfg_.tlb_walk_cost);
    tlb_.insert(key_of(p.pid(), vpn));
  }
  vm::Pte* pte = p.mm().pte(vpn);
  pte->set_accessed(true);
  if (in.op == Op::kStore) pte->set_dirty(true);
  frames_.mark_referenced(pte->pfn());

  its::PhysAddr phys = (pte->pfn() << its::kPageShift) | (in.addr & its::kPageOffsetMask);
  mem::AccessResult r = caches_.access(phys, in.size);
  advance(p, r.latency);
  charge_stall(p, r.latency - cfg_.hierarchy.l1.hit_latency);

  if (r.llc_miss()) {
    ++p.metrics().llc_misses;
    ++m_.llc_misses;
    // Traditional runahead: pre-execute under the DRAM service shadow.
    // The stall itself is still idle time (the process cannot proceed);
    // the payoff arrives as future cache hits (Fig. 4c).
    if (policy_->runahead_on_llc_miss())
      run_preexec(p, cfg_.hierarchy.dram_latency, cfg_.hierarchy.dram_latency);
  }
}

its::Duration Simulator::run_preexec(Process& p, its::Duration budget,
                                     its::Duration steal_cap) {
  const cpu::EpisodeResult ep =
      engine_.run(p.trace(), p.pc(), p.rf(), p.mm(), budget);
  if (!ep.ran) return 0;
  const its::Duration stolen = std::min(ep.used, steal_cap);
  p.metrics().stolen += stolen;
  m_.stolen_time += stolen;
  ++m_.preexec_episodes;
  m_.preexec_lines_warmed += ep.lines_warmed;
  if (trace_) {
    trace_->record(EventKind::kPreexecBegin, clock_, p.pid(), p.pc());
    trace_->record(EventKind::kPreexecEnd, clock_, p.pid(), p.pc(), ep.used,
                   stolen);
  }
  return ep.used;
}

template <typename Prefetch>
its::Duration Simulator::steal_wait(Process& p, const FaultPlan& plan,
                                    its::Duration wait, Prefetch prefetch) {
  its::Duration utilized = 0;
  // §3.2: transitioning from the page fault handler into the ITS kernel
  // thread costs hundreds of nanoseconds — charged against the wait.
  if (plan.prefetch != PrefetchKind::kNone)
    utilized = cfg_.kernel_thread_entry + prefetch();
  if (plan.preexec && utilized < wait) utilized += run_preexec(p, wait - utilized);
  utilized = std::min(utilized, wait);
  // The whole wait is CPU idle time ("the time that the CPU's progress
  // cannot proceed", §4.2.1) — stealing it pays off later through fewer
  // faults and cache misses, the paper's supportive metrics.
  m_.idle.busy_wait += wait;
  p.metrics().busy_wait += wait;
  m_.stolen_time += utilized;
  p.metrics().stolen += utilized;
  wait_in_place(p, wait);
  return utilized;
}

void Simulator::block_until(Process& p, its::SimTime done, EventType wake,
                            std::uint64_t key) {
  push_event(done, wake, p.pid(), key);
  sched_->block(&p);
  charge_ctx_switch(p.pid());
  switch_prepaid_ = true;
}

its::Duration Simulator::sync_deadline() const {
  if (!finj_.enabled()) return 0;
  // "Auto" deadline: once the wait exceeds a switch-out/switch-in pair the
  // synchronous mode stopped being profitable (§2's crossover argument).
  return cfg_.fault.sync_deadline != 0 ? cfg_.fault.sync_deadline
                                       : 2 * cfg_.ctx_switch_cost;
}

its::SimTime Simulator::post_read_resilient(its::SimTime t, its::Bytes bytes,
                                            std::uint64_t tag) {
  if (!finj_.enabled()) return dma_.post(t, storage::Dir::kRead, bytes);
  for (unsigned attempt = 1;; ++attempt) {
    if (attempt > retry_.max_retries()) {
      // Retry budget exhausted: the transient-fault model says the device's
      // own recovery serves this attempt — an unchecked post cannot fail,
      // so a hostile profile can never wedge the simulation.
      if (retry_.max_retries() > 0) ++m_.retry_exhausted;
      return dma_.post(t, storage::Dir::kRead, bytes);
    }
    storage::PostResult r = dma_.post_checked(t, storage::Dir::kRead, bytes);
    if (!r.error) return r.done;
    // The failure is detected when the attempt completes; the kernel backs
    // off (exponential, capped) and reposts.  Both events live on the
    // device timeline, stamped with their future detection/repost times.
    ++m_.io_errors;
    // The FSM sees the error at post time (monotone with the simulation
    // clock); the trace keeps the future detection stamp.
    health_.note_error(clock_);
    const its::Duration backoff = retry_.backoff(attempt);
    ++m_.io_retries;
    if (trace_) {
      trace_->record(EventKind::kIoError, r.done, obs::kDevicePid, tag,
                     attempt, static_cast<std::uint64_t>(storage::Dir::kRead));
      trace_->record(EventKind::kIoRetry, r.done + backoff, obs::kDevicePid,
                     tag, attempt, backoff);
    }
    t = r.done + backoff;
  }
}

bool Simulator::do_file_op(Process& p, const trace::Instr& in) {
  const bool read = in.op == Op::kFileRead;
  const fs::FileId file = in.src2;
  files_.check_access(file, in.addr, in.size);
  advance(p, cfg_.syscall_cost);

  const std::uint64_t first = in.addr >> its::kPageShift;
  const std::uint64_t last = (in.addr + (in.size ? in.size - 1 : 0)) >> its::kPageShift;
  for (std::uint64_t page = first; page <= last; ++page) {
    const std::uint64_t key = fs::FileSystem::page_key(file, page);
    fs::PcLookup look = pcache_.lookup(key);
    if (look.hit) {
      if (look.ready_at > clock_) {
        // Readahead still in flight: pay the remaining transfer time.
        const its::Duration wait = look.ready_at - clock_;
        steal_wait(p, FaultPlan{}, wait, [] { return its::Duration{0}; });
        if (trace_)
          trace_->record(EventKind::kFileWait, clock_, p.pid(), key, wait, 0);
      }
      if (!read) cache_page(key, clock_, /*dirty=*/true);
      continue;
    }
    if (!read) {
      // Write miss: allocate the cache page and dirty it; the data reaches
      // the device on eviction (writeback) — no foreground I/O.
      cache_page(key, clock_, /*dirty=*/true);
      continue;
    }
    if (!file_miss(p, key, file, page)) return false;  // blocked
  }

  // User-buffer copy once the pages are resident.
  auto copy = static_cast<its::Duration>(static_cast<double>(in.size) /
                                         cfg_.copy_bytes_per_ns);
  advance(p, std::max<its::Duration>(copy, 1));
  auto& fstats = files_.stats();
  if (read) {
    ++fstats.reads;
    fstats.bytes_read += in.size;
  } else {
    ++fstats.writes;
    fstats.bytes_written += in.size;
  }
  return true;
}

bool Simulator::file_miss(Process& p, std::uint64_t key, fs::FileId file,
                          std::uint64_t page_index) {
  poll_health();
  const its::SimTime done = post_read_resilient(clock_, its::kPageSize, key);
  const FaultPlan plan = policy_->plan_major_fault(p, *sched_, health_.state());

  if (plan.go_async) {
    // Block until the page lands; the syscall restarts on wake (the landed
    // page then hits in the cache).  Same one-switch cost model as swap.
    cache_page(key, done);
    if (trace_) trace_->record(EventKind::kAsyncConvert, clock_, p.pid(), key);
    ++m_.async_switches;
    // The event carries the cache key so the wake-up can re-pin the page
    // as most-recently-used right before the syscall restarts (otherwise a
    // thrashing cache could evict it every round).
    block_until(p, done, EventType::kWakeFile, key);
    return false;
  }

  // Synchronous wait, with the same stealing opportunities as a swap fault;
  // the plan's prefetch is file readahead.
  const its::Duration wait = done - clock_;
  const its::Duration stolen = steal_wait(p, plan, wait, [&] {
    issue_readahead(p, file, page_index);
    return its::Duration{0};
  });
  if (trace_)
    trace_->record(EventKind::kFileWait, clock_, p.pid(), key, wait, stolen);
  process_due_events();
  cache_page(key, clock_);
  return true;
}

void Simulator::issue_readahead(Process& p, fs::FileId file,
                                std::uint64_t page_index) {
  const std::uint64_t file_pages =
      (files_.size_of(file) + its::kPageSize - 1) >> its::kPageShift;
  for (unsigned k = 1; k <= cfg_.file_readahead_pages; ++k) {
    const std::uint64_t next = page_index + k;
    if (next >= file_pages) break;
    const std::uint64_t nkey = fs::FileSystem::page_key(file, next);
    if (pcache_.contains(nkey)) continue;
    cache_page(nkey, dma_.post(clock_, storage::Dir::kRead, its::kPageSize));
    ++m_.prefetch_issued;
    if (trace_)
      trace_->record(EventKind::kPrefetchIssue, clock_, p.pid(), nkey,
                     static_cast<std::uint64_t>(
                         obs::PrefetchSource::kFileReadahead));
  }
}

void Simulator::cache_page(std::uint64_t key, its::SimTime ready_at, bool dirty) {
  if (pcache_.insert(key, ready_at, dirty))
    dma_.post(clock_, storage::Dir::kWrite, its::kPageSize);
}

bool Simulator::handle_major_fault(Process& p, its::Vpn vpn) {
  poll_health();
  ++p.metrics().major_faults;
  ++m_.major_faults;
  const storage::DeviceHealth entry_health = health_.state();
  if (entry_health != storage::DeviceHealth::kHealthy)
    ++m_.faults_served_degraded;
  if (trace_)
    trace_->record(EventKind::kFaultBegin, clock_, p.pid(), vpn,
                   static_cast<std::uint64_t>(entry_health));
  advance(p, cfg_.major_fault_sw_cost);  // kernel entry + handler: real work

  vm::Pte* pte = p.mm().pte(vpn);
  if (pte == nullptr) throw std::logic_error("major fault outside address space");

  its::SimTime done;
  if (pte->in_flight()) {
    // A prefetch already has the page in transit — wait out the remainder.
    done = transfer_done(pte->pfn());
  } else if (pool_.load(p.pid(), vpn)) {
    // Compressed-DRAM hit: the page's only fresh copy sits in the fallback
    // pool — decompress it on the faulting CPU, no device I/O at all.
    const its::Pfn pfn = alloc_frame(p.pid(), vpn);
    vm::Pte* fresh = p.mm().pte(vpn);
    fresh->set_pfn(pfn);
    advance(p, pool_.decompress_cost());
    map_resident(p, fresh);
    if (trace_) trace_->record(EventKind::kFaultEnd, clock_, p.pid(), vpn);
    return true;
  } else if (device_dead() && swap_.has_slot(p.pid(), vpn)) {
    // The only copy is on a permanently dead device and the pool missed:
    // this page is gone.  The CLI maps the error to exit code 5.
    throw vm::PageLostError(p.pid(), vpn,
                            "demand read from a dead device (pid " +
                                std::to_string(p.pid()) + ", vpn " +
                                std::to_string(vpn) + ") missed the pool");
  } else {
    // Collect the aligned swap cluster around the victim (page-cluster
    // readahead; cluster size 1 = just the victim).
    const unsigned cluster = std::max(cfg_.swap_cluster_pages, 1u);
    const its::Vpn base = vpn - (vpn % cluster);
    cluster_.assign(1, vpn);
    for (its::Vpn v = base; v < base + cluster; ++v) {
      if (v == vpn) continue;
      const vm::Pte* sib = p.mm().pte(v);
      if (sib != nullptr && sib->swapped_out()) cluster_.push_back(v);
    }
    for (its::Vpn v : cluster_) begin_swap_in(p, v);
    // One DMA covers the whole cluster; siblings become swap-cache pages
    // on arrival, exactly like prefetched pages — and count as issued
    // readahead so prefetch accuracy stays a true ratio.
    done = post_read_resilient(clock_, its::kPageSize * cluster_.size(), vpn);
    for (its::Vpn v : cluster_) {
      transfer_done_[p.mm().pte(v)->pfn()] = done;
      if (v != vpn) {
        push_event(done, EventType::kPageArrive, p.pid(), v);
        ++m_.prefetch_issued;
        if (trace_)
          trace_->record(EventKind::kPrefetchIssue, clock_, p.pid(), v,
                         static_cast<std::uint64_t>(
                             obs::PrefetchSource::kSwapCluster));
      }
    }
  }

  if (done <= clock_) {  // transfer already complete
    complete_swap_in(p, vpn);
    if (trace_) trace_->record(EventKind::kFaultEnd, clock_, p.pid(), vpn);
    return true;
  }

  FaultPlan plan = policy_->plan_major_fault(p, *sched_, health_.state());
  // Belt and braces for custom policies: never busy-wait an offline device.
  // The stripped plan converts the fault to asynchronous completion on the
  // spot (window 0) — the watchdog's abort machinery does the bookkeeping.
  if (!plan.go_async && health_.state() == storage::DeviceHealth::kOffline)
    return abort_sync_wait(p, vpn, done, FaultPlan{}, 0);
  if (plan.go_async) {
    // Self-sacrificing path / Async baseline: give the CPU away and let the
    // DMA finish in the background.  Each asynchronous fault costs exactly
    // one context switch (save the faulter, restore the next runnable — the
    // paper's measured 7 µs); the dispatch that follows is that same switch,
    // so it is marked prepaid.
    if (trace_) trace_->record(EventKind::kAsyncConvert, clock_, p.pid(), vpn);
    ++m_.async_switches;
    block_until(p, done, EventType::kWakeFault, vpn);
    return false;
  }

  // Synchronous wait: [clock_, done).  Steal as much of it as the plan allows.
  its::Duration wait = done - clock_;

  // Graceful-degradation watchdog: with injection on, a tail-latency or
  // retry-inflated completion can push the wait far past the point where
  // busy-waiting beats a context-switch pair.  Rather than wedging the CPU
  // in place, abort the in-place wait at the deadline and fall back to the
  // asynchronous mode (somebody else must be runnable for the switch to buy
  // anything; otherwise waiting in place is still optimal).
  const its::Duration deadline = sync_deadline();
  if (deadline != 0 && wait > deadline && sched_->any_ready()) {
    health_.note_timeout(clock_);
    return abort_sync_wait(p, vpn, done, plan, deadline);
  }

  if (plan.preexec &&
      cfg_.preexec.recovery_trigger == cpu::RecoveryTrigger::kPolling) {
    // §3.4.3 polling trigger: the ITS thread notices the completed I/O only
    // at the next timer check, so the resume point is quantised up to the
    // poll period (the interrupt trigger resumes exactly at completion).
    const its::Duration period = std::max<its::Duration>(cfg_.preexec.poll_period, 1);
    wait = its::round_up(wait, period);
  }
  // clock == done after the wait for the interrupt trigger; later for polling.
  const its::Duration stolen = steal_wait(
      p, plan, wait, [&] { return issue_prefetches(p, vpn, plan.prefetch); });
  process_due_events();  // prefetched siblings may have arrived meanwhile
  complete_swap_in(p, vpn);
  if (trace_)
    trace_->record(EventKind::kFaultEnd, clock_, p.pid(), vpn, wait, stolen);
  return true;
}

bool Simulator::abort_sync_wait(Process& p, its::Vpn vpn, its::SimTime done,
                                const FaultPlan& plan, its::Duration window) {
  // The watchdog lets the sync wait run only up to `window`.  Everything the
  // plan can steal still happens inside the window — including a bounded
  // pre-execute episode whose architectural state is discarded on abort
  // (engine_.run works on scratch copies; the PTE/frame state set up by
  // begin_swap_in stays in flight and is recovered by the wake-up).  Only
  // the window is busy-waited; the rest of the transfer completes in the
  // background while somebody else runs (degraded-mode time).
  const its::Duration stolen = steal_wait(
      p, plan, window, [&] { return issue_prefetches(p, vpn, plan.prefetch); });
  process_due_events();

  const its::Duration remaining = done - clock_;
  ++m_.deadline_aborts;
  ++m_.mode_fallbacks;
  m_.degraded_time += remaining;
  if (trace_) {
    trace_->record(EventKind::kDeadlineAbort, clock_, p.pid(), vpn, window,
                   stolen);
    trace_->record(EventKind::kModeFallback, clock_, p.pid(), vpn, remaining);
  }

  // From here the fault is an asynchronous one: wake at `done`, one context
  // switch to hand the CPU over (counted in mode_fallbacks, not
  // async_switches — the policy never chose to go async).
  block_until(p, done, EventType::kWakeFault, vpn);
  return false;
}

its::Duration Simulator::issue_prefetches(Process& p, its::Vpn victim,
                                          PrefetchKind kind) {
  vm::PrefetchResult pr;
  switch (kind) {
    case PrefetchKind::kVa:
      pr = va_pf_.collect(p.mm(), victim);
      break;
    case PrefetchKind::kPop:
      pr = pop_pf_.collect(p.mm(), victim);
      break;
    case PrefetchKind::kStride:
      pr = stride_pf_.collect(p.mm(), victim);
      break;
    case PrefetchKind::kNone:
      return 0;
  }
  for (its::Vpn cand : pr.pages) {
    begin_swap_in(p, cand);
    const its::SimTime t = post_read_resilient(clock_, its::kPageSize, cand);
    transfer_done_[p.mm().pte(cand)->pfn()] = t;
    push_event(t, EventType::kPageArrive, p.pid(), cand);
    ++m_.prefetch_issued;
    if (trace_)
      trace_->record(EventKind::kPrefetchIssue, clock_, p.pid(), cand,
                     static_cast<std::uint64_t>(obs::PrefetchSource::kPolicy));
  }
  return pr.walk_cost;
}

void Simulator::begin_swap_in(Process& p, its::Vpn vpn) {
  its::Pfn pfn = alloc_frame(p.pid(), vpn);
  vm::Pte* pte = p.mm().pte(vpn);
  pte->set_pfn(pfn);
  pte->set_in_flight(true);
  frames_.pin(pfn);  // unpinned when the transfer lands
  swap_.slot_for(p.pid(), vpn);
}

void Simulator::complete_swap_in(Process& p, its::Vpn vpn) {
  vm::Pte* pte = p.mm().pte(vpn);
  if (pte->in_flight()) {
    transfer_landed(p, vpn, pte->pfn());
    health_.note_ok(clock_);  // a demand transfer landed: the device serves
  }
  if (!pte->present()) map_resident(p, pte);
}

void Simulator::transfer_landed(Process& p, its::Vpn vpn, its::Pfn pfn) {
  frames_.unpin(pfn);
  swap_.record_swap_in(p.pid(), vpn);
}

void Simulator::map_resident(Process& p, vm::Pte* pte) {
  pte->map(pte->pfn());
  pte->set_inv(false);  // fresh-from-device data is valid
  p.mm().note_mapped();
}

its::SimTime Simulator::transfer_done(its::Pfn pfn) const {
  if (!frames_.info(pfn).pinned)
    throw std::logic_error("Simulator: no transfer in flight into frame " +
                           std::to_string(pfn));
  return transfer_done_[pfn];
}

its::Pfn Simulator::alloc_frame(its::Pid pid, its::Vpn vpn) {
  for (;;) {
    if (auto pfn = frames_.try_alloc(pid, vpn)) return *pfn;
    auto victim = frames_.clock_victim();
    if (!victim)
      throw std::runtime_error(
          "Simulator: every DRAM frame is pinned — DRAM too small for the "
          "prefetch degree");
    evict_frame(*victim);
  }
}

void Simulator::evict_frame(its::Pfn pfn) {
  const vm::FrameInfo& info = frames_.info(pfn);
  Process& owner = proc(info.owner);
  vm::Pte* pte = owner.mm().pte(info.vpn);
  if (pte == nullptr) throw std::logic_error("evicting frame with no PTE");
  if (pte->present()) owner.mm().note_unmapped();
  if (pte->dirty()) {
    poll_health();
    const storage::DeviceHealth h = health_.state();
    const bool device_down = h == storage::DeviceHealth::kDegraded ||
                             h == storage::DeviceHealth::kOffline;
    if (device_down && pool_.store(owner.pid(), info.vpn)) {
      // The device is not (reliably) serving: compress into the fallback
      // pool instead of writing out.  The compression burns foreground CPU
      // (zswap's trade); the page drains back on recovery.
      clock_ += pool_.compress_cost();
      m_.cpu_busy += pool_.compress_cost();
    } else if (device_dead()) {
      throw vm::PageLostError(owner.pid(), info.vpn,
                              "dirty page evicted past the device death "
                              "point with the fallback pool full");
    } else {
      // Fire-and-forget swap-out; it occupies device/link bandwidth only.
      dma_.post(clock_, storage::Dir::kWrite, its::kPageSize);
      swap_.record_swap_out(owner.pid(), info.vpn);
    }
  }
  pte->unmap();
  pte->set_inv(false);
  tlb_.invalidate(key_of(owner.pid(), info.vpn));
  caches_.invalidate_page(pfn << its::kPageShift);
  frames_.release(pfn);
  ++m_.evictions;
  if (trace_)
    trace_->record(EventKind::kEvict, clock_, owner.pid(), pfn, info.vpn);
}

void Simulator::poll_health() {
  if (!health_.enabled()) return;
  health_.poll(clock_);
  const storage::DeviceHealth h = health_.state();
  if ((h == storage::DeviceHealth::kHealthy ||
       h == storage::DeviceHealth::kRecovering) &&
      pool_.pooled_pages() > 0)
    drain_pool();
}

void Simulator::drain_pool() {
  // Recovery drain: every pooled page goes back to the swap device as a
  // background write (fire-and-forget, like a normal swap-out), oldest
  // first.  record_swap_out refreshes the slot so later demand reads hit
  // the device copy.
  while (auto page = pool_.pop_drain()) {
    dma_.post(clock_, storage::Dir::kWrite, its::kPageSize);
    swap_.record_swap_out(page->first, page->second);
  }
}

bool Simulator::device_dead() const {
  return finj_.enabled() && cfg_.fault.outage.dead_at > 0 &&
         clock_ >= cfg_.fault.outage.dead_at;
}

void Simulator::advance(Process& p, its::Duration d) {
  m_.cpu_busy += d;
  wait_in_place(p, d);
}

void Simulator::wait_in_place(Process& p, its::Duration d) {
  clock_ += d;
  p.consume_slice(d);
  sched_->account(p, d);  // vruntime-style disciplines track consumption
}

void Simulator::charge_ctx_switch(its::Pid pid) {
  if (trace_)
    trace_->record(EventKind::kCtxSwitch, clock_, pid, 0, cfg_.ctx_switch_cost);
  clock_ += cfg_.ctx_switch_cost;
  m_.idle.ctx_switch += cfg_.ctx_switch_cost;
  tlb_.flush();  // TLB shootdown — part of the hidden switch cost
}

void Simulator::charge_stall(Process& p, its::Duration d) {
  m_.idle.mem_stall += d;
  p.metrics().mem_stall += d;
}

void Simulator::push_event(its::SimTime t, EventType type, its::Pid pid, its::Vpn vpn) {
  events_.push(Event{t, seq_++, type, pid, vpn});
}

void Simulator::process_due_events() {
  while (!events_.empty() && events_.top().time <= clock_) {
    Event e = events_.top();
    events_.pop();
    Process& p = proc(e.pid);
    switch (e.type) {
      case EventType::kWakeFault:
        complete_swap_in(p, e.vpn);
        // The asynchronous fault's window closes when the kernel notices
        // the completion, i.e. now — stamped with clock_ so the pid's
        // timeline stays append-ordered.
        if (trace_) trace_->record(EventKind::kFaultEnd, clock_, e.pid, e.vpn);
        sched_->wake(&p);
        break;
      case EventType::kWakeFile:
        // Refresh the awaited page to MRU so the restarted syscall hits.
        cache_page(e.vpn, e.time);
        sched_->wake(&p);
        break;
      case EventType::kPageArrive: {
        vm::Pte* pte = p.mm().pte(e.vpn);
        if (pte != nullptr && pte->in_flight()) {
          pte->set_in_flight(false);
          pte->set_swap_cache(true);
          transfer_landed(p, e.vpn, pte->pfn());
        }
        break;
      }
      case EventType::kProcArrive:
        if (!gate_ || gate_(p)) {
          sched_->add(&p);
        } else {
          // Rejected at the door: retire untouched (empty metrics, no
          // retire hook) so the run loop's completion count still covers
          // the pid.
          p.set_state(ProcState::kFinished);
          p.metrics().finish_time = clock_;
          ++finished_;
        }
        break;
    }
  }
}

void Simulator::finish(Process& p) {
  p.set_state(ProcState::kFinished);
  p.metrics().finish_time = clock_;
  ++finished_;
  // Process exit reclaims its DRAM: survivors — notably the self-sacrificing
  // low-priority processes — inherit the freed frames ("low-priority
  // processes can receive more dedicated resources after the completion of
  // high-priority processes", §3.3).  The pool's per-owner index makes this
  // proportional to what the process owns, not to the whole pool — the
  // difference between O(P·F) and O(F) total at serving scale (a sorted
  // copy keeps the ascending-pfn eviction order the goldens pin down).
  std::vector<its::Pfn> owned = frames_.frames_of(p.pid());
  std::sort(owned.begin(), owned.end());
  for (its::Pfn pfn : owned) {
    const vm::FrameInfo& info = frames_.info(pfn);
    if (info.in_use && !info.pinned && info.owner == p.pid()) evict_frame(pfn);
  }
  // Anything the exit eviction just pooled (or older pooled pages of this
  // process) dies with it — no drain, no events, plain bookkeeping.  Swap
  // slots go the same way: without the release the device map only grows,
  // and a serving run retiring thousands of processes would drag every
  // swap lookup through an ever-larger table.  Pages whose DMA is still in
  // flight keep their slots — the arrival lands after this retirement and
  // records its swap-in against them.
  std::vector<its::Vpn> in_flight;
  for (its::Pfn pfn : owned) {
    const vm::FrameInfo& info = frames_.info(pfn);
    if (!info.in_use || info.owner != p.pid() || !info.pinned) continue;
    const vm::Pte* pte = p.mm().pte(info.vpn);
    if (pte != nullptr && pte->in_flight()) in_flight.push_back(info.vpn);
  }
  pool_.drop_pid(p.pid());
  swap_.drop_pid(p.pid(), in_flight);
  if (retire_) retire_(p);
}

}  // namespace its::core
