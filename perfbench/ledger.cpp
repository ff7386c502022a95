#include "ledger.h"

#include "core/simulator.h"
#include "cpu/preexec_engine.h"
#include "cpu/register_file.h"
#include "fault/fault_injector.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "mem/tlb.h"
#include "obs/event_trace.h"
#include "obs/invariant_checker.h"
#include "sched/process.h"
#include "sched/scheduler.h"
#include "serve/scenario.h"
#include "storage/dma.h"
#include "trace/workloads.h"
#include "vm/frame_pool.h"
#include "vm/mm.h"
#include "vm/prefetch.h"
#include "vm/pte.h"
#include "vm/swap.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

namespace perfbench {

using namespace its;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

constexpr MetricSpec kMetrics[] = {
    {"trace.records", "count"},
    {"trace.generate_ns_per_record", "ns"},
    {"mem.accesses", "count"},
    {"mem.l1_miss_ratio", "ratio"},
    {"mem.llc_miss_ratio", "ratio"},
    {"mem.access_ns", "ns"},
    {"mem.access_share", "fraction"},
    {"mem.page_invalidations", "count"},
    {"mem.invalidate_page_ns", "ns"},
    {"mem.invalidate_share", "fraction"},
    {"mem.tlb_miss_ratio", "ratio"},
    {"mem.tlb_flushes", "count"},
    {"mem.tlb_op_ns", "ns"},
    {"mem.tlb_share", "fraction"},
    {"cpu.preexec_episodes", "count"},
    {"cpu.preexec_lines_warmed", "count"},
    {"cpu.preexec_episode_ns", "ns"},
    {"cpu.preexec_share", "fraction"},
    {"vm.major_faults", "count"},
    {"vm.minor_faults", "count"},
    {"vm.evictions", "count"},
    {"vm.clock_scans_per_eviction", "ratio"},
    {"vm.pte_lookup_ns", "ns"},
    {"vm.prefetch_issued", "count"},
    {"vm.prefetch_accuracy", "ratio"},
    {"vm.prefetch_collect_ns", "ns"},
    {"vm.swap_slot_ns", "ns"},
    {"vm.share", "fraction"},
    {"sched.picks", "count"},
    {"sched.blocks", "count"},
    {"sched.ctx_switches", "count"},
    {"sched.op_ns", "ns"},
    {"sched.share", "fraction"},
    {"storage.dma_reads", "count"},
    {"storage.dma_writes", "count"},
    {"storage.dma_post_ns", "ns"},
    {"storage.dma_share", "fraction"},
    {"fault.io_errors", "count"},
    {"fault.deadline_aborts", "count"},
    {"fault.pool_stores", "count"},
    {"fault.offline_share", "fraction"},
    {"fault.post_checked_ns", "ns"},
    {"serve.completed", "count"},
    {"serve.rejects", "count"},
    {"serve.sim_p99_ms", "ms"},
    {"serve.slo_violations", "count"},
    {"farm.jobs", "count"},
    {"farm.efficiency", "ratio"},
    {"obs.events", "count"},
    {"obs.traced_slowdown", "ratio"},
    {"obs.check_ns_per_event", "ns"},
    {"core.async_switches", "count"},
    {"core.residual_share", "fraction"},
};

// The memory stream is replayed in chunks of this many ops.
constexpr std::size_t kChunkOps = std::size_t{1} << 16;
// Input caps per simulation; quick mode divides the event and episode caps
// by 8.
constexpr std::size_t kTouchCap = std::size_t{1} << 19;
constexpr std::size_t kEventCap = std::size_t{1} << 14;
constexpr std::size_t kEpisodeCap = std::size_t{1} << 17;
// Replays of short input lists repeat until they have run this long.
constexpr double kMinReplayS = 2e-3;
// Budget of an episode synthesised where the simulation ran none: one ULL
// media read, the wait a synchronous fault would give pre-execution.
constexpr Duration kSynthBudget = 3'000;

/// Cost of one steady_clock read pair, subtracted from every timed chunk.
double clock_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> v;
    for (int i = 0; i < 1001; ++i) {
      const auto a = Clock::now();
      const auto b = Clock::now();
      v.push_back(ns_between(a, b));
    }
    return median(v);
  }();
  return overhead;
}

/// Σ over a round's simulations.
struct Counts {
  std::uint64_t mem_refs = 0;
  std::uint64_t l1_hits = 0, l1_misses = 0, llc_hits = 0, llc_misses = 0;
  std::uint64_t tlb_hits = 0, tlb_misses = 0, tlb_flushes = 0;
  std::uint64_t evictions = 0, clock_scans = 0, major = 0, minor = 0;
  std::uint64_t prefetch_issued = 0, prefetch_useful = 0;
  std::uint64_t preexec_episodes = 0, preexec_lines = 0;
  std::uint64_t sched_picks = 0, sched_blocks = 0;
  std::uint64_t ctx_switches = 0, dma_reads = 0, dma_writes = 0;
  std::uint64_t io_errors = 0, deadline_aborts = 0, pool_stores = 0;
  std::uint64_t async_switches = 0, offline_ns = 0, makespan_ns = 0;
  std::uint64_t events = 0;
  double check_s = 0.0;
};

/// One layer's replayed cost: Σ count × ns over simulations, with the plain
/// mean of ns as the reading where the layer did no work at all.
struct Cost {
  double weighted_ns = 0.0;
  double count = 0.0;
  double ns_sum = 0.0;
  unsigned n = 0;

  void add(std::uint64_t c, double ns) {
    weighted_ns += static_cast<double>(c) * ns;
    count += static_cast<double>(c);
    ns_sum += ns;
    ++n;
  }
  double ns() const { return count > 0 ? weighted_ns / count : (n ? ns_sum / n : 0.0); }
};

struct Costs {
  Cost access, invalidate, tlb, preexec, pte, walk, swap, sched, dma, checked;
};

struct Episode {
  Pid pid;
  std::size_t pc;
  Duration budget;
};
struct Walk {
  Pid pid;
  Vpn victim;
};
struct SwapOp {
  Pid pid;
  Vpn vpn;
  bool out;
};
struct SchedOp {
  obs::EventKind kind;
  Pid pid;
  SimTime at;
};
struct DmaOp {
  SimTime at;
  Bytes bytes;
  storage::Dir dir;
};

/// One step of the replayed memory stream.
enum class OpKind : std::uint8_t {
  kAccess,   ///< Hierarchy access of `size` bytes at `pa`.
  kMap,      ///< Page `va` of `pid` now lives in frame `pa` (bookkeeping).
  kEvict,    ///< Page `va` leaves frame `pa`: its lines are invalidated.
  kPreexec,  ///< Pre-execute episode of `pid` at record `va`, budget `pa`.
};
struct MemOp {
  VirtAddr va = 0;
  PhysAddr pa = 0;
  Pid pid = 0;
  std::uint16_t size = 0;
  OpKind kind = OpKind::kAccess;
};

/// What one traced simulation hands to the ledger.
struct SimView {
  const core::Simulator& sim;
  const core::SimConfig& cfg;
  const core::SimMetrics& m;
  const obs::EventTrace& et;
  std::vector<const trace::Trace*> procs;  ///< Indexed by pid.
  double resident;  ///< Fraction of a process's pages held in DRAM.
};

/// One dispatch of the recorded schedule: `records` records of `pid`.
struct Slice {
  Pid pid;
  std::uint64_t records;
};

/// The simulation's dispatches in the order its scheduler made them.  Each
/// pick runs until the next one; a process's records are spread over its
/// picks in proportion to the time each pick spent running them, which is
/// its length less the process's fault windows inside it (a synchronous
/// fault keeps the process picked while it waits, or pre-executes).
std::vector<Slice> slices(const std::vector<SchedOp>& sched,
                          const std::vector<SchedOp>& faults,
                          const std::vector<const trace::Trace*>& procs,
                          SimTime makespan) {
  struct Pick {
    Pid pid;
    SimTime start, end;
  };
  std::vector<Pick> picks;
  for (const SchedOp& op : sched) {
    if (op.kind != obs::EventKind::kSchedPick || op.pid >= procs.size()) continue;
    if (!picks.empty()) picks.back().end = op.at;
    picks.push_back({op.pid, op.at, makespan});
  }
  struct Window {
    SimTime begin, end;
  };
  std::vector<std::vector<Window>> waits(procs.size());
  std::vector<SimTime> open(procs.size(), 0);
  for (const SchedOp& op : faults) {
    if (op.pid >= procs.size()) continue;
    if (op.kind == obs::EventKind::kFaultBegin)
      open[op.pid] = op.at;
    else
      waits[op.pid].push_back({open[op.pid], op.at});
  }

  struct Share {
    double total = 0.0;      // running time of all the pid's picks
    double carry = 0.0;      // records the rounding left over
    std::size_t wait = 0;    // first window that may overlap the next pick
  };
  std::vector<Share> per(procs.size());
  std::vector<double> ran(picks.size());
  for (std::size_t k = 0; k < picks.size(); ++k) {
    const Pick& pk = picks[k];
    Share& s = per[pk.pid];
    const std::vector<Window>& w = waits[pk.pid];
    while (s.wait < w.size() && w[s.wait].end <= pk.start) ++s.wait;
    SimTime waited = 0;
    for (std::size_t i = s.wait; i < w.size() && w[i].begin < pk.end; ++i)
      waited += std::min(w[i].end, pk.end) - std::max(w[i].begin, pk.start);
    ran[k] = static_cast<double>(pk.end - pk.start - std::min(waited, pk.end - pk.start));
    s.total += ran[k];
  }
  std::vector<Slice> out;
  for (std::size_t k = 0; k < picks.size(); ++k) {
    Share& s = per[picks[k].pid];
    const double want = s.carry + static_cast<double>(procs[picks[k].pid]->size()) *
                                      ran[k] / std::max(s.total, 1.0);
    const auto n = static_cast<std::uint64_t>(want);
    s.carry = want - static_cast<double>(n);
    if (n > 0) out.push_back({picks[k].pid, n});
  }
  return out;
}

/// The memory stream of one simulation, produced chunk by chunk: its
/// processes' memory records in the recorded dispatch order, with pages
/// placed in a vm::FramePool the size of the simulation's DRAM exactly as
/// the simulator places them — CLOCK victims on a full pool, every frame of
/// a process reclaimed in pfn order when it ends — and each victim's lines
/// invalidated.  Each pre-execute episode is placed at its own record of
/// its own process, so it runs on the cache and page-table state the stream
/// has built by then (INV bits included).
class Stream {
 public:
  Stream(const std::vector<const trace::Trace*>& procs, std::vector<Slice> schedule,
         std::uint64_t frames, std::vector<Episode> episodes)
      : procs_(procs),
        schedule_(std::move(schedule)),
        episodes_(std::move(episodes)),
        next_ep_(procs.size() + 1, 0),
        pc_(procs.size(), 0),
        pool_(std::max<std::uint64_t>(frames, 1) << kPageShift) {
    std::erase_if(episodes_, [&](const Episode& e) { return e.pid >= procs.size(); });
    std::sort(episodes_.begin(), episodes_.end(), [](const Episode& a, const Episode& b) {
      return a.pid != b.pid ? a.pid < b.pid : a.pc < b.pc;
    });
    // next_ep_[p] is process p's next episode, end_ep_[p] one past its last.
    next_ep_.back() = episodes_.size();
    for (std::size_t p = procs.size(); p-- > 0;) {
      next_ep_[p] = next_ep_[p + 1];
      while (next_ep_[p] > 0 && episodes_[next_ep_[p] - 1].pid == p) --next_ep_[p];
    }
    end_ep_.assign(next_ep_.begin() + 1, next_ep_.end());
    left_ = schedule_.empty() ? 0 : schedule_.front().records;
  }

  /// Refills `out` with the next ops, about `max` of them; false once the
  /// stream has ended.
  bool next(std::vector<MemOp>& out, std::size_t max) {
    out.clear();
    out_ = &out;
    while (out.size() < max && slice_ < schedule_.size()) {
      const Pid pid = schedule_[slice_].pid;
      const trace::Trace& t = *procs_[pid];
      for (; left_ > 0 && pc_[pid] < t.size() && out.size() < max; --left_, ++pc_[pid])
        record(pid, t);
      if (pc_[pid] == t.size()) reclaim(pid);
      if (left_ == 0 || pc_[pid] == t.size()) {
        ++slice_;
        left_ = slice_ < schedule_.size() ? schedule_[slice_].records : 0;
      }
    }
    if (slice_ == schedule_.size() && !drained_) {
      // Records the proportional split rounded away: end those processes.
      for (Pid pid = 0; pid < procs_.size(); ++pid) reclaim(pid);
      drained_ = true;
    }
    return !out.empty();
  }

 private:
  void record(Pid pid, const trace::Trace& t) {
    const std::size_t at = pc_[pid];
    for (; next_ep_[pid] < end_ep_[pid] && episodes_[next_ep_[pid]].pc <= at; ++next_ep_[pid])
      if (episodes_[next_ep_[pid]].pc == at)
        out_->push_back(MemOp{at, episodes_[next_ep_[pid]].budget, pid, 0, OpKind::kPreexec});
    const trace::Instr& in = t[at];
    if (!in.is_mem()) return;
    const Vpn vpn = vpn_of(in.addr);
    auto it = frame_of_.find(pid_key(pid, vpn));
    Pfn pfn;
    if (it != frame_of_.end()) {
      pfn = it->second;
    } else {
      std::optional<Pfn> got = pool_.try_alloc(pid, vpn);
      if (!got) {
        evict(*pool_.clock_victim());
        got = pool_.try_alloc(pid, vpn);
      }
      pfn = *got;
      frame_of_.emplace(pid_key(pid, vpn), pfn);
      out_->push_back(MemOp{page_base(in.addr), pfn << kPageShift, pid, 0, OpKind::kMap});
    }
    pool_.mark_referenced(pfn);
    out_->push_back(MemOp{in.addr, (pfn << kPageShift) | (in.addr & kPageOffsetMask), pid,
                          in.size, OpKind::kAccess});
  }

  void evict(Pfn pfn) {
    const vm::FrameInfo& f = pool_.info(pfn);
    frame_of_.erase(pid_key(f.owner, f.vpn));
    out_->push_back(MemOp{f.vpn << kPageShift, pfn << kPageShift, f.owner, 0, OpKind::kEvict});
    pool_.release(pfn);
  }

  void reclaim(Pid pid) {
    std::vector<Pfn> owned = pool_.frames_of(pid);
    std::sort(owned.begin(), owned.end());
    for (Pfn pfn : owned) evict(pfn);
  }

  const std::vector<const trace::Trace*>& procs_;
  std::vector<Slice> schedule_;
  std::vector<Episode> episodes_;
  std::vector<std::size_t> next_ep_, end_ep_;
  std::vector<std::size_t> pc_;  ///< Next record of each process.
  vm::FramePool pool_;
  std::unordered_map<std::uint64_t, Pfn> frame_of_;  ///< pid_key(pid, vpn) -> pfn
  std::size_t slice_ = 0;
  std::uint64_t left_ = 0;  ///< Records left in the current slice.
  bool drained_ = false;
  std::vector<MemOp>* out_ = nullptr;
};

/// Per-pid memory descriptors for the replays: every page of the trace has
/// a slot and a deterministic `resident` fraction of them is mapped.
class Mms {
 public:
  Mms(const std::vector<const trace::Trace*>& procs, double resident)
      : procs_(procs), resident_(resident), mms_(procs.size()) {}

  vm::MemoryDescriptor& get(Pid pid) {
    auto& mm = mms_.at(pid);
    if (!mm) {
      const std::vector<Vpn> pages = procs_[pid]->touched_pages();
      mm = std::make_unique<vm::MemoryDescriptor>(pid, pages);
      for (std::size_t i = 0; i < pages.size(); ++i) {
        const double golden = static_cast<double>(i) * 0.6180339887498949;
        if (golden - static_cast<double>(static_cast<std::uint64_t>(golden)) < resident_) {
          vm::Pte* p = mm->pte(pages[i]);
          p->map(i);
          p->set_inv(false);
          mm->note_mapped();
        }
      }
    }
    return *mm;
  }

 private:
  const std::vector<const trace::Trace*>& procs_;
  double resident_;
  std::vector<std::unique_ptr<vm::MemoryDescriptor>> mms_;
};

/// Times `pass` (ops_per_pass calls each) until kMinReplayS has elapsed;
/// `fresh` builds untimed state for each pass.  Returns ns per call.
template <typename Fresh, typename Pass>
double ns_per_call(std::size_t ops_per_pass, Fresh fresh, Pass pass) {
  if (ops_per_pass == 0) return 0.0;
  double total_s = 0.0;
  std::uint64_t calls = 0;
  do {
    auto state = fresh();
    const auto t0 = Clock::now();
    pass(state);
    total_s += since(t0);
    calls += ops_per_pass;
  } while (total_s < kMinReplayS);
  return total_s * 1e9 / static_cast<double>(calls);
}

/// Keeps a computed value alive past the optimiser.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

template <typename T>
std::vector<T> stride_sample(const std::vector<T>& v, std::size_t cap) {
  if (v.size() <= cap) return v;
  std::vector<T> out;
  out.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) out.push_back(v[i * v.size() / cap]);
  return out;
}

template <typename T>
std::vector<T> middle_window(const std::vector<T>& v, std::size_t cap) {
  if (v.size() <= cap) return v;
  const std::size_t lo = (v.size() - cap) / 2;
  return std::vector<T>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                        v.begin() + static_cast<std::ptrdiff_t>(lo + cap));
}

/// Evenly spaced positions of one kind of record in the first few
/// processes — replay inputs for a layer the simulation never used.
template <typename Make>
void synthesize(const std::vector<const trace::Trace*>& procs, trace::Op op,
                Make make) {
  for (Pid pid = 0; pid < procs.size() && pid < 8; ++pid) {
    const trace::Trace& t = *procs[pid];
    for (std::size_t k = 0; k < 32; ++k) {
      std::size_t pc = k * t.size() / 32;
      while (pc < t.size() && t[pc].op != op) ++pc;
      if (pc < t.size()) make(pid, pc);
    }
  }
}

class Ledger {
 public:
  Ledger(bool quick, SpanLog& spans) : quick_(quick), spans_(spans) {}

  /// Adds one traced simulation's counts and replays every layer on its
  /// inputs.
  void absorb(const SimView& v, std::uint64_t sim_id);

  Counts counts;
  Costs costs;

 private:
  /// The inputs one simulation recorded for the replays.
  struct Recorded {
    std::vector<Episode> episodes;
    std::vector<Walk> walks;
    std::vector<SwapOp> swaps;
    std::vector<SchedOp> sched;
    std::vector<SchedOp> faults;  ///< kFaultBegin / kFaultEnd
    std::vector<DmaOp> dma;
  };

  std::size_t cap(std::size_t c) const { return quick_ ? c / 8 : c; }
  void replay_memory(const SimView& v, std::uint64_t sim_id, const Recorded& rec,
                     std::uint64_t refs);
  void replay_vm(const SimView& v, std::uint64_t sim_id, const Recorded& rec,
                 std::uint64_t refs);
  void replay_sched(const SimView& v, std::uint64_t sim_id, const Recorded& rec);
  void replay_storage(const SimView& v, std::uint64_t sim_id, const Recorded& rec);

  bool quick_;
  SpanLog& spans_;
};

void Ledger::absorb(const SimView& v, std::uint64_t sim_id) {
  Counts& c = counts;
  const core::SimMetrics& m = v.m;
  std::uint64_t refs = 0;  // one hierarchy access and one PTE walk each
  for (const core::ProcessOutcome& p : m.processes) refs += p.metrics.mem_refs;
  c.mem_refs += refs;
  const auto& l1 = v.sim.caches().l1().stats();
  const auto& llc = v.sim.caches().llc().stats();
  c.l1_hits += l1.hits;
  c.l1_misses += l1.misses;
  c.llc_hits += llc.hits;
  c.llc_misses += llc.misses;
  c.tlb_hits += v.sim.tlb().stats().hits;
  c.tlb_misses += v.sim.tlb().stats().misses;
  c.tlb_flushes += v.sim.tlb().stats().flushes;
  c.evictions += m.evictions;
  c.clock_scans += v.sim.frames().stats().clock_scans;
  c.major += m.major_faults;
  c.minor += m.minor_faults;
  c.prefetch_issued += m.prefetch_issued;
  c.prefetch_useful += m.prefetch_useful;
  c.preexec_episodes += m.preexec_episodes;
  c.preexec_lines += m.preexec_lines_warmed;
  c.sched_picks += v.sim.scheduler().stats().picks;
  c.sched_blocks += v.sim.scheduler().stats().blocks;
  c.io_errors += m.io_errors;
  c.deadline_aborts += m.deadline_aborts;
  c.pool_stores += m.pool_stores;
  c.async_switches += m.async_switches;
  c.offline_ns += m.health_offline_time;
  c.makespan_ns += m.makespan;
  c.events += v.et.size();

  Recorded rec;
  for (const obs::Event& e : v.et.events()) {
    switch (e.kind) {
      case obs::EventKind::kPreexecEnd:
        rec.episodes.push_back({e.pid, static_cast<std::size_t>(e.a), e.b});
        break;
      case obs::EventKind::kPrefetchWalk:
        rec.walks.push_back({e.pid, e.a});
        break;
      case obs::EventKind::kSwapIn:
      case obs::EventKind::kSwapOut:
        rec.swaps.push_back({e.pid, e.a, e.kind == obs::EventKind::kSwapOut});
        break;
      case obs::EventKind::kSchedPick:
      case obs::EventKind::kSchedBlock:
      case obs::EventKind::kSchedWake:
        rec.sched.push_back({e.kind, e.pid, e.ts});
        break;
      case obs::EventKind::kFaultBegin:
      case obs::EventKind::kFaultEnd:
        rec.faults.push_back({e.kind, e.pid, e.ts});
        break;
      case obs::EventKind::kCtxSwitch:
        ++c.ctx_switches;
        break;
      case obs::EventKind::kDmaComplete: {
        const auto dir = static_cast<storage::Dir>(e.c);
        ++(dir == storage::Dir::kRead ? c.dma_reads : c.dma_writes);
        rec.dma.push_back({e.b, e.a, dir});
        break;
      }
      default:
        break;
    }
  }
  replay_memory(v, sim_id, rec, refs);
  replay_vm(v, sim_id, rec, refs);
  replay_sched(v, sim_id, rec);
  replay_storage(v, sim_id, rec);
}

/// mem (hierarchy accesses, page invalidations, TLB) and cpu (pre-execute
/// episodes) over the simulation's memory stream.
void Ledger::replay_memory(const SimView& v, std::uint64_t sim_id,
                           const Recorded& rec, std::uint64_t refs) {
  const core::SimConfig& sc = v.cfg;
  std::vector<Episode> episodes = stride_sample(rec.episodes, cap(kEpisodeCap));
  if (episodes.empty()) {
    // The policy never pre-executed: place episodes at evenly spaced loads,
    // each with the wait of one ULL media read.
    synthesize(v.procs, trace::Op::kLoad, [&](Pid pid, std::size_t pc) {
      episodes.push_back({pid, pc, kSynthBudget});
    });
  }
  ScopedSpan s(&spans_, "replay.mem", kNoParent, sim_id);
  Stream stream(v.procs, slices(rec.sched, rec.faults, v.procs, v.m.makespan),
                v.sim.frames().num_frames(), std::move(episodes));
  Mms live(v.procs, 0.0);  // present bits follow the stream's frames
  mem::CacheHierarchy caches(v.sim.caches().config());
  mem::PreexecCache px(sc.px_cache);
  cpu::PreexecEngine engine(sc.preexec, caches, px);
  mem::Tlb tlb(sc.tlb_entries);
  const auto& ts = v.sim.tlb().stats();
  const std::uint64_t lookups = ts.hits + ts.misses;
  const std::uint64_t flush_every =
      ts.flushes ? std::max<std::uint64_t>(lookups / ts.flushes, 1) : 0;
  std::uint64_t until_flush = flush_every;

  const double overhead = clock_overhead_ns();
  double access_ns = 0.0, inval_ns = 0.0, preexec_ns = 0.0, tlb_ns = 0.0;
  std::uint64_t accesses = 0, invals = 0, episodes_run = 0, tlb_ops = 0;
  std::vector<MemOp> ops;
  // The first chunk fills the caches, frames and TLB untimed.
  for (std::size_t chunk = 0; stream.next(ops, kChunkOps); ++chunk) {
    const bool timed = chunk > 0;
    for (const MemOp& op : ops) live.get(op.pid);  // build outside the timing
    for (std::size_t i = 0; i < ops.size();) {
      const MemOp& op = ops[i];
      switch (op.kind) {
        case OpKind::kMap: {
          vm::MemoryDescriptor& mm = live.get(op.pid);
          vm::Pte* p = mm.pte(vpn_of(op.va));
          p->map(pfn_of(op.pa));
          p->set_inv(false);
          mm.note_mapped();
          ++i;
          break;
        }
        case OpKind::kEvict: {
          vm::MemoryDescriptor& mm = live.get(op.pid);
          vm::Pte* p = mm.pte(vpn_of(op.va));
          if (p->present()) mm.note_unmapped();
          p->unmap();
          p->set_inv(false);
          const auto t0 = Clock::now();
          caches.invalidate_page(op.pa);
          const double ns = ns_between(t0, Clock::now()) - overhead;
          if (timed) inval_ns += ns, ++invals;
          ++i;
          break;
        }
        case OpKind::kPreexec: {
          cpu::RegisterFile rf;
          const auto t0 = Clock::now();
          keep(engine.run(*v.procs[op.pid], op.va, rf, live.get(op.pid), op.pa));
          const double ns = ns_between(t0, Clock::now()) - overhead;
          if (timed) preexec_ns += ns, ++episodes_run;
          ++i;
          break;
        }
        case OpKind::kAccess: {
          std::size_t j = i;
          const auto t0 = Clock::now();
          for (; j < ops.size() && ops[j].kind == OpKind::kAccess; ++j)
            keep(caches.access(ops[j].pa, ops[j].size));
          const double ns = ns_between(t0, Clock::now()) - overhead;
          if (timed) access_ns += ns, accesses += j - i;
          i = j;
          break;
        }
      }
    }

    // The TLB sees the same chunk: lookups and inserts, a shootdown per
    // eviction, and a flush every lookups ÷ flushes accesses.
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    for (const MemOp& op : ops) {
      const std::uint64_t key = pid_key(op.pid, vpn_of(op.va));
      if (op.kind == OpKind::kEvict) tlb.invalidate(key);
      if (op.kind != OpKind::kAccess) continue;
      ++n;
      if (!tlb.lookup(key)) tlb.insert(key);
      if (until_flush != 0 && --until_flush == 0) {
        tlb.flush();
        until_flush = flush_every;
      }
    }
    if (timed) tlb_ns += ns_between(t0, Clock::now()) - overhead, tlb_ops += n;
  }

  auto per = [](double ns, std::uint64_t n) { return n ? std::max(ns, 0.0) / n : 0.0; };
  costs.access.add(refs, per(access_ns, accesses));
  costs.tlb.add(lookups, per(tlb_ns, tlb_ops));
  costs.preexec.add(v.m.preexec_episodes, per(preexec_ns, episodes_run));

  // A prefetched page nobody touched holds no cache lines (DMA fills
  // none), so its eviction costs what a line-free frame does.  Those
  // evictions number prefetch_issued - prefetch_useful; the stream's own
  // victims price the rest.
  const std::uint64_t frames = v.sim.frames().num_frames();
  const auto t0 = Clock::now();
  for (std::uint64_t k = 0; k < 256; ++k) caches.invalidate_page((frames + k) << kPageShift);
  const double cold_ns = per(ns_between(t0, Clock::now()) - overhead, 256);
  const std::uint64_t unused =
      v.m.prefetch_issued > v.m.prefetch_useful ? v.m.prefetch_issued - v.m.prefetch_useful : 0;
  const std::uint64_t cold = std::min(v.m.evictions, unused);
  const double warm_ns = per(inval_ns, invals);
  const double inval = v.m.evictions
      ? (static_cast<double>(cold) * cold_ns +
         static_cast<double>(v.m.evictions - cold) * warm_ns) /
            static_cast<double>(v.m.evictions)
      : warm_ns;
  costs.invalidate.add(v.m.evictions, inval);
}

/// vm: the page-table work of a translated access, prefetch candidate
/// walks and swap-slot bookkeeping.
void Ledger::replay_vm(const SimView& v, std::uint64_t sim_id, const Recorded& rec,
                       std::uint64_t refs) {
  const core::SimConfig& sc = v.cfg;
  Mms mms(v.procs, v.resident);
  {
    // Every memory record of the first processes, as one stream.
    std::vector<std::pair<Pid, Vpn>> touches;
    for (Pid pid = 0; pid < v.procs.size() && touches.size() < kTouchCap; ++pid)
      for (const trace::Instr& in : v.procs[pid]->records())
        if (in.is_mem()) touches.emplace_back(pid, vpn_of(in.addr));
    for (const auto& [pid, vpn] : touches) mms.get(pid);
    ScopedSpan s(&spans_, "replay.vm.pte", kNoParent, sim_id);
    const double ns = ns_per_call(
        touches.size(), [] { return 0; },
        [&](int) {
          for (const auto& [pid, vpn] : touches) {
            vm::MemoryDescriptor& mm = mms.get(pid);
            keep(mm.classify(vpn));
            if (vm::Pte* p = mm.pte(vpn)) p->set_accessed(true);
          }
        });
    costs.pte.add(refs, ns);
  }
  {
    std::vector<Walk> walks = stride_sample(rec.walks, cap(kEventCap));
    if (walks.empty())
      synthesize(v.procs, trace::Op::kLoad, [&](Pid pid, std::size_t pc) {
        walks.push_back({pid, vpn_of((*v.procs[pid])[pc].addr)});
      });
    for (const Walk& w : walks) mms.get(w.pid);
    const bool pop = v.sim.policy().kind() == core::PolicyKind::kSyncPrefetch;
    const vm::VaPrefetcher va(sc.va_prefetch);
    const vm::PopPrefetcher pp(sc.pop_prefetch);
    ScopedSpan s(&spans_, "replay.vm.prefetch", kNoParent, sim_id);
    const double ns = ns_per_call(
        walks.size(), [] { return 0; },
        [&](int) {
          for (const Walk& w : walks) {
            vm::MemoryDescriptor& mm = mms.get(w.pid);
            keep(pop ? pp.collect(mm, w.victim) : va.collect(mm, w.victim));
          }
        });
    costs.walk.add(rec.walks.size(), ns);
  }
  const std::vector<SwapOp> swaps = middle_window(rec.swaps, cap(kEventCap));
  ScopedSpan s(&spans_, "replay.vm.swap", kNoParent, sim_id);
  const double ns = ns_per_call(
      swaps.size(), [] { return vm::SwapArea(); },
      [&](vm::SwapArea& area) {
        for (const SwapOp& op : swaps) {
          if (op.out) {
            area.record_swap_out(op.pid, op.vpn);
          } else {
            area.slot_for(op.pid, op.vpn);
            area.record_swap_in(op.pid, op.vpn);
          }
        }
      });
  costs.swap.add(v.sim.swap().stats().swap_ins + v.sim.swap().stats().swap_outs, ns);
}

/// sched: the recorded pick / block / wake sequence on a fresh RR
/// scheduler, kept legal on the replay's own terms — a pick first yields
/// whoever is still running, a block takes the running process, a wake
/// returns a blocked one.
void Ledger::replay_sched(const SimView& v, std::uint64_t sim_id, const Recorded& rec) {
  const std::vector<SchedOp> ops = middle_window(rec.sched, cap(kEventCap));
  Pid max_pid = 0;
  for (const SchedOp& op : ops) max_pid = std::max(max_pid, op.pid);
  auto tiny = std::make_shared<trace::Trace>("replay");
  tiny->push_back(trace::Instr::compute(1, 1, 0, 0));
  std::vector<std::unique_ptr<sched::Process>> procs;
  for (Pid p = 0; p <= max_pid && !ops.empty(); ++p)
    procs.push_back(std::make_unique<sched::Process>(
        p, "replay", 10 * static_cast<int>(1 + p % 6), tiny));

  auto pass = [&](sched::RRScheduler& rr) {
    sched::Process* running = nullptr;
    std::vector<sched::Process*> blocked;
    std::uint64_t calls = 0;
    for (const SchedOp& op : ops) {
      if (op.kind == obs::EventKind::kSchedPick) {
        if (running != nullptr) {
          rr.yield(running);
          ++calls;
        }
        running = rr.pick();
        ++calls;
      } else if (op.kind == obs::EventKind::kSchedBlock) {
        if (running == nullptr) continue;
        rr.block(running);
        blocked.push_back(running);
        running = nullptr;
        ++calls;
      } else if (!blocked.empty()) {
        auto it = std::find_if(blocked.begin(), blocked.end(),
                               [&](sched::Process* p) { return p->pid() == op.pid; });
        if (it == blocked.end()) it = blocked.begin();
        rr.wake(*it);
        blocked.erase(it);
        ++calls;
      }
    }
    return calls;
  };
  auto fresh = [&] {
    auto rr = std::make_unique<sched::RRScheduler>(v.cfg.slice_min, v.cfg.slice_max);
    for (auto& p : procs) rr->add(p.get());
    return rr;
  };
  const std::uint64_t calls_per_pass = pass(*fresh());
  ScopedSpan s(&spans_, "replay.sched", kNoParent, sim_id);
  const double ns = ns_per_call(
      calls_per_pass, fresh,
      [&](std::unique_ptr<sched::RRScheduler>& rr) { pass(*rr); });
  const auto& st = v.sim.scheduler().stats();
  costs.sched.add(st.picks + st.yields + st.blocks + st.wakes, ns);
}

/// storage: the recorded DMA posts; fault: the recorded demand reads as
/// checked posts under the simulation's fault profile.
void Ledger::replay_storage(const SimView& v, std::uint64_t sim_id,
                            const Recorded& rec) {
  const core::SimConfig& sc = v.cfg;
  const std::vector<DmaOp> dma = middle_window(rec.dma, cap(kEventCap));
  {
    ScopedSpan s(&spans_, "replay.storage.dma", kNoParent, sim_id);
    const double ns = ns_per_call(
        dma.size(), [&] { return storage::DmaController(sc.ull, sc.pcie); },
        [&](storage::DmaController& ctl) {
          for (const DmaOp& op : dma) keep(ctl.post(op.at, op.dir, op.bytes));
        });
    costs.dma.add(rec.dma.size(), ns);
  }
  std::vector<DmaOp> reads;
  for (const DmaOp& op : dma)
    if (op.dir == storage::Dir::kRead) reads.push_back(op);
  struct Checked {
    std::unique_ptr<fault::FaultInjector> inj;
    std::unique_ptr<storage::DmaController> ctl;
  };
  ScopedSpan s(&spans_, "replay.fault.post_checked", kNoParent, sim_id);
  const double ns = ns_per_call(
      reads.size(),
      [&] {
        Checked c{std::make_unique<fault::FaultInjector>(sc.fault),
                  std::make_unique<storage::DmaController>(sc.ull, sc.pcie)};
        c.ctl->attach_fault(c.inj.get());
        return c;
      },
      [&](Checked& c) {
        for (const DmaOp& op : reads)
          keep(c.ctl->post_checked(op.at, storage::Dir::kRead, op.bytes));
      });
  costs.checked.add(v.m.io_errors, ns);
}

/// The traced twin of run_batch_policy: same configuration, processes and
/// run, with an event trace attached and the Simulator kept in reach.
core::SimMetrics traced_batch_sim(const Inputs& in, std::size_t i,
                                  obs::EventTrace& et, double& run_s,
                                  const std::function<void(const SimView&)>& view) {
  const SimJob& j = in.sims[i];
  const auto t0 = Clock::now();
  core::SimConfig sc = j.cfg.sim;
  sc.dram_bytes = core::dram_bytes_for(*j.batch, j.cfg.dram_headroom,
                                       j.cfg.gen.footprint_scale);
  core::Simulator sim(sc, j.policy);
  sim.set_trace(&et);
  const TraceSet& traces = in.traces[j.traces];
  for (auto& p : core::build_processes(*j.batch, traces, sc.seed))
    sim.add_process(std::move(p));
  core::SimMetrics m = sim.run();
  run_s = since(t0);

  std::vector<const trace::Trace*> procs;
  std::uint64_t pages = 0;
  for (const auto& t : traces) {
    procs.push_back(t.get());
    pages += t->stats().footprint_pages;
  }
  const double resident =
      std::min(1.0, static_cast<double>(sim.frames().num_frames()) /
                        static_cast<double>(std::max<std::uint64_t>(pages, 1)));
  view(SimView{sim, sc, m, et, std::move(procs), resident});
  return m;
}

/// The traced twin of serve::run_serve: the same schedule, admission gate
/// and retirement accounting, with the Simulator kept in reach.  The
/// traced pass requires its digest to equal run_serve's.
serve::ServeMetrics traced_serve(const serve::ServeConfig& cfg,
                                 obs::EventTrace& et, double& run_s,
                                 const std::function<void(const SimView&)>& view) {
  using obs::EventKind;
  const auto t0 = Clock::now();
  serve::ServeMetrics out;
  for (const serve::TierSpec& t : cfg.tiers) {
    serve::TierMetrics tm;
    tm.name = t.name;
    tm.slo_ns = t.slo_ns;
    out.tiers.push_back(std::move(tm));
  }
  const std::vector<serve::Request> reqs = serve::generate_requests(cfg);
  core::SimConfig sc = cfg.sim;
  sc.dram_bytes = serve::serve_dram_bytes(cfg);
  core::Simulator sim(sc, core::PolicyKind::kIts);
  sim.set_trace(&et);
  std::vector<std::shared_ptr<const trace::Trace>> templates;
  for (const serve::TierSpec& t : cfg.tiers) {
    trace::GeneratorConfig g;
    g.footprint_scale = cfg.footprint_scale;
    g.length_scale = cfg.length_scale;
    g.seed = cfg.arrivals.seed;
    templates.push_back(std::make_shared<trace::Trace>(trace::generate(t.workload, g)));
  }
  std::vector<const trace::Trace*> procs;
  for (const serve::Request& rq : reqs) {
    const serve::TierSpec& t = cfg.tiers[rq.tier];
    sim.add_process_at(rq.arrive, std::make_unique<sched::Process>(
                                      static_cast<Pid>(rq.id),
                                      t.name + "-" + std::to_string(rq.id),
                                      t.priority, templates[rq.tier]));
    procs.push_back(templates[rq.tier].get());
  }
  std::vector<SimTime> arrived_at(reqs.size(), 0);
  unsigned in_flight = 0;
  sim.set_admission_gate([&](sched::Process& p) {
    const serve::Request& rq = reqs[p.pid()];
    serve::TierMetrics& tm = out.tiers[rq.tier];
    ++tm.arrivals;
    ++out.arrivals;
    et.record(EventKind::kRequestArrive, sim.now(), p.pid(), rq.id, rq.tier);
    if (cfg.admit_limit != 0 && in_flight >= cfg.admit_limit) {
      ++tm.rejects;
      ++out.rejects;
      return false;
    }
    ++in_flight;
    ++tm.admits;
    ++out.admits;
    arrived_at[p.pid()] = sim.now();
    et.record(EventKind::kRequestAdmit, sim.now(), p.pid(), rq.id, rq.tier);
    return true;
  });
  sim.set_retire_hook([&](sched::Process& p) {
    const serve::Request& rq = reqs[p.pid()];
    const serve::TierSpec& t = cfg.tiers[rq.tier];
    serve::TierMetrics& tm = out.tiers[rq.tier];
    --in_flight;
    const Duration lat = sim.now() - arrived_at[p.pid()];
    ++tm.completed;
    ++out.completed;
    tm.latency.add(lat);
    out.latency.add(lat);
    et.record(EventKind::kRequestDone, sim.now(), p.pid(), rq.id, lat, rq.tier);
    if (t.slo_ns != 0 && lat > t.slo_ns) {
      ++tm.slo_violations;
      ++out.slo_violations;
      et.record(EventKind::kSloViolation, sim.now(), p.pid(), rq.id, lat, t.slo_ns);
    }
  });
  out.sim = sim.run();
  run_s = since(t0);
  const double resident = 1.0 / std::max(cfg.overcommit, 1.0);
  view(SimView{sim, sc, out.sim, et, std::move(procs), resident});
  return out;
}

}  // namespace

std::span<const MetricSpec> per_layer_metrics() { return kMetrics; }

RunResult run_traced(const Inputs& in, double seconds, bool quick,
                        SpanLog& spans) {
  RunResult res;
  Ledger ledger(quick, spans);
  const unsigned jobs = default_jobs(in.workload);
  // Per pass: Σ untraced and Σ traced simulation wall, and farm efficiency.
  std::vector<double> untraced_s, traced_s, efficiency;
  std::uint64_t records = 0;
  serve::ServeMetrics served;
  const auto start = Clock::now();

  for (unsigned pass = 0;; ++pass) {
    const bool first = pass == 0;
    const auto pass_start = Clock::now();
    std::uint64_t sims = 0, failed = 0;
    std::vector<std::uint64_t> digests;  // the untraced and traced runs'
    std::uint64_t farm_digest = 0;
    auto fail = [&](std::string what) {
      res.errors.push_back(std::move(what));
      ++failed;
    };
    auto check = [&](std::size_t root, std::uint64_t sim_id, const std::string& label,
                     const core::SimMetrics& m, const obs::EventTrace* et) {
      std::string err = check_identity(m);
      if (et != nullptr) {
        ScopedSpan s(&spans, "obs.check_invariants", root, sim_id);
        const auto t0 = Clock::now();
        const obs::CheckResult cr = obs::check_invariants(*et, m);
        if (first) ledger.counts.check_s += since(t0);
        if (!cr.ok()) err += (err.empty() ? "" : "; ") + cr.summary();
        if (et->dropped() != 0) err += "; dropped " + std::to_string(et->dropped()) + " events";
      }
      if (!err.empty()) fail(label + (et ? " (traced): " : ": ") + err);
    };

    if (jobs > 1) {
      // The farm's own round, for its efficiency; the layers are measured
      // on serial runs of Inputs::ledger_sims below.
      const std::size_t root = spans.begin("round.farm");
      const Round r = run_round(in, jobs, &spans, root);
      spans.end(root);
      efficiency.push_back(r.task_s / (r.jobs * r.wall_s));
      sims += r.sims;
      failed += r.failed;
      res.errors.insert(res.errors.end(), r.errors.begin(), r.errors.end());
      farm_digest = r.digest;
    }

    // Each simulation runs untraced, then traced, then (first pass) has its
    // layers replayed, back to back: the untraced wall a share divides by
    // is measured next to the replays, not minutes away on a drifting host.
    const std::size_t root = spans.begin("round.traced");
    double u_total = 0.0, t_total = 0.0;
    if (in.workload == Workload::kServeSteady) {
      serve::ServeMetrics plain, traced;
      {
        ScopedSpan s(&spans, "serve.run_serve", root, 1);
        const auto t0 = Clock::now();
        plain = serve::run_serve(in.serve, core::PolicyKind::kIts);
        u_total += since(t0);
      }
      check(root, 1, "serve_steady", plain.sim, nullptr);
      obs::EventTrace et;
      {
        ScopedSpan s(&spans, "serve.run_serve.traced", root, 1);
        traced = traced_serve(in.serve, et, t_total, [&](const SimView& v) {
          check(root, 1, "serve_steady", v.m, &v.et);
          if (first) ledger.absorb(v, 1);
        });
      }
      sims += 2;
      records = serve_records(in, plain);
      digests.push_back(serve_digest(plain));
      digests.push_back(serve_digest(traced));
      if (first) served = std::move(plain);
    } else {
      std::vector<core::SimMetrics> plain, traced;
      records = 0;
      for (std::size_t i = 0; i < in.ledger_sims; ++i) {
        const SimJob& j = in.sims[i];
        const std::string label =
            std::string(j.batch->name) + "/" + std::string(core::policy_name(j.policy));
        {
          ScopedSpan s(&spans, "core.run_batch_policy", root, i + 1);
          const auto t0 = Clock::now();
          plain.push_back(core::run_batch_policy(*j.batch, j.policy, j.cfg, in.traces[j.traces]));
          u_total += since(t0);
        }
        check(root, i + 1, label, plain.back(), nullptr);
        obs::EventTrace et;
        double run_s = 0.0;
        ScopedSpan s(&spans, "core.Simulator.run", root, i + 1);
        traced.push_back(traced_batch_sim(in, i, et, run_s, [&](const SimView& v) {
          check(root, i + 1, label, v.m, &v.et);
          if (first) ledger.absorb(v, i + 1);
        }));
        t_total += run_s;
        for (const auto& t : in.traces[j.traces]) records += t->size();
      }
      sims += 2 * in.ledger_sims;
      digests.push_back(batch_digest(in, plain));
      digests.push_back(batch_digest(in, traced));
    }
    spans.end(root);

    // The untraced and traced runs must have produced the same outputs, and
    // every pass the first pass's; a pass that did not fails as a whole.
    // The farmed round is the one run that covers all of grid_farm.
    const std::uint64_t whole = jobs > 1 ? farm_digest : digests.front();
    if (first) res.digest = whole;
    if (std::count(digests.begin(), digests.end(), digests.front()) !=
            static_cast<std::ptrdiff_t>(digests.size()) ||
        whole != res.digest) {
      res.errors.push_back("the untraced, traced and farmed digests of a pass differ");
      failed = sims;
    }
    res.attempted += sims;
    res.failed += std::min(failed, sims);
    untraced_s.push_back(u_total);
    traced_s.push_back(t_total);
    // No pass starts that would end past the measuring time.
    if (quick || since(start) + since(pass_start) >= seconds) break;
  }

  const Counts& c = ledger.counts;
  const Costs& k = ledger.costs;
  const double untraced_ns = 1e9 * untraced_s.front();  // the replayed pass
  auto share = [&](const Cost& cost) { return cost.weighted_ns / untraced_ns; };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  const double mem_access = share(k.access);
  const double mem_inval = share(k.invalidate);
  const double mem_tlb = share(k.tlb);
  const double cpu = share(k.preexec);
  const double vm = (k.pte.weighted_ns + k.walk.weighted_ns + k.swap.weighted_ns) / untraced_ns;
  const double sched = share(k.sched);
  const double dma = share(k.dma);
  std::vector<double> slowdown;
  for (std::size_t p = 0; p < traced_s.size(); ++p)
    slowdown.push_back(ratio(traced_s[p], untraced_s[p]) - 1.0);

  const double values[] = {
      static_cast<double>(records),
      ratio(in.generate_s * 1e9, static_cast<double>(in.generated_records)),
      static_cast<double>(c.mem_refs),
      ratio(c.l1_misses, c.l1_hits + c.l1_misses),
      ratio(c.llc_misses, c.llc_hits + c.llc_misses),
      k.access.ns(),
      mem_access,
      static_cast<double>(c.evictions),
      k.invalidate.ns(),
      mem_inval,
      ratio(c.tlb_misses, c.tlb_hits + c.tlb_misses),
      static_cast<double>(c.tlb_flushes),
      k.tlb.ns(),
      mem_tlb,
      static_cast<double>(c.preexec_episodes),
      static_cast<double>(c.preexec_lines),
      k.preexec.ns(),
      cpu,
      static_cast<double>(c.major),
      static_cast<double>(c.minor),
      static_cast<double>(c.evictions),
      ratio(c.clock_scans, c.evictions),
      k.pte.ns(),
      static_cast<double>(c.prefetch_issued),
      ratio(c.prefetch_useful, c.prefetch_issued),
      k.walk.ns(),
      k.swap.ns(),
      vm,
      static_cast<double>(c.sched_picks),
      static_cast<double>(c.sched_blocks),
      static_cast<double>(c.ctx_switches),
      k.sched.ns(),
      sched,
      static_cast<double>(c.dma_reads),
      static_cast<double>(c.dma_writes),
      k.dma.ns(),
      dma,
      static_cast<double>(c.io_errors),
      static_cast<double>(c.deadline_aborts),
      static_cast<double>(c.pool_stores),
      ratio(c.offline_ns, c.makespan_ns),
      k.checked.ns(),
      static_cast<double>(served.completed),
      static_cast<double>(served.rejects),
      static_cast<double>(served.latency.quantile(0.99)) / 1e6,
      static_cast<double>(served.slo_violations),
      static_cast<double>(jobs),
      efficiency.empty() ? 1.0 : median(efficiency),
      static_cast<double>(c.events),
      median(slowdown),
      ratio(c.check_s * 1e9, c.events),
      static_cast<double>(c.async_switches),
      1.0 - (mem_access + mem_inval + mem_tlb + cpu + vm + sched + dma),
  };
  static_assert(sizeof(values) / sizeof(values[0]) == std::size(kMetrics));
  for (std::size_t i = 0; i < std::size(kMetrics); ++i)
    res.metrics.push_back(Metric{std::string(kMetrics[i].name), values[i],
                                 std::string(kMetrics[i].unit)});
  return res;
}

}  // namespace perfbench
