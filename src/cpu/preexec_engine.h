// Fault-aware pre-execute engine (paper §3.4.2, Fig. 3).
//
// During a synchronous I/O wait the engine executes the instructions that
// follow the faulting one, under INV-bit poisoning rules, purely to warm
// the (main) cache hierarchy: "the real effects of the pre-execute policy
// are to populate the cache so that high-priority processes have better
// chances to finish earlier" (§3.1).  Pre-executed instructions re-execute
// architecturally when the process resumes — correctness is guaranteed by
// the state-recovery policy (shadow register file checkpoint/restore).
//
// Store flow (Fig. 3a): an invalid store (page still in storage, or bogus
// source data) allocates a pre-execute cache line with INV bytes and sets
// the PTE INV bit; a valid store goes to the store buffer (retiring into
// the pre-execute cache) and fetches its line into the main cache.
// Pre-execute stores never modify the main cache's or memory's data.
//
// Load flow (Fig. 3b): check store buffer → pre-execute cache → main cache
// (consult the PTE INV bit) → memory (fetch and warm: the payoff).
#pragma once

#include "cpu/register_file.h"
#include "cpu/store_buffer.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "trace/instr.h"
#include "trace/trace.h"
#include "util/types.h"
#include "vm/mm.h"

#include <cstdint>

namespace its::cpu {

/// How the state-recovery policy detects I/O completion (§3.4.3): "The
/// state-recovery policy is triggered by either polling, where a timer
/// periodically checks I/O completion, or interruption, initiated by DMA
/// upon I/O completion."  Polling quantises the resume point to the poll
/// period; interruption resumes exactly at completion.
enum class RecoveryTrigger : std::uint8_t { kInterrupt, kPolling };

struct PreexecConfig {
  std::uint32_t max_records = 1024;      ///< Lookahead window per episode.
  std::uint32_t max_warm_fills = 64;     ///< MSHR/bandwidth cap per episode.
  its::Duration checkpoint_cost = 5;     ///< ns — hardware shadow-RF checkpoint (§3.4.3).
  its::Duration restore_cost = 5;        ///< ns — state recovery on exit.
  its::Duration issue_cost = 12;         ///< ns per overlapped memory fetch.
  its::Duration skip_cost = 1;           ///< ns per skipped invalid op.
  double ns_per_instr = 1.0;             ///< Pre-execute ALU throughput.
  RecoveryTrigger recovery_trigger = RecoveryTrigger::kInterrupt;
  its::Duration poll_period = 250;       ///< ns between polls (kPolling only).
};

struct EpisodeResult {
  its::Duration used = 0;            ///< CPU ns consumed (stolen from the wait).
  std::uint32_t records = 0;         ///< Records examined.
  std::uint32_t invalid_ops = 0;     ///< Instructions skipped as INV.
  std::uint32_t lines_warmed = 0;    ///< Main-cache lines fetched early.
  std::uint32_t stores_buffered = 0;
  bool ran = false;                  ///< False if the budget was too small.
};

struct PreexecTotals {
  std::uint64_t episodes = 0;
  std::uint64_t records = 0;
  std::uint64_t invalid_ops = 0;
  std::uint64_t lines_warmed = 0;
  its::Duration time_used = 0;
};

class PreexecEngine {
 public:
  PreexecEngine(const PreexecConfig& cfg, mem::CacheHierarchy& caches,
                mem::PreexecCache& px_cache);

  /// Runs one pre-execute episode for the process whose trace/registers/mm
  /// are given.  `fault_idx` is the record that faulted (its destination is
  /// the initial poison); execution starts at `fault_idx + 1` and stops on
  /// budget exhaustion, window exhaustion, fill-cap exhaustion, or trace
  /// end.  The register file is checkpointed on entry and restored on exit
  /// (state-recovery policy); both transitions are charged against the
  /// budget.
  EpisodeResult run(const trace::Trace& trace, std::size_t fault_idx,
                    RegisterFile& rf, vm::MemoryDescriptor& mm,
                    its::Duration budget);

  const PreexecTotals& totals() const { return totals_; }
  const PreexecConfig& config() const { return cfg_; }
  StoreBuffer& store_buffer() { return sb_; }

 private:
  /// Composite pre-execute-cache key for a process virtual address.
  static std::uint64_t px_key(its::Pid pid, its::VirtAddr va) {
    return mem::PreexecCache::key(pid, va);
  }

  void preexec_load(const trace::Instr& in, RegisterFile& rf,
                    vm::MemoryDescriptor& mm, EpisodeResult& ep);
  void preexec_store(const trace::Instr& in, RegisterFile& rf,
                     vm::MemoryDescriptor& mm, EpisodeResult& ep);

  PreexecConfig cfg_;
  mem::CacheHierarchy& caches_;
  mem::PreexecCache& px_;
  StoreBuffer sb_;
  ShadowRegisterFile shadow_;
  PreexecTotals totals_;
};

}  // namespace its::cpu
