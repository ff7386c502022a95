// Physical DRAM frame pool with CLOCK (second-chance) replacement.
//
// The paper sizes DRAM "to match the working set" of the batch; when every
// frame is in use, allocating for a fault or a prefetch evicts the CLOCK
// victim.  The pool tracks ownership (which process/virtual page holds each
// frame) so the simulator can unmap, invalidate caches, and schedule the
// swap-out write.  Frames receiving an in-flight DMA transfer are pinned.
#pragma once

#include "util/types.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace its::vm {

struct FrameInfo {
  bool in_use = false;
  bool pinned = false;
  bool referenced = false;  ///< CLOCK reference bit.
  its::Pid owner = 0;
  its::Vpn vpn = its::kInvalidPage;
};

struct FramePoolStats {
  std::uint64_t allocations = 0;
  std::uint64_t releases = 0;
  std::uint64_t clock_scans = 0;  ///< Frames examined by the CLOCK hand.
};

class FramePool {
 public:
  explicit FramePool(its::Bytes dram_bytes);

  std::uint64_t num_frames() const { return frames_.size(); }
  std::uint64_t free_frames() const { return free_.size(); }
  std::uint64_t used_frames() const { return num_frames() - free_frames(); }

  /// Takes a free frame, or nullopt if DRAM is full (caller must evict).
  std::optional<its::Pfn> try_alloc(its::Pid owner, its::Vpn vpn);

  /// Picks the next eviction victim by CLOCK: skips pinned frames, gives a
  /// second chance to referenced ones.  Returns nullopt only if every
  /// in-use frame is pinned.
  std::optional<its::Pfn> clock_victim();

  /// Returns a frame to the free list.
  void release(its::Pfn pfn);

  void pin(its::Pfn pfn);
  void unpin(its::Pfn pfn);
  void mark_referenced(its::Pfn pfn);

  /// Carves up to `count` frames off the tail (highest pfns) of the free
  /// list for an external owner — the compressed fallback pool
  /// (vm/fallback_pool.h).  Carved frames are marked in-use and pinned so
  /// the CLOCK hand never considers them.  Call before the first
  /// allocation; returns the number actually carved.
  std::uint64_t carve_tail(std::uint64_t count);

  /// Frames currently allocated to `owner` (through try_alloc), in
  /// unspecified order — sort a copy before any order-sensitive walk.
  /// Maintained O(1) per allocation/release so a process exit reclaims its
  /// DRAM in time proportional to what it owns, not to the whole pool
  /// (docs/serving.md profiles the difference at serving scale).  Carved
  /// frames (carve_tail) are never tracked.
  const std::vector<its::Pfn>& frames_of(its::Pid owner) const;

  const FrameInfo& info(its::Pfn pfn) const;
  const FramePoolStats& stats() const { return stats_; }

  its::PhysAddr phys_base(its::Pfn pfn) const { return pfn << its::kPageShift; }

 private:
  static constexpr std::size_t kUnindexed = static_cast<std::size_t>(-1);

  FrameInfo& at(its::Pfn pfn);
  void index_insert(its::Pfn pfn, its::Pid owner);
  void index_remove(its::Pfn pfn, its::Pid owner);

  std::vector<FrameInfo> frames_;
  std::vector<its::Pfn> free_;
  std::uint64_t hand_ = 0;
  FramePoolStats stats_;
  /// Owner pid → owned pfns (grown on an owner's first frame), with
  /// per-frame positions for O(1) swap-removal.
  std::vector<std::vector<its::Pfn>> owned_;
  std::vector<std::size_t> pos_;
};

}  // namespace its::vm
