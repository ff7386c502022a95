// Pre-execute cache (paper §3.4.2).
//
// "Within each CPU, we introduce a pre-execute cache, associating an INV bit
// with each byte. This cache stores both data values and their associated
// INV statuses linked to retired store instructions from the store buffer."
//
// In the trace-driven model we track *validity*, not data values: each line
// holds a written-byte mask and a per-byte INV mask.  The cache is tagged by
// (pid, virtual address) because invalid stores may target pages with no
// physical address (the data is still in storage — Fig. 3a case 0), and it
// is only accessible during pre-execution.
//
// Layout: the tags live in their own contiguous array, one set's ways
// side by side, so a probe reads only the tags it compares.  An empty way
// holds the all-ones sentinel tag `kNoTag`; no real tag can equal it,
// because a tag is a 64-byte line number shifted right by the set bits and
// so has at least six leading zero bits.  The per-line byte masks and LRU
// stamp sit in a parallel 24-byte side record, read only on a tag hit or
// when choosing a victim.  The set count must be a power of two so the
// set/tag split is a mask and a shift.
#pragma once

#include "util/types.h"

#include <cstdint>
#include <vector>

namespace its::mem {

struct PreexecCacheConfig {
  its::Bytes size_bytes = 4_MiB;  ///< Half of the 8 MB LLC.
  unsigned ways = 16;
  unsigned line_size = 64;
};

/// Result of a pre-execute load probe.
struct PxLookup {
  bool found = false;      ///< Some written bytes of the range are present.
  bool complete = false;   ///< Every byte of the range is present.
  bool any_invalid = false;///< Any overlapping written byte is INV.
};

struct PreexecCacheStats {
  std::uint64_t stores = 0;
  std::uint64_t load_hits = 0;
  std::uint64_t load_misses = 0;
  std::uint64_t invalid_bytes_written = 0;
};

class PreexecCache {
 public:
  /// Throws std::invalid_argument unless lines are 64 bytes and the
  /// geometry gives a power-of-two number of sets.
  explicit PreexecCache(const PreexecCacheConfig& cfg = {});

  /// Composite key for (pid, vaddr): heap VAs use < 48 bits.
  static std::uint64_t key(its::Pid pid, its::VirtAddr va) {
    return its::pid_key(pid, va);
  }

  /// Records a retired pre-execute store of [addr, addr+size); bytes are
  /// flagged INV when `invalid` (bogus source data or page-in-storage).
  void store(its::VirtAddr addr, unsigned size, bool invalid);

  /// Pre-execute load probe over [addr, addr+size).
  PxLookup lookup(its::VirtAddr addr, unsigned size);

  /// Drops every entry (e.g. between simulations).
  void clear();

  const PreexecCacheStats& stats() const { return stats_; }
  std::uint64_t lines_resident() const;

 private:
  /// Tag of an empty way.
  static constexpr std::uint64_t kNoTag = ~0ull;
  /// find()'s "not resident".
  static constexpr std::size_t npos = ~std::size_t{0};

  /// Everything about a resident line except its tag.
  struct LineState {
    std::uint64_t written = 0;  ///< Bit i: byte i of the line was stored.
    std::uint64_t inv = 0;      ///< Bit i: byte i is invalid.
    std::uint64_t lru = 0;
  };
  static_assert(sizeof(LineState) == 24);

  /// Index of the first way of `line`'s set.
  std::size_t set_base(std::uint64_t line) const {
    return static_cast<std::size_t>(line & set_mask_) * ways_;
  }
  std::uint64_t tag_of(std::uint64_t line) const { return line >> set_shift_; }

  /// Way index of `line`, or npos when it is not resident.
  std::size_t find(std::uint64_t line) const;
  /// Way index of `line`, allocating (and LRU-touching) it.
  std::size_t find_or_alloc(std::uint64_t line);

  unsigned ways_;
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<std::uint64_t> tags_;
  std::vector<LineState> state_;
  PreexecCacheStats stats_;
};

}  // namespace its::mem
