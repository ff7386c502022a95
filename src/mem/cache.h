// Generic set-associative cache with true-LRU replacement.
//
// Physically indexed/physically tagged: all processes share the hierarchy,
// so multiprogrammed cache contention (one of the effects the ITS
// self-sacrificing thread exploits) emerges naturally.
#pragma once

#include "util/types.h"

#include <bit>
#include <cstdint>
#include <vector>

namespace its::mem {

struct CacheConfig {
  its::Bytes size_bytes = 32_KiB;
  unsigned ways = 8;
  unsigned line_size = 64;
  its::Duration hit_latency = 1;  ///< ns, charged on a hit at this level.
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;

  double miss_ratio() const {
    std::uint64_t t = hits + misses;
    return t ? static_cast<double>(misses) / static_cast<double>(t) : 0.0;
  }
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Looks up `addr`; on miss, inserts the line (allocate-on-miss for both
  /// reads and writes).  Returns true on hit.
  bool access(its::VirtAddr addr);

  /// Lookup without side effects.
  bool probe(its::VirtAddr addr) const;

  /// Inserts the line without counting a hit or miss (used by pre-execute /
  /// prefetch warming paths).
  void fill(its::VirtAddr addr);

  /// Drops one line if present; returns whether it was present.
  bool invalidate(its::VirtAddr addr);

  /// Drops all lines in [base, base+len).
  void invalidate_range(std::uint64_t base, std::uint64_t len);

  void invalidate_all();

  const CacheConfig& config() const { return cfg_; }
  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  unsigned sets() const { return num_sets_; }
  std::uint64_t lines_resident() const;

 private:
  /// Tag of an empty way.  Ways hold whole line numbers, and lines are at
  /// least two bytes, so no line number is all ones.
  static constexpr std::uint64_t kEmpty = ~0ull;

  // addr→line/set splits sit on the page-eviction invalidate path, where a
  // hardware divide by a runtime divisor costs more than the whole way
  // scan.  The ctor precomputes shift/mask forms; the modulo fallback only
  // runs for non-power-of-two set counts, which no shipped config uses.
  std::uint64_t line_of(its::VirtAddr addr) const {
    return addr >> line_shift_;
  }
  /// Index of the first way of `line`'s set.
  std::size_t set_base(std::uint64_t line) const {
    const std::uint64_t set = pow2_sets_ ? line & set_mask_ : line % num_sets_;
    return static_cast<std::size_t>(set) * cfg_.ways;
  }

  /// Refreshes `line` if resident, else inserts it (evicting the set's
  /// last empty way, else its oldest); returns whether it was resident.
  bool touch_or_insert(std::uint64_t line);
  bool invalidate_line(std::uint64_t line);

  // One bit per line of each 64-line region, set exactly while the line is
  // resident.  Page eviction invalidates its frame at every level, but
  // CLOCK victims are usually cache-cold by then: invalidate_range visits
  // only the set bits, so a cold page costs one load and a warm one only
  // its resident lines.
  void mark_resident(std::uint64_t line) {
    const std::uint64_t r = line >> 6;
    if (r >= resident_.size()) resident_.resize(r + 1, 0);
    resident_[r] |= 1ull << (line & 63);
  }
  void clear_resident(std::uint64_t line) {
    resident_[line >> 6] &= ~(1ull << (line & 63));
  }

  CacheConfig cfg_;
  unsigned num_sets_;
  unsigned line_shift_ = 0;
  bool pow2_sets_ = false;
  std::uint64_t set_mask_ = 0;
  std::uint64_t tick_ = 0;
  // num_sets_ * cfg_.ways each, row-major by set: the tags a probe compares
  // sit side by side, and the LRU stamps (higher = more recent) are read
  // only to touch a hit or choose a victim.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint64_t> resident_;  ///< Per 64-line region.
  CacheStats stats_;
};

}  // namespace its::mem
