// Generic set-associative cache with true-LRU replacement.
//
// Physically indexed/physically tagged: all processes share the hierarchy,
// so multiprogrammed cache contention (one of the effects the ITS
// self-sacrificing thread exploits) emerges naturally.
#pragma once

#include "util/types.h"

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace its::mem {

struct CacheConfig {
  its::Bytes size_bytes = 32_KiB;
  unsigned ways = 8;  ///< 1..16: a set's LRU order is one word of 4-bit ranks.
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

// A set's tags are `lanes` 32-bit words (a multiple of 4, at most 16)
// starting at a 16-byte-aligned address.  Bit w of the result is set iff
// lane w equals `tag`.  The scalar form is the reference, and the fallback
// where SSE2 is missing; on x86-64, SSE2 is baseline.

inline std::uint32_t match_lanes_scalar(const std::uint32_t* set, unsigned lanes,
                                        std::uint32_t tag) {
  std::uint32_t m = 0;
  for (unsigned w = 0; w < lanes; ++w) m |= static_cast<std::uint32_t>(set[w] == tag) << w;
  return m;
}

#if defined(__SSE2__)
inline std::uint32_t match_lanes_sse2(const std::uint32_t* set, unsigned lanes,
                                      std::uint32_t tag) {
  const __m128i key = _mm_set1_epi32(static_cast<int>(tag));
  std::uint32_t m = 0;
  for (unsigned w = 0; w < lanes; w += 4) {
    const __m128i v = _mm_load_si128(reinterpret_cast<const __m128i*>(set + w));
    const int eq = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, key)));
    m |= static_cast<std::uint32_t>(eq) << w;
  }
  return m;
}
#endif

class SetAssocCache {
 public:
  /// Throws std::invalid_argument for a line size that is not a power of
  /// two >= 2, no ways or more than 16, or a size that is not a whole
  /// number of sets.
  explicit SetAssocCache(const CacheConfig& cfg);

  // The calls below that take an address throw std::out_of_range when the
  // address's tag does not fit in 32 bits, i.e. at max_phys_bytes() and
  // above, rather than alias another line.

  /// Looks up `addr`; on miss, inserts the line (allocate-on-miss for both
  /// reads and writes).  Returns true on hit.
  bool access(its::VirtAddr addr);

  /// Lookup without side effects.
  bool probe(its::VirtAddr addr) const {
    const std::uint64_t line = line_of(addr);
    const std::uint32_t tag = tag_of(line);
    return match_lanes(&tags_[set_of(line) * lanes_], lanes_, tag) != 0;
  }

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

  /// One past the highest address whose tag fits in 32 bits (saturated).
  its::Bytes max_phys_bytes() const;

 private:
  /// Tag of an empty way; no line's tag is all ones (tag_of checks).
  static constexpr std::uint32_t kEmpty = ~0u;

  /// The lanes of a set holding `tag`, as a bitmask.
  static std::uint32_t match_lanes(const std::uint32_t* set, unsigned lanes,
                                   std::uint32_t tag) {
#if defined(__SSE2__)
    return match_lanes_sse2(set, lanes, tag);
#else
    return match_lanes_scalar(set, lanes, tag);
#endif
  }

  /// Over-aligned storage for the tags: a 16-way set is one host cache line.
  template <class T>
  struct LineAligned {
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};
    LineAligned() = default;
    template <class U>
    LineAligned(const LineAligned<U>&) {}  // NOLINT(google-explicit-constructor)
    T* allocate(std::size_t n) { return static_cast<T*>(::operator new(n * sizeof(T), kAlign)); }
    void deallocate(T* p, std::size_t) { ::operator delete(p, kAlign); }
    template <class U>
    struct rebind {
      using other = LineAligned<U>;
    };
    friend bool operator==(const LineAligned&, const LineAligned&) { return true; }
  };

  // addr→line/set/tag splits sit on the page-eviction invalidate path,
  // where a hardware divide by a runtime divisor costs more than the set
  // match.  The ctor precomputes shift/mask forms; the divide fallback only
  // runs for non-power-of-two set counts, which no shipped config uses.
  std::uint64_t line_of(its::VirtAddr addr) const { return addr >> line_shift_; }
  std::size_t set_of(std::uint64_t line) const {
    return static_cast<std::size_t>(pow2_sets_ ? line & set_mask_ : line % num_sets_);
  }
  std::uint32_t tag_of(std::uint64_t line) const {
    const std::uint64_t tag = pow2_sets_ ? line >> set_shift_ : line / num_sets_;
    if (tag >= kEmpty) [[unlikely]]
      throw_tag_range(line);
    return static_cast<std::uint32_t>(tag);
  }
  std::uint64_t line_at(std::uint32_t tag, std::size_t set) const {
    return pow2_sets_ ? (std::uint64_t{tag} << set_shift_) | set
                      : std::uint64_t{tag} * num_sets_ + set;
  }
  [[noreturn]] void throw_tag_range(std::uint64_t line) const;

  /// Refreshes `line` if resident, else inserts it (evicting the set's
  /// last empty way, else its least recent); returns whether it was resident.
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
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  unsigned lanes_ = 0;          ///< Ways rounded up to a multiple of 4.
  std::uint32_t way_mask_ = 0;  ///< One bit per real way; padding lanes are off.
  // num_sets_ * lanes_ tags, row-major by set; padding lanes stay kEmpty.
  std::vector<std::uint32_t, LineAligned<std::uint32_t>> tags_;
  std::vector<std::uint64_t> recency_;   ///< Per set; see lru_touch.
  std::vector<std::uint64_t> resident_;  ///< Per 64-line region.
  CacheStats stats_;
};

}  // namespace its::mem
