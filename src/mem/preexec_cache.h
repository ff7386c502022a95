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
// Layout: each way has a one-byte fingerprint, a hash of its tag that is
// never 0, and a 32-byte line record {tag, written, inv, lru}.  A set's
// fingerprints sit side by side in their own array, padded to a multiple
// of 16 bytes, with 0 meaning "empty way".  A probe compares its
// fingerprint against the whole set at once (SSE2 byte compare + movemask)
// and reads the full tag only in the ways whose fingerprint matches, so a
// miss usually touches only its set's 16 bytes of fingerprints.  The set
// count must be a power of two so the set/tag split is a mask and a shift.
//
// A probe or store inside one 64-byte line is handled inline; a range that
// crosses a line, and the allocation of a new line, go out of line.
#pragma once

#include "util/types.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

// A set's fingerprints are `lanes` bytes (16 or 32) starting at a 16-byte-
// aligned address.  Bit w of the result is set iff byte w equals `fp`.  The
// scalar form is the reference, and the fallback where SSE2 is missing; on
// x86-64, SSE2 is baseline.

inline std::uint32_t match_fingerprints_scalar(const std::uint8_t* fps, unsigned lanes,
                                               std::uint8_t fp) {
  std::uint32_t m = 0;
  for (unsigned w = 0; w < lanes; ++w) m |= static_cast<std::uint32_t>(fps[w] == fp) << w;
  return m;
}

#if defined(__SSE2__)
inline std::uint32_t match_fingerprints_sse2(const std::uint8_t* fps, unsigned lanes,
                                             std::uint8_t fp) {
  const __m128i key = _mm_set1_epi8(static_cast<char>(fp));
  std::uint32_t m = 0;
  for (unsigned w = 0; w < lanes; w += 16) {
    const __m128i v = _mm_load_si128(reinterpret_cast<const __m128i*>(fps + w));
    m |= static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(v, key))) << w;
  }
  return m;
}
#endif

class PreexecCache {
 public:
  /// Throws std::invalid_argument unless lines are 64 bytes and the
  /// geometry gives a power-of-two number of sets.
  explicit PreexecCache(const PreexecCacheConfig& cfg = {});

  /// Composite key for (pid, vaddr): heap VAs use < 48 bits.
  static std::uint64_t key(its::Pid pid, its::VirtAddr va) {
    return its::pid_key(pid, va);
  }

  /// The one-byte hash of a line's tag (the line number shifted right by
  /// the set bits) that a probe matches first.  Never 0, which marks an
  /// empty way.
  static std::uint8_t fingerprint(std::uint64_t tag) {
    const auto h = static_cast<std::uint8_t>((tag * 0x9E37'79B9'7F4A'7C15ull) >> 56);
    return h != 0 ? h : 1;
  }

  /// Records a retired pre-execute store of [addr, addr+size); bytes are
  /// flagged INV when `invalid` (bogus source data or page-in-storage).
  void store(its::VirtAddr addr, unsigned size, bool invalid) {
    const auto lo = static_cast<unsigned>(addr % kCacheLineSize);
    if (size == 0 || size > kCacheLineSize - lo) {
      store_span(addr, size, invalid);
      return;
    }
    ++stats_.stores;
    write(find_or_alloc(addr >> kCacheLineShift), run_mask(lo, size), size, invalid);
  }

  /// Pre-execute load probe over [addr, addr+size).
  PxLookup lookup(its::VirtAddr addr, unsigned size) {
    const auto lo = static_cast<unsigned>(addr % kCacheLineSize);
    if (size == 0 || size > kCacheLineSize - lo) return lookup_span(addr, size);
    const std::uint64_t m = run_mask(lo, size);
    Line* l = find(addr >> kCacheLineShift);
    if (l == nullptr || (l->written & m) == 0) {
      ++stats_.load_misses;
      return {};
    }
    l->lru = ++tick_;
    ++stats_.load_hits;
    return {true, (l->written & m) == m, (l->inv & m) != 0};
  }

  /// Drops every entry (e.g. between simulations).
  void clear();

  const PreexecCacheStats& stats() const { return stats_; }
  std::uint64_t lines_resident() const;

 private:
  /// Lanes one match covers; wider sets are matched this many at a time.
  static constexpr unsigned kMatchLanes = 32;

  /// A resident line: its tag, the bytes stored and which of them are INV.
  struct alignas(32) Line {
    std::uint64_t tag = 0;
    std::uint64_t written = 0;  ///< Bit i: byte i of the line was stored.
    std::uint64_t inv = 0;      ///< Bit i: byte i is invalid.
    std::uint64_t lru = 0;
  };
  /// Sixteen ways' fingerprints; aligned for one SSE2 load.
  struct alignas(16) FpChunk {
    std::uint8_t fp[16];
  };

  /// The ways among `lanes` whose fingerprint is `fp`, as a bitmask.
  static std::uint32_t match_fingerprints(const std::uint8_t* fps, unsigned lanes,
                                          std::uint8_t fp) {
#if defined(__SSE2__)
    return match_fingerprints_sse2(fps, lanes, fp);
#else
    return match_fingerprints_scalar(fps, lanes, fp);
#endif
  }
  /// Mask of the `size` bytes starting at byte `lo` (lo + size <= 64).
  static std::uint64_t run_mask(unsigned lo, unsigned size) {
    return (~0ull >> (kCacheLineSize - size)) << lo;
  }

  std::size_t set_of(std::uint64_t line) const {
    return static_cast<std::size_t>(line & set_mask_);
  }
  std::uint64_t tag_of(std::uint64_t line) const { return line >> set_shift_; }
  const std::uint8_t* fps_of(std::size_t set) const { return fps_[set * chunks_].fp; }
  std::uint8_t* fps_of(std::size_t set) { return fps_[set * chunks_].fp; }

  /// `line`'s record, or nullptr when it is not resident.
  Line* find(std::uint64_t line) {
    const std::size_t set = set_of(line);
    const std::uint64_t tag = tag_of(line);
    const std::uint8_t fp = fingerprint(tag);
    const std::uint8_t* fps = fps_of(set);
    Line* row = &lines_[set * ways_];
    const unsigned lanes = chunks_ * 16;
    for (unsigned g = 0; g < lanes; g += kMatchLanes) {
      for (std::uint32_t m = match_fingerprints(fps + g, std::min(lanes - g, kMatchLanes), fp);
           m != 0; m &= m - 1) {
        Line& l = row[g + static_cast<unsigned>(std::countr_zero(m))];
        if (l.tag == tag) return &l;
      }
    }
    return nullptr;
  }
  /// `line`'s record, LRU-touched, allocating it when it is not resident.
  Line& find_or_alloc(std::uint64_t line) {
    if (Line* l = find(line)) {
      l->lru = ++tick_;
      return *l;
    }
    return alloc(line);
  }
  /// Installs `line` in its set's last empty way, else over the oldest
  /// LRU stamp (lowest way on ties).
  Line& alloc(std::uint64_t line);

  /// Stores the `n` bytes of mask `m` into `l`.
  void write(Line& l, std::uint64_t m, unsigned n, bool invalid) {
    l.written |= m;
    if (invalid) {
      l.inv |= m;
      stats_.invalid_bytes_written += n;
    } else {
      l.inv &= ~m;
    }
  }

  /// store()/lookup() for a zero-sized or line-crossing range.
  void store_span(its::VirtAddr addr, unsigned size, bool invalid);
  PxLookup lookup_span(its::VirtAddr addr, unsigned size);

  unsigned ways_;
  unsigned chunks_ = 0;  ///< FpChunks per set: ways rounded up to 16, over 16.
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<FpChunk> fps_;  ///< Padding lanes stay 0 (empty) forever.
  std::vector<Line> lines_;
  PreexecCacheStats stats_;
};

}  // namespace its::mem
