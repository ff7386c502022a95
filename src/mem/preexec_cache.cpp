#include "mem/preexec_cache.h"

#include "util/types.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace its::mem {

namespace {
/// Mask of bytes [lo, hi] (inclusive, both < 64) within a 64-bit line mask.
std::uint64_t byte_mask(unsigned lo, unsigned hi) {
  return (~0ull << lo) & (~0ull >> (63 - hi));
}
}  // namespace

PreexecCache::PreexecCache(const PreexecCacheConfig& cfg) : ways_(cfg.ways) {
  if (cfg.line_size != kCacheLineSize)
    throw std::invalid_argument("PreexecCache models 64-byte lines (one INV bit per byte)");
  std::uint64_t n = cfg.size_bytes / cfg.line_size;
  if (cfg.ways == 0 || n < cfg.ways || n % cfg.ways != 0)
    throw std::invalid_argument("PreexecCache size/ways mismatch");
  const std::uint64_t sets = n / cfg.ways;
  if (!std::has_single_bit(sets))
    throw std::invalid_argument("PreexecCache set count must be a power of two");
  set_shift_ = static_cast<unsigned>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  chunks_ = (cfg.ways + 15) / 16;
  fps_.assign(sets * chunks_, FpChunk{});
  lines_.assign(n, Line{});
}

PreexecCache::Line& PreexecCache::alloc(std::uint64_t line) {
  const std::size_t set = set_of(line);
  const std::uint64_t tag = tag_of(line);
  std::uint8_t* fps = fps_of(set);
  Line* row = &lines_[set * ways_];
  unsigned victim = ways_;
  for (unsigned g = 0; g < ways_; g += kMatchLanes) {
    const unsigned real = std::min(ways_ - g, kMatchLanes);  // the rest is padding
    const std::uint32_t lanes = real == 32 ? ~0u : (1u << real) - 1;
    const std::uint32_t empty = match_fingerprints(fps + g, (real + 15) & ~15u, 0) & lanes;
    if (empty != 0) victim = g + static_cast<unsigned>(std::bit_width(empty)) - 1;
  }
  if (victim == ways_) {  // set full: the oldest LRU stamp, lowest way on ties
    victim = 0;
    for (unsigned w = 1; w < ways_; ++w)
      if (row[w].lru < row[victim].lru) victim = w;
  }
  fps[victim] = fingerprint(tag);
  row[victim] = Line{tag, 0, 0, ++tick_};
  return row[victim];
}

void PreexecCache::store_span(its::VirtAddr addr, unsigned size, bool invalid) {
  if (size == 0) return;  // zero-byte store writes nothing
  ++stats_.stores;
  const its::VirtAddr end = addr + size - 1;
  const std::uint64_t first = addr >> kCacheLineShift;
  const std::uint64_t last = end >> kCacheLineShift;
  for (std::uint64_t la = first; la <= last; ++la) {
    const unsigned lo = la == first ? static_cast<unsigned>(addr % kCacheLineSize) : 0;
    const unsigned hi = la == last ? static_cast<unsigned>(end % kCacheLineSize) : 63;
    write(find_or_alloc(la), byte_mask(lo, hi), hi - lo + 1, invalid);
  }
}

PxLookup PreexecCache::lookup_span(its::VirtAddr addr, unsigned size) {
  PxLookup r;
  if (size == 0) {  // zero-byte probe: vacuously complete, never found
    ++stats_.load_misses;
    return r;
  }
  r.complete = true;
  const its::VirtAddr end = addr + size - 1;
  const std::uint64_t first = addr >> kCacheLineShift;
  const std::uint64_t last = end >> kCacheLineShift;
  for (std::uint64_t la = first; la <= last; ++la) {
    const unsigned lo = la == first ? static_cast<unsigned>(addr % kCacheLineSize) : 0;
    const unsigned hi = la == last ? static_cast<unsigned>(end % kCacheLineSize) : 63;
    const std::uint64_t m = byte_mask(lo, hi);
    Line* l = find(la);
    if (l == nullptr || (l->written & m) == 0) {
      r.complete = false;
      continue;
    }
    l->lru = ++tick_;
    r.found = true;
    if ((l->written & m) != m) r.complete = false;
    if ((l->inv & m) != 0) r.any_invalid = true;
  }
  if (r.found)
    ++stats_.load_hits;
  else
    ++stats_.load_misses;
  return r;
}

void PreexecCache::clear() { std::fill(fps_.begin(), fps_.end(), FpChunk{}); }

std::uint64_t PreexecCache::lines_resident() const {
  std::uint64_t n = 0;
  for (std::size_t set = 0; set <= set_mask_; ++set)
    n += static_cast<std::uint64_t>(
        std::count_if(fps_of(set), fps_of(set) + ways_, [](std::uint8_t f) { return f != 0; }));
  return n;
}

}  // namespace its::mem
