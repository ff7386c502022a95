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
  tags_.assign(n, kNoTag);
  state_.assign(n, LineState{});
}

std::size_t PreexecCache::find(std::uint64_t line) const {
  const std::size_t base = set_base(line);
  const std::uint64_t tag = tag_of(line);
  const std::uint64_t* t = &tags_[base];
  for (unsigned w = 0; w < ways_; ++w)
    if (t[w] == tag) return base + w;
  return npos;
}

std::size_t PreexecCache::find_or_alloc(std::uint64_t line) {
  const std::size_t base = set_base(line);
  const std::uint64_t tag = tag_of(line);
  const std::uint64_t* t = &tags_[base];
  std::size_t victim = npos;
  for (unsigned w = 0; w < ways_; ++w) {
    if (t[w] == tag) {
      state_[base + w].lru = ++tick_;
      return base + w;
    }
    if (t[w] == kNoTag) victim = base + w;  // the last empty way wins
  }
  if (victim == npos) {  // set full: the oldest LRU stamp, lowest way on ties
    victim = base;
    for (unsigned w = 1; w < ways_; ++w)
      if (state_[base + w].lru < state_[victim].lru) victim = base + w;
  }
  tags_[victim] = tag;
  state_[victim] = LineState{0, 0, ++tick_};
  return victim;
}

void PreexecCache::store(its::VirtAddr addr, unsigned size, bool invalid) {
  if (size == 0) return;  // zero-byte store writes nothing
  ++stats_.stores;
  const its::VirtAddr end = addr + size - 1;
  const std::uint64_t first = addr >> kCacheLineShift;
  const std::uint64_t last = end >> kCacheLineShift;
  for (std::uint64_t la = first; la <= last; ++la) {
    const unsigned lo = la == first ? static_cast<unsigned>(addr % kCacheLineSize) : 0;
    const unsigned hi = la == last ? static_cast<unsigned>(end % kCacheLineSize) : 63;
    const std::uint64_t m = byte_mask(lo, hi);
    LineState& l = state_[find_or_alloc(la)];
    l.written |= m;
    if (invalid) {
      l.inv |= m;
      stats_.invalid_bytes_written += static_cast<unsigned>(std::popcount(m));
    } else {
      l.inv &= ~m;
    }
  }
}

PxLookup PreexecCache::lookup(its::VirtAddr addr, unsigned size) {
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
    const std::size_t i = find(la);
    if (i == npos || (state_[i].written & m) == 0) {
      r.complete = false;
      continue;
    }
    LineState& l = state_[i];
    l.lru = ++tick_;
    r.found = true;
    if ((l.written & m) != m) r.complete = false;
    if ((l.inv & m) != 0) r.any_invalid = true;
  }
  if (r.found)
    ++stats_.load_hits;
  else
    ++stats_.load_misses;
  return r;
}

void PreexecCache::clear() {
  std::fill(tags_.begin(), tags_.end(), kNoTag);
  std::fill(state_.begin(), state_.end(), LineState{});
}

std::uint64_t PreexecCache::lines_resident() const {
  return static_cast<std::uint64_t>(
      std::count_if(tags_.begin(), tags_.end(), [](std::uint64_t t) { return t != kNoTag; }));
}

}  // namespace its::mem
