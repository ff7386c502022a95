#include "mem/cache.h"

#include "util/types.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace its::mem {

SetAssocCache::SetAssocCache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg.line_size < 2 || !std::has_single_bit(cfg.line_size))
    throw std::invalid_argument("cache line size must be a power of two >= 2");
  if (cfg.ways == 0) throw std::invalid_argument("cache must have >= 1 way");
  std::uint64_t lines = cfg.size_bytes / cfg.line_size;
  if (lines < cfg.ways || lines % cfg.ways != 0)
    throw std::invalid_argument("cache size/ways mismatch");
  num_sets_ = static_cast<unsigned>(lines / cfg.ways);
  tags_.assign(lines, kEmpty);
  stamps_.assign(lines, 0);
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_size));
  pow2_sets_ = std::has_single_bit(num_sets_);
  if (pow2_sets_) set_mask_ = num_sets_ - 1;
}

bool SetAssocCache::touch_or_insert(std::uint64_t line) {
  const std::size_t base = set_base(line);
  const std::uint64_t* t = &tags_[base];
  const unsigned ways = cfg_.ways;
  unsigned empty = ways;
  for (unsigned w = 0; w < ways; ++w) {
    if (t[w] == line) {
      stamps_[base + w] = ++tick_;
      return true;
    }
    if (t[w] == kEmpty) empty = w;  // the last empty way wins
  }
  std::size_t victim = base + empty;
  if (empty == ways) {  // set full: the oldest stamp, lowest way on ties
    // Selects rather than branches: which way is oldest is data, and a
    // mispredicted branch per way costs more than the scan.
    const std::uint64_t* s = &stamps_[base];
    std::uint64_t oldest = s[0];
    unsigned v = 0;
    for (unsigned w = 1; w < ways; ++w) {
      const bool older = s[w] < oldest;
      oldest = older ? s[w] : oldest;
      v = older ? w : v;
    }
    victim = base + v;
    ++stats_.evictions;
    clear_resident(tags_[victim]);
  }
  mark_resident(line);
  tags_[victim] = line;
  stamps_[victim] = ++tick_;
  return false;
}

bool SetAssocCache::access(its::VirtAddr addr) {
  if (touch_or_insert(line_of(addr))) {
    ++stats_.hits;
    return true;
  }
  ++stats_.misses;
  return false;
}

void SetAssocCache::fill(its::VirtAddr addr) { touch_or_insert(line_of(addr)); }

bool SetAssocCache::probe(its::VirtAddr addr) const {
  const std::uint64_t line = line_of(addr);
  const std::uint64_t* t = &tags_[set_base(line)];
  for (unsigned w = 0; w < cfg_.ways; ++w)
    if (t[w] == line) return true;
  return false;
}

bool SetAssocCache::invalidate_line(std::uint64_t line) {
  std::uint64_t* t = &tags_[set_base(line)];
  for (unsigned w = 0; w < cfg_.ways; ++w) {
    if (t[w] == line) {
      t[w] = kEmpty;
      ++stats_.invalidations;
      clear_resident(line);
      return true;
    }
  }
  return false;
}

bool SetAssocCache::invalidate(its::VirtAddr addr) {
  return invalidate_line(line_of(addr));
}

void SetAssocCache::invalidate_range(std::uint64_t base, std::uint64_t len) {
  if (len == 0 || resident_.empty()) return;
  const std::uint64_t first = line_of(base);
  const std::uint64_t last = line_of(base + len - 1);
  // Regions past the end of resident_ have never held a line.
  const std::uint64_t r_end = std::min<std::uint64_t>(last >> 6, resident_.size() - 1);
  for (std::uint64_t r = first >> 6; r <= r_end; ++r) {
    const unsigned lo = r == first >> 6 ? static_cast<unsigned>(first & 63) : 0;
    const unsigned hi = r == last >> 6 ? static_cast<unsigned>(last & 63) : 63;
    std::uint64_t hit = resident_[r] & (~0ull << lo) & (~0ull >> (63 - hi));
    while (hit != 0) {
      invalidate_line((r << 6) | static_cast<unsigned>(std::countr_zero(hit)));
      hit &= hit - 1;
    }
  }
}

void SetAssocCache::invalidate_all() {
  stats_.invalidations += lines_resident();
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  std::fill(resident_.begin(), resident_.end(), 0);
}

std::uint64_t SetAssocCache::lines_resident() const {
  return static_cast<std::uint64_t>(
      std::count_if(tags_.begin(), tags_.end(), [](std::uint64_t t) { return t != kEmpty; }));
}

}  // namespace its::mem
