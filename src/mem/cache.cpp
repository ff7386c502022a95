#include "mem/cache.h"

#include "util/types.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

namespace its::mem {
namespace {

// A set's LRU order is one 64-bit word: nibble r holds the way of rank r,
// rank 0 the most recently used.  Ranks at and past the set's way count are
// unused.

/// Moves `way` to rank 0, shifting the ways ranked above it down one rank.
std::uint64_t lru_touch(std::uint64_t word, unsigned way) {
  constexpr std::uint64_t kOnes = 0x1111'1111'1111'1111ull;
  constexpr std::uint64_t kLow3 = 0x7777'7777'7777'7777ull;
  const std::uint64_t x = word ^ (kOnes * way);  // `way`'s nibble becomes 0
  // Top bit of each nibble set iff that nibble of x is nonzero; the sum
  // stays inside its nibble, so nothing carries or wraps.
  const std::uint64_t nonzero = (((x & kLow3) + kLow3) | x) & (kOnes << 3);
  const auto rank = static_cast<unsigned>(std::countr_zero(~nonzero & (kOnes << 3))) >> 2;
  const std::uint64_t through = ~0ull >> (60 - 4 * rank);  // ranks 0..rank
  return (word & ~through) | ((word & (through >> 4)) << 4) | way;
}

/// The way of rank `ways - 1`: the least recently used of a full set.
unsigned lru_way(std::uint64_t word, unsigned ways) {
  return static_cast<unsigned>(word >> (4 * (ways - 1))) & 0xf;
}

}  // namespace

SetAssocCache::SetAssocCache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg.line_size < 2 || !std::has_single_bit(cfg.line_size))
    throw std::invalid_argument("cache line size must be a power of two >= 2");
  if (cfg.ways == 0) throw std::invalid_argument("cache must have >= 1 way");
  if (cfg.ways > 16)
    throw std::invalid_argument("cache must have <= 16 ways: the LRU word holds 16 ranks");
  std::uint64_t lines = cfg.size_bytes / cfg.line_size;
  if (lines < cfg.ways || lines % cfg.ways != 0)
    throw std::invalid_argument("cache size/ways mismatch");
  num_sets_ = static_cast<unsigned>(lines / cfg.ways);
  line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_size));
  pow2_sets_ = std::has_single_bit(num_sets_);
  if (pow2_sets_) {
    set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
    set_mask_ = num_sets_ - 1;
  }
  lanes_ = (cfg.ways + 3) & ~3u;
  way_mask_ = static_cast<std::uint32_t>((1ull << cfg.ways) - 1);
  tags_.assign(std::size_t{num_sets_} * lanes_, kEmpty);
  std::uint64_t ranks = 0;  // rank r holds way r
  for (unsigned w = 0; w < cfg.ways; ++w) ranks |= std::uint64_t{w} << (4 * w);
  recency_.assign(num_sets_, ranks);
}

void SetAssocCache::throw_tag_range(std::uint64_t line) const {
  throw std::out_of_range("cache: address " + std::to_string(line << line_shift_) +
                          " is past the 32-bit tag range (max_phys_bytes " +
                          std::to_string(max_phys_bytes()) + ")");
}

its::Bytes SetAssocCache::max_phys_bytes() const {
  return its::saturating_mul(std::uint64_t{num_sets_} << line_shift_, kEmpty);
}

bool SetAssocCache::touch_or_insert(std::uint64_t line) {
  const std::uint32_t tag = tag_of(line);
  const std::size_t set = set_of(line);
  std::uint32_t* t = &tags_[set * lanes_];
  std::uint64_t& ranks = recency_[set];
  if (const std::uint32_t hit = match_lanes(t, lanes_, tag)) {
    ranks = lru_touch(ranks, static_cast<unsigned>(std::countr_zero(hit)));
    return true;
  }
  // A tag is never kEmpty, so padding lanes never match it; they are kEmpty
  // themselves, so the empty test masks them off.
  const std::uint32_t empty = match_lanes(t, lanes_, kEmpty) & way_mask_;
  unsigned victim = 0;
  if (empty != 0) {
    victim = static_cast<unsigned>(std::bit_width(empty)) - 1;  // the last empty way
  } else {
    victim = lru_way(ranks, cfg_.ways);
    ++stats_.evictions;
    clear_resident(line_at(t[victim], set));
  }
  mark_resident(line);
  t[victim] = tag;
  ranks = lru_touch(ranks, victim);
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

bool SetAssocCache::invalidate_line(std::uint64_t line) {
  const std::uint32_t tag = tag_of(line);
  std::uint32_t* t = &tags_[set_of(line) * lanes_];
  const std::uint32_t hit = match_lanes(t, lanes_, tag);
  if (hit == 0) return false;
  t[std::countr_zero(hit)] = kEmpty;
  ++stats_.invalidations;
  clear_resident(line);
  return true;
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
      std::count_if(tags_.begin(), tags_.end(), [](std::uint32_t t) { return t != kEmpty; }));
}

}  // namespace its::mem
