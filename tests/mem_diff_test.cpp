// Differential test (ctest label `mem`): the TLB, the set-associative cache
// and the cache hierarchy against reference copies of the structures they
// replaced — a std::list + std::unordered_map TLB, two caches (one whose
// ways are {tag, lru, valid} records with a resident-line count per 4 KiB
// region, one with whole-line tags, 64-bit LRU stamps and resident-line
// masks), and a hierarchy that refills the upper levels after a lower-level
// hit.  Every call of a seeded random op stream must return the same value,
// and the counters and occupancy must agree after every op.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <list>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/tlb.h"
#include "util/rng.h"
#include "util/types.h"

namespace its::mem {
namespace {

/// The reference TLB: LRU list front = most recent, map vpn -> iterator.
class RefTlb {
 public:
  explicit RefTlb(unsigned entries) : entries_(entries) {}

  bool lookup(its::Vpn vpn) {
    auto it = map_.find(vpn);
    if (it == map_.end()) {
      ++stats_.misses;
      return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return true;
  }

  void insert(its::Vpn vpn) {
    auto it = map_.find(vpn);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (map_.size() >= entries_) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    lru_.push_front(vpn);
    map_[vpn] = lru_.begin();
  }

  void invalidate(its::Vpn vpn) {
    auto it = map_.find(vpn);
    if (it == map_.end()) return;
    lru_.erase(it->second);
    map_.erase(it);
  }

  void flush() {
    lru_.clear();
    map_.clear();
    ++stats_.flushes;
  }

  const TlbStats& stats() const { return stats_; }
  std::size_t size() const { return map_.size(); }

 private:
  unsigned entries_;
  std::list<its::Vpn> lru_;
  std::unordered_map<its::Vpn, std::list<its::Vpn>::iterator> map_;
  TlbStats stats_;
};

/// The reference cache: way records, the page-eviction fast path, and a
/// resident-line count per 4 KiB region.  Lines must be 4 KiB or smaller.
class RefCache {
 public:
  explicit RefCache(const CacheConfig& cfg) : cfg_(cfg) {
    const std::uint64_t lines = cfg.size_bytes / cfg.line_size;
    num_sets_ = static_cast<unsigned>(lines / cfg.ways);
    ways_.assign(lines, Way{});
    line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_size));
    pow2_sets_ = (num_sets_ & (num_sets_ - 1)) == 0;
    if (pow2_sets_) {
      set_shift_ = static_cast<unsigned>(std::countr_zero(num_sets_));
      set_mask_ = num_sets_ - 1;
    }
  }

  bool access(its::VirtAddr addr) {
    const bool hit = touch(addr);
    ++(hit ? stats_.hits : stats_.misses);
    return hit;
  }

  void fill(its::VirtAddr addr) { touch(addr); }

  bool probe(its::VirtAddr addr) const {
    const std::uint64_t line = line_of(addr);
    const Way* base = &ways_[std::size_t{set_index(line)} * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w)
      if (base[w].valid && base[w].tag == tag_of(line)) return true;
    return false;
  }

  bool invalidate(its::VirtAddr addr) { return invalidate_line(line_of(addr)); }

  void invalidate_range(std::uint64_t base, std::uint64_t len) {
    if (len == 0) return;
    const std::uint64_t first = line_of(base);
    const std::uint64_t last = line_of(base + len - 1);
    if (pow2_sets_ && tag_of(first) == tag_of(last)) {
      const std::uint64_t region = region_of_line(first);
      std::uint32_t left = 0xffffffffu;
      if (region == region_of_line(last))
        left = region < region_lines_.size() ? region_lines_[region] : 0;
      if (left == 0) return;
      const std::uint64_t tag = tag_of(first);
      const unsigned s0 = set_index(first);
      Way* w = &ways_[std::size_t{s0} * cfg_.ways];
      const std::size_t n = static_cast<std::size_t>(last - first + 1) * cfg_.ways;
      for (std::size_t i = 0; i < n; ++i) {
        if (w[i].valid && w[i].tag == tag) {
          w[i].valid = false;
          ++stats_.invalidations;
          --region_lines_[region_of_line(tag * num_sets_ + s0 + i / cfg_.ways)];
          if (--left == 0) break;
        }
      }
      return;
    }
    for (std::uint64_t line = first; line <= last; ++line) invalidate_line(line);
  }

  void invalidate_all() {
    for (auto& w : ways_)
      if (w.valid) {
        w.valid = false;
        ++stats_.invalidations;
      }
    std::fill(region_lines_.begin(), region_lines_.end(), 0);
  }

  const CacheStats& stats() const { return stats_; }
  std::uint64_t lines_resident() const {
    return static_cast<std::uint64_t>(
        std::count_if(ways_.begin(), ways_.end(), [](const Way& w) { return w.valid; }));
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  std::uint64_t line_of(its::VirtAddr addr) const { return addr >> line_shift_; }
  unsigned set_index(std::uint64_t line) const {
    return static_cast<unsigned>(pow2_sets_ ? line & set_mask_ : line % num_sets_);
  }
  std::uint64_t tag_of(std::uint64_t line) const {
    return pow2_sets_ ? line >> set_shift_ : line / num_sets_;
  }
  std::uint64_t region_of_line(std::uint64_t line) const {
    return line >> (its::kPageShift - line_shift_);
  }

  bool touch(its::VirtAddr addr) {
    const std::uint64_t line = line_of(addr);
    const unsigned set = set_index(line);
    const std::uint64_t tag = tag_of(line);
    Way* base = &ways_[std::size_t{set} * cfg_.ways];
    Way* victim = base;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.lru = ++tick_;
        return true;
      }
      if (!way.valid) {
        victim = &way;
      } else if (victim->valid && way.lru < victim->lru) {
        victim = &way;
      }
    }
    if (victim->valid) {
      ++stats_.evictions;
      --region_lines_[region_of_line(victim->tag * num_sets_ + set)];
    }
    const std::uint64_t r = region_of_line(line);
    if (r >= region_lines_.size()) region_lines_.resize(r + 1, 0);
    ++region_lines_[r];
    *victim = Way{tag, ++tick_, true};
    return false;
  }

  bool invalidate_line(std::uint64_t line) {
    Way* base = &ways_[std::size_t{set_index(line)} * cfg_.ways];
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag_of(line)) {
        base[w].valid = false;
        ++stats_.invalidations;
        --region_lines_[region_of_line(line)];
        return true;
      }
    }
    return false;
  }

  CacheConfig cfg_;
  unsigned num_sets_ = 0;
  unsigned line_shift_ = 0;
  bool pow2_sets_ = false;
  unsigned set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_;
  std::vector<std::uint32_t> region_lines_;
  CacheStats stats_;
};

/// The second reference cache: every way holds its whole line number (all
/// ones when empty) and a 64-bit LRU stamp from a per-cache tick, in two
/// parallel arrays; the victim is the last empty way, else the oldest
/// stamp.  Page invalidation visits the set bits of one resident mask per
/// 64 lines.
class StampCache {
 public:
  explicit StampCache(const CacheConfig& cfg) : cfg_(cfg) {
    const std::uint64_t lines = cfg.size_bytes / cfg.line_size;
    num_sets_ = lines / cfg.ways;
    tags_.assign(lines, kEmpty);
    stamps_.assign(lines, 0);
    line_shift_ = static_cast<unsigned>(std::countr_zero(cfg.line_size));
  }

  bool access(its::VirtAddr addr) {
    const bool hit = touch_or_insert(line_of(addr));
    ++(hit ? stats_.hits : stats_.misses);
    return hit;
  }

  void fill(its::VirtAddr addr) { touch_or_insert(line_of(addr)); }

  bool probe(its::VirtAddr addr) const {
    const std::uint64_t line = line_of(addr);
    const std::uint64_t* t = &tags_[set_base(line)];
    return std::find(t, t + cfg_.ways, line) != t + cfg_.ways;
  }

  bool invalidate(its::VirtAddr addr) { return invalidate_line(line_of(addr)); }

  void invalidate_range(std::uint64_t base, std::uint64_t len) {
    if (len == 0 || resident_.empty()) return;
    const std::uint64_t first = line_of(base);
    const std::uint64_t last = line_of(base + len - 1);
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

  void invalidate_all() {
    stats_.invalidations += lines_resident();
    std::fill(tags_.begin(), tags_.end(), kEmpty);
    std::fill(resident_.begin(), resident_.end(), 0);
  }

  const CacheStats& stats() const { return stats_; }
  std::uint64_t lines_resident() const {
    return static_cast<std::uint64_t>(
        std::count_if(tags_.begin(), tags_.end(), [](std::uint64_t t) { return t != kEmpty; }));
  }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;

  std::uint64_t line_of(its::VirtAddr addr) const { return addr >> line_shift_; }
  std::size_t set_base(std::uint64_t line) const {
    return static_cast<std::size_t>(line % num_sets_) * cfg_.ways;
  }

  bool touch_or_insert(std::uint64_t line) {
    const std::size_t base = set_base(line);
    unsigned empty = cfg_.ways;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      if (tags_[base + w] == line) {
        stamps_[base + w] = ++tick_;
        return true;
      }
      if (tags_[base + w] == kEmpty) empty = w;  // the last empty way wins
    }
    std::size_t victim = base + empty;
    if (empty == cfg_.ways) {  // set full: the oldest stamp
      victim = base;
      for (unsigned w = 1; w < cfg_.ways; ++w)
        if (stamps_[base + w] < stamps_[victim]) victim = base + w;
      ++stats_.evictions;
      set_resident(tags_[victim], false);
    }
    set_resident(line, true);
    tags_[victim] = line;
    stamps_[victim] = ++tick_;
    return false;
  }

  bool invalidate_line(std::uint64_t line) {
    const std::size_t base = set_base(line);
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      if (tags_[base + w] == line) {
        tags_[base + w] = kEmpty;
        ++stats_.invalidations;
        set_resident(line, false);
        return true;
      }
    }
    return false;
  }

  void set_resident(std::uint64_t line, bool resident) {
    const std::uint64_t r = line >> 6;
    if (r >= resident_.size()) resident_.resize(r + 1, 0);
    const std::uint64_t bit = 1ull << (line & 63);
    resident_[r] = resident ? resident_[r] | bit : resident_[r] & ~bit;
  }

  CacheConfig cfg_;
  std::uint64_t num_sets_ = 0;
  unsigned line_shift_ = 0;
  std::uint64_t tick_ = 0;
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::vector<std::uint64_t> resident_;  ///< Per 64-line region.
  CacheStats stats_;
};

/// The reference hierarchy: after a lower-level hit or a memory fill it
/// fills the line again at every level above.
class RefHierarchy {
 public:
  explicit RefHierarchy(const HierarchyConfig& cfg)
      : cfg_(cfg), l1_(cfg.l1), l2_(cfg.l2), llc_(cfg.llc) {}

  AccessResult access(its::PhysAddr addr, unsigned size) {
    const unsigned line = cfg_.l1.line_size;
    const std::uint64_t first = addr / line;
    const std::uint64_t last = (addr + (size ? size - 1 : 0)) / line;
    AccessResult r = access_line(addr);
    for (std::uint64_t l = first + 1; l <= last; ++l) {
      const AccessResult r2 = access_line(l * line);
      if (r2.latency > r.latency) r = r2;
    }
    return r;
  }

  void warm(its::PhysAddr addr, unsigned size) {
    const unsigned line = cfg_.l1.line_size;
    const std::uint64_t first = addr / line;
    const std::uint64_t last = (addr + (size ? size - 1 : 0)) / line;
    for (std::uint64_t l = first; l <= last; ++l) {
      llc_.fill(l * line);
      l2_.fill(l * line);
      l1_.fill(l * line);
    }
  }

  void invalidate_page(its::PhysAddr page_base) {
    l1_.invalidate_range(page_base, its::kPageSize);
    l2_.invalidate_range(page_base, its::kPageSize);
    llc_.invalidate_range(page_base, its::kPageSize);
  }

  const RefCache& l1() const { return l1_; }
  const RefCache& l2() const { return l2_; }
  const RefCache& llc() const { return llc_; }

 private:
  AccessResult access_line(its::PhysAddr addr) {
    if (l1_.access(addr)) return {HitLevel::kL1, cfg_.l1.hit_latency};
    if (l2_.access(addr)) {
      l1_.fill(addr);
      return {HitLevel::kL2, cfg_.l1.hit_latency + cfg_.l2.hit_latency};
    }
    if (llc_.access(addr)) {
      l2_.fill(addr);
      l1_.fill(addr);
      return {HitLevel::kLlc,
              cfg_.l1.hit_latency + cfg_.l2.hit_latency + cfg_.llc.hit_latency};
    }
    l2_.fill(addr);
    l1_.fill(addr);
    return {HitLevel::kMemory, cfg_.l1.hit_latency + cfg_.l2.hit_latency +
                                   cfg_.llc.hit_latency + cfg_.dram_latency};
  }

  HierarchyConfig cfg_;
  RefCache l1_;
  RefCache l2_;
  RefCache llc_;
};

// ---------------------------------------------------------------- TLB ---

/// Keys from three pids over a page window ~1.5× the capacity, so lookups
/// hit and miss and inserts evict; a few keys share page numbers across pids.
its::Vpn random_tlb_key(util::Rng& rng, unsigned capacity) {
  const auto pid = static_cast<its::Pid>(rng.below(3));
  const std::uint64_t window = capacity + capacity / 2 + 2;
  const its::Vpn base = rng.below(20) == 0 ? 0x7fff0000 : 0x10000;
  return its::pid_key(pid, base + rng.below(window));
}

void expect_same_tlb(const Tlb& got, const RefTlb& want, std::uint64_t op) {
  ASSERT_EQ(got.size(), want.size()) << "op " << op;
  ASSERT_EQ(got.stats().hits, want.stats().hits) << "op " << op;
  ASSERT_EQ(got.stats().misses, want.stats().misses) << "op " << op;
  ASSERT_EQ(got.stats().flushes, want.stats().flushes) << "op " << op;
}

void run_tlb(unsigned capacity, std::uint64_t seed, std::uint64_t ops) {
  Tlb tlb(capacity);
  RefTlb ref(capacity);
  util::Rng rng(seed);
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t pick = rng.below(1000);
    const its::Vpn key = random_tlb_key(rng, capacity);
    if (pick < 500) {
      ASSERT_EQ(tlb.lookup(key), ref.lookup(key)) << "op " << op;
    } else if (pick < 500 + 350) {
      // The simulator's pattern: a missed lookup is followed by an insert.
      tlb.insert(key);
      ref.insert(key);
    } else if (pick < 995) {
      tlb.invalidate(key);
      ref.invalidate(key);
    } else {
      tlb.flush();
      ref.flush();
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_tlb(tlb, ref, op));
  }
  // Probing every key of the window afterwards checks the final contents.
  for (its::Pid pid = 0; pid < 3; ++pid) {
    for (std::uint64_t v = 0; v < capacity * 2u + 2; ++v) {
      const its::Vpn key = its::pid_key(pid, 0x10000 + v);
      ASSERT_EQ(tlb.lookup(key), ref.lookup(key)) << "final probe " << key;
    }
  }
  EXPECT_GT(ref.stats().hits, ops / 50);
  EXPECT_GT(ref.stats().misses, ops / 50);
}

TEST(TlbDiff, CapacityOneMatchesListModel) { run_tlb(1, 21, 100'000); }
TEST(TlbDiff, CapacityTwoMatchesListModel) { run_tlb(2, 22, 100'000); }
TEST(TlbDiff, CapacitySixtyFourMatchesListModel) { run_tlb(64, 23, 200'000); }

// -------------------------------------------------------------- Cache ---

/// Addresses within the first 256 sets (four pages of lines, so page
/// invalidations hit resident lines): half from a few tags per set, which
/// stay resident and hit, half from three times as many tags as there are
/// ways, which conflict and evict.
its::PhysAddr random_addr(util::Rng& rng, const CacheConfig& cfg) {
  const std::uint64_t sets = cfg.size_bytes / cfg.line_size / cfg.ways;
  const std::uint64_t set = rng.below(std::min<std::uint64_t>(sets, 256));
  const std::uint64_t tag =
      rng.below(2) == 0 ? rng.below(cfg.ways / 2 + 1) : rng.below(cfg.ways * 3ull);
  return (tag * sets + set) * cfg.line_size + rng.below(cfg.line_size);
}

template <class Ref>
void expect_same_cache(const SetAssocCache& got, const Ref& want, std::uint64_t op) {
  ASSERT_EQ(got.stats().hits, want.stats().hits) << "op " << op;
  ASSERT_EQ(got.stats().misses, want.stats().misses) << "op " << op;
  ASSERT_EQ(got.stats().evictions, want.stats().evictions) << "op " << op;
  ASSERT_EQ(got.stats().invalidations, want.stats().invalidations) << "op " << op;
  // A full count scans every way: every 1024 ops is enough.
  if (op % 1024 == 0) {
    ASSERT_EQ(got.lines_resident(), want.lines_resident()) << "op " << op;
  }
}

template <class Ref = RefCache>
void run_cache(const CacheConfig& cfg, std::uint64_t seed, std::uint64_t ops) {
  SetAssocCache cache(cfg);
  Ref ref(cfg);
  util::Rng rng(seed);
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t pick = rng.below(10'000);
    const its::PhysAddr addr = random_addr(rng, cfg);
    if (pick < 5'500) {
      ASSERT_EQ(cache.access(addr), ref.access(addr)) << "op " << op;
    } else if (pick < 7'500) {
      cache.fill(addr);
      ref.fill(addr);
    } else if (pick < 9'000) {
      ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << "op " << op;
    } else if (pick < 9'800) {
      ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr)) << "op " << op;
    } else if (pick < 9'950) {
      // Page eviction: one aligned 4 KiB frame.
      cache.invalidate_range(its::page_base(addr), its::kPageSize);
      ref.invalidate_range(its::page_base(addr), its::kPageSize);
    } else if (pick < 9'998) {
      // Unaligned, possibly empty or multi-page ranges.
      const std::uint64_t len = rng.below(3 * its::kPageSize);
      cache.invalidate_range(addr, len);
      ref.invalidate_range(addr, len);
    } else {
      cache.invalidate_all();
      ref.invalidate_all();
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_cache(cache, ref, op));
  }
  ASSERT_EQ(cache.lines_resident(), ref.lines_resident());
  EXPECT_GT(ref.stats().evictions, 0u);
  EXPECT_GT(ref.stats().hits, ops / 20);
}

TEST(CacheDiff, TinyMatchesWayModel) { run_cache({1024, 2, 64, 1}, 31, 100'000); }
TEST(CacheDiff, ThirtyTwoByteLinesMatchWayModel) { run_cache({2048, 4, 32, 1}, 32, 100'000); }
TEST(CacheDiff, NonPowerOfTwoSetsMatchWayModel) { run_cache({3 * 1024, 4, 64, 1}, 33, 100'000); }
TEST(CacheDiff, L1MatchesWayModel) { run_cache(HierarchyConfig{}.l1, 34, 100'000); }
TEST(CacheDiff, L2MatchesWayModel) { run_cache(HierarchyConfig{}.l2, 35, 100'000); }
TEST(CacheDiff, Llc4MiBMatchesWayModel) { run_cache({4_MiB, 16, 64, 14}, 36, 100'000); }
TEST(CacheDiff, Llc8MiBMatchesWayModel) { run_cache(HierarchyConfig{}.llc, 37, 100'000); }
TEST(CacheDiff, OneWayMatchesWayModel) { run_cache({1024, 1, 64, 1}, 38, 100'000); }
// Six ways pad to eight lanes: the two padding lanes must never count as
// empty ways or as resident lines.
TEST(CacheDiff, SixWaysMatchWayModel) { run_cache({24 * 1024, 6, 64, 1}, 39, 100'000); }

struct Geometry {
  const char* name;
  CacheConfig cfg;
};

// gtest appends the printed parameter to each case's listed name; printed
// byte by byte, `name`'s address would make that name differ on every run.
void PrintTo(const Geometry& g, std::ostream* os) { *os << g.name; }

class StampModelDiff : public ::testing::TestWithParam<Geometry> {};

TEST_P(StampModelDiff, MatchesStampModel) {
  run_cache<StampCache>(GetParam().cfg, 51, 100'000);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, StampModelDiff,
    ::testing::Values(Geometry{"Tiny", {1024, 2, 64, 1}},
                      Geometry{"ThirtyTwoByteLines", {2048, 4, 32, 1}},
                      Geometry{"NonPowerOfTwoSets", {3 * 1024, 4, 64, 1}},
                      Geometry{"L1", HierarchyConfig{}.l1},
                      Geometry{"L2", HierarchyConfig{}.l2},
                      Geometry{"Llc4MiB", {4_MiB, 16, 64, 14}},
                      Geometry{"Llc8MiB", HierarchyConfig{}.llc},
                      Geometry{"OneWay", {1024, 1, 64, 1}},
                      Geometry{"SixWays", {24 * 1024, 6, 64, 1}}),
    [](const ::testing::TestParamInfo<Geometry>& p) { return std::string(p.param.name); });

// CI builds only x86-64, where the cache always takes the SSE2 match; this
// pins the scalar fallback to it.  Lanes hold tags from a pool of five
// (empty included), so every lane count sees zero, one and many matches,
// padding lanes too.
TEST(SetMatch, ScalarFallbackAgreesWithSse2) {
#if defined(__SSE2__)
  alignas(64) std::uint32_t set[16];
  const std::uint32_t pool[] = {0, 1, 0x7fffffffu, 0xfffffffeu, ~0u};
  util::Rng rng(61);
  for (int trial = 0; trial < 20'000; ++trial) {
    for (std::uint32_t& lane : set) lane = pool[rng.below(5)];
    const std::uint32_t tag = pool[rng.below(5)];
    for (unsigned lanes = 4; lanes <= 16; lanes += 4)
      ASSERT_EQ(match_lanes_sse2(set, lanes, tag), match_lanes_scalar(set, lanes, tag))
          << "trial " << trial << " lanes " << lanes;
  }
#else
  GTEST_SKIP() << "no SSE2 on this target";
#endif
}

// ---------------------------------------------------------- Hierarchy ---

void expect_same_stats(const CacheStats& got, const CacheStats& want, const char* level,
                       std::uint64_t op) {
  ASSERT_EQ(got.hits, want.hits) << level << " op " << op;
  ASSERT_EQ(got.misses, want.misses) << level << " op " << op;
  ASSERT_EQ(got.evictions, want.evictions) << level << " op " << op;
  ASSERT_EQ(got.invalidations, want.invalidations) << level << " op " << op;
}

void run_hierarchy(const HierarchyConfig& cfg, std::uint64_t seed, std::uint64_t ops) {
  CacheHierarchy h(cfg);
  RefHierarchy ref(cfg);
  util::Rng rng(seed);
  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t pick = rng.below(1000);
    const its::PhysAddr addr = random_addr(rng, cfg.llc);
    const auto size = static_cast<unsigned>(1 + rng.below(rng.below(8) == 0 ? 200 : 8));
    if (pick < 850) {
      const AccessResult got = h.access(addr, size);
      const AccessResult want = ref.access(addr, size);
      ASSERT_EQ(got.level, want.level) << "op " << op;
      ASSERT_EQ(got.latency, want.latency) << "op " << op;
    } else if (pick < 950) {
      h.warm(addr, size);
      ref.warm(addr, size);
    } else {
      h.invalidate_page(its::page_base(addr));
      ref.invalidate_page(its::page_base(addr));
    }
    if (op % 256 == 0 || pick >= 950) {
      ASSERT_NO_FATAL_FAILURE(expect_same_stats(h.l1().stats(), ref.l1().stats(), "l1", op));
      ASSERT_NO_FATAL_FAILURE(expect_same_stats(h.l2().stats(), ref.l2().stats(), "l2", op));
      ASSERT_NO_FATAL_FAILURE(expect_same_stats(h.llc().stats(), ref.llc().stats(), "llc", op));
    }
  }
  EXPECT_GT(ref.llc().stats().evictions, 0u);
  EXPECT_GT(ref.l2().stats().hits, 0u);
  EXPECT_EQ(h.l1().lines_resident(), ref.l1().lines_resident());
  EXPECT_EQ(h.l2().lines_resident(), ref.l2().lines_resident());
  EXPECT_EQ(h.llc().lines_resident(), ref.llc().lines_resident());
}

TEST(HierarchyDiff, Llc8MiBMatchesRefillingModel) { run_hierarchy(HierarchyConfig{}, 41, 100'000); }

TEST(HierarchyDiff, Llc4MiBMatchesRefillingModel) {
  HierarchyConfig cfg;
  cfg.llc.size_bytes = 4_MiB;  // the pre-execute configurations' half LLC
  run_hierarchy(cfg, 42, 100'000);
}

TEST(HierarchyDiff, TinyLevelsMatchRefillingModel) {
  // Small enough that every level evicts constantly.
  HierarchyConfig cfg;
  cfg.l1 = {256, 2, 64, 1};
  cfg.l2 = {1024, 4, 64, 4};
  cfg.llc = {4096, 4, 64, 14};
  run_hierarchy(cfg, 43, 100'000);
}

}  // namespace
}  // namespace its::mem
