// Differential test (ctest label `mem`): the fingerprinted pre-execute
// cache against a reference model — one array of {tag, valid, written, inv,
// lru} structs, set and tag found by division and every way's tag compared.
// A seeded random stream of stores, probes and clears must give the same
// PxLookup for every probe, the same stats() after every op and the same
// lines_resident().  That pins which resident line each allocation evicts
// (the oldest LRU stamp once a set is full) and the LRU touches of probes
// directly, not only through the goldens.  The streams cover a tiny
// geometry and the default 4 MiB one; tags that share a fingerprint; sets
// of 32 ways (two 16-byte fingerprint chunks) and wider; and ranges that
// cross a line, which take the out-of-line paths.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "mem/preexec_cache.h"
#include "util/rng.h"
#include "util/types.h"

namespace its::mem {
namespace {

/// The reference: array-of-structs lines, runtime division by the set count.
class RefPreexecCache {
 public:
  explicit RefPreexecCache(const PreexecCacheConfig& cfg) : cfg_(cfg) {
    const std::uint64_t n = cfg.size_bytes / cfg.line_size;
    num_sets_ = n / cfg.ways;
    lines_.assign(n, Line{});
  }

  void store(its::VirtAddr addr, unsigned size, bool invalid) {
    if (size == 0) return;
    ++stats_.stores;
    const std::uint64_t first = addr / cfg_.line_size;
    const std::uint64_t last = (addr + size - 1) / cfg_.line_size;
    for (std::uint64_t la = first; la <= last; ++la) {
      const std::uint64_t m = mask(addr, size, la, first, last);
      Line& l = find_or_alloc(la);
      l.written |= m;
      if (invalid) {
        l.inv |= m;
        stats_.invalid_bytes_written += static_cast<unsigned>(std::popcount(m));
      } else {
        l.inv &= ~m;
      }
    }
  }

  PxLookup lookup(its::VirtAddr addr, unsigned size) {
    PxLookup r;
    if (size == 0) {
      ++stats_.load_misses;
      return r;
    }
    r.complete = true;
    const std::uint64_t first = addr / cfg_.line_size;
    const std::uint64_t last = (addr + size - 1) / cfg_.line_size;
    for (std::uint64_t la = first; la <= last; ++la) {
      const std::uint64_t m = mask(addr, size, la, first, last);
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

  void clear() {
    for (auto& l : lines_) l = Line{};
  }

  const PreexecCacheStats& stats() const { return stats_; }

  std::uint64_t lines_resident() const {
    std::uint64_t n = 0;
    for (const auto& l : lines_) n += l.valid ? 1 : 0;
    return n;
  }

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t written = 0;
    std::uint64_t inv = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  std::uint64_t mask(its::VirtAddr addr, unsigned size, std::uint64_t la,
                     std::uint64_t first, std::uint64_t last) const {
    const std::uint64_t lo = la == first ? addr % cfg_.line_size : 0;
    const std::uint64_t hi =
        la == last ? (addr + size - 1) % cfg_.line_size : cfg_.line_size - 1;
    const std::uint64_t n = hi - lo + 1;
    return n >= 64 ? ~0ull : ((1ull << n) - 1) << lo;
  }

  Line* base_of(std::uint64_t line_addr) {
    return &lines_[(line_addr % num_sets_) * cfg_.ways];
  }

  Line* find(std::uint64_t line_addr) {
    Line* base = base_of(line_addr);
    const std::uint64_t tag = line_addr / num_sets_;
    for (unsigned w = 0; w < cfg_.ways; ++w)
      if (base[w].valid && base[w].tag == tag) return &base[w];
    return nullptr;
  }

  Line& find_or_alloc(std::uint64_t line_addr) {
    Line* base = base_of(line_addr);
    const std::uint64_t tag = line_addr / num_sets_;
    Line* victim = base;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
      Line& l = base[w];
      if (l.valid && l.tag == tag) {
        l.lru = ++tick_;
        return l;
      }
      if (!l.valid) {
        victim = &l;
      } else if (victim->valid && l.lru < victim->lru) {
        victim = &l;
      }
    }
    *victim = Line{};
    victim->valid = true;
    victim->tag = tag;
    victim->lru = ++tick_;
    return *victim;
  }

  PreexecCacheConfig cfg_;
  std::uint64_t num_sets_;
  std::uint64_t tick_ = 0;
  std::vector<Line> lines_;
  PreexecCacheStats stats_;
};

void expect_same_stats(const PreexecCacheStats& got, const PreexecCacheStats& want,
                       std::uint64_t op) {
  ASSERT_EQ(got.stores, want.stores) << "op " << op;
  ASSERT_EQ(got.load_hits, want.load_hits) << "op " << op;
  ASSERT_EQ(got.load_misses, want.load_misses) << "op " << op;
  ASSERT_EQ(got.invalid_bytes_written, want.invalid_bytes_written) << "op " << op;
}

/// Keys drawn from `hot_sets` sets × `tags` lines each (so sets overflow
/// and evict), under a few pids, with random in-line offsets.
struct KeySpace {
  std::uint64_t num_sets;
  std::uint64_t hot_sets;
  std::uint64_t tags;

  its::VirtAddr draw(util::Rng& rng) const {
    const std::uint64_t set = rng.below(hot_sets) * (num_sets / hot_sets);
    const std::uint64_t line = set + num_sets * rng.below(tags);
    const auto pid = static_cast<its::Pid>(1 + rng.below(3));
    return its::pid_key(pid, line * kCacheLineSize + rng.below(kCacheLineSize));
  }
};

/// Lines of `hot_sets` sets whose tags share fingerprints: per set,
/// `groups` fingerprints with `per_group` tags each, all under one pid.  A
/// probe then usually finds ways whose fingerprint matches but whose tag
/// does not.
struct SharedFingerprints {
  std::vector<std::uint64_t> lines;

  SharedFingerprints(std::uint64_t num_sets, std::uint64_t hot_sets, unsigned groups,
                     unsigned per_group) {
    const auto set_bits = static_cast<unsigned>(std::countr_zero(num_sets));
    for (std::uint64_t h = 0; h < hot_sets; ++h) {
      const std::uint64_t set = h * (num_sets / hot_sets);
      std::map<std::uint8_t, std::vector<std::uint64_t>> by_fp;
      unsigned full = 0;
      for (std::uint64_t tag = 1; full < groups; ++tag) {
        std::vector<std::uint64_t>& g = by_fp[PreexecCache::fingerprint(tag)];
        if (g.size() == per_group) continue;
        g.push_back((tag << set_bits) | set);
        if (g.size() == per_group) {
          lines.insert(lines.end(), g.begin(), g.end());
          ++full;
        }
      }
    }
  }

  its::VirtAddr draw(util::Rng& rng) const {
    return lines[rng.below(lines.size())] * kCacheLineSize + rng.below(kCacheLineSize);
  }
};

/// Mostly word-sized accesses, some straddling two lines, some spanning
/// several, some zero-sized.
unsigned random_size(util::Rng& rng) {
  const std::uint64_t pick = rng.below(100);
  if (pick < 4) return 0;
  if (pick < 80) return 1u << rng.below(4);
  if (pick < 95) return static_cast<unsigned>(1 + rng.below(64));
  return static_cast<unsigned>(65 + rng.below(200));
}

/// Sizes for probes and stores at any in-line offset that mostly cross
/// into the next line or further.
unsigned crossing_size(util::Rng& rng) {
  const std::uint64_t pick = rng.below(100);
  if (pick < 70) return static_cast<unsigned>(33 + rng.below(64));
  if (pick < 90) return static_cast<unsigned>(97 + rng.below(160));
  return 1u << rng.below(4);
}

template <class Keys>
void run_differential(const PreexecCacheConfig& cfg, const Keys& keys, std::uint64_t seed,
                      std::uint64_t ops, unsigned (*size_of)(util::Rng&) = random_size) {
  PreexecCache px(cfg);
  RefPreexecCache ref(cfg);
  util::Rng rng(seed);
  std::uint64_t hits = 0;

  for (std::uint64_t op = 0; op < ops; ++op) {
    const its::VirtAddr addr = keys.draw(rng);
    const unsigned size = size_of(rng);
    const std::uint64_t pick = rng.below(1000);
    if (pick < 450) {
      const bool invalid = rng.below(3) == 0;
      px.store(addr, size, invalid);
      ref.store(addr, size, invalid);
    } else if (pick < 999) {
      const PxLookup got = px.lookup(addr, size);
      const PxLookup want = ref.lookup(addr, size);
      ASSERT_EQ(got.found, want.found) << "op " << op;
      ASSERT_EQ(got.complete, want.complete) << "op " << op;
      ASSERT_EQ(got.any_invalid, want.any_invalid) << "op " << op;
      hits += want.found ? 1 : 0;
    } else {
      px.clear();
      ref.clear();
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_stats(px.stats(), ref.stats(), op));
    if (op % 4096 == 0) {
      ASSERT_EQ(px.lines_resident(), ref.lines_resident()) << "op " << op;
    }
  }
  EXPECT_EQ(px.lines_resident(), ref.lines_resident());
  // The stream must exercise both outcomes, or it pins nothing.
  EXPECT_GT(hits, ops / 100);
  EXPECT_LT(hits, ops / 2);
}

TEST(PreexecCacheDiff, TinyGeometryMatchesArrayOfStructsModel) {
  const PreexecCacheConfig tiny{2048, 2, 64};  // 16 sets × 2 ways
  run_differential(tiny, KeySpace{16, 16, 6}, 21, 200'000);
}

TEST(PreexecCacheDiff, DefaultGeometryMatchesArrayOfStructsModel) {
  const PreexecCacheConfig def{};  // 4 MiB: 4096 sets × 16 ways
  run_differential(def, KeySpace{4096, 8, 24}, 22, 200'000);
}

TEST(PreexecCacheDiff, SharedFingerprintsMatchArrayOfStructsModel) {
  // Per set, 4 fingerprints × 6 tags: 24 lines over 16 ways, so the
  // candidates of a probe are often the wrong tag, and evictions pick among
  // ways that look alike.
  const SharedFingerprints keys(4096, 8, 4, 6);
  ASSERT_EQ(keys.lines.size(), 8u * 4 * 6);
  run_differential(PreexecCacheConfig{}, keys, 23, 200'000);
}

TEST(PreexecCacheDiff, ThirtyTwoWaysMatchArrayOfStructsModel) {
  const PreexecCacheConfig wide{64_KiB, 32, 64};  // 32 sets × 32 ways: two chunks
  run_differential(wide, KeySpace{32, 8, 48}, 24, 200'000);
  run_differential(wide, SharedFingerprints(32, 4, 8, 6), 25, 200'000);
}

TEST(PreexecCacheDiff, WiderThanThirtyTwoWaysMatchArrayOfStructsModel) {
  // 48 ways: one full 32-lane match and one 16-lane match with no padding;
  // 40 ways: padding lanes in the second match.
  run_differential(PreexecCacheConfig{48_KiB, 48, 64}, KeySpace{16, 8, 72}, 26, 200'000);
  run_differential(PreexecCacheConfig{40_KiB, 40, 64}, KeySpace{16, 8, 60}, 27, 200'000);
}

TEST(PreexecCacheDiff, LineCrossingRangesMatchArrayOfStructsModel) {
  run_differential(PreexecCacheConfig{}, KeySpace{4096, 8, 24}, 28, 200'000, crossing_size);
  run_differential(PreexecCacheConfig{2048, 2, 64}, KeySpace{16, 16, 6}, 29, 200'000,
                   crossing_size);
}

TEST(PreexecCacheDiff, FingerprintScalarFallbackAgreesWithSse2) {
#if defined(__SSE2__)
  alignas(16) std::uint8_t fps[32];
  const std::uint8_t pool[] = {0, 1, 0x7f, 0x80, 0xfe, 0xff};
  util::Rng rng(62);
  for (int trial = 0; trial < 20'000; ++trial) {
    // Padding lanes are 0, like an empty way; they are compared too.
    const unsigned ways = 1 + static_cast<unsigned>(rng.below(32));
    for (unsigned w = 0; w < 32; ++w) fps[w] = w < ways ? pool[rng.below(6)] : 0;
    const std::uint8_t fp = pool[rng.below(6)];
    for (unsigned lanes = 16; lanes <= 32; lanes += 16)
      ASSERT_EQ(match_fingerprints_sse2(fps, lanes, fp), match_fingerprints_scalar(fps, lanes, fp))
          << "trial " << trial << " lanes " << lanes;
  }
#else
  GTEST_SKIP() << "no SSE2 on this target";
#endif
}

}  // namespace
}  // namespace its::mem
