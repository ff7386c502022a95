// Differential test (ctest label `mem`): the split-tag pre-execute cache
// against a reference model — one array of {tag, valid, written, inv, lru}
// structs, set and tag found by division, which is the layout the split-tag
// cache replaced.  A seeded random stream of stores, probes and clears must
// give the same PxLookup for every probe, the same stats() after every op
// and the same lines_resident(), on a tiny geometry and on the default
// 4 MiB one.  That pins which resident line each allocation evicts (the
// oldest LRU stamp once a set is full) and the LRU touches of probes
// directly, not only through the goldens.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

/// Mostly word-sized accesses, some straddling two lines, some spanning
/// several, some zero-sized.
unsigned random_size(util::Rng& rng) {
  const std::uint64_t pick = rng.below(100);
  if (pick < 4) return 0;
  if (pick < 80) return 1u << rng.below(4);
  if (pick < 95) return static_cast<unsigned>(1 + rng.below(64));
  return static_cast<unsigned>(65 + rng.below(200));
}

void run_differential(const PreexecCacheConfig& cfg, const KeySpace& keys,
                      std::uint64_t seed, std::uint64_t ops) {
  PreexecCache px(cfg);
  RefPreexecCache ref(cfg);
  util::Rng rng(seed);
  std::uint64_t hits = 0;

  for (std::uint64_t op = 0; op < ops; ++op) {
    const its::VirtAddr addr = keys.draw(rng);
    const unsigned size = random_size(rng);
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
  run_differential(tiny, {16, 16, 6}, 21, 200'000);
}

TEST(PreexecCacheDiff, DefaultGeometryMatchesArrayOfStructsModel) {
  const PreexecCacheConfig def{};  // 4 MiB: 4096 sets × 16 ways
  run_differential(def, {4096, 8, 24}, 22, 200'000);
}

}  // namespace
}  // namespace its::mem
