// Differential test (ctest label `cpu`): the ring store buffer and its line
// filter against a reference model — a plain deque scanned youngest-first,
// which is the store buffer the ring replaced.  Every push, lookup and
// retirement of a seeded random op stream must agree, including the cases
// the filter treats specially: zero-size entries and probes, entries wider
// than StoreBuffer::kFilterLines lines, probes straddling lines, lines that
// share a filter bucket, ring wrap-around and keys of different pids.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "cpu/store_buffer.h"
#include "mem/preexec_cache.h"
#include "util/rng.h"
#include "util/types.h"

namespace its::cpu {
namespace {

/// The reference: FIFO deque, youngest-first linear scan.
class RefStoreBuffer {
 public:
  explicit RefStoreBuffer(std::size_t capacity) : capacity_(capacity) {}

  std::optional<SbEntry> push(const SbEntry& e) {
    std::optional<SbEntry> retired;
    if (entries_.size() >= capacity_) {
      retired = entries_.front();
      entries_.pop_front();
    }
    entries_.push_back(e);
    return retired;
  }

  SbHit lookup(its::VirtAddr addr, std::uint16_t size) const {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->addr < addr + size && addr < it->addr + it->size) {
        bool covers = it->addr <= addr && addr + size <= it->addr + it->size;
        return {true, it->invalid, covers};
      }
    }
    return {};
  }

  std::vector<SbEntry> drain() {
    std::vector<SbEntry> out(entries_.begin(), entries_.end());
    entries_.clear();
    return out;
  }

  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }

 private:
  std::size_t capacity_;
  std::deque<SbEntry> entries_;
};

/// Lines this far apart share a filter bucket.
constexpr its::VirtAddr kBucketStride = StoreBuffer::kFilterBuckets * kCacheLineSize;

/// Random keys clustered so that entries and probes collide often: a few
/// pids, a 1 KiB hot window, and far copies of it offset by multiples of
/// kBucketStride (so their lines share buckets with the hot window's).
its::VirtAddr random_key(util::Rng& rng) {
  const auto pid = static_cast<its::Pid>(1 + rng.below(3));
  const its::VirtAddr alias = rng.below(4) * kBucketStride;
  return its::pid_key(pid, 0x10000 + alias + rng.below(1024));
}

/// Sizes: mostly word-sized, some line-straddling, some zero, some wider
/// than the filter indexes (> 4 lines = 256 bytes).
std::uint16_t random_size(util::Rng& rng) {
  const std::uint64_t pick = rng.below(100);
  if (pick < 5) return 0;
  if (pick < 75) return static_cast<std::uint16_t>(1u << rng.below(4));  // 1..8
  if (pick < 93) return static_cast<std::uint16_t>(1 + rng.below(128));
  return static_cast<std::uint16_t>(200 + rng.below(400));
}

void expect_same_hit(const SbHit& got, const SbHit& want, std::uint64_t op) {
  ASSERT_EQ(got.found, want.found) << "op " << op;
  ASSERT_EQ(got.invalid, want.invalid) << "op " << op;
  ASSERT_EQ(got.complete, want.complete) << "op " << op;
}

/// Retired entries land in a pre-execute cache on both sides; identical
/// retirement streams leave identical caches.
void expect_same_cache(mem::PreexecCache& got, mem::PreexecCache& want,
                       its::VirtAddr probe, std::uint64_t op) {
  ASSERT_EQ(got.stats().stores, want.stats().stores) << "op " << op;
  ASSERT_EQ(got.stats().invalid_bytes_written, want.stats().invalid_bytes_written)
      << "op " << op;
  const mem::PxLookup a = got.lookup(probe, 8);
  const mem::PxLookup b = want.lookup(probe, 8);
  ASSERT_EQ(a.found, b.found) << "op " << op;
  ASSERT_EQ(a.complete, b.complete) << "op " << op;
  ASSERT_EQ(a.any_invalid, b.any_invalid) << "op " << op;
}

void run_differential(std::size_t capacity, std::uint64_t seed, std::uint64_t ops) {
  StoreBuffer sb(capacity);
  RefStoreBuffer ref(capacity);
  const mem::PreexecCacheConfig geometry{64_KiB, 4, 64};
  mem::PreexecCache px(geometry);
  mem::PreexecCache ref_px(geometry);
  util::Rng rng(seed);
  std::uint64_t pushes = 0;

  for (std::uint64_t op = 0; op < ops; ++op) {
    const std::uint64_t pick = rng.below(1000);
    if (pick < 450) {
      const SbEntry e{random_key(rng), random_size(rng), rng.below(2) == 0};
      std::optional<SbEntry> got = sb.push(e);
      std::optional<SbEntry> want = ref.push(e);
      ++pushes;
      ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
      if (want) {
        ASSERT_EQ(got->addr, want->addr) << "op " << op;
        ASSERT_EQ(got->size, want->size) << "op " << op;
        ASSERT_EQ(got->invalid, want->invalid) << "op " << op;
      }
    } else if (pick < 990) {
      const its::VirtAddr addr = random_key(rng);
      const std::uint16_t size = random_size(rng);
      ASSERT_NO_FATAL_FAILURE(expect_same_hit(sb.lookup(addr, size), ref.lookup(addr, size), op));
    } else if (pick < 997) {
      sb.retire_all(px);
      for (const SbEntry& e : ref.drain()) ref_px.store(e.addr, e.size, e.invalid);
      ASSERT_NO_FATAL_FAILURE(expect_same_cache(px, ref_px, random_key(rng), op));
    } else {
      sb.clear();
      ref.clear();
    }
    ASSERT_EQ(sb.size(), ref.size()) << "op " << op;
    ASSERT_EQ(sb.empty(), ref.size() == 0) << "op " << op;
  }
  // Many more pushes than slots: the ring wrapped many times over.
  EXPECT_GT(pushes, 100 * capacity);
}

TEST(StoreBufferDiff, CapacityOneMatchesDequeModel) { run_differential(1, 11, 100'000); }
TEST(StoreBufferDiff, CapacityTwoMatchesDequeModel) { run_differential(2, 12, 100'000); }
TEST(StoreBufferDiff, CapacityFiftySixMatchesDequeModel) { run_differential(56, 13, 150'000); }

TEST(StoreBufferDiff, FilterNeverHidesAnOverlap) {
  // Hand-picked edges: every probe below overlaps a buffered entry.
  StoreBuffer sb(8);
  sb.push({0x1000, 0, false});           // zero-size: unfiltered
  EXPECT_TRUE(sb.lookup(0xFF8, 16).found);  // strictly contains its point
  sb.clear();

  sb.push({0x2000, 1024, true});  // 16 lines: wider than the filter indexes
  EXPECT_TRUE(sb.lookup(0x23F8, 8).found);
  sb.clear();

  sb.push({0x3038, 16, false});  // straddles lines 0xC0 and 0xC1
  EXPECT_TRUE(sb.lookup(0x3040, 4).found);
  EXPECT_TRUE(sb.lookup(0x303C, 2).found);
  EXPECT_FALSE(sb.lookup(0x3048, 8).found);

  const its::VirtAddr alias = 0x3040 + kBucketStride;  // same bucket, other line
  EXPECT_FALSE(sb.lookup(alias, 8).found);
  EXPECT_FALSE(sb.lookup(its::pid_key(2, 0x3040), 8).found);
}

TEST(StoreBufferDiff, FilterNeverHidesAnOverlapAtTheBucketStride) {
  // Stores exactly kFilterBuckets lines apart share every bucket, so the
  // filter counts several entries per bucket; retiring one must leave the
  // others visible, and a probe of one must find it and not its alias.
  static_assert(StoreBuffer::kFilterBuckets == 4096);
  StoreBuffer sb(4);
  RefStoreBuffer ref(4);
  const its::VirtAddr base = 0x40000;
  const std::vector<SbEntry> stores = {
      {base + 8, 8, false},
      {base + kBucketStride + 16, 8, true},
      {base + 2 * kBucketStride + 0x38, 16, false},  // straddles two buckets
      {base + 3 * kBucketStride + 0x3c, 8, true},    // straddles the same two
      {base + 4 * kBucketStride + 0x30, 32, false},  // retires the first
      {base + 5 * kBucketStride + 0x7c, 8, true},    // the next two buckets
  };
  std::vector<its::VirtAddr> probes;
  for (its::VirtAddr k = 0; k < 6; ++k)
    for (its::VirtAddr off : {0x0u, 0x8u, 0x10u, 0x38u, 0x3cu, 0x40u, 0x44u, 0x78u, 0x80u})
      probes.push_back(base + k * kBucketStride + off);
  std::uint64_t found = 0;
  std::uint64_t op = 0;
  for (const SbEntry& e : stores) {
    const std::optional<SbEntry> got = sb.push(e);
    const std::optional<SbEntry> want = ref.push(e);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (want) {
      ASSERT_EQ(got->addr, want->addr);
    }
    for (its::VirtAddr p : probes) {
      for (const std::uint16_t size : {std::uint16_t{1}, std::uint16_t{4}, std::uint16_t{8},
                                       std::uint16_t{16}}) {
        const SbHit want_hit = ref.lookup(p, size);
        ASSERT_NO_FATAL_FAILURE(expect_same_hit(sb.lookup(p, size), want_hit, op++));
        found += want_hit.found ? 1 : 0;
      }
    }
  }
  EXPECT_GT(found, 0u);
  EXPECT_LT(found, op);
}

}  // namespace
}  // namespace its::cpu
