// Tests for src/mem: set-associative cache, 3-level hierarchy, TLB, and the
// pre-execute cache's per-byte INV semantics.
#include <gtest/gtest.h>

#include <stdexcept>

#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "mem/tlb.h"
#include "util/types.h"

namespace its::mem {
namespace {

CacheConfig tiny_cache() { return {1024, 2, 64, 1}; }  // 8 sets × 2 ways

TEST(SetAssocCache, MissThenHit) {
  SetAssocCache c(tiny_cache());
  EXPECT_FALSE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x1000));
  EXPECT_TRUE(c.access(0x103F));  // same line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(SetAssocCache, LruEvictsOldest) {
  SetAssocCache c(tiny_cache());  // 8 sets: lines with same (line % 8) collide
  // Three lines mapping to set 0: line numbers 0, 8, 16 → addrs 0, 0x200, 0x400.
  c.access(0x000);
  c.access(0x200);
  c.access(0x000);   // refresh line 0
  c.access(0x400);   // evicts line 8 (LRU)
  EXPECT_TRUE(c.probe(0x000));
  EXPECT_FALSE(c.probe(0x200));
  EXPECT_TRUE(c.probe(0x400));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(SetAssocCache, FillDoesNotCountHitOrMiss) {
  SetAssocCache c(tiny_cache());
  c.fill(0x1000);
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().misses, 0u);
  EXPECT_TRUE(c.probe(0x1000));
}

TEST(SetAssocCache, InvalidateSingleLine) {
  SetAssocCache c(tiny_cache());
  c.access(0x1000);
  EXPECT_TRUE(c.invalidate(0x1000));
  EXPECT_FALSE(c.probe(0x1000));
  EXPECT_FALSE(c.invalidate(0x1000));  // second time: not present
  EXPECT_EQ(c.stats().invalidations, 1u);
}

TEST(SetAssocCache, InvalidateRangeDropsWholePage) {
  SetAssocCache c({64 * 1024, 8, 64, 1});
  for (std::uint64_t a = 0x4000; a < 0x5000; a += 64) c.access(a);
  c.invalidate_range(0x4000, its::kPageSize);
  for (std::uint64_t a = 0x4000; a < 0x5000; a += 64) EXPECT_FALSE(c.probe(a));
}

TEST(SetAssocCache, InvalidateAll) {
  SetAssocCache c(tiny_cache());
  c.access(0x0);
  c.access(0x40);
  c.invalidate_all();
  EXPECT_EQ(c.lines_resident(), 0u);
}

TEST(SetAssocCache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache({1024, 0, 64, 1}), std::invalid_argument);
  EXPECT_THROW(SetAssocCache({1024, 2, 48, 1}), std::invalid_argument);  // not pow2
  EXPECT_THROW(SetAssocCache({100, 3, 64, 1}), std::invalid_argument);
}

TEST(SetAssocCache, RejectsMoreThanSixteenWays) {
  // A set's LRU order is one 64-bit word of 4-bit ranks.
  EXPECT_THROW(SetAssocCache({17 * 64, 17, 64, 1}), std::invalid_argument);
  EXPECT_NO_THROW(SetAssocCache({16 * 64, 16, 64, 1}));
}

TEST(SetAssocCache, TagPastThirtyTwoBitsThrowsInsteadOfAliasing) {
  SetAssocCache c(tiny_cache());  // 8 sets of 64-byte lines: 512 bytes per tag
  EXPECT_EQ(c.max_phys_bytes(), 512 * 0xffffffffull);
  c.access(0x0);
  // Tag 2^32 truncated to 32 bits would be line 0's tag.
  const its::PhysAddr alias = 512ull << 32;
  EXPECT_THROW(c.access(alias), std::out_of_range);
  EXPECT_THROW(c.fill(alias), std::out_of_range);
  EXPECT_THROW(c.probe(alias), std::out_of_range);
  EXPECT_THROW(c.invalidate(alias), std::out_of_range);
  // All ones marks an empty way, so the range ends one tag short of 2^32.
  EXPECT_THROW(c.access(c.max_phys_bytes()), std::out_of_range);
  EXPECT_FALSE(c.probe(c.max_phys_bytes() - 1));
  EXPECT_TRUE(c.probe(0x0));
  EXPECT_EQ(c.stats().hits, 0u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.lines_resident(), 1u);
}

TEST(SetAssocCache, RejectsOneByteLines) {
  EXPECT_THROW(SetAssocCache({1024, 2, 1, 1}), std::invalid_argument);
}

TEST(SetAssocCache, ThirtyTwoByteLinesSpanTwoRegionsPerPage) {
  SetAssocCache c({16 * 1024, 4, 32, 1});  // 128 sets: a page is 128 lines
  for (std::uint64_t a = 0x4000; a < 0x5000; a += 32) EXPECT_FALSE(c.access(a));
  EXPECT_TRUE(c.access(0x403F));  // same 32-byte line as 0x4020
  EXPECT_FALSE(c.access(0x5000));
  EXPECT_TRUE(c.invalidate(0x4020));
  EXPECT_FALSE(c.invalidate(0x4020));
  c.invalidate_range(0x4000, its::kPageSize);
  EXPECT_EQ(c.stats().invalidations, 128u);
  EXPECT_EQ(c.lines_resident(), 1u);  // only 0x5000's line is left
  EXPECT_TRUE(c.probe(0x5000));
  for (std::uint64_t a = 0x4000; a < 0x5000; a += 32) EXPECT_FALSE(c.probe(a));
}

TEST(SetAssocCache, EightKiBLinesAreLargerThanAPage) {
  SetAssocCache c({64 * 1024, 2, 8192, 1});  // 4 sets × 2 ways
  EXPECT_FALSE(c.access(0x0));
  EXPECT_TRUE(c.access(0x1FFF));  // same line
  EXPECT_FALSE(c.access(0x2000));
  EXPECT_FALSE(c.access(0x10000));  // line 8: set 0 again
  // Half a line still drops the whole line.
  c.invalidate_range(0x1000, its::kPageSize);
  EXPECT_FALSE(c.probe(0x0));
  EXPECT_TRUE(c.probe(0x2000));
  EXPECT_TRUE(c.invalidate(0x2000));
  c.invalidate_range(0x0, 0x20000);
  EXPECT_EQ(c.lines_resident(), 0u);
  EXPECT_EQ(c.stats().invalidations, 3u);
  EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(SetAssocCache, ProbeHasNoSideEffects) {
  SetAssocCache c(tiny_cache());
  EXPECT_FALSE(c.probe(0x1000));
  EXPECT_EQ(c.stats().hits + c.stats().misses, 0u);
}

class CacheWaySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(CacheWaySweep, FullyUtilisesAssociativity) {
  unsigned ways = GetParam();
  SetAssocCache c({64ull * ways, ways, 64, 1});  // exactly 1 set
  for (unsigned i = 0; i < ways; ++i) c.access(i * 64);
  for (unsigned i = 0; i < ways; ++i) EXPECT_TRUE(c.probe(i * 64)) << i;
  c.access(ways * 64);  // one more: evicts exactly one
  EXPECT_EQ(c.lines_resident(), ways);
}

INSTANTIATE_TEST_SUITE_P(Ways, CacheWaySweep, ::testing::Values(1, 2, 4, 8, 16));

TEST(Hierarchy, LatenciesSumPerLevel) {
  HierarchyConfig cfg;  // l1 1 ns, l2 4 ns, llc 14 ns, dram 50 ns
  CacheHierarchy h(cfg);
  AccessResult r = h.access(0x10000, 8);
  EXPECT_EQ(r.level, HitLevel::kMemory);
  EXPECT_EQ(r.latency, 1u + 4 + 14 + 50);
  r = h.access(0x10000, 8);
  EXPECT_EQ(r.level, HitLevel::kL1);
  EXPECT_EQ(r.latency, 1u);
}

TEST(Hierarchy, InclusiveFillOnMiss) {
  CacheHierarchy h;
  h.access(0x20000, 8);
  EXPECT_TRUE(h.l1().probe(0x20000));
  EXPECT_TRUE(h.l2().probe(0x20000));
  EXPECT_TRUE(h.llc().probe(0x20000));
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  HierarchyConfig cfg;
  cfg.l1 = {128, 2, 64, 1};  // 1 set × 2 ways: tiny L1
  CacheHierarchy h(cfg);
  h.access(0x0000, 8);
  h.access(0x1000, 8);
  h.access(0x2000, 8);  // evicts 0x0000 from L1, still in L2
  AccessResult r = h.access(0x0000, 8);
  EXPECT_EQ(r.level, HitLevel::kL2);
  EXPECT_EQ(r.latency, 1u + 4);
}

TEST(Hierarchy, WarmMakesArchitecturalAccessHit) {
  CacheHierarchy h;
  h.warm(0x30000, 64);
  AccessResult r = h.access(0x30000, 8);
  EXPECT_EQ(r.level, HitLevel::kL1);
  // warm() itself must not create hit/miss counts.
  EXPECT_EQ(h.l1().stats().misses, 0u);
}

TEST(Hierarchy, LineSpanningAccessChargesSlowerLine) {
  CacheHierarchy h;
  h.warm(0x40000, 64);            // first line cached
  AccessResult r = h.access(0x4003C, 8);  // spans into uncached second line
  EXPECT_EQ(r.level, HitLevel::kMemory);
}

TEST(Hierarchy, InvalidatePageDropsAllLevels) {
  CacheHierarchy h;
  for (std::uint64_t a = 0x50000; a < 0x51000; a += 64) h.access(a, 8);
  h.invalidate_page(0x50000);
  EXPECT_FALSE(h.probe(0x50000));
  EXPECT_FALSE(h.probe(0x50FC0));
}

TEST(Hierarchy, MaxPhysBytesIsTheSmallestTagRange) {
  CacheHierarchy h;  // L1 has the fewest sets: 4 KiB per tag
  EXPECT_EQ(h.max_phys_bytes(), h.l1().max_phys_bytes());
  EXPECT_EQ(h.max_phys_bytes(), 4096 * 0xffffffffull);
  EXPECT_LT(h.l1().max_phys_bytes(), h.l2().max_phys_bytes());
}

TEST(Hierarchy, LlcMissCounter) {
  CacheHierarchy h;
  h.access(0x60000, 8);
  h.access(0x60000, 8);
  h.access(0x61000, 8);
  EXPECT_EQ(h.llc_misses(), 2u);
  EXPECT_EQ(h.total_accesses(), 3u);
  h.reset_stats();
  EXPECT_EQ(h.llc_misses(), 0u);
}

TEST(Tlb, HitAfterInsert) {
  Tlb tlb(4);
  EXPECT_FALSE(tlb.lookup(10));
  tlb.insert(10);
  EXPECT_TRUE(tlb.lookup(10));
  EXPECT_EQ(tlb.stats().hits, 1u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, LruEviction) {
  Tlb tlb(2);
  tlb.insert(1);
  tlb.insert(2);
  tlb.lookup(1);   // 1 now MRU
  tlb.insert(3);   // evicts 2
  EXPECT_TRUE(tlb.lookup(1));
  EXPECT_FALSE(tlb.lookup(2));
  EXPECT_TRUE(tlb.lookup(3));
}

TEST(Tlb, InsertExistingRefreshes) {
  Tlb tlb(2);
  tlb.insert(1);
  tlb.insert(2);
  tlb.insert(1);  // refresh, no growth
  EXPECT_EQ(tlb.size(), 2u);
  tlb.insert(3);  // evicts 2 (LRU), not 1
  EXPECT_TRUE(tlb.lookup(1));
  EXPECT_FALSE(tlb.lookup(2));
}

TEST(Tlb, FlushEmptiesAndCounts) {
  Tlb tlb(8);
  tlb.insert(1);
  tlb.insert(2);
  tlb.flush();
  EXPECT_EQ(tlb.size(), 0u);
  EXPECT_FALSE(tlb.lookup(1));
  EXPECT_EQ(tlb.stats().flushes, 1u);
}

TEST(Tlb, InvalidateSingleEntry) {
  Tlb tlb(8);
  tlb.insert(5);
  tlb.invalidate(5);
  EXPECT_FALSE(tlb.lookup(5));
  tlb.invalidate(99);  // absent: no-op
}

TEST(Tlb, RejectsZeroCapacity) { EXPECT_THROW(Tlb(0), std::invalid_argument); }

TEST(Tlb, RejectsCapacityPastLimit) {
  EXPECT_THROW(Tlb(Tlb::kMaxEntries + 1), std::invalid_argument);
}

TEST(Tlb, InvalidatedSlotIsReusedBeforeEviction) {
  Tlb tlb(3);
  tlb.insert(1);
  tlb.insert(2);
  tlb.insert(3);
  tlb.invalidate(2);
  tlb.insert(4);  // takes the freed slot: nothing is evicted
  EXPECT_EQ(tlb.size(), 3u);
  EXPECT_TRUE(tlb.lookup(1));
  EXPECT_TRUE(tlb.lookup(3));
  EXPECT_TRUE(tlb.lookup(4));
  EXPECT_FALSE(tlb.lookup(2));
  tlb.flush();
  tlb.insert(5);
  EXPECT_EQ(tlb.size(), 1u);
  EXPECT_FALSE(tlb.lookup(1));
}

PreexecCacheConfig tiny_px() { return {2048, 2, 64}; }  // 16 sets × 2 ways

TEST(PreexecCache, StoreThenLoadValid) {
  PreexecCache px(tiny_px());
  px.store(0x100, 8, /*invalid=*/false);
  PxLookup r = px.lookup(0x100, 8);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.any_invalid);
}

TEST(PreexecCache, InvalidStorePoisonsBytes) {
  PreexecCache px(tiny_px());
  px.store(0x200, 16, /*invalid=*/true);
  PxLookup r = px.lookup(0x200, 8);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.any_invalid);
  EXPECT_EQ(px.stats().invalid_bytes_written, 16u);
}

TEST(PreexecCache, ValidOverwriteClearsInv) {
  PreexecCache px(tiny_px());
  px.store(0x300, 8, true);
  px.store(0x300, 8, false);  // fresh valid data supersedes
  EXPECT_FALSE(px.lookup(0x300, 8).any_invalid);
}

TEST(PreexecCache, PartialOverlapReportsIncomplete) {
  PreexecCache px(tiny_px());
  px.store(0x400, 4, false);
  PxLookup r = px.lookup(0x400, 8);  // upper 4 bytes never written
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.complete);
}

TEST(PreexecCache, DisjointRangeMisses) {
  PreexecCache px(tiny_px());
  px.store(0x500, 8, false);
  PxLookup r = px.lookup(0x540, 8);  // different line
  EXPECT_FALSE(r.found);
  EXPECT_EQ(px.stats().load_misses, 1u);
}

TEST(PreexecCache, LineSpanningStore) {
  PreexecCache px(tiny_px());
  px.store(0x7F8, 16, true);  // spans lines 0x7C0 and 0x800
  EXPECT_TRUE(px.lookup(0x7F8, 8).any_invalid);
  EXPECT_TRUE(px.lookup(0x800, 8).any_invalid);
}

TEST(PreexecCache, PidKeySeparatesProcesses) {
  PreexecCache px(tiny_px());
  auto k1 = PreexecCache::key(1, 0x1000);
  auto k2 = PreexecCache::key(2, 0x1000);
  EXPECT_NE(k1, k2);
  px.store(k1, 8, true);
  EXPECT_FALSE(px.lookup(k2, 8).found);
}

TEST(PreexecCache, ClearDropsEverything) {
  PreexecCache px(tiny_px());
  px.store(0x100, 8, false);
  px.clear();
  EXPECT_EQ(px.lines_resident(), 0u);
  EXPECT_FALSE(px.lookup(0x100, 8).found);
}

TEST(PreexecCache, EvictionReclaimsLru) {
  PreexecCache px({256, 2, 64});  // 2 sets × 2 ways
  // Three lines in set 0: line numbers 0, 2, 4 → addrs 0x0, 0x80, 0x100.
  px.store(0x00, 8, false);
  px.store(0x80, 8, false);
  px.lookup(0x00, 8);      // refresh
  px.store(0x100, 8, false);  // evicts 0x80
  EXPECT_TRUE(px.lookup(0x00, 8).found);
  EXPECT_FALSE(px.lookup(0x80, 8).found);
}

TEST(PreexecCache, RejectsNon64ByteLines) {
  EXPECT_THROW(PreexecCache({1024, 2, 32}), std::invalid_argument);
}

TEST(PreexecCache, RejectsNonPowerOfTwoSetCount) {
  EXPECT_THROW(PreexecCache({3 * 64 * 2, 2, 64}), std::invalid_argument);  // 3 sets
  EXPECT_THROW(PreexecCache({24 * 64 * 16, 16, 64}), std::invalid_argument);
  EXPECT_NO_THROW(PreexecCache({4 * 64 * 2, 2, 64}));
}

}  // namespace
}  // namespace its::mem
