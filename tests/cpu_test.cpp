// Tests for src/cpu: INV-bit register file, shadow checkpoint (state
// recovery), store buffer forwarding, and the fault-aware pre-execute
// engine's Fig. 3 store/load flows.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cpu/preexec_engine.h"
#include "cpu/register_file.h"
#include "cpu/store_buffer.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "trace/trace.h"
#include "util/types.h"
#include "vm/mm.h"

namespace its::cpu {
namespace {

using trace::Instr;

TEST(RegisterFile, ZeroRegisterAlwaysValid) {
  RegisterFile rf;
  rf.set_invalid(0, true);
  EXPECT_FALSE(rf.is_invalid(0));
}

TEST(RegisterFile, SetAndClear) {
  RegisterFile rf;
  rf.set_invalid(5, true);
  EXPECT_TRUE(rf.is_invalid(5));
  EXPECT_FALSE(rf.is_invalid(6));
  rf.set_invalid(5, false);
  EXPECT_FALSE(rf.is_invalid(5));
}

TEST(RegisterFile, PropagateCascades) {
  RegisterFile rf;
  rf.set_invalid(3, true);
  rf.propagate(7, 3, 0);  // src1 invalid → dst invalid
  EXPECT_TRUE(rf.is_invalid(7));
  rf.propagate(7, 0, 0);  // both sources valid → dst revalidated
  EXPECT_FALSE(rf.is_invalid(7));
}

TEST(RegisterFile, InvalidCountTracksMask) {
  RegisterFile rf;
  rf.set_invalid(1, true);
  rf.set_invalid(2, true);
  EXPECT_EQ(rf.invalid_count(), 2u);
  rf.clear_all();
  EXPECT_EQ(rf.invalid_count(), 0u);
}

TEST(RegisterFile, SetInvMaskKeepsRegisterZeroValid) {
  RegisterFile rf;
  rf.set_inv_mask(~0ull);
  EXPECT_FALSE(rf.is_invalid(0));
  EXPECT_TRUE(rf.is_invalid(63));
  EXPECT_EQ(rf.invalid_count(), 63u);
}

TEST(ShadowRegisterFile, CheckpointRestoreRoundTrip) {
  RegisterFile rf;
  rf.set_invalid(4, true);
  ShadowRegisterFile shadow;
  shadow.checkpoint(rf);
  rf.set_invalid(9, true);
  rf.set_invalid(4, false);
  shadow.restore(rf);
  EXPECT_TRUE(rf.is_invalid(4));
  EXPECT_FALSE(rf.is_invalid(9));
  EXPECT_TRUE(shadow.has_checkpoint());
}

TEST(StoreBuffer, ForwardsYoungestOverlap) {
  StoreBuffer sb(8);
  sb.push({0x100, 8, false});
  sb.push({0x100, 8, true});  // younger, invalid
  SbHit h = sb.lookup(0x100, 4);
  EXPECT_TRUE(h.found);
  EXPECT_TRUE(h.invalid);
}

TEST(StoreBuffer, PartialOverlapCounts) {
  StoreBuffer sb(8);
  sb.push({0x100, 8, false});
  EXPECT_TRUE(sb.lookup(0x104, 8).found);   // overlaps 4 bytes
  EXPECT_FALSE(sb.lookup(0x108, 8).found);  // adjacent, no overlap
}

TEST(StoreBuffer, OverflowRetiresOldest) {
  StoreBuffer sb(2);
  sb.push({0x100, 8, false});
  sb.push({0x200, 8, false});
  auto retired = sb.push({0x300, 8, true});
  ASSERT_TRUE(retired);
  EXPECT_EQ(retired->addr, 0x100u);
  EXPECT_EQ(sb.size(), 2u);
}

TEST(StoreBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(StoreBuffer(0), std::invalid_argument);
}

TEST(StoreBuffer, DrainReturnsFifoOrderAndEmpties) {
  // Retirement order is visible in the pre-execute cache: the later store
  // to the same byte decides its INV bit.
  StoreBuffer sb(4);
  sb.push({0x1, 1, false});
  sb.push({0x1, 1, true});
  sb.push({0x2, 1, true});
  sb.push({0x2, 1, false});
  mem::PreexecCache px;
  sb.retire_all(px);
  EXPECT_EQ(px.stats().stores, 4u);
  EXPECT_TRUE(px.lookup(0x1, 1).any_invalid);
  EXPECT_FALSE(px.lookup(0x2, 1).any_invalid);
  EXPECT_TRUE(sb.empty());
  EXPECT_FALSE(sb.lookup(0x1, 1).found);
}

// ---------------------------------------------------------------------------
// PreexecEngine fixture: a tiny mapped/unmapped address space and a real
// cache hierarchy.
// ---------------------------------------------------------------------------
class PreexecEngineTest : public ::testing::Test {
 protected:
  static constexpr its::Vpn kMapped = 0x100;    // present in DRAM
  static constexpr its::Vpn kMapped2 = 0x101;   // present in DRAM
  static constexpr its::Vpn kSwapped = 0x102;   // still on the device

  PreexecEngineTest()
      : caches_(), px_(), mm_(1, footprint()) {
    mm_.pte(kMapped)->map(10);
    mm_.pte(kMapped2)->map(11);
  }

  static std::vector<its::Vpn> footprint() { return {kMapped, kMapped2, kSwapped}; }

  static its::VirtAddr va(its::Vpn vpn, unsigned off = 0) {
    return (vpn << its::kPageShift) + off;
  }

  PreexecEngine make_engine(const PreexecConfig& cfg = {}) {
    return PreexecEngine(cfg, caches_, px_);
  }

  mem::CacheHierarchy caches_;
  mem::PreexecCache px_;
  RegisterFile rf_;
  vm::MemoryDescriptor mm_;
};

TEST_F(PreexecEngineTest, TooSmallBudgetDoesNotRun) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));
  auto eng = make_engine();
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, 5);
  EXPECT_FALSE(ep.ran);
  EXPECT_EQ(ep.used, 0u);
}

TEST_F(PreexecEngineTest, WarmsMemoryResidentLoads) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));  // faulting record
  t.push_back(Instr::load(va(kMapped, 0x40), 8, 2, 0));
  t.push_back(Instr::load(va(kMapped2, 0x80), 8, 3, 0));
  auto eng = make_engine();
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, 3000);
  EXPECT_TRUE(ep.ran);
  EXPECT_EQ(ep.lines_warmed, 2u);
  // The warmed lines must hit when re-executed architecturally.
  EXPECT_TRUE(caches_.probe((10ull << its::kPageShift) + 0x40));
  EXPECT_TRUE(caches_.probe((11ull << its::kPageShift) + 0x80));
  // Warming must not pollute architectural hit/miss statistics.
  EXPECT_EQ(caches_.llc_misses(), 0u);
}

TEST_F(PreexecEngineTest, FaultingDestinationIsPoisoned) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));       // fault: r1 poisoned
  t.push_back(Instr::load(va(kMapped), 8, 2, /*base=*/1));  // addr depends on r1
  auto eng = make_engine();
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, 3000);
  EXPECT_EQ(ep.lines_warmed, 0u);  // dependent load skipped
  EXPECT_GE(ep.invalid_ops, 1u);
}

TEST_F(PreexecEngineTest, ComputePropagatesPoison) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));  // r1 poisoned
  t.push_back(Instr::compute(1, 5, 1, 0));          // r5 <- f(r1): poisoned
  t.push_back(Instr::load(va(kMapped), 8, 2, 5));   // depends on r5: skipped
  auto eng = make_engine();
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, 3000);
  EXPECT_EQ(ep.lines_warmed, 0u);
}

TEST_F(PreexecEngineTest, StateRecoveryRestoresRegisterFile) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));
  t.push_back(Instr::load(va(kSwapped, 0x10), 8, 2, 0));  // also poisons r2
  auto eng = make_engine();
  rf_.set_invalid(7, true);  // pre-existing state must survive
  eng.run(t, 0, rf_, mm_, 3000);
  EXPECT_FALSE(rf_.is_invalid(1));  // episode poison rolled back
  EXPECT_FALSE(rf_.is_invalid(2));
  EXPECT_TRUE(rf_.is_invalid(7));   // checkpointed state restored
}

TEST_F(PreexecEngineTest, StoreToSwappedPageGoesToPreexecCacheAndSetsPteInv) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));             // fault
  t.push_back(Instr::store(va(kSwapped, 0x40), 8, /*data=*/0, /*base=*/0));
  auto eng = make_engine();
  eng.run(t, 0, rf_, mm_, 3000);
  // Fig. 3a (0): INV bytes in the pre-execute cache + PTE INV bit.
  auto key = mem::PreexecCache::key(1, va(kSwapped, 0x40));
  EXPECT_TRUE(px_.lookup(key, 8).any_invalid);
  EXPECT_TRUE(mm_.pte(kSwapped)->inv());
}

TEST_F(PreexecEngineTest, ValidStoreForwardsToLaterLoad) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));                  // fault
  t.push_back(Instr::store(va(kMapped, 0x200), 8, /*data=*/0, 0));  // valid store
  t.push_back(Instr::load(va(kMapped, 0x200), 8, 4, 0));            // forwarded
  auto eng = make_engine();
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, 3000);
  EXPECT_GE(ep.stores_buffered, 1u);
  EXPECT_FALSE(rf_.is_invalid(4));  // restored anyway, but no crash path
  EXPECT_EQ(ep.invalid_ops, 0u);
}

TEST_F(PreexecEngineTest, InvalidStorePoisonsLaterLoadViaBuffer) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));                // r1 poisoned
  t.push_back(Instr::store(va(kMapped, 0x300), 8, /*data=*/1, 0));  // bogus data
  t.push_back(Instr::load(va(kMapped, 0x300), 8, 4, 0));          // reads poison
  auto eng = make_engine();
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, 3000);
  EXPECT_GE(ep.invalid_ops, 2u);  // the store and the forwarded load
  EXPECT_TRUE(mm_.pte(kMapped)->inv());  // Fig. 3a: invalid store sets PTE INV
}

TEST_F(PreexecEngineTest, PteInvBitPoisonsCachedLoads) {
  trace::Trace t;
  mm_.pte(kMapped)->set_inv(true);  // Fig. 3b (3)
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));
  t.push_back(Instr::load(va(kMapped, 0x80), 8, 2, 0));
  auto eng = make_engine();
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, 3000);
  EXPECT_EQ(ep.lines_warmed, 0u);
  EXPECT_GE(ep.invalid_ops, 1u);
}

TEST_F(PreexecEngineTest, RetiredStoresLandInPreexecCache) {
  PreexecConfig cfg;
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));
  t.push_back(Instr::store(va(kMapped, 0x100), 8, /*data=*/0, 0));
  auto eng = make_engine(cfg);
  eng.run(t, 0, rf_, mm_, 3000);  // drain at episode end retires the store
  auto key = mem::PreexecCache::key(1, va(kMapped, 0x100));
  mem::PxLookup r = px_.lookup(key, 8);
  EXPECT_TRUE(r.found);
  EXPECT_FALSE(r.any_invalid);
}

TEST_F(PreexecEngineTest, WindowCapStopsEpisode) {
  PreexecConfig cfg;
  cfg.max_records = 3;
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));
  for (int i = 0; i < 10; ++i) t.push_back(Instr::compute(1, 2, 0, 0));
  auto eng = make_engine(cfg);
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, 100000);
  EXPECT_EQ(ep.records, 3u);
}

TEST_F(PreexecEngineTest, FillCapStopsEpisode) {
  PreexecConfig cfg;
  cfg.max_warm_fills = 1;
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));
  t.push_back(Instr::load(va(kMapped, 0x000), 8, 2, 0));
  t.push_back(Instr::load(va(kMapped, 0x400), 8, 3, 0));
  auto eng = make_engine(cfg);
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, 100000);
  EXPECT_EQ(ep.lines_warmed, 1u);
}

TEST_F(PreexecEngineTest, BudgetBoundsTimeUsed) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));
  for (int i = 0; i < 500; ++i) t.push_back(Instr::compute(10, 2, 0, 0));
  auto eng = make_engine();
  its::Duration budget = 200;
  EpisodeResult ep = eng.run(t, 0, rf_, mm_, budget);
  EXPECT_TRUE(ep.ran);
  EXPECT_LE(ep.used, budget);
}

TEST_F(PreexecEngineTest, TotalsAccumulateAcrossEpisodes) {
  trace::Trace t;
  t.push_back(Instr::load(va(kSwapped), 8, 1, 0));
  t.push_back(Instr::load(va(kMapped), 8, 2, 0));
  auto eng = make_engine();
  eng.run(t, 0, rf_, mm_, 3000);
  eng.run(t, 0, rf_, mm_, 3000);
  EXPECT_EQ(eng.totals().episodes, 2u);
  EXPECT_GE(eng.totals().records, 2u);
}

}  // namespace
}  // namespace its::cpu
