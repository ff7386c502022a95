// Pins the public API surface its_lint's arch-dead-api rule tracks.
//
// Most of these types are reachable only through accessors (`stats()`,
// `totals()`), so ordinary tests consume them via `auto` and never spell
// the name — which is exactly the situation arch-dead-api flags.  Naming
// each type here keeps it covered AND asserts its semantics: field
// defaults, accessor return types, and the arithmetic relations between
// the constants.  A symbol nothing (including this file) wants to name
// any more should be deleted, not re-listed here.
#include <gtest/gtest.h>

#include "cpu/preexec_engine.h"
#include "fault/fault_injector.h"
#include "fs/file_system.h"
#include "fs/page_cache.h"
#include "mem/cache.h"
#include "mem/preexec_cache.h"
#include "mem/tlb.h"
#include "obs/event_trace.h"
#include "obs/invariant_checker.h"
#include "sched/process.h"
#include "sched/scheduler.h"
#include "trace/instr.h"
#include "trace/lackey.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "util/types.h"
#include "vm/frame_pool.h"
#include "vm/page_table.h"
#include "vm/prefetch.h"
#include "vm/swap.h"

#include <memory>
#include <sstream>
#include <type_traits>

namespace its {
namespace {

// ---------------------------------------------------------------- util --

TEST(ApiSurface, CacheLineConstantsAgree) {
  static_assert(kCacheLineSize == 1ull << kCacheLineShift);
  // line_of() is the shift the constants promise.
  EXPECT_EQ(line_of(kCacheLineSize - 1), 0u);
  EXPECT_EQ(line_of(kCacheLineSize), 1u);
}

TEST(ApiSurface, SizeAndDurationLiterals) {
  static_assert(1_GiB == (1ull << 30));
  static_assert(1_GiB == 1024 * 1_MiB);
  static_assert(1_ns == Duration{1});
  static_assert(1_s == 1'000'000'000_ns);
  static_assert(1_s == 1000 * 1_ms);
}

TEST(ApiSurface, PfnOfMirrorsVpnOf) {
  static_assert(std::is_same_v<decltype(pfn_of(PhysAddr{0})), Pfn>);
  EXPECT_EQ(pfn_of(3 * kPageSize + 17), 3u);
  EXPECT_EQ(pfn_of(kPageOffsetMask), 0u);
}

// --------------------------------------------------------------- trace --

TEST(ApiSurface, LackeyOptionsBoundParsing) {
  std::istringstream is(
      "I  04000000,4\n"
      " L 05000000,8\n"
      " S 05000100,4\n"
      "garbage line\n");
  trace::LackeyOptions opts;
  opts.instr_fold = 1;
  opts.max_records = 2;
  opts.lenient = true;
  trace::Trace t = trace::parse_lackey(is, "capped", opts);
  EXPECT_EQ(t.size(), opts.max_records);
}

TEST(ApiSurface, TraceIoErrcNamesAndNameCap) {
  static_assert(trace::kMaxTraceNameLen == 1u << 16);
  EXPECT_EQ(trace::errc_name(trace::TraceIoErrc::kBadMagic), "bad_magic");
  EXPECT_EQ(trace::errc_name(trace::TraceIoErrc::kNameTooLong),
            "name_too_long");
  EXPECT_EQ(trace::errc_name(trace::TraceIoErrc::kWriteFailed),
            "write_failed");
}

// ----------------------------------------------------------------- mem --

TEST(ApiSurface, TlbStatsCountHitsAndMisses) {
  mem::Tlb tlb(4);
  EXPECT_FALSE(tlb.lookup(7));
  tlb.insert(7);
  EXPECT_TRUE(tlb.lookup(7));
  const mem::TlbStats& s = tlb.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.flushes, 0u);
}

TEST(ApiSurface, CacheStatsMissRatio) {
  mem::SetAssocCache cache(mem::CacheConfig{});
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1000));
  const mem::CacheStats& s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_DOUBLE_EQ(s.miss_ratio(), 0.5);
}

TEST(ApiSurface, PreexecCacheStatsCountStores) {
  mem::PreexecCache px;
  px.store(0x1000, 8, /*invalid=*/false);
  const mem::PreexecCacheStats& s = px.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.invalid_bytes_written, 0u);
}

// ----------------------------------------------------------------- cpu --

TEST(ApiSurface, PreexecTotalsIsTheEngineAccumulator) {
  static_assert(
      std::is_same_v<decltype(std::declval<const cpu::PreexecEngine&>()
                                  .totals()),
                     const cpu::PreexecTotals&>);
  cpu::PreexecTotals t;
  EXPECT_EQ(t.episodes, 0u);
  EXPECT_EQ(t.time_used, 0u);
}

// --------------------------------------------------------------- fault --

TEST(ApiSurface, LatencyModelConfigDefaultsToNoTail) {
  fault::LatencyModelConfig lat;
  EXPECT_EQ(lat.tail, fault::TailKind::kNone);
  EXPECT_EQ(lat.tail_prob, 0.0);
  fault::FaultProfile profile;
  profile.latency = lat;
  EXPECT_EQ(profile.latency.tail, fault::TailKind::kNone);
}

TEST(ApiSurface, FaultStatsStartInert) {
  fault::FaultInjector inert;
  EXPECT_FALSE(inert.enabled());
  const fault::FaultStats& s = inert.stats();
  EXPECT_EQ(s.media_errors, 0u);
  EXPECT_EQ(s.extra_latency, 0u);
}

// ------------------------------------------------------------------ fs --

TEST(ApiSurface, MaxFilesMatchesFileIdRange) {
  // Every FileId value must index sizes_ — the cap IS the id range.
  static_assert(fs::kMaxFiles ==
                std::size_t{1} << (8 * sizeof(fs::FileId)));
  fs::FileSystem f;
  f.ensure_file(fs::FileId{0}, 4096);
  f.ensure_file(fs::FileId{255}, 4096);
  EXPECT_EQ(f.file_count(), 2u);
}

TEST(ApiSurface, FsStatsAreCallerVisible) {
  fs::FileSystem f;
  f.stats().reads += 3;
  const fs::FsStats& s = std::as_const(f).stats();
  EXPECT_EQ(s.reads, 3u);
  EXPECT_EQ(s.writes, 0u);
}

TEST(ApiSurface, WritebackCarriesTheEvictedKey) {
  fs::PageCache pc(kPageSize);  // one-page budget
  EXPECT_FALSE(pc.insert(1, 0, /*dirty=*/true).has_value());
  std::optional<fs::Writeback> wb = pc.insert(2, 0);
  ASSERT_TRUE(wb.has_value());
  EXPECT_EQ(wb->key, 1u);
  ASSERT_TRUE(pc.mark_dirty(2));
  std::vector<fs::Writeback> dirty = pc.flush();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].key, 2u);
  const fs::PageCacheStats& s = pc.stats();
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.dirty_writebacks, 1u);  // flush() reports, only evictions count
}

// ------------------------------------------------------------------ vm --

TEST(ApiSurface, FramePoolStatsCountAllocations) {
  vm::FramePool pool(4 * kPageSize);
  ASSERT_TRUE(pool.try_alloc(1, 0).has_value());
  const vm::FramePoolStats& s = pool.stats();
  EXPECT_EQ(s.allocations, 1u);
  EXPECT_EQ(s.releases, 0u);
}

TEST(ApiSurface, EntriesPerLevelMatchesIndexWidth) {
  // Each level index is 9 bits (x86-64 4-level paging).
  static_assert(vm::kEntriesPerLevel == 512u);
  EXPECT_EQ(vm::pgd_index(~VirtAddr{0}), vm::kEntriesPerLevel - 1);
}

TEST(ApiSurface, PrefetcherObsIsTheSharedTraceHook) {
  vm::VaPrefetcher va;
  obs::EventTrace trace;
  SimTime clock = 0;
  vm::PrefetcherObs& hook = va;  // the base-class observability interface
  hook.attach_trace(&trace, &clock);
  EXPECT_EQ(trace.events().size(), 0u);
}

TEST(ApiSurface, SwapStatsCountSlotTraffic) {
  vm::SwapArea swap;
  swap.record_swap_out(1, 7);
  swap.record_swap_in(1, 7);
  const vm::SwapStats& s = swap.stats();
  EXPECT_EQ(s.slots_allocated, 1u);
  EXPECT_EQ(s.swap_outs, 1u);
  EXPECT_EQ(s.swap_ins, 1u);
}

// --------------------------------------------------------------- sched --

TEST(ApiSurface, SchedulerStatsCountDecisions) {
  auto t = std::make_shared<trace::Trace>("tiny");
  t->push_back(trace::Instr::compute(4, 2, 1, 0));
  sched::Process p(1, "t", 10, t);
  sched::RRScheduler rr;
  rr.add(&p);
  ASSERT_EQ(rr.pick(), &p);
  rr.yield(&p);
  const sched::SchedulerStats& s = rr.stats();
  EXPECT_EQ(s.picks, 1u);
  EXPECT_EQ(s.yields, 1u);
  EXPECT_EQ(s.blocks, 0u);
}

// ----------------------------------------------------------------- obs --

TEST(ApiSurface, RunTotalsDriveTheCheckerDirectly) {
  // An empty trace with all-zero totals is trivially consistent.
  obs::EventTrace trace;
  obs::RunTotals totals;
  obs::CheckConfig cfg;
  EXPECT_TRUE(obs::check_invariants(trace, totals, cfg).ok());

  // An unaccounted makespan breaks reconciliation (4) beyond the
  // granularity slack.
  totals.makespan = 10;
  cfg.granularity = 1;
  EXPECT_FALSE(obs::check_invariants(trace, totals, cfg).ok());
  cfg.granularity = 10;
  EXPECT_TRUE(obs::check_invariants(trace, totals, cfg).ok());
}

}  // namespace
}  // namespace its
