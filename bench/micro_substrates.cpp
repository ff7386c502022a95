// Micro-benchmarks (google-benchmark) for the substrate data structures:
// page-table walks, cache lookups, page invalidation, TLB, pre-execute
// cache, pre-execute episodes, prefetcher collection, DMA posting, and
// trace generation throughput.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <vector>

#include "cpu/preexec_engine.h"
#include "cpu/register_file.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "mem/tlb.h"
#include "storage/dma.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/rng.h"
#include "vm/mm.h"
#include "vm/prefetch.h"

namespace {

using namespace its;

std::vector<its::Vpn> bench_footprint(unsigned pages) {
  std::vector<its::Vpn> fp;
  const its::Vpn base = trace::kHeapBase >> its::kPageShift;
  for (unsigned i = 0; i < pages; ++i) fp.push_back(base + i);
  return fp;
}

void BM_PageTableWalk(benchmark::State& state) {
  auto fp = bench_footprint(4096);
  vm::MemoryDescriptor mm(1, fp);
  util::Rng rng(1);
  for (auto _ : state) {
    its::Vpn vpn = fp[rng.below(fp.size())];
    benchmark::DoNotOptimize(mm.pte(vpn));
  }
}
BENCHMARK(BM_PageTableWalk);

void BM_PageTableCursor(benchmark::State& state) {
  auto fp = bench_footprint(4096);
  vm::MemoryDescriptor mm(1, fp);
  for (auto _ : state) {
    auto cur = mm.page_table().cursor_at(fp[0]);
    its::Vpn vpn = 0;
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(cur.next(vpn));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PageTableCursor);

// Random addresses over 64 MiB, drawn before the timed loop so that it times
// the cache and not Rng::below's divisions.
std::vector<its::PhysAddr> random_addrs(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<its::PhysAddr> addrs(1u << 16);
  for (its::PhysAddr& a : addrs) a = rng.below(64ull << 20);
  return addrs;
}

// Args: size in KiB, ways.  32/8 and 256/8 are the L1 and L2 geometries,
// 4096/16 and 8192/16 the LLC with and without the pre-execute carve-out.
void BM_CacheAccess(benchmark::State& state) {
  mem::SetAssocCache c({static_cast<std::uint64_t>(state.range(0)) << 10,
                        static_cast<unsigned>(state.range(1)), 64, 1});
  const std::vector<its::PhysAddr> addrs = random_addrs(2);
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(c.access(addrs[i++ & (addrs.size() - 1)]));
}
BENCHMARK(BM_CacheAccess)
    ->ArgNames({"kib", "ways"})
    ->Args({32, 8})
    ->Args({256, 8})
    ->Args({1024, 16})
    ->Args({4096, 16})
    ->Args({8192, 16});

void BM_HierarchyAccess(benchmark::State& state) {
  mem::CacheHierarchy h;
  const std::vector<its::PhysAddr> addrs = random_addrs(3);
  std::size_t i = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(h.access(addrs[i++ & (addrs.size() - 1)], 8));
}
BENCHMARK(BM_HierarchyAccess);

// Page eviction's cache sweep, timed alone.  Frames 0..4095 (16 MiB, twice
// the LLC) are warmed first, so frames from the first quarter have left
// every level.  Arg 0: a cold frame from that quarter.  Arg 1: a random
// frame warmed at every level just before the timed call.
void BM_InvalidatePage(benchmark::State& state) {
  mem::CacheHierarchy h;
  for (its::Pfn f = 0; f < 4096; ++f) h.warm(f << its::kPageShift, its::kPageSize);
  const bool warm = state.range(0) != 0;
  util::Rng rng(8);
  for (auto _ : state) {
    const its::PhysAddr frame = rng.below(warm ? 4096 : 1024) << its::kPageShift;
    if (warm) h.warm(frame, its::kPageSize);
    const auto t0 = std::chrono::steady_clock::now();
    h.invalidate_page(frame);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  benchmark::DoNotOptimize(h.l1().stats().invalidations);
}
BENCHMARK(BM_InvalidatePage)->Arg(0)->Arg(1)->UseManualTime();

void BM_TlbLookup(benchmark::State& state) {
  mem::Tlb tlb(64);
  for (its::Vpn v = 0; v < 64; ++v) tlb.insert(v);
  util::Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(tlb.lookup(rng.below(128)));
}
BENCHMARK(BM_TlbLookup);

// The page-walk path: a lookup that misses, then the insert that evicts the
// least recently used of 64 entries.
void BM_TlbMissInsert(benchmark::State& state) {
  mem::Tlb tlb(64);
  its::Vpn next = static_cast<its::Vpn>(state.range(0));
  for (auto _ : state) {
    const std::uint64_t key = its::pid_key(1, next++);
    benchmark::DoNotOptimize(tlb.lookup(key));
    tlb.insert(key);
  }
}
BENCHMARK(BM_TlbMissInsert)->Arg(0x10000);

void BM_PreexecCacheStoreLoad(benchmark::State& state) {
  mem::PreexecCache px;
  util::Rng rng(5);
  for (auto _ : state) {
    std::uint64_t a = rng.below(1ull << 22) & ~7ull;
    px.store(a, 8, (a & 64) != 0);
    benchmark::DoNotOptimize(px.lookup(a, 8));
  }
}
BENCHMARK(BM_PreexecCacheStoreLoad);

// Probes of the default 4 MiB pre-execute cache with every way full, seven
// in eight of them for lines that are not resident: the miss path, which
// on the pre-execute engine's loads is the common outcome.
void BM_PreexecCacheLookupMiss(benchmark::State& state) {
  mem::PreexecCache px;
  const std::uint64_t lines = 4_MiB / kCacheLineSize;
  for (std::uint64_t l = 0; l < lines; ++l) px.store(l * kCacheLineSize, 8, false);
  util::Rng rng(6);
  std::vector<its::VirtAddr> probes(1 << 16);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const std::uint64_t line = rng.below(lines) + (i % 8 == 0 ? 0 : lines);
    probes[i] = line * kCacheLineSize + (rng.below(8) << 3);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(px.lookup(probes[i], 8));
    i = (i + 1) & (probes.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PreexecCacheLookupMiss);

// One pre-execute episode per iteration over a fixed PageRank trace with
// half its pages swapped out; items are records examined, so the reported
// rate is per record.
void BM_PreexecEpisode(benchmark::State& state) {
  trace::GeneratorConfig cfg;
  cfg.length_scale = 0.02;
  const trace::Trace t = trace::generate(trace::WorkloadId::kPageRank, cfg);
  const std::vector<its::Vpn> pages = t.touched_pages();
  vm::MemoryDescriptor mm(1, pages);
  for (std::size_t i = 0; i < pages.size(); i += 2) mm.pte(pages[i])->map(i);
  mem::CacheHierarchy caches;
  mem::PreexecCache px;
  cpu::PreexecEngine engine({}, caches, px);
  cpu::RegisterFile rf;
  std::size_t fault = 0;
  std::int64_t records = 0;
  for (auto _ : state) {
    fault = (fault + 97) % t.size();
    cpu::EpisodeResult ep = engine.run(t, fault, rf, mm, 20_us);
    benchmark::DoNotOptimize(ep);
    records += ep.records;
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_PreexecEpisode);

void BM_VaPrefetcherCollect(benchmark::State& state) {
  auto fp = bench_footprint(8192);
  vm::MemoryDescriptor mm(1, fp);
  // Map every second page so the walk has to skip.
  for (unsigned i = 0; i < fp.size(); i += 2) mm.pte(fp[i])->map(i);
  vm::VaPrefetcher pf({.degree = static_cast<unsigned>(state.range(0))});
  util::Rng rng(6);
  for (auto _ : state) {
    its::Vpn victim = fp[rng.below(fp.size() - 64)];
    benchmark::DoNotOptimize(pf.collect(mm, victim));
  }
}
BENCHMARK(BM_VaPrefetcherCollect)->Arg(4)->Arg(8)->Arg(16);

void BM_DmaPostPage(benchmark::State& state) {
  storage::DmaController dma;
  its::SimTime now = 0;
  for (auto _ : state) {
    now += 3000;
    benchmark::DoNotOptimize(dma.post_page(now, storage::Dir::kRead));
  }
}
BENCHMARK(BM_DmaPostPage);

void BM_TraceGeneration(benchmark::State& state) {
  auto id = static_cast<trace::WorkloadId>(state.range(0));
  trace::GeneratorConfig cfg;
  cfg.length_scale = 0.05;
  for (auto _ : state) {
    trace::Trace t = trace::generate(id, cfg);
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(static_cast<double>(trace::spec_for(id).records) * 0.05));
}
BENCHMARK(BM_TraceGeneration)
    ->Arg(static_cast<int>(trace::WorkloadId::kWrf))
    ->Arg(static_cast<int>(trace::WorkloadId::kDeepSjeng))
    ->Arg(static_cast<int>(trace::WorkloadId::kRandomWalk));

}  // namespace

BENCHMARK_MAIN();
