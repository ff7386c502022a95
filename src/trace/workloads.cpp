#include "trace/workloads.h"

#include "trace/instr.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "util/types.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

namespace its::trace {

namespace {

using its::util::Rng;

// Mini-scale shapes.  Footprints are ~100x smaller than the real benchmarks
// so a full 6-process batch simulates in under a second; the *ratios*
// (footprint vs working set vs DRAM) drive the evaluation and are preserved.
constexpr std::array<WorkloadSpec, kNumWorkloads> kSpecs{{
    {WorkloadId::kCaffe, "caffe", false, 24ull << 20, 12ull << 20, 520000},
    {WorkloadId::kWrf, "wrf", false, 20ull << 20, 10ull << 20, 520000},
    {WorkloadId::kBlender, "blender", false, 18ull << 20, 9ull << 20, 520000},
    {WorkloadId::kXz, "xz", false, 16ull << 20, 8ull << 20, 480000},
    {WorkloadId::kDeepSjeng, "deepsjeng", false, 12ull << 20, 4ull << 20, 480000},
    {WorkloadId::kCommunity, "community", false, 32ull << 20, 16ull << 20, 560000},
    // Data-intensive graph workloads address *sparse* regions: only about
    // half the pages in their footprint region are ever touched (real CSR
    // heaps are hole-ridden), which is what defeats spatial prefetching.
    {WorkloadId::kRandomWalk, "randwalk", true, 96ull << 20, 32ull << 20, 600000},
    {WorkloadId::kPageRank, "pagerank", true, 96ull << 20, 36ull << 20, 600000},
    {WorkloadId::kGraph500Sssp, "graph500", true, 128ull << 20, 40ull << 20, 620000},
}};

/// Emission helper shared by all generators: rotates destination registers,
/// remembers the register produced by the most recent load (for dependent /
/// pointer-chasing address bases), and tracks the record budget.
class Builder {
 public:
  Builder(const WorkloadSpec& spec, const GeneratorConfig& cfg)
      : trace_(std::string(spec.name)),
        rng_(cfg.seed, static_cast<std::uint64_t>(spec.id) + 0x9e37ull),
        budget_(scaled(spec.records, cfg.length_scale, "length_scale")),
        footprint_(page_scale(spec.footprint_bytes, cfg.footprint_scale)),
        hot_(page_scale(spec.hot_bytes, cfg.footprint_scale)) {
    trace_.reserve(budget_);
  }

  /// `n * f`, truncated.  Throws unless `f > 0` (NaN fails that too) and
  /// the product fits 64 bits: the float-to-integer cast is undefined
  /// behaviour otherwise.
  static std::uint64_t scaled(std::uint64_t n, double f, const char* field) {
    const double v = static_cast<double>(n) * f;
    if (!(f > 0.0) || !(v < 0x1p64))
      throw std::invalid_argument(std::string("GeneratorConfig::") + field +
                                  " must be > 0 and keep sizes within 64 bits");
    return static_cast<std::uint64_t>(v);
  }

  static its::Bytes page_scale(its::Bytes bytes, double f) {
    const std::uint64_t v = scaled(bytes, f, "footprint_scale");
    return std::max<std::uint64_t>(v & ~its::kPageOffsetMask, its::kPageSize);
  }

  bool done() const { return trace_.size() >= budget_; }
  std::uint64_t budget() const { return budget_; }
  Rng& rng() { return rng_; }
  std::uint64_t footprint() const { return footprint_; }
  std::uint64_t hot() const { return hot_; }

  /// Emits `n` folded compute ops reading the two most recent results.
  void compute(std::uint16_t n) {
    std::uint8_t d = fresh_reg();
    trace_.push_back(Instr::compute(n, d, prev1_, prev2_));
    rotate(d);
  }

  /// Emits a load with an always-valid (index-register) address base.
  /// Returns the destination register.
  std::uint8_t load(its::VirtAddr a, std::uint16_t size = 8) {
    std::uint8_t d = fresh_reg();
    trace_.push_back(Instr::load(clamp(a), size, d, /*addr_base=*/0));
    rotate(d);
    last_load_ = d;
    return d;
  }

  /// Emits a load whose address depends on the previous load's result
  /// (pointer chase): pre-execution must poison it once the chain breaks.
  std::uint8_t chase_load(its::VirtAddr a, std::uint16_t size = 8) {
    std::uint8_t d = fresh_reg();
    trace_.push_back(Instr::load(clamp(a), size, d, /*addr_base=*/last_load_));
    rotate(d);
    last_load_ = d;
    return d;
  }

  void store(its::VirtAddr a, std::uint16_t size = 8) {
    trace_.push_back(Instr::store(clamp(a), size, /*data_src=*/prev1_));
  }

  Trace take() && { return std::move(trace_); }

 private:
  its::VirtAddr clamp(its::VirtAddr a) const {
    // Keep every access inside [heap, heap + footprint).
    std::uint64_t off = (a - kHeapBase) % footprint_;
    return kHeapBase + off;
  }

  std::uint8_t fresh_reg() {
    std::uint8_t r = next_;
    next_ = (next_ == kNumRegs - 1) ? 1 : next_ + 1;
    return r;
  }
  void rotate(std::uint8_t d) {
    prev2_ = prev1_;
    prev1_ = d;
  }

  Trace trace_;
  Rng rng_;
  std::uint64_t budget_;
  std::uint64_t footprint_;
  std::uint64_t hot_;
  std::uint8_t next_ = 1;
  std::uint8_t prev1_ = 0;
  std::uint8_t prev2_ = 0;
  std::uint8_t last_load_ = 0;
};

// --- Caffe: layer-by-layer weight streaming + hot activation buffer. ------
Trace gen_caffe(const WorkloadSpec& s, const GeneratorConfig& cfg) {
  Builder b(s, cfg);
  const std::uint64_t weights = b.footprint() - b.hot();
  const its::VirtAddr act_base = kHeapBase + weights;
  its::VirtAddr wp = kHeapBase;
  while (!b.done()) {
    // Stream a 4 KiB weight tile sequentially in cache-line steps.
    for (int i = 0; i < 64 && !b.done(); ++i) {
      b.load(wp, 64);
      b.compute(3);
      if (i % 8 == 7) {
        its::VirtAddr a = act_base + b.rng().below(b.hot());
        b.load(a, 8);
        b.store(a, 8);
      }
      wp += 64;
    }
    if (wp >= kHeapBase + weights) wp = kHeapBase;  // next image / layer pass
  }
  return std::move(b).take();
}

// --- Wrf: 3-D stencil sweeps over a grid of doubles. ----------------------
Trace gen_wrf(const WorkloadSpec& s, const GeneratorConfig& cfg) {
  Builder b(s, cfg);
  const std::uint64_t cells = b.footprint() / 8;
  const std::uint64_t row = 512;          // cells per row
  const std::uint64_t plane = row * 64;   // cells per plane
  // Each stencil visit emits 9 records; stride the sweep so ~1.5 passes
  // cover the whole grid within the record budget (coarse-grained domain
  // decomposition — page-sequential, which is what the VA prefetcher sees).
  const std::uint64_t visits = std::max<std::uint64_t>(1, b.budget() / 9);
  const std::uint64_t stride = std::max<std::uint64_t>(1, (3 * cells / 2) / visits);
  std::uint64_t c = plane + row + 1 + b.rng().below(cells);
  while (!b.done()) {
    auto at = [&](std::uint64_t idx) { return kHeapBase + (idx % cells) * 8; };
    b.load(at(c), 8);
    b.load(at(c - 1), 8);
    b.load(at(c + 1), 8);
    b.load(at(c - row), 8);
    b.load(at(c + row), 8);
    b.load(at(c - plane), 8);
    b.load(at(c + plane), 8);
    b.compute(6);
    b.store(at(c), 8);
    c += stride;
  }
  return std::move(b).take();
}

// --- Blender: sequential scene scan + Zipf texture lookups. ---------------
Trace gen_blender(const WorkloadSpec& s, const GeneratorConfig& cfg) {
  Builder b(s, cfg);
  const std::uint64_t scene = b.footprint() / 2;
  const its::VirtAddr tex_base = kHeapBase + scene;
  const std::uint64_t tex = b.footprint() - scene;
  its::VirtAddr sp = kHeapBase;
  while (!b.done()) {
    b.load(sp, 64);  // geometry stream
    b.compute(8);
    // Texture sample: Zipf-skewed so the hot set ~= spec.hot.
    std::uint64_t t = b.rng().zipf(tex / 64, 0.9) * 64;
    b.load(tex_base + t, 16);
    b.compute(6);
    if (b.rng().chance(0.25)) b.store(sp, 16);  // framebuffer-ish write
    sp += 64;
    if (sp >= kHeapBase + scene) sp = kHeapBase;
  }
  return std::move(b).take();
}

// --- Xz: sequential input scan + sliding-window match finder. -------------
Trace gen_xz(const WorkloadSpec& s, const GeneratorConfig& cfg) {
  Builder b(s, cfg);
  const std::uint64_t window = b.hot();
  its::VirtAddr ip = kHeapBase + window;
  while (!b.done()) {
    b.load(ip, 64);  // read input
    b.compute(4);
    // Probe up to 3 candidate matches uniformly inside the trailing window.
    for (int k = 0; k < 3 && !b.done(); ++k) {
      std::uint64_t back = 64 + b.rng().below(window - 64);
      b.load(ip - back, 32);
      b.compute(2);
    }
    b.store(ip - window + (ip % window), 16);  // emit compressed block
    ip += 64;
  }
  return std::move(b).take();
}

// --- DeepSjeng: transposition-table pointer chasing, small working set. ---
Trace gen_deepsjeng(const WorkloadSpec& s, const GeneratorConfig& cfg) {
  Builder b(s, cfg);
  const std::uint64_t slots = b.footprint() / 64;
  const std::uint64_t hot_slots = b.hot() / 64;
  while (!b.done()) {
    // Probe: Zipf-hot slot, then a short dependent chain (bucket walk).
    std::uint64_t slot = b.rng().chance(0.92) ? b.rng().zipf(hot_slots, 1.05)
                                              : b.rng().below(slots);
    b.load(kHeapBase + slot * 64, 16);
    for (int d = 0; d < 2 && !b.done(); ++d) {
      slot = (slot * 2654435761ull + 17) % slots;
      b.chase_load(kHeapBase + slot * 64, 16);
    }
    b.compute(24);  // search/eval is compute-heavy
    if (b.rng().chance(0.3)) b.store(kHeapBase + slot * 64, 16);
  }
  return std::move(b).take();
}

// --- Community detection (GraphChi): interval-sequential edge scans. ------
Trace gen_community(const WorkloadSpec& s, const GeneratorConfig& cfg) {
  Builder b(s, cfg);
  const std::uint64_t edges = b.footprint() * 3 / 4;
  const its::VirtAddr vert_base = kHeapBase + edges;
  const std::uint64_t verts = b.footprint() - edges;
  // its-lint: allow(units-alias-decl): GraphChi "interval" is a vertex window
  const std::uint64_t interval = std::min<std::uint64_t>(verts, b.hot() / 4);
  its::VirtAddr ep = kHeapBase;
  std::uint64_t win = 0;
  while (!b.done()) {
    // GraphChi shards stream edges sequentially per interval...
    for (int i = 0; i < 32 && !b.done(); ++i) {
      b.load(ep, 16);
      b.compute(2);
      // ...while label updates hit vertices inside the current interval.
      std::uint64_t v = win + b.rng().below(interval);
      b.load(vert_base + v % verts, 8);
      b.store(vert_base + v % verts, 8);
      ep += 16;
    }
    if (ep >= kHeapBase + edges) {
      ep = kHeapBase;
      win = (win + interval) % verts;  // slide to next interval
    }
  }
  return std::move(b).take();
}

/// Scattered subset of a region's pages (CSR heaps are hole-ridden): each
/// page is active with probability `occupancy`.  Touches land only on
/// active pages, so the untouched neighbours become prefetch junk — the
/// effect that makes spatial prefetching inaccurate on graph workloads.
std::vector<std::uint32_t> sparse_pages(Rng& rng, std::uint64_t region_pages,
                                        double occupancy) {
  std::vector<std::uint32_t> pages;
  pages.reserve(static_cast<std::size_t>(static_cast<double>(region_pages) * occupancy) + 1);
  for (std::uint64_t p = 0; p < region_pages; ++p)
    if (rng.chance(occupancy)) pages.push_back(static_cast<std::uint32_t>(p));
  if (pages.empty()) pages.push_back(0);
  return pages;
}

// --- Random walk: dependent random hops over a sparse vertex region. ------
Trace gen_randwalk(const WorkloadSpec& s, const GeneratorConfig& cfg) {
  Builder b(s, cfg);
  auto active = sparse_pages(b.rng(), b.footprint() >> its::kPageShift, 0.5);
  const std::uint64_t hot_n = std::min<std::uint64_t>(
      active.size(), std::max<std::uint64_t>(1, b.hot() >> its::kPageShift));
  while (!b.done()) {
    // Each hop's address depends on the previous hop's loaded value.
    std::uint64_t page = b.rng().chance(0.7) ? active[b.rng().below(hot_n)]
                                             : active[b.rng().below(active.size())];
    its::VirtAddr a = kHeapBase + (static_cast<its::VirtAddr>(page) << its::kPageShift) +
                      b.rng().below(63) * 64;
    b.chase_load(a, 16);
    b.compute(2);
    if (b.rng().chance(0.15)) b.store(a, 8);
  }
  return std::move(b).take();
}

// --- PageRank: sequential edge scan + scattered sparse rank updates. ------
Trace gen_pagerank(const WorkloadSpec& s, const GeneratorConfig& cfg) {
  Builder b(s, cfg);
  const std::uint64_t edges = b.footprint() / 4;  // dense edge shard
  const its::VirtAddr rank_base = kHeapBase + edges;
  auto active =
      sparse_pages(b.rng(), (b.footprint() - edges) >> its::kPageShift, 0.5);
  its::VirtAddr ep = kHeapBase;
  while (!b.done()) {
    b.load(ep, 16);  // edge (src, dst)
    b.compute(1);
    // Scatter: uniform destination over the sparse rank region — the
    // data-intensive part that defeats locality-based prefetching.
    std::uint64_t page = active[b.rng().below(active.size())];
    its::VirtAddr a = rank_base + (static_cast<its::VirtAddr>(page) << its::kPageShift) +
                      b.rng().below(511) * 8;
    b.load(a, 8);
    b.store(a, 8);
    ep += 16;
    if (ep >= kHeapBase + edges) ep = kHeapBase;
  }
  return std::move(b).take();
}

// --- Graph500 SSSP: frontier expansion bursts over a sparse graph. --------
Trace gen_graph500(const WorkloadSpec& s, const GeneratorConfig& cfg) {
  Builder b(s, cfg);
  auto active = sparse_pages(b.rng(), b.footprint() >> its::kPageShift, 0.45);
  auto pick = [&]() {
    return kHeapBase +
           (static_cast<its::VirtAddr>(active[b.rng().below(active.size())])
            << its::kPageShift);
  };
  while (!b.done()) {
    // Pop a frontier vertex (random), then scan its adjacency run (short
    // sequential burst within the vertex's page), relaxing random
    // neighbours.
    its::VirtAddr adj = pick();
    std::uint64_t deg = 2 + b.rng().geometric(0.35);
    for (std::uint64_t e = 0; e < deg && !b.done(); ++e) {
      b.load(adj + (e % 64) * 64, 16);
      b.compute(1);
      its::VirtAddr dist = pick() + b.rng().below(511) * 8;
      b.chase_load(dist, 8);  // dist[neighbour] — depends on edge load
      if (b.rng().chance(0.4)) b.store(dist, 8);
    }
  }
  return std::move(b).take();
}

}  // namespace

std::span<const WorkloadSpec> all_workloads() { return kSpecs; }

const WorkloadSpec& spec_for(WorkloadId id) {
  auto idx = static_cast<std::size_t>(id);
  if (idx >= kSpecs.size()) throw std::out_of_range("bad WorkloadId");
  return kSpecs[idx];
}

std::optional<WorkloadId> find_workload(std::string_view name) {
  for (const auto& s : kSpecs)
    if (s.name == name) return s.id;
  return std::nullopt;
}

Trace generate(WorkloadId id, const GeneratorConfig& cfg) {
  const WorkloadSpec& s = spec_for(id);
  switch (id) {
    case WorkloadId::kCaffe: return gen_caffe(s, cfg);
    case WorkloadId::kWrf: return gen_wrf(s, cfg);
    case WorkloadId::kBlender: return gen_blender(s, cfg);
    case WorkloadId::kXz: return gen_xz(s, cfg);
    case WorkloadId::kDeepSjeng: return gen_deepsjeng(s, cfg);
    case WorkloadId::kCommunity: return gen_community(s, cfg);
    case WorkloadId::kRandomWalk: return gen_randwalk(s, cfg);
    case WorkloadId::kPageRank: return gen_pagerank(s, cfg);
    case WorkloadId::kGraph500Sssp: return gen_graph500(s, cfg);
  }
  throw std::out_of_range("bad WorkloadId");
}

}  // namespace its::trace
