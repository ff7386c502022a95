#include "mem/hierarchy.h"

#include "util/types.h"

#include <algorithm>
#include <bit>

namespace its::mem {

CacheHierarchy::CacheHierarchy(const HierarchyConfig& cfg)
    : cfg_(cfg),
      l1_(cfg.l1),
      l2_(cfg.l2),
      llc_(cfg.llc),
      line_shift_(static_cast<unsigned>(std::countr_zero(cfg.l1.line_size))) {}

AccessResult CacheHierarchy::access_line(its::PhysAddr addr) {
  // Each level that misses allocates the line as its newest entry, so a
  // hit further down leaves it newest at every level above: no refill.
  if (l1_.access(addr)) return {HitLevel::kL1, cfg_.l1.hit_latency};
  if (l2_.access(addr))
    return {HitLevel::kL2, cfg_.l1.hit_latency + cfg_.l2.hit_latency};
  if (llc_.access(addr))
    return {HitLevel::kLlc,
            cfg_.l1.hit_latency + cfg_.l2.hit_latency + cfg_.llc.hit_latency};
  return {HitLevel::kMemory, cfg_.l1.hit_latency + cfg_.l2.hit_latency +
                                 cfg_.llc.hit_latency + cfg_.dram_latency};
}

AccessResult CacheHierarchy::access(its::PhysAddr addr, unsigned size) {
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + (size ? size - 1 : 0)) >> line_shift_;
  AccessResult r = access_line(addr);
  for (std::uint64_t l = first + 1; l <= last; ++l) {
    AccessResult r2 = access_line(l << line_shift_);
    // Split accesses proceed in parallel on a real core; charge the slower.
    if (r2.latency > r.latency) r = r2;
  }
  return r;
}

void CacheHierarchy::warm(its::PhysAddr addr, unsigned size) {
  const std::uint64_t first = addr >> line_shift_;
  const std::uint64_t last = (addr + (size ? size - 1 : 0)) >> line_shift_;
  for (std::uint64_t l = first; l <= last; ++l) {
    const its::PhysAddr a = l << line_shift_;
    llc_.fill(a);
    l2_.fill(a);
    l1_.fill(a);
  }
}

void CacheHierarchy::invalidate_page(its::PhysAddr page_base) {
  l1_.invalidate_range(page_base, its::kPageSize);
  l2_.invalidate_range(page_base, its::kPageSize);
  llc_.invalidate_range(page_base, its::kPageSize);
}

its::Bytes CacheHierarchy::max_phys_bytes() const {
  return std::min({l1_.max_phys_bytes(), l2_.max_phys_bytes(), llc_.max_phys_bytes()});
}

void CacheHierarchy::reset_stats() {
  l1_.reset_stats();
  l2_.reset_stats();
  llc_.reset_stats();
}

}  // namespace its::mem
