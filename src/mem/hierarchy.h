// Three-level data-cache hierarchy (L1D / L2 / LLC) in front of DRAM.
//
// The paper's simulated CPU has a 16-way 8 MB LLC; when the pre-execute
// engine is present (ITS and Sync_Runahead) half the LLC is carved out as
// the pre-execute cache, so the hierarchy is built with a 4 MB LLC in those
// configurations — the mechanism pays for its own silicon.
#pragma once

#include "mem/cache.h"
#include "util/types.h"

#include <cstdint>

namespace its::mem {

struct HierarchyConfig {
  CacheConfig l1{32 * 1024, 8, 64, 1};
  CacheConfig l2{256 * 1024, 8, 64, 4};
  CacheConfig llc{8ull * 1024 * 1024, 16, 64, 14};
  its::Duration dram_latency = 50;  ///< ns — paper: DRAM ≈ 50 ns.
};

/// Where an access was satisfied.
enum class HitLevel : std::uint8_t { kL1, kL2, kLlc, kMemory };

struct AccessResult {
  HitLevel level;
  its::Duration latency;  ///< Total ns for this access.
  bool llc_miss() const { return level == HitLevel::kMemory; }
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchyConfig& cfg = {});

  /// Architectural access to physical address `addr` (inclusive fill on
  /// miss).  Accesses spanning two lines are charged as the slower line.
  AccessResult access(its::PhysAddr addr, unsigned size);

  /// Non-architectural warm-up fill (pre-execute / prefetch): inserts the
  /// line(s) at every level without touching hit/miss counters.
  void warm(its::PhysAddr addr, unsigned size);

  /// True if `addr`'s line is resident at any level.
  bool probe(its::PhysAddr addr) const {
    return l1_.probe(addr) || l2_.probe(addr) || llc_.probe(addr);
  }

  /// Drops all lines of a physical page at every level — called when the
  /// frame is re-assigned to a different virtual page (swap eviction).
  void invalidate_page(its::PhysAddr page_base);

  const SetAssocCache& l1() const { return l1_; }
  const SetAssocCache& l2() const { return l2_; }
  const SetAssocCache& llc() const { return llc_; }
  const HierarchyConfig& config() const { return cfg_; }

  /// The smallest of the levels' SetAssocCache::max_phys_bytes(): physical
  /// memory must end there, or its top lines would have no tag.
  its::Bytes max_phys_bytes() const;

  std::uint64_t llc_misses() const { return llc_.stats().misses; }
  std::uint64_t total_accesses() const {
    return l1_.stats().hits + l1_.stats().misses;
  }

  void reset_stats();

 private:
  AccessResult access_line(its::PhysAddr addr);

  HierarchyConfig cfg_;
  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache llc_;
  unsigned line_shift_;  ///< log2 of the L1 line size, which splits accesses.
};

}  // namespace its::mem
