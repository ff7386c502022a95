// Allocation gate for the fault path (ctest label: core).
//
// Replaces the global operator new with a counting one, which is why this
// file is a test binary of its own: no other test sees the override.  One
// process walks its footprint page by page through DRAM a quarter of its
// size, so every pass re-faults every page.  Whatever Simulator::run()
// allocates must then be set-up (frames, first-touch swap slots, the event
// queue growing to its peak) and not per fault: the count for 8 passes must
// equal the count for 2.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <tuple>

#include "core/config.h"
#include "core/policy.h"
#include "core/simulator.h"
#include "fault/fault_injector.h"
#include "sched/process.h"
#include "trace/instr.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/types.h"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size == 0 ? align : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace its::core {
namespace {

constexpr std::uint64_t kFootprintPages = 2000;

/// Heap allocations inside run() for one page walker making `passes`
/// passes over kFootprintPages pages.
std::uint64_t allocations_in_run(PolicyKind policy, unsigned cluster,
                                 unsigned passes) {
  SimConfig cfg;
  // Pinned here: a profile forced over the whole suite must not reach it.
  cfg.fault = *fault::profile_by_name("none");
  cfg.swap_cluster_pages = cluster;
  cfg.dram_bytes = kFootprintPages / 4 * its::kPageSize;
  auto t = std::make_shared<trace::Trace>("page_walker");
  for (unsigned pass = 0; pass < passes; ++pass)
    for (std::uint64_t pg = 0; pg < kFootprintPages; ++pg) {
      t->push_back(trace::Instr::load(trace::kHeapBase + pg * its::kPageSize,
                                      8, 1, 0));
      t->push_back(trace::Instr::compute(50, 1, 1, 0));
    }
  Simulator sim(cfg, policy);
  sim.add_process(std::make_unique<sched::Process>(0, t->name(), 10, t));
  const std::uint64_t before = g_allocations;
  const SimMetrics m = sim.run();
  const std::uint64_t during = g_allocations - before;
  // Not vacuous: every pass re-faults the whole footprint.
  EXPECT_GE(m.major_faults + m.minor_faults, passes * kFootprintPages);
  return during;
}

class AllocGate
    : public ::testing::TestWithParam<std::tuple<PolicyKind, unsigned>> {};

TEST_P(AllocGate, RunAllocatesNothingPerFault) {
  const auto [policy, cluster] = GetParam();
  const std::uint64_t two = allocations_in_run(policy, cluster, 2);
  const std::uint64_t eight = allocations_in_run(policy, cluster, 8);
  EXPECT_EQ(eight, two) << "allocations in run(): " << two
                        << " at 2 passes, " << eight << " at 8";
}

INSTANTIATE_TEST_SUITE_P(
    SyncPolicies, AllocGate,
    ::testing::Combine(::testing::Values(PolicyKind::kSync,
                                         PolicyKind::kSyncRunahead),
                       ::testing::Values(1u, 4u)),
    [](const auto& test_info) {
      return std::string(policy_name(std::get<0>(test_info.param))) +
             "_cluster" + std::to_string(std::get<1>(test_info.param));
    });

}  // namespace
}  // namespace its::core
