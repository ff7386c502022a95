#include "vm/frame_pool.h"

#include "util/types.h"

#include <stdexcept>

namespace its::vm {

FramePool::FramePool(its::Bytes dram_bytes) {
  std::uint64_t n = dram_bytes >> its::kPageShift;
  if (n == 0) throw std::invalid_argument("FramePool: DRAM must hold >= 1 frame");
  frames_.assign(n, FrameInfo{});
  free_.reserve(n);
  // Hand out low frames first for reproducibility.
  for (std::uint64_t i = n; i-- > 0;) free_.push_back(i);
  pos_.assign(n, kUnindexed);
}

void FramePool::index_insert(its::Pfn pfn, its::Pid owner) {
  if (owner >= owned_.size()) owned_.resize(std::size_t{owner} + 1);
  std::vector<its::Pfn>& v = owned_[owner];
  pos_[pfn] = v.size();
  v.push_back(pfn);
}

void FramePool::index_remove(its::Pfn pfn, its::Pid owner) {
  if (pos_[pfn] == kUnindexed) return;  // carved frames are never tracked
  std::vector<its::Pfn>& v = owned_[owner];
  const its::Pfn last = v.back();
  v[pos_[pfn]] = last;
  pos_[last] = pos_[pfn];
  v.pop_back();
  pos_[pfn] = kUnindexed;
}

const std::vector<its::Pfn>& FramePool::frames_of(its::Pid owner) const {
  static const std::vector<its::Pfn> kNone;
  return owner < owned_.size() ? owned_[owner] : kNone;
}

FrameInfo& FramePool::at(its::Pfn pfn) {
  if (pfn >= frames_.size()) throw std::out_of_range("FramePool: bad pfn");
  return frames_[pfn];
}

const FrameInfo& FramePool::info(its::Pfn pfn) const {
  return const_cast<FramePool*>(this)->at(pfn);
}

std::optional<its::Pfn> FramePool::try_alloc(its::Pid owner, its::Vpn vpn) {
  if (free_.empty()) return std::nullopt;
  its::Pfn pfn = free_.back();
  free_.pop_back();
  FrameInfo& f = frames_[pfn];
  f = FrameInfo{};
  f.in_use = true;
  f.owner = owner;
  f.vpn = vpn;
  index_insert(pfn, owner);
  ++stats_.allocations;
  return pfn;
}

std::optional<its::Pfn> FramePool::clock_victim() {
  const std::uint64_t n = frames_.size();
  // Two full sweeps suffice: the first may clear every reference bit, the
  // second must then find an unreferenced, unpinned frame if one exists.
  for (std::uint64_t scanned = 0; scanned < 2 * n; ++scanned) {
    FrameInfo& f = frames_[hand_];
    std::uint64_t current = hand_;
    hand_ = (hand_ + 1) % n;
    ++stats_.clock_scans;
    if (!f.in_use || f.pinned) continue;
    if (f.referenced) {
      f.referenced = false;  // second chance
      continue;
    }
    return current;
  }
  return std::nullopt;
}

void FramePool::release(its::Pfn pfn) {
  FrameInfo& f = at(pfn);
  if (!f.in_use) throw std::logic_error("FramePool: releasing free frame");
  index_remove(pfn, f.owner);
  f = FrameInfo{};
  free_.push_back(pfn);
  ++stats_.releases;
}

std::uint64_t FramePool::carve_tail(std::uint64_t count) {
  // The constructor pushes high pfns first, so the tail of the pool sits
  // at the front of the free list; always keep at least one frame usable.
  if (free_.size() <= 1) return 0;
  count = std::min<std::uint64_t>(count, free_.size() - 1);
  for (std::uint64_t i = 0; i < count; ++i) {
    FrameInfo& f = frames_[free_[i]];
    f.in_use = true;
    f.pinned = true;
  }
  free_.erase(free_.begin(),
              free_.begin() + static_cast<std::ptrdiff_t>(count));
  return count;
}

void FramePool::pin(its::Pfn pfn) { at(pfn).pinned = true; }
void FramePool::unpin(its::Pfn pfn) { at(pfn).pinned = false; }
void FramePool::mark_referenced(its::Pfn pfn) { at(pfn).referenced = true; }

}  // namespace its::vm
