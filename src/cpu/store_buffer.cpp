#include "cpu/store_buffer.h"

#include "mem/preexec_cache.h"
#include "util/types.h"

#include <stdexcept>

namespace its::cpu {

StoreBuffer::StoreBuffer(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("StoreBuffer capacity must be positive");
  ring_.resize(capacity);
}

void StoreBuffer::index(const SbEntry& e, bool add) {
  if (e.size != 0) {
    const std::uint64_t first = e.addr >> kCacheLineShift;
    const std::uint64_t last = (e.addr + e.size - 1) >> kCacheLineShift;
    if (last - first < kFilterLines) {  // also false when the range wraps
      for (std::uint64_t l = first; l <= last; ++l) {
        std::uint32_t& c = lines_[bucket(l)];
        c = add ? c + 1 : c - 1;
      }
      return;
    }
  }
  unfiltered_ = add ? unfiltered_ + 1 : unfiltered_ - 1;
}

std::optional<SbEntry> StoreBuffer::push(const SbEntry& e) {
  std::optional<SbEntry> retired;
  if (count_ == ring_.size()) {
    retired = ring_[head_];
    index(*retired, false);
    head_ = slot(1);
    --count_;
  }
  ring_[slot(count_)] = e;
  index(e, true);
  ++count_;
  return retired;
}

SbHit StoreBuffer::scan(its::VirtAddr addr, std::uint16_t size) const {
  // Scan youngest → oldest so the most recent overlapping store forwards.
  for (std::size_t i = count_; i > 0; --i) {
    const SbEntry& e = ring_[slot(i - 1)];
    if (overlaps(e, addr, size)) {
      bool covers = e.addr <= addr && addr + size <= e.addr + e.size;
      return {true, e.invalid, covers};
    }
  }
  return {};
}

void StoreBuffer::retire_all(mem::PreexecCache& px) {
  for (std::size_t i = 0; i < count_; ++i) {
    const SbEntry& e = ring_[slot(i)];
    px.store(e.addr, e.size, e.invalid);
  }
  clear();
}

void StoreBuffer::clear() {
  for (std::size_t i = 0; i < count_; ++i) index(ring_[slot(i)], false);
  head_ = 0;
  count_ = 0;
}

}  // namespace its::cpu
