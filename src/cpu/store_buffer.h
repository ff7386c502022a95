// Store buffer with forwarding, used during pre-execution.
//
// Pre-execute stores park their (validity-tagged) results here; when an
// entry retires (FIFO overflow or episode end) it moves into the
// pre-execute cache so later pre-execute loads "dependent on these retired
// store instructions can be verified by checking the pre-execute cache"
// (§3.4.2).  Entries are keyed in the same (pid, vaddr) key space as the
// pre-execute cache.
//
// The entries live in a fixed ring sized at construction.  Beside it sits
// a line filter: a count, per hashed 64-byte line bucket, of the buffered
// entries touching a line in that bucket.  Most pre-execute loads hit no
// buffered line, and the filter answers those without a scan.  The rule
// that keeps it exact is that it never gives a false negative: every entry
// either counts each line it touches, or — when it has size 0 or spans more
// than kFilterLines lines — is counted as unfiltered, and any unfiltered
// entry forces the full youngest-first scan.  Two lines sharing a bucket
// only cost a scan that finds nothing.  lookup() answers "the filter says
// no" inline; only the scan is out of line.
#pragma once

#include "mem/preexec_cache.h"
#include "util/types.h"

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace its::cpu {

struct SbEntry {
  its::VirtAddr addr = 0;  ///< Composite (pid, vaddr) key of the first byte.
  std::uint16_t size = 0;
  bool invalid = false;  ///< Data written was bogus (INV source / fault).
};

struct SbHit {
  bool found = false;
  bool invalid = false;   ///< Forwarded data was bogus.
  bool complete = false;  ///< The youngest overlapping store covers the whole range.
};

class StoreBuffer {
 public:
  /// Throws std::invalid_argument when `capacity` is 0.
  explicit StoreBuffer(std::size_t capacity = 56);

  /// Appends a store; if the buffer is full the oldest entry retires and is
  /// returned (the caller forwards it to the pre-execute cache).
  std::optional<SbEntry> push(const SbEntry& e);

  /// Youngest-entry-wins forwarding lookup over [addr, addr+size).
  SbHit lookup(its::VirtAddr addr, std::uint16_t size) const {
    if (count_ == 0) return {};
    // The filter can rule a lookup out only when every live entry is
    // indexed and the probed range is a short, non-wrapping run of lines.
    if (unfiltered_ == 0 && size != 0) {
      const std::uint64_t first = addr >> kCacheLineShift;
      const std::uint64_t last = (addr + size - 1) >> kCacheLineShift;
      if (last - first < kFilterLines) {
        bool maybe = false;
        for (std::uint64_t l = first; l <= last; ++l)
          if (lines_[bucket(l)] != 0) maybe = true;
        if (!maybe) return {};
      }
    }
    return scan(addr, size);
  }

  /// Retires every entry into `px`, oldest first (episode end); the buffer
  /// becomes empty.
  void retire_all(mem::PreexecCache& px);

  void clear();
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return ring_.size(); }
  bool empty() const { return count_ == 0; }

  /// Entries spanning more lines than this bypass the filter.
  static constexpr std::uint64_t kFilterLines = 4;
  /// Filter buckets; lines this many apart share one.
  static constexpr std::size_t kFilterBuckets = 4096;

 private:
  static bool overlaps(const SbEntry& e, its::VirtAddr addr,
                       std::uint16_t size) {
    return e.addr < addr + size && addr < e.addr + e.size;
  }
  static std::size_t bucket(std::uint64_t line) {
    return static_cast<std::size_t>(line % kFilterBuckets);
  }

  /// The youngest-first scan behind lookup().
  SbHit scan(its::VirtAddr addr, std::uint16_t size) const;
  /// Adds `e` to (or, with `add` false, removes it from) the line filter.
  void index(const SbEntry& e, bool add);
  /// Ring slot of the i-th oldest entry.
  std::size_t slot(std::size_t i) const {
    std::size_t s = head_ + i;
    return s < ring_.size() ? s : s - ring_.size();
  }

  std::vector<SbEntry> ring_;  // ring_[head_] = oldest
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t unfiltered_ = 0;  ///< Live entries the filter does not index.
  std::array<std::uint32_t, kFilterBuckets> lines_{};
};

}  // namespace its::cpu
