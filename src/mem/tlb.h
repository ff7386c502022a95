// Translation Look-aside Buffer.
//
// A single shared hardware TLB, fully associative with true LRU, flushed on
// every context switch (the paper lists TLB shootdown as one of the hidden
// context-switch costs — the Async baseline pays it on every fault).
//
// Layout: fixed arrays sized at construction, so no operation allocates.
// Each slot holds one key and sits on a doubly linked recency list threaded
// through `prev_`/`next_` indices, most recent first.  An open-addressed
// index with linear probing (at least 4× as many buckets as slots, so
// probes stay short) maps a key to its slot; deletion shifts the probe run
// back instead of leaving tombstones.  Slots freed by invalidate() go on a
// stack; flush() resets the index and the list heads and touches no slot.
#pragma once

#include "util/types.h"

#include <cstdint>
#include <vector>

namespace its::mem {

struct TlbStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t flushes = 0;
};

class Tlb {
 public:
  /// Throws std::invalid_argument unless 1 <= entries <= kMaxEntries.
  explicit Tlb(unsigned entries = 64);

  static constexpr unsigned kMaxEntries = 1u << 20;

  /// Looks up a translation for `vpn`; true on hit (and refreshes LRU).
  bool lookup(its::Vpn vpn);

  /// Installs a translation after a page walk.
  void insert(its::Vpn vpn);

  /// Drops one translation (page unmapped / evicted to swap).
  void invalidate(its::Vpn vpn);

  /// Full flush (context switch).
  void flush();

  const TlbStats& stats() const { return stats_; }
  std::size_t size() const { return used_ - free_.size(); }
  unsigned capacity() const { return entries_; }

 private:
  /// "No slot": an empty bucket, or the end of the recency list.
  static constexpr std::uint32_t kNone = ~0u;
  /// find()'s "not present".
  static constexpr std::size_t kNoBucket = ~std::size_t{0};

  std::size_t home_bucket(its::Vpn vpn) const;
  /// Bucket holding `vpn`, or kNoBucket.
  std::size_t find(its::Vpn vpn) const;
  /// Empties bucket `hole`, shifting later members of its probe run back.
  void erase_bucket(std::size_t hole);
  void unlink(std::uint32_t slot);
  void push_front(std::uint32_t slot);
  /// Makes `slot` the most recently used.
  void touch(std::uint32_t slot);

  unsigned entries_;
  unsigned bucket_bits_ = 0;
  std::size_t bucket_mask_ = 0;
  std::vector<its::Vpn> keys_;        ///< Per slot.
  std::vector<std::uint32_t> prev_;   ///< Per slot: next more recent slot.
  std::vector<std::uint32_t> next_;   ///< Per slot: next less recent slot.
  std::vector<std::uint32_t> index_;  ///< Per bucket: slot, or kNone.
  std::vector<std::uint32_t> free_;   ///< Invalidated slots below used_.
  std::uint32_t used_ = 0;            ///< Slots handed out since the last flush.
  std::uint32_t head_ = kNone;        ///< Most recently used slot.
  std::uint32_t tail_ = kNone;        ///< Least recently used slot.
  TlbStats stats_;
};

}  // namespace its::mem
