#include "mem/tlb.h"

#include "util/types.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace its::mem {

Tlb::Tlb(unsigned entries) : entries_(entries) {
  if (entries == 0) throw std::invalid_argument("Tlb: entries must be > 0");
  if (entries > kMaxEntries)
    throw std::invalid_argument("Tlb: entries must be <= 1048576");
  const std::size_t buckets = std::bit_ceil(std::size_t{entries} * 4);
  bucket_bits_ = static_cast<unsigned>(std::countr_zero(buckets));
  bucket_mask_ = buckets - 1;
  keys_.assign(entries, 0);
  prev_.assign(entries, kNone);
  next_.assign(entries, kNone);
  index_.assign(buckets, kNone);
  free_.reserve(entries);
}

std::size_t Tlb::home_bucket(its::Vpn vpn) const {
  // Keys are pid_key()s.  Neighbouring pages take neighbouring buckets, the
  // page bits above the bucket bits fold down, and each pid adds its own
  // offset (pid < 2^16, so the product cannot wrap).
  const std::uint64_t page = vpn & ((1ull << 48) - 1);
  const std::uint64_t pid = vpn >> 48;
  return static_cast<std::size_t>((page ^ (page >> bucket_bits_) ^ (pid * 0x9E3779B9ull)) &
                                  bucket_mask_);
}

std::size_t Tlb::find(its::Vpn vpn) const {
  for (std::size_t b = home_bucket(vpn);; b = (b + 1) & bucket_mask_) {
    const std::uint32_t s = index_[b];
    if (s == kNone) return kNoBucket;
    if (keys_[s] == vpn) return b;
  }
}

void Tlb::erase_bucket(std::size_t hole) {
  for (std::size_t b = (hole + 1) & bucket_mask_;; b = (b + 1) & bucket_mask_) {
    const std::uint32_t s = index_[b];
    if (s == kNone) break;
    // A member may fill the hole unless its home lies after the hole (in
    // probe order) — then it would sit before its own home.
    const std::size_t buckets = bucket_mask_ + 1;
    const std::size_t from_home = (b + buckets - home_bucket(keys_[s])) & bucket_mask_;
    const std::size_t from_hole = (b + buckets - hole) & bucket_mask_;
    if (from_home >= from_hole) {
      index_[hole] = s;
      hole = b;
    }
  }
  index_[hole] = kNone;
}

void Tlb::unlink(std::uint32_t slot) {
  const std::uint32_t p = prev_[slot], n = next_[slot];
  (p == kNone ? head_ : next_[p]) = n;
  (n == kNone ? tail_ : prev_[n]) = p;
}

void Tlb::push_front(std::uint32_t slot) {
  prev_[slot] = kNone;
  next_[slot] = head_;
  (head_ == kNone ? tail_ : prev_[head_]) = slot;
  head_ = slot;
}

void Tlb::touch(std::uint32_t slot) {
  if (slot == head_) return;
  unlink(slot);
  push_front(slot);
}

bool Tlb::lookup(its::Vpn vpn) {
  const std::size_t b = find(vpn);
  if (b == kNoBucket) {
    ++stats_.misses;
    return false;
  }
  touch(index_[b]);
  ++stats_.hits;
  return true;
}

void Tlb::insert(its::Vpn vpn) {
  std::size_t b = find(vpn);
  if (b != kNoBucket) {
    touch(index_[b]);
    return;
  }
  std::uint32_t s = tail_;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else if (used_ < entries_) {
    s = used_++;
  } else {  // full: recycle the least recently used slot
    erase_bucket(find(keys_[s]));
    unlink(s);
  }
  keys_[s] = vpn;
  push_front(s);
  b = home_bucket(vpn);
  while (index_[b] != kNone) b = (b + 1) & bucket_mask_;
  index_[b] = s;
}

void Tlb::invalidate(its::Vpn vpn) {
  const std::size_t b = find(vpn);
  if (b == kNoBucket) return;
  const std::uint32_t s = index_[b];
  erase_bucket(b);
  unlink(s);
  free_.push_back(s);
}

void Tlb::flush() {
  std::fill(index_.begin(), index_.end(), kNone);
  free_.clear();
  used_ = 0;
  head_ = tail_ = kNone;
  ++stats_.flushes;
}

}  // namespace its::mem
