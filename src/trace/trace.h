// Trace container: an immutable-after-build sequence of Instr records plus
// derived address-space statistics that the simulator uses for DRAM sizing.
#pragma once

#include "trace/instr.h"
#include "util/types.h"

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace its::trace {

/// Derived statistics over a trace's address stream.
struct TraceStats {
  std::uint64_t records = 0;        ///< Number of Instr records.
  std::uint64_t instructions = 0;   ///< Records with compute `repeat` expanded.
  std::uint64_t mem_refs = 0;       ///< Loads + stores.
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t file_reads = 0;     ///< read() syscall records.
  std::uint64_t file_writes = 0;    ///< write() syscall records.
  its::Bytes file_bytes = 0;        ///< Bytes moved through file I/O.
  std::uint64_t footprint_pages = 0;  ///< Distinct 4 KiB pages touched (VM only).
  its::VirtAddr min_addr = 0;
  its::VirtAddr max_addr = 0;  ///< Highest address touched (inclusive of size).
};

/// A finite instruction trace for one process.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::string name) : name_(std::move(name)) {}

  void reserve(std::size_t n) { instrs_.reserve(n); }
  void push_back(const Instr& i) {
    instrs_.push_back(i);
    derived_.clear();
  }

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t size() const { return instrs_.size(); }
  bool empty() const { return instrs_.empty(); }
  const Instr& operator[](std::size_t i) const { return instrs_[i]; }
  std::span<const Instr> records() const { return instrs_; }

  /// Computes derived statistics in one pass (O(records) time,
  /// O(footprint) memory for the distinct-page set).
  TraceStats stats() const;

  /// Set of distinct virtual pages touched, sorted ascending.  Computed on
  /// first use and kept until the next push_back; safe to call from several
  /// threads at once.
  const std::vector<its::Vpn>& touched_pages() const;

  /// Per-file maximum end offset referenced by file I/O records, as
  /// (file id, size) pairs — used to register files before simulation.
  /// Kept like touched_pages().
  const std::vector<std::pair<std::uint8_t, std::uint64_t>>& file_sizes() const;

  friend bool operator==(const Trace&, const Trace&) = default;

 private:
  /// What touched_pages() and file_sizes() computed for the current
  /// records.  Farm workers share one const Trace, so filling it takes the
  /// mutex.  A copy or move starts empty (the source of a move is emptied
  /// too, as its records are gone) and == ignores it.
  class Derived {
   public:
    Derived() = default;
    Derived(const Derived&) {}
    Derived(Derived&& from) noexcept { from.clear(); }
    Derived& operator=(const Derived&) {
      clear();
      return *this;
    }
    Derived& operator=(Derived&& from) noexcept {
      clear();
      from.clear();
      return *this;
    }
    friend bool operator==(const Derived&, const Derived&) { return true; }

    /// Only with the Trace held exclusively (it is being changed).
    void clear() { have_pages = have_files = false; }

    std::mutex mu;
    bool have_pages = false;
    bool have_files = false;
    std::vector<its::Vpn> pages;
    std::vector<std::pair<std::uint8_t, std::uint64_t>> files;
  };

  std::string name_;
  std::vector<Instr> instrs_;
  mutable Derived derived_;
};

}  // namespace its::trace
