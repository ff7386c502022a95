#include "trace/trace.h"

#include "trace/instr.h"
#include "util/types.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <unordered_set>

namespace its::trace {

TraceStats Trace::stats() const {
  TraceStats s;
  s.records = instrs_.size();
  bool first_mem = true;
  for (const auto& i : instrs_) {
    if (i.op == Op::kCompute) {
      s.instructions += i.repeat;
      continue;
    }
    ++s.instructions;
    if (i.is_file()) {
      if (i.op == Op::kFileRead)
        ++s.file_reads;
      else
        ++s.file_writes;
      s.file_bytes += i.size;
      continue;  // file offsets are not virtual addresses
    }
    ++s.mem_refs;
    if (i.op == Op::kLoad)
      ++s.loads;
    else
      ++s.stores;
    its::VirtAddr last = i.addr + (i.size ? i.size - 1 : 0);
    if (first_mem) {
      s.min_addr = i.addr;
      s.max_addr = last;
      first_mem = false;
    } else {
      s.min_addr = std::min(s.min_addr, i.addr);
      s.max_addr = std::max(s.max_addr, last);
    }
  }
  s.footprint_pages = touched_pages().size();
  return s;
}

const std::vector<std::pair<std::uint8_t, std::uint64_t>>& Trace::file_sizes() const {
  const std::lock_guard<std::mutex> lock(derived_.mu);
  if (derived_.have_files) return derived_.files;
  std::array<std::uint64_t, 256> ends{};
  for (const auto& i : instrs_) {
    if (!i.is_file()) continue;
    ends[i.src2] = std::max<std::uint64_t>(ends[i.src2], i.addr + i.size);
  }
  derived_.files.clear();
  for (unsigned f = 0; f < ends.size(); ++f)
    if (ends[f] != 0) derived_.files.emplace_back(static_cast<std::uint8_t>(f), ends[f]);
  derived_.have_files = true;
  return derived_.files;
}

const std::vector<its::Vpn>& Trace::touched_pages() const {
  const std::lock_guard<std::mutex> lock(derived_.mu);
  if (derived_.have_pages) return derived_.pages;
  std::unordered_set<its::Vpn> pages;
  for (const auto& i : instrs_) {
    if (!i.is_mem()) continue;
    its::VirtAddr last = i.addr + (i.size ? i.size - 1 : 0);
    for (its::Vpn p = its::vpn_of(i.addr); p <= its::vpn_of(last); ++p) pages.insert(p);
  }
  derived_.pages.assign(pages.begin(), pages.end());
  std::sort(derived_.pages.begin(), derived_.pages.end());
  derived_.have_pages = true;
  return derived_.pages;
}

}  // namespace its::trace
