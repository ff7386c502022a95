#include "cpu/preexec_engine.h"

#include "cpu/register_file.h"
#include "cpu/store_buffer.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "trace/instr.h"
#include "trace/trace.h"
#include "util/types.h"
#include "vm/mm.h"
#include "vm/pte.h"

#include <algorithm>

namespace its::cpu {

using trace::Instr;
using trace::Op;

PreexecEngine::PreexecEngine(const PreexecConfig& cfg, mem::CacheHierarchy& caches,
                             mem::PreexecCache& px_cache)
    : cfg_(cfg), caches_(caches), px_(px_cache) {}

void PreexecEngine::preexec_load(const Instr& in, RegisterFile& rf,
                                 vm::MemoryDescriptor& mm, EpisodeResult& ep) {
  // Address registers poisoned ⇒ the address itself is bogus: skip entirely.
  if (rf.is_invalid(in.src1) || rf.is_invalid(in.src2)) {
    rf.set_invalid(in.dst, true);
    ++ep.invalid_ops;
    ep.used += cfg_.skip_cost;
    return;
  }

  const std::uint64_t key = px_key(mm.pid(), in.addr);

  // Fig. 3b (1): forward from in-flight pre-execute stores.  A store that
  // only partially covers the load cannot vouch for the remaining bytes —
  // conservative poison.
  SbHit sb = sb_.lookup(key, in.size);
  if (sb.found) {
    bool invalid = sb.invalid || !sb.complete;
    rf.set_invalid(in.dst, invalid);
    if (invalid) ++ep.invalid_ops;
    ep.used += cfg_.skip_cost;
    return;
  }

  // Fig. 3b (2): retired pre-execute stores live in the pre-execute cache.
  // A partial hit (some requested bytes never written) cannot vouch for the
  // missing bytes — treat the value as unknown (conservative poison).
  mem::PxLookup px = px_.lookup(key, in.size);
  if (px.found) {
    bool invalid = px.any_invalid || !px.complete;
    rf.set_invalid(in.dst, invalid);
    if (invalid) ++ep.invalid_ops;
    ep.used += cfg_.skip_cost;
    return;
  }

  // Fig. 3b (0): data still in the storage device ⇒ invalid, no nested I/O.
  vm::Pte* pte = mm.pte(its::vpn_of(in.addr));
  if (pte == nullptr || !pte->present()) {
    rf.set_invalid(in.dst, true);
    ++ep.invalid_ops;
    ep.used += cfg_.skip_cost;
    return;
  }

  // Fig. 3b (3): in DRAM/cache — the PTE INV bit arbitrates validity.
  if (pte->inv()) {
    rf.set_invalid(in.dst, true);
    ++ep.invalid_ops;
    ep.used += cfg_.skip_cost;
    return;
  }

  its::PhysAddr phys = (pte->pfn() << its::kPageShift) | (in.addr & its::kPageOffsetMask);
  // Clamp the warm to this page: the next virtual page maps to an
  // unrelated frame (or none at all).
  auto in_page = static_cast<unsigned>(
      std::min<std::uint64_t>(in.size, its::kPageSize - (in.addr & its::kPageOffsetMask)));
  rf.set_invalid(in.dst, false);
  if (caches_.probe(phys)) {
    ep.used += cfg_.skip_cost;  // already cached: nothing to gain
    return;
  }
  // Fig. 3b (4): only in memory ⇒ fetch early.  This fill is the payoff —
  // the architectural re-execution will hit.  Fetches overlap (runahead
  // MLP), so only the issue cost is charged.
  caches_.warm(phys, in_page);
  ++ep.lines_warmed;
  ep.used += cfg_.issue_cost;
}

void PreexecEngine::preexec_store(const Instr& in, RegisterFile& rf,
                                  vm::MemoryDescriptor& mm, EpisodeResult& ep) {
  // Store address base poisoned ⇒ target unknown: skip, nothing allocated.
  if (rf.is_invalid(in.src2)) {
    ++ep.invalid_ops;
    ep.used += cfg_.skip_cost;
    return;
  }
  const bool data_invalid = rf.is_invalid(in.src1);
  const std::uint64_t key = px_key(mm.pid(), in.addr);
  vm::Pte* pte = mm.pte(its::vpn_of(in.addr));

  // Fig. 3a (0): data page still in the storage device ⇒ the store is
  // invalid; allocate a pre-execute cache line with INV bytes and set the
  // PTE INV bit.
  if (pte == nullptr || !pte->present()) {
    px_.store(key, in.size, /*invalid=*/true);
    if (pte != nullptr) pte->set_inv(true);
    ++ep.invalid_ops;
    ep.used += cfg_.skip_cost;
    return;
  }

  // Fig. 3a (1): page in DRAM/cache — write the result into the store
  // buffer, INV bit tracking the data's status.
  if (auto retired = sb_.push({key, in.size, data_invalid}))
    px_.store(retired->addr, retired->size, retired->invalid);
  ++ep.stores_buffered;
  if (data_invalid) {
    pte->set_inv(true);
    ++ep.invalid_ops;
  }

  // Fig. 3a (2): if the line is in memory but not in the cache, fetch it
  // (clamped to this page — the next page maps elsewhere).
  its::PhysAddr phys = (pte->pfn() << its::kPageShift) | (in.addr & its::kPageOffsetMask);
  auto in_page = static_cast<unsigned>(
      std::min<std::uint64_t>(in.size, its::kPageSize - (in.addr & its::kPageOffsetMask)));
  if (!caches_.probe(phys)) {
    caches_.warm(phys, in_page);
    ++ep.lines_warmed;
    ep.used += cfg_.issue_cost;
  } else {
    ep.used += cfg_.skip_cost;
  }
}

EpisodeResult PreexecEngine::run(const trace::Trace& trace, std::size_t fault_idx,
                                 RegisterFile& rf, vm::MemoryDescriptor& mm,
                                 its::Duration budget) {
  EpisodeResult ep;
  const its::Duration overhead = cfg_.checkpoint_cost + cfg_.restore_cost;
  if (budget <= overhead + cfg_.skip_cost) return ep;  // not worth entering

  ep.ran = true;
  ep.used = cfg_.checkpoint_cost;
  shadow_.checkpoint(rf);
  sb_.clear();

  // The faulting instruction's destination holds bogus data until the
  // swap-in (or file read) completes — it is the episode's initial poison.
  if (fault_idx < trace.size() && (trace[fault_idx].op == Op::kLoad ||
                                   trace[fault_idx].op == Op::kFileRead))
    rf.set_invalid(trace[fault_idx].dst, true);

  const its::Duration usable = budget - cfg_.restore_cost;
  std::size_t idx = fault_idx + 1;
  while (idx < trace.size() && ep.records < cfg_.max_records &&
         ep.lines_warmed < cfg_.max_warm_fills && ep.used < usable) {
    const Instr& in = trace[idx++];
    ++ep.records;
    switch (in.op) {
      case Op::kCompute: {
        auto cost = static_cast<its::Duration>(
            static_cast<double>(in.repeat) * cfg_.ns_per_instr);
        cost = std::max<its::Duration>(cost, 1);
        ep.used += std::min(cost, usable - ep.used);
        rf.propagate(in.dst, in.src1, in.src2);
        break;
      }
      case Op::kLoad:
        preexec_load(in, rf, mm, ep);
        break;
      case Op::kStore:
        preexec_store(in, rf, mm, ep);
        break;
      case Op::kFileRead:
        // System calls cannot be pre-executed; the result is unknown.
        rf.set_invalid(in.dst, true);
        ++ep.invalid_ops;
        ep.used += cfg_.skip_cost;
        break;
      case Op::kFileWrite:
        ++ep.invalid_ops;  // side effect suppressed
        ep.used += cfg_.skip_cost;
        break;
    }
  }

  // Episode end: retire the store buffer into the pre-execute cache, then
  // run the state-recovery policy (restore the shadow register file).
  sb_.retire_all(px_);
  shadow_.restore(rf);
  ep.used += cfg_.restore_cost;
  if (ep.used > budget) ep.used = budget;  // clamp final partial op

  ++totals_.episodes;
  totals_.records += ep.records;
  totals_.invalid_ops += ep.invalid_ops;
  totals_.lines_warmed += ep.lines_warmed;
  totals_.time_used += ep.used;
  return ep;
}

}  // namespace its::cpu
