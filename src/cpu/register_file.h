// Architectural register file with INV (invalid) bits, plus the shadow
// register file used by the state-recovery policy.
//
// §3.4.2: "we expand the Register File (RF) by adding additional 'INV' bits
// for each register"; a pre-executed instruction whose source is INV
// cascades the mark to its destination.  §3.4.3: on ITS activation the RF
// state (program counter, stack pointer, branch history, return-address
// stack) is checkpointed to a shadow register file and restored before ITS
// terminates.  Values themselves are not tracked — the simulator is
// trace-driven — but validity is, which is what the pre-execute policy
// needs for correctness.
#pragma once

#include "trace/instr.h"

#include <cstdint>

namespace its::cpu {

class RegisterFile {
 public:
  /// Register 0 is the hard-wired zero register: always valid, because
  /// bit 0 of the mask is never set.
  bool is_invalid(std::uint8_t reg) const { return ((inv_ >> reg) & 1) != 0; }

  void set_invalid(std::uint8_t reg, bool inv) {
    inv_ = ((inv_ & ~(1ull << reg)) | (std::uint64_t{inv} << reg)) & ~1ull;
  }

  /// Cascades invalidity: dst becomes INV iff any source is INV.
  void propagate(std::uint8_t dst, std::uint8_t src1, std::uint8_t src2) {
    set_invalid(dst, is_invalid(src1) || is_invalid(src2));
  }

  std::uint64_t inv_mask() const { return inv_; }
  /// Replaces the whole INV mask; register 0 stays valid.
  void set_inv_mask(std::uint64_t mask) { inv_ = mask & ~1ull; }
  void clear_all() { inv_ = 0; }
  unsigned invalid_count() const {
    return static_cast<unsigned>(__builtin_popcountll(inv_));
  }

 private:
  std::uint64_t inv_ = 0;
};

static_assert(its::trace::kNumRegs <= 64, "INV mask is 64 bits wide");

/// State-recovery policy checkpoint target (§3.4.3).  Checkpoint/restore
/// costs are charged by the pre-execute engine's cost model.
class ShadowRegisterFile {
 public:
  void checkpoint(const RegisterFile& rf) {
    saved_ = rf.inv_mask();
    valid_ = true;
  }

  /// Restores the RF to its checkpointed state; the checkpoint stays valid
  /// (it can be restored again, e.g. nested polling checks).
  void restore(RegisterFile& rf) const { rf.set_inv_mask(saved_); }

  bool has_checkpoint() const { return valid_; }

 private:
  std::uint64_t saved_ = 0;
  bool valid_ = false;
};

}  // namespace its::cpu
