// Fundamental simulator-wide types, the quantity contract, and the checked
// arithmetic helpers that keep nanosecond accounting exact.
//
// Every latency and timestamp in the simulator is an integer count of
// nanoseconds.  Virtual and physical addresses are 64-bit, pages are the
// x86-64 4 KiB base pages the paper's mini-kernel manages.
//
// == The quantity contract ==================================================
//
// The aliases below are dimensional types, not interchangeable integers.
// `tools/its_lint`'s units pass (docs/static-analysis.md#units) enforces the
// algebra across the whole tree, so the aliases stay plain `uint64_t` —
// zero-overhead, bit-identical to untyped code — while the linter provides
// the dimension check the compiler cannot:
//
//   SimTime  − SimTime  → Duration      (duration_between asserts order)
//   SimTime  + Duration → SimTime       (advancing a clock)
//   Duration ± Duration → Duration
//   SimTime  + SimTime                  → units-mixed-arith finding
//   time  {+,−,<,==,…}  bytes/pages/addresses → units-mixed-arith finding
//   Duration × Duration, Duration × count     → units-overflow finding
//                                 (use checked_mul / saturating_mul / wide_mul)
//
// A `SimTime` is a point on the simulation timeline ("when"); a `Duration`
// is a distance along it ("how long").  `Bytes` is a byte count; `Vpn`/`Pfn`
// are page numbers; `VirtAddr`/`PhysAddr` are byte addresses.  Declaring a
// time/address/size quantity as bare `uint64_t` (or `double`) where an alias
// exists is itself a finding (units-alias-decl).
#pragma once

#include <cassert>
#include <cstdint>

namespace its {

/// Simulation time in nanoseconds since simulation start (a point in time).
using SimTime = std::uint64_t;

/// Duration in nanoseconds (a distance between two SimTime points).
using Duration = std::uint64_t;

/// A virtual address in some process's address space.
using VirtAddr = std::uint64_t;

/// A physical (DRAM) address.
using PhysAddr = std::uint64_t;

/// Virtual page number (VirtAddr >> kPageShift).
using Vpn = std::uint64_t;

/// Physical frame number (PhysAddr >> kPageShift).
using Pfn = std::uint64_t;

/// A byte count (capacities, transfer sizes, working sets).
using Bytes = std::uint64_t;

/// Process identifier.
using Pid = std::uint32_t;

/// Saturation rail for duration arithmetic: ~584 years of nanoseconds.
inline constexpr Duration kDurationMax = ~0ull;

inline constexpr std::uint64_t kPageShift = 12;
inline constexpr Bytes kPageSize = 1ull << kPageShift;  // 4 KiB
inline constexpr Bytes kPageOffsetMask = kPageSize - 1;

inline constexpr std::uint64_t kCacheLineShift = 6;
inline constexpr Bytes kCacheLineSize = 1ull << kCacheLineShift;  // 64 B

// -- Checked arithmetic ------------------------------------------------------
//
// At the 10-100x trace lengths the full-scale-trace work targets, a
// Duration*count product of two "safe-looking" operands silently wraps
// (2^64 ns is only ~584 years, but rate*count math multiplies *before* it
// divides).  These helpers are the sanctioned forms: the units lint pass
// flags raw products of dimensioned operands and points here.

/// True when a * b does not fit in 64 bits.
constexpr bool mul_overflows(std::uint64_t a, std::uint64_t b) {
  return b != 0 && a > ~0ull / b;
}

/// a * b, clamped to the maximum representable value instead of wrapping.
constexpr std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  return mul_overflows(a, b) ? ~0ull : a * b;
}

/// a * b under the caller's claim that it fits: asserts in debug builds,
/// saturates (never wraps) in release builds.
constexpr std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b) {
  assert(!mul_overflows(a, b) && "checked_mul: 64-bit overflow");
  return saturating_mul(a, b);
}

/// a + b, clamped to the maximum representable value instead of wrapping.
constexpr std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > ~0ull - b ? ~0ull : a + b;
}

/// The distance between two points on the simulation timeline.  `end` must
/// not precede `start` — asserted in debug builds, clamped to 0 in release
/// builds so accounting can never underflow into a ~2^64 ns "duration".
constexpr Duration duration_between(SimTime end, SimTime start) {
  assert(end >= start && "duration_between: end precedes start");
  return end >= start ? end - start : 0;
}

/// `v` rounded up to the next multiple of `quantum` (quantum >= 1) without
/// the raw Duration*Duration product of the ((v+q-1)/q)*q idiom; saturates
/// instead of wrapping when v sits within one quantum of the rail.
constexpr Duration round_up(Duration v, Duration quantum) {
  assert(quantum != 0 && "round_up: zero quantum");
  const Duration rem = v % quantum;
  return rem == 0 ? v : saturating_add(v, quantum - rem);
}

/// `v` truncated to a multiple of `quantum` — the checked spelling of the
/// (v / q) * q idiom, which the units lint reads as a raw Duration product.
constexpr Duration round_down(Duration v, Duration quantum) {
  assert(quantum != 0 && "round_down: zero quantum");
  return v - v % quantum;
}

/// Exact-width 128-bit accumulator for rate*count products that may exceed
/// 64 bits mid-computation (wide_mul) or sums of ~2^64-scale terms.  Not a
/// general integer: just the operations the accounting paths need, all
/// constexpr and deterministic.
struct Wide128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  constexpr Wide128& add(std::uint64_t v) {
    const std::uint64_t sum = lo + v;
    hi += sum < lo ? 1 : 0;
    lo = sum;
    return *this;
  }

  constexpr bool fits_u64() const { return hi == 0; }

  /// The low 64 bits when the value fits, else the saturation rail.
  constexpr std::uint64_t clamped() const { return hi == 0 ? lo : ~0ull; }

  friend constexpr bool operator==(const Wide128& a, const Wide128& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

/// Full-width a * b: never wraps, never loses bits.  Divide or clamp the
/// result explicitly — the overflow decision becomes visible in the code.
constexpr Wide128 wide_mul(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t a_lo = a & 0xffffffffull, a_hi = a >> 32;
  const std::uint64_t b_lo = b & 0xffffffffull, b_hi = b >> 32;
  const std::uint64_t ll = a_lo * b_lo;
  const std::uint64_t lh = a_lo * b_hi;
  const std::uint64_t hl = a_hi * b_lo;
  const std::uint64_t hh = a_hi * b_hi;
  const std::uint64_t mid = (ll >> 32) + (lh & 0xffffffffull) + (hl & 0xffffffffull);
  Wide128 r;
  r.lo = (mid << 32) | (ll & 0xffffffffull);
  r.hi = hh + (lh >> 32) + (hl >> 32) + (mid >> 32);
  return r;
}

/// Convenience literals for sizes.  Saturating: a pathological literal
/// clamps to 2^64-1 instead of silently wrapping.
inline constexpr Bytes operator""_KiB(unsigned long long v) {
  return saturating_mul(v, 1ull << 10);
}
inline constexpr Bytes operator""_MiB(unsigned long long v) {
  return saturating_mul(v, 1ull << 20);
}
inline constexpr Bytes operator""_GiB(unsigned long long v) {
  return saturating_mul(v, 1ull << 30);
}

/// Convenience literals for durations (all convert to nanoseconds).
/// Saturating for the same reason: 19_s of headroom remain below 2^64 ns
/// only for ~584 simulated years, but a computed `operator""_s`-scale
/// product (v * 1e9) wraps for v >= 18446744074 — clamp, never wrap.
inline constexpr Duration operator""_ns(unsigned long long v) { return v; }
inline constexpr Duration operator""_us(unsigned long long v) {
  return saturating_mul(v, 1000ull);
}
inline constexpr Duration operator""_ms(unsigned long long v) {
  return saturating_mul(v, 1000ull * 1000ull);
}
inline constexpr Duration operator""_s(unsigned long long v) {
  return saturating_mul(v, 1000ull * 1000ull * 1000ull);
}

constexpr Vpn vpn_of(VirtAddr a) { return a >> kPageShift; }
constexpr Pfn pfn_of(PhysAddr a) { return a >> kPageShift; }
constexpr VirtAddr page_base(VirtAddr a) { return a & ~kPageOffsetMask; }
constexpr std::uint64_t line_of(std::uint64_t a) { return a >> kCacheLineShift; }

/// An invalid sentinel for page/frame numbers.
inline constexpr std::uint64_t kInvalidPage = ~0ull;

/// pid_key() keeps 16 bits of pid, so a simulation holds at most this many
/// processes (pids 0..kMaxProcesses-1); a larger pid would alias pid 0.
inline constexpr std::uint64_t kMaxProcesses = 1ull << 16;

/// Packs a process id with a 48-bit page number or virtual address into one
/// key (TLB tags, swap slots, pre-execute cache keys, arrival maps).
/// Canonical x86-64 user addresses keep the payload below 2^48; the mask
/// guards imported traces with exotic addresses from aliasing across pids.
constexpr std::uint64_t pid_key(Pid pid, std::uint64_t addr_or_vpn) {
  return (addr_or_vpn & ((1ull << 48) - 1)) | (static_cast<std::uint64_t>(pid) << 48);
}

}  // namespace its
