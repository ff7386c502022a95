// Structured event-trace recorder — the observability substrate.
//
// The simulator's hot paths emit typed events (fault windows, prefetch
// issues/hits, pre-execute episodes, context switches, async conversions,
// DMA completions, scheduler decisions, evictions) into a preallocated
// vector buffer.  Recording is a pointer check plus a push_back into
// reserved storage, and every call site is guarded with `if (trace_)` so a
// simulation without an attached trace pays a single predictable branch.
//
// The recorded timeline is the ground truth the InvariantChecker replays
// (obs/invariant_checker.h) and the Chrome trace_event exporter renders
// (obs/trace_json.h): §4.2.1's idle-time accounting becomes checkable per
// fault instead of only as end-of-run aggregates.
#pragma once

#include "util/types.h"

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace its::obs {

/// How the Chrome exporter (obs/trace_json.h) renders a kind: paired B/E
/// slices for the fault and pre-execute windows, complete (X) slices for
/// windows recorded at their end with a duration in `b`, and
/// thread-scoped instants for the point-in-time markers.
enum class ChromePhase : std::uint8_t { kBegin, kEnd, kComplete, kInstant };

/// Which timeline a kind lives on; decides which ordering invariants the
/// checker (obs/invariant_checker.h) applies to it.
enum class Timeline : std::uint8_t {
  kProcess,           ///< per-pid append order + makespan bound
  kDeviceCompletion,  ///< stamped with the (future) completion; ts >= issue
  kDeviceRetry,       ///< future detection/repost stamp; exempt from both
};

/// The one list of event kinds: X(kind, "name", ChromePhase, "Chrome slice
/// name", Timeline), in wire order.  The enum, kNumEventKinds and the
/// kind_info() table are all generated from it, so a new kind is one row.
/// Each row's description and operand legend sit in the block comment
/// above it (a line comment would swallow the continuation backslash).
// clang-format off
#define ITS_EVENT_KINDS(X)                                                                     \
  /* Major fault entered the handler.        a=vpn b=device health at entry */                 \
  X(kFaultBegin,       "fault_begin",       kBegin,    "fault",             kProcess)          \
  /* Fault resolved (page mapped).           a=vpn b=busy-wait window c=stolen */              \
  X(kFaultEnd,         "fault_end",         kEnd,      "fault",             kProcess)          \
  /* Sync wait on a page-cache page.         a=page key b=wait c=stolen */                     \
  X(kFileWait,         "file_wait",         kComplete, "file_wait",         kProcess)          \
  /* Page posted to DMA by a prefetcher.     a=vpn/key b=source (PrefetchSource) */            \
  X(kPrefetchIssue,    "prefetch_issue",    kInstant,  "prefetch_issue",    kProcess)          \
  /* Minor fault consumed a prefetched page. a=vpn */                                          \
  X(kPrefetchHit,      "prefetch_hit",      kInstant,  "prefetch_hit",      kProcess)          \
  /* Pre-execute episode started.            a=pc */                                           \
  X(kPreexecBegin,     "preexec_begin",     kBegin,    "preexec",           kProcess)          \
  /* Episode ended.                          a=pc b=used ns c=stolen credit */                 \
  X(kPreexecEnd,       "preexec_end",       kEnd,      "preexec",           kProcess)          \
  /* Context switch charged.                 b=cost ns */                                      \
  X(kCtxSwitch,        "ctx_switch",        kComplete, "ctx_switch",        kProcess)          \
  /* Fault converted to asynchronous mode.   a=vpn/key */                                      \
  X(kAsyncConvert,     "async_convert",     kInstant,  "async_convert",     kProcess)          \
  /* DMA transfer completion (device pid).   a=bytes b=issue time c=direction */               \
  X(kDmaComplete,      "dma_complete",      kInstant,  "dma_complete",      kDeviceCompletion) \
  /* Scheduler dispatched the process. */                                                      \
  X(kSchedPick,        "sched_pick",        kInstant,  "sched_pick",        kProcess)          \
  /* Process blocked on I/O. */                                                                \
  X(kSchedBlock,       "sched_block",       kInstant,  "sched_block",       kProcess)          \
  /* Blocked process became runnable. */                                                       \
  X(kSchedWake,        "sched_wake",        kInstant,  "sched_wake",        kProcess)          \
  /* Frame reclaimed under pressure.         a=pfn b=vpn */                                    \
  X(kEvict,            "evict",             kInstant,  "evict",             kProcess)          \
  /* Swap slot read back from the device.    a=vpn */                                          \
  X(kSwapIn,           "swap_in",           kInstant,  "swap_in",           kProcess)          \
  /* Swap slot written to the device.        a=vpn */                                          \
  X(kSwapOut,          "swap_out",          kInstant,  "swap_out",          kProcess)          \
  /* Prefetcher candidate walk.              a=victim b=slots examined c=walk ns */            \
  X(kPrefetchWalk,     "prefetch_walk",     kInstant,  "prefetch_walk",     kProcess)          \
  /* Fault-injection resilience (fault/fault_injector.h).  IoError and IoRetry                 \
     live on the device timeline (kDevicePid) and are stamped with the future                  \
     detection/repost time, like kDmaComplete.  They are exempt from per-pid                   \
     order and the makespan bound: a prefetched read may still be erroring out                 \
     after the last process finished. */                                                       \
  /* Demand read attempt failed.             a=vpn/key b=attempt c=direction */                \
  X(kIoError,          "io_error",          kInstant,  "io_error",          kDeviceRetry)      \
  /* Failed attempt reposted after backoff.  a=vpn/key b=attempt c=backoff ns */               \
  X(kIoRetry,          "io_retry",          kInstant,  "io_retry",          kDeviceRetry)      \
  /* Watchdog aborted a sync busy-wait.      a=vpn b=waited window c=stolen */                 \
  X(kDeadlineAbort,    "deadline_abort",    kInstant,  "deadline_abort",    kProcess)          \
  /* Aborted fault fell back to async mode.  a=vpn b=remaining (background) ns */              \
  X(kModeFallback,     "mode_fallback",     kInstant,  "mode_fallback",     kProcess)          \
  /* Device-outage resilience (storage/device_health.h, vm/fallback_pool.h).                   \
     HealthTransition lives on the device timeline (kDevicePid); the pool                      \
     events carry the owning process. */                                                       \
  /* Health FSM edge taken.                  a=from b=to (DeviceHealth) */                     \
  X(kHealthTransition, "health_transition", kInstant,  "health_transition", kProcess)          \
  /* Page compressed into the fallback pool. a=vpn b=compress ns */                            \
  X(kPoolStore,        "pool_store",        kInstant,  "pool_store",        kProcess)          \
  /* Demand read served from the pool.       a=vpn b=decompress ns */                          \
  X(kPoolLoad,         "pool_load",         kInstant,  "pool_load",         kProcess)          \
  /* Pooled page written back on recovery.   a=vpn b=bytes */                                  \
  X(kPoolDrain,        "pool_drain",        kInstant,  "pool_drain",        kProcess)          \
  /* Open-loop serving lifecycle (serve/scenario.h).  Every request event                      \
     carries the request id in `a`; Arrive/Admit are stamped at the arrival                    \
     instant, Done at retirement with the reconciled latency, and a                            \
     SloViolation immediately follows the Done it indicts.  Done is drawn as                   \
     a complete slice spanning arrival to retirement. */                                       \
  /* Open-loop request arrived.              a=req id b=tier */                                \
  X(kRequestArrive,    "request_arrive",    kInstant,  "request_arrive",    kProcess)          \
  /* Request admitted (process spawned).     a=req id b=tier */                                \
  X(kRequestAdmit,     "request_admit",     kInstant,  "request_admit",     kProcess)          \
  /* Request retired.                        a=req id b=latency ns c=tier */                   \
  X(kRequestDone,      "request_done",      kComplete, "request_done",      kProcess)          \
  /* Retired request broke its tier SLO.     a=req id b=latency ns c=slo ns */                 \
  X(kSloViolation,     "slo_violation",     kInstant,  "slo_violation",     kProcess)
// clang-format on

/// Generated from ITS_EVENT_KINDS: to add a kind, add a row to the table.
enum class EventKind : std::uint8_t {
#define ITS_EVENT_KIND_ENUM(kind, name, phase, slice, timeline) kind,
  ITS_EVENT_KINDS(ITS_EVENT_KIND_ENUM)
#undef ITS_EVENT_KIND_ENUM
};

/// One row of ITS_EVENT_KINDS, as the exporter and the checker read it.
struct EventKindInfo {
  std::string_view name;
  ChromePhase phase;
  std::string_view slice;  ///< Chrome slice name (B/E pairs share one).
  Timeline timeline;
};

/// The number of rows in ITS_EVENT_KINDS.
inline constexpr std::size_t kNumEventKinds =
#define ITS_EVENT_KIND_ONE(kind, name, phase, slice, timeline) +1
    (0 ITS_EVENT_KINDS(ITS_EVENT_KIND_ONE));
#undef ITS_EVENT_KIND_ONE

/// The row for `k`.  A byte past the table (a corrupted or version-skewed
/// trace) reads as "unknown", rendered as an instant; the checker rejects
/// it before consulting the timeline.
inline const EventKindInfo& kind_info(EventKind k) {
  static constexpr EventKindInfo kRows[] = {
#define ITS_EVENT_KIND_INFO(kind, name, phase, slice, timeline) \
  {name, ChromePhase::phase, slice, Timeline::timeline},
      ITS_EVENT_KINDS(ITS_EVENT_KIND_INFO)
#undef ITS_EVENT_KIND_INFO
  };
  static constexpr EventKindInfo kUnknown{"unknown", ChromePhase::kInstant,
                                          "unknown", Timeline::kProcess};
  const auto i = static_cast<std::size_t>(k);
  return i < kNumEventKinds ? kRows[i] : kUnknown;
}

inline std::string_view kind_name(EventKind k) { return kind_info(k).name; }

/// Origin of a kPrefetchIssue, carried in Event::b.
enum class PrefetchSource : std::uint8_t {
  kSwapCluster = 0,  ///< Sibling page of an aligned swap cluster.
  kPolicy = 1,       ///< VA-walk / page-on-page / stride prefetcher.
  kFileReadahead = 2,
};

/// Pid stamped on events that belong to no process (DMA completions).
inline constexpr its::Pid kDevicePid = 0xFFFFFFFFu;

struct Event {
  its::SimTime ts;      ///< Sim-time at recording; kDmaComplete stamps the
                        ///< (future) completion instead.
  EventKind kind;
  std::uint8_t policy;  ///< PolicyKind of the run, set once on the trace.
  its::Pid pid;
  std::uint64_t a = 0;  ///< Primary operand — see the per-kind legend.
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class EventTrace {
 public:
  /// `reserve_hint` preallocates the buffer; `max_events` (0 = unbounded)
  /// caps it — once full, further events are counted in dropped() instead
  /// of recorded, and the invariant checker refuses the truncated trace.
  explicit EventTrace(std::size_t reserve_hint = std::size_t{1} << 16,
                      std::size_t max_events = 0)
      : max_(max_events) {
    buf_.reserve(reserve_hint);
  }

  /// PolicyKind of the producing run, stamped onto every event.
  void set_policy(std::uint8_t policy) { policy_ = policy; }
  std::uint8_t policy() const { return policy_; }

  void record(EventKind k, its::SimTime ts, its::Pid pid, std::uint64_t a = 0,
              std::uint64_t b = 0, std::uint64_t c = 0) {
    if (max_ != 0 && buf_.size() >= max_) {
      ++dropped_;
      return;
    }
    buf_.push_back(Event{ts, k, policy_, pid, a, b, c});
  }

  const std::vector<Event>& events() const { return buf_; }
  /// Mutable view for tests that corrupt a trace on purpose.
  std::vector<Event>& events_mut() { return buf_; }

  std::size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  std::uint64_t dropped() const { return dropped_; }

  std::uint64_t count(EventKind k) const;
  /// Σ of the `b` operand over events of kind `k` (durations/costs).
  std::uint64_t sum_b(EventKind k) const;
  /// Σ of the `c` operand over events of kind `k` (stolen credits).
  std::uint64_t sum_c(EventKind k) const;

  void clear() {
    buf_.clear();
    dropped_ = 0;
  }

 private:
  std::size_t max_;
  std::uint8_t policy_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Event> buf_;
};

}  // namespace its::obs
