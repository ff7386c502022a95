#include "obs/invariant_checker.h"

#include "obs/event_trace.h"
#include "util/types.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace its::obs {

namespace {

/// printf-style convenience for violation strings.
template <typename... Args>
std::string fmt(const char* f, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, args...);
  return std::string(buf);
}

struct OpenFault {
  bool open = false;
  its::Vpn vpn = 0;
  its::SimTime begin = 0;
};

/// Serving-lifecycle progress of one request id (arrive → admit → done).
/// A request that arrives and never admits is a reject; a request that
/// admits must retire before the trace ends.
struct ReqState {
  bool arrived = false;
  bool admitted = false;
  bool done = false;
  its::SimTime arrive_ts = 0;
  std::uint64_t tier = 0;
};

/// Legal edges of the device-health FSM (storage/device_health.h):
/// healthy→degraded, degraded→{offline,healthy}, offline→recovering,
/// recovering→{healthy,degraded}.  States are the DeviceHealth values
/// 0=healthy 1=degraded 2=offline 3=recovering carried in the
/// kHealthTransition operands.
bool legal_health_edge(std::uint64_t from, std::uint64_t to) {
  switch (from) {
    case 0: return to == 1;
    case 1: return to == 2 || to == 0;
    case 2: return to == 3;
    case 3: return to == 0 || to == 1;
  }
  return false;
}

const char* health_state_name(std::uint64_t s) {
  switch (s) {
    case 0: return "healthy";
    case 1: return "degraded";
    case 2: return "offline";
    case 3: return "recovering";
  }
  return "?";
}

}  // namespace

std::vector<std::string> RunTotals::identity_violations(
    its::Duration slack) const {
  std::vector<std::string> out;
  // The makespan is a SimTime instant; the run's wall length is the same
  // number only because the simulation clock starts at 0 — make the
  // conversion explicit before comparing it with summed Durations.
  const its::Duration wall = its::duration_between(makespan, 0);
  const its::Duration accounted =
      cpu_busy + idle.busy_wait + idle.ctx_switch + idle.no_runnable;
  const its::Duration diff =
      accounted > wall ? accounted - wall : wall - accounted;
  if (diff > slack)
    out.push_back(fmt("accounting leak: cpu_busy + busy_wait + ctx_switch + "
                      "no_runnable = %" PRIu64 " but makespan = %" PRIu64,
                      accounted, wall));
  if (idle.mem_stall > cpu_busy)
    out.push_back(fmt("mem_stall %" PRIu64
                      " exceeds total busy CPU time %" PRIu64,
                      idle.mem_stall, cpu_busy));
  return out;
}

std::string CheckResult::summary() const {
  if (violations.empty()) return "ok";
  std::string s;
  for (const auto& v : violations) {
    if (!s.empty()) s += '\n';
    s += v;
  }
  return s;
}

CheckResult check_invariants(const EventTrace& trace, const RunTotals& m,
                             const CheckConfig& cfg) {
  CheckResult r;
  auto fail = [&](std::string msg) {
    // Cap the report: one broken invariant often floods every later event.
    if (r.violations.size() < 64) r.violations.push_back(std::move(msg));
  };

  if (trace.dropped() != 0) {
    fail(fmt("trace truncated: %" PRIu64 " events dropped by the buffer cap",
             trace.dropped()));
    return r;
  }

  std::unordered_map<its::Pid, its::SimTime> last_ts;
  std::unordered_map<its::Pid, OpenFault> open;
  // Retry/fallback pairing: the recorder emits kIoRetry immediately after
  // its kIoError, and kModeFallback immediately after its kDeadlineAbort.
  bool want_retry = false;
  Event pending_error{};
  bool want_fallback = false;
  Event pending_abort{};
  // Serving lifecycle: each request id walks arrive → admit → done, and a
  // kSloViolation must directly follow the kRequestDone it indicts.
  std::unordered_map<std::uint64_t, ReqState> requests;
  bool prev_was_done = false;
  Event pending_done{};
  // Health-FSM chain state: the device starts healthy at t = 0; every
  // kHealthTransition must continue from the previous state along a legal
  // edge.  Time-in-state is integrated alongside for the reconciliation
  // in section (6).
  std::uint64_t health_state = 0;
  its::SimTime health_ts = 0;
  its::Duration health_time[4] = {0, 0, 0, 0};
  std::uint64_t degraded_faults = 0;
  std::size_t idx = 0;
  for (const Event& e : trace.events()) {
    // (0) the byte on the wire must name a real kind (a corrupted or
    // version-skewed trace otherwise silently falls into the exemption
    // branches below).
    if (static_cast<std::size_t>(e.kind) >= kNumEventKinds) {
      fail(fmt("event %zu: unknown EventKind %u",
               idx, static_cast<unsigned>(e.kind)));
      ++idx;
      continue;
    }

    // (1) per-pid time ordering, in recording order.
    switch (kind_info(e.kind).timeline) {
      case Timeline::kDeviceCompletion:
        if (e.ts < e.b)
          fail(fmt("event %zu: DMA completion at %" PRIu64
                   " precedes its issue at %" PRIu64,
                   idx, e.ts, e.b));
        break;
      case Timeline::kDeviceRetry:
        break;
      case Timeline::kProcess: {
        auto [it, fresh] = last_ts.try_emplace(e.pid, e.ts);
        if (!fresh && e.ts < it->second)
          fail(fmt("event %zu (%s, pid %u): time %" PRIu64
                   " precedes the pid's previous event at %" PRIu64,
                   idx, std::string(kind_name(e.kind)).c_str(), e.pid, e.ts,
                   it->second));
        else
          it->second = e.ts;
        if (e.ts > m.makespan)
          fail(fmt("event %zu (%s, pid %u): time %" PRIu64
                   " is beyond the makespan %" PRIu64,
                   idx, std::string(kind_name(e.kind)).c_str(), e.pid, e.ts,
                   m.makespan));
        break;
      }
    }

    // (1b) every retry follows its error: kIoRetry must directly follow a
    // kIoError with the same tag and attempt, reposted exactly `backoff`
    // after detection.  Same-shape pairing for abort → fallback.
    if (want_retry) {
      want_retry = false;
      if (e.kind != EventKind::kIoRetry)
        fail(fmt("event %zu: io_error on tag %#" PRIx64
                 " (attempt %" PRIu64 ") not followed by its io_retry",
                 idx, pending_error.a, pending_error.b));
      else if (e.a != pending_error.a || e.b != pending_error.b ||
               e.ts != pending_error.ts + e.c)
        fail(fmt("event %zu: io_retry (tag %#" PRIx64 ", attempt %" PRIu64
                 ", ts %" PRIu64 ") does not match its io_error (tag %#"
                 PRIx64 ", attempt %" PRIu64 ", ts %" PRIu64 " + backoff %"
                 PRIu64 ")",
                 idx, e.a, e.b, e.ts, pending_error.a, pending_error.b,
                 pending_error.ts, e.c));
    } else if (e.kind == EventKind::kIoRetry) {
      fail(fmt("event %zu: io_retry on tag %#" PRIx64
               " without a preceding io_error",
               idx, e.a));
    }
    if (e.kind == EventKind::kIoError) {
      want_retry = true;
      pending_error = e;
    }

    if (want_fallback) {
      want_fallback = false;
      if (e.kind != EventKind::kModeFallback)
        fail(fmt("event %zu: deadline_abort (pid %u, vpn %#" PRIx64
                 ") not followed by its mode_fallback",
                 idx, pending_abort.pid, pending_abort.a));
      else if (e.pid != pending_abort.pid || e.a != pending_abort.a ||
               e.ts != pending_abort.ts)
        fail(fmt("event %zu: mode_fallback (pid %u, vpn %#" PRIx64
                 ", ts %" PRIu64 ") does not match its deadline_abort "
                 "(pid %u, vpn %#" PRIx64 ", ts %" PRIu64 ")",
                 idx, e.pid, e.a, e.ts, pending_abort.pid, pending_abort.a,
                 pending_abort.ts));
    } else if (e.kind == EventKind::kModeFallback) {
      fail(fmt("event %zu: mode_fallback on vpn %#" PRIx64
               " without a preceding deadline_abort",
               idx, e.a));
    }
    if (e.kind == EventKind::kDeadlineAbort) {
      want_fallback = true;
      pending_abort = e;
      if (e.c > e.b)
        fail(fmt("event %zu: deadline abort on vpn %#" PRIx64 " stole %"
                 PRIu64 " ns from a %" PRIu64 " ns window",
                 idx, e.a, e.c, e.b));
    }

    // (1c) serving lifecycle.  Request ids walk arrive → admit → done in
    // order; the Done operand `b` must reconcile the event timestamps
    // exactly (latency = done.ts − arrive.ts); an over-SLO retirement is
    // indicted by a kSloViolation that directly follows its kRequestDone
    // with the same id and latency.
    switch (e.kind) {
      case EventKind::kRequestArrive: {
        ReqState& q = requests[e.a];
        if (q.arrived)
          fail(fmt("event %zu: request %" PRIu64 " arrived twice", idx, e.a));
        q.arrived = true;
        q.arrive_ts = e.ts;
        q.tier = e.b;
        break;
      }
      case EventKind::kRequestAdmit: {
        ReqState& q = requests[e.a];
        if (!q.arrived)
          fail(fmt("event %zu: request %" PRIu64 " admitted before arriving",
                   idx, e.a));
        else if (q.admitted)
          fail(fmt("event %zu: request %" PRIu64 " admitted twice", idx, e.a));
        else if (e.b != q.tier)
          fail(fmt("event %zu: request %" PRIu64 " admitted into tier %" PRIu64
                   " but arrived in tier %" PRIu64,
                   idx, e.a, e.b, q.tier));
        else if (e.ts < q.arrive_ts)
          fail(fmt("event %zu: request %" PRIu64 " admitted at %" PRIu64
                   " before its arrival at %" PRIu64,
                   idx, e.a, e.ts, q.arrive_ts));
        q.admitted = true;
        break;
      }
      case EventKind::kRequestDone: {
        ReqState& q = requests[e.a];
        if (!q.admitted)
          fail(fmt("event %zu: request %" PRIu64 " retired without admission",
                   idx, e.a));
        else if (q.done)
          fail(fmt("event %zu: request %" PRIu64 " retired twice", idx, e.a));
        else if (e.c != q.tier)
          fail(fmt("event %zu: request %" PRIu64 " retired in tier %" PRIu64
                   " but arrived in tier %" PRIu64,
                   idx, e.a, e.c, q.tier));
        else if (e.ts < q.arrive_ts || e.b != e.ts - q.arrive_ts)
          fail(fmt("event %zu: request %" PRIu64 " latency %" PRIu64
                   " does not reconcile done %" PRIu64 " - arrive %" PRIu64,
                   idx, e.a, e.b, e.ts, q.arrive_ts));
        q.done = true;
        break;
      }
      case EventKind::kSloViolation:
        if (!prev_was_done || e.a != pending_done.a || e.b != pending_done.b)
          fail(fmt("event %zu: slo_violation for request %" PRIu64
                   " does not follow its request_done",
                   idx, e.a));
        else if (e.b <= e.c)
          fail(fmt("event %zu: slo_violation on request %" PRIu64
                   " with latency %" PRIu64 " within the %" PRIu64 " ns SLO",
                   idx, e.a, e.b, e.c));
        break;
      default:
        break;
    }
    prev_was_done = e.kind == EventKind::kRequestDone;
    if (prev_was_done) pending_done = e;

    // (2) fault window matching.
    switch (e.kind) {
      case EventKind::kFaultBegin: {
        OpenFault& f = open[e.pid];
        if (f.open)
          fail(fmt("event %zu: pid %u opens a fault on vpn %#" PRIx64
                   " while vpn %#" PRIx64 " is still open",
                   idx, e.pid, e.a, f.vpn));
        f = {true, e.a, e.ts};
        if (e.b != 0) ++degraded_faults;  // b = device health at entry
        break;
      }
      case EventKind::kHealthTransition: {
        if (e.a != health_state)
          fail(fmt("event %zu: health transition starts from %s but the "
                   "device was %s",
                   idx, health_state_name(e.a),
                   health_state_name(health_state)));
        if (e.a == e.b)
          fail(fmt("event %zu: health self-transition in state %s",
                   idx, health_state_name(e.a)));
        else if (!legal_health_edge(e.a, e.b))
          fail(fmt("event %zu: illegal health edge %s -> %s",
                   idx, health_state_name(e.a), health_state_name(e.b)));
        if (e.ts >= health_ts && health_state < 4)
          health_time[health_state] += e.ts - health_ts;
        health_state = e.b < 4 ? e.b : health_state;
        health_ts = e.ts;
        break;
      }
      case EventKind::kFaultEnd: {
        OpenFault& f = open[e.pid];
        if (!f.open)
          fail(fmt("event %zu: pid %u ends a fault on vpn %#" PRIx64
                   " that never began",
                   idx, e.pid, e.a));
        else if (f.vpn != e.a)
          fail(fmt("event %zu: pid %u ends fault vpn %#" PRIx64
                   " but vpn %#" PRIx64 " is the open one",
                   idx, e.pid, e.a, f.vpn));
        f.open = false;
        // (3) stolen ⊆ wait window.
        if (e.c > e.b)
          fail(fmt("event %zu: fault on vpn %#" PRIx64 " stole %" PRIu64
                   " ns from a %" PRIu64 " ns busy-wait window",
                   idx, e.a, e.c, e.b));
        break;
      }
      case EventKind::kFileWait:
        if (e.c > e.b)
          fail(fmt("event %zu: file wait on key %#" PRIx64 " stole %" PRIu64
                   " ns from a %" PRIu64 " ns window",
                   idx, e.a, e.c, e.b));
        break;
      default:
        break;
    }
    ++idx;
  }
  if (want_retry)
    fail(fmt("trace ends with an io_error on tag %#" PRIx64
             " (attempt %" PRIu64 ") that was never retried",
             pending_error.a, pending_error.b));
  if (want_fallback)
    fail(fmt("trace ends with a deadline_abort (pid %u, vpn %#" PRIx64
             ") that never fell back",
             pending_abort.pid, pending_abort.a));
  // Report still-open faults in pid order: `open` is hashed, and the
  // violation list must not depend on the standard library's bucket layout.
  std::vector<its::Pid> open_pids;
  open_pids.reserve(open.size());
  // its-lint: allow(det-unordered-iter): key collection for the sort below
  for (const auto& kv : open)
    if (kv.second.open) open_pids.push_back(kv.first);
  std::sort(open_pids.begin(), open_pids.end());
  for (its::Pid pid : open_pids) {
    const OpenFault& f = open[pid];
    fail(fmt("pid %u: fault on vpn %#" PRIx64 " opened at %" PRIu64
             " never ended",
             pid, f.vpn, f.begin));
  }
  // Every admitted request must retire before the trace ends; an arrival
  // that never admits is a reject, so arrivals = admits + rejects holds by
  // construction once this check passes.  Sorted for deterministic output.
  std::vector<std::uint64_t> dangling;
  // its-lint: allow(det-unordered-iter): key collection for the sort below
  for (const auto& kv : requests)
    if (kv.second.admitted && !kv.second.done) dangling.push_back(kv.first);
  std::sort(dangling.begin(), dangling.end());
  for (std::uint64_t id : dangling)
    fail(fmt("request %" PRIu64 " was admitted but never retired", id));

  // (4) idle breakdown + utilized CPU time reconcile with the makespan.
  for (std::string& v : m.identity_violations(cfg.granularity))
    fail(std::move(v));

  // (5) event-derived totals == SimMetrics counters.
  auto expect_count = [&](EventKind k, std::uint64_t want, const char* field) {
    std::uint64_t got = trace.count(k);
    if (got != want)
      fail(fmt("%s: %" PRIu64 " %s events vs metrics %" PRIu64, field, got,
               std::string(kind_name(k)).c_str(), want));
  };
  expect_count(EventKind::kFaultBegin, m.major_faults, "major_faults");
  expect_count(EventKind::kFaultEnd, m.major_faults, "major_faults");
  expect_count(EventKind::kPrefetchIssue, m.prefetch_issued, "prefetch_issued");
  expect_count(EventKind::kPrefetchHit, m.prefetch_useful, "prefetch_useful");
  expect_count(EventKind::kPreexecBegin, m.preexec_episodes, "preexec_episodes");
  expect_count(EventKind::kPreexecEnd, m.preexec_episodes, "preexec_episodes");
  expect_count(EventKind::kAsyncConvert, m.async_switches, "async_switches");
  expect_count(EventKind::kEvict, m.evictions, "evictions");
  expect_count(EventKind::kIoError, m.io_errors, "io_errors");
  expect_count(EventKind::kIoRetry, m.io_retries, "io_retries");
  expect_count(EventKind::kDeadlineAbort, m.deadline_aborts, "deadline_aborts");
  expect_count(EventKind::kModeFallback, m.mode_fallbacks, "mode_fallbacks");

  const std::uint64_t degraded = trace.sum_b(EventKind::kModeFallback);
  if (degraded != m.degraded_time)
    fail(fmt("degraded windows from events %" PRIu64 " != degraded_time %" PRIu64,
             degraded, m.degraded_time));

  const std::uint64_t ctx = trace.sum_b(EventKind::kCtxSwitch);
  if (ctx != m.idle.ctx_switch)
    fail(fmt("ctx-switch cost from events %" PRIu64 " != idle.ctx_switch %" PRIu64,
             ctx, m.idle.ctx_switch));

  // An aborted sync wait busy-waits only its window (carried by the
  // kDeadlineAbort operands — the later kFaultEnd closes with b = c = 0).
  const std::uint64_t waits = trace.sum_b(EventKind::kFaultEnd) +
                              trace.sum_b(EventKind::kFileWait) +
                              trace.sum_b(EventKind::kDeadlineAbort);
  if (waits != m.idle.busy_wait)
    fail(fmt("wait windows from events %" PRIu64 " != idle.busy_wait %" PRIu64,
             waits, m.idle.busy_wait));

  const std::uint64_t stolen = trace.sum_c(EventKind::kFaultEnd) +
                               trace.sum_c(EventKind::kFileWait) +
                               trace.sum_c(EventKind::kPreexecEnd) +
                               trace.sum_c(EventKind::kDeadlineAbort);
  if (stolen != m.stolen_time)
    fail(fmt("stolen credits from events %" PRIu64 " != stolen_time %" PRIu64,
             stolen, m.stolen_time));

  // (6) device-outage availability: the four time-in-state counters
  // integrate the kHealthTransition timeline exactly and partition the
  // makespan, and each fallback-pool counter equals its event count.  A
  // run without the outage model (no transitions, all four counters zero)
  // skips the partition check — nothing to reconcile.
  const bool outage_active =
      trace.count(EventKind::kHealthTransition) != 0 ||
      m.health_healthy_time != 0 || m.health_degraded_time != 0 ||
      m.health_offline_time != 0 || m.health_recovering_time != 0;
  if (outage_active) {
    if (m.makespan >= health_ts && health_state < 4)
      health_time[health_state] += m.makespan - health_ts;  // final segment
    const struct {
      const char* name;
      its::Duration want;
      its::Duration got;
    } states[4] = {
        {"health_healthy_time", m.health_healthy_time, health_time[0]},
        {"health_degraded_time", m.health_degraded_time, health_time[1]},
        {"health_offline_time", m.health_offline_time, health_time[2]},
        {"health_recovering_time", m.health_recovering_time, health_time[3]},
    };
    for (const auto& s : states)
      if (s.got != s.want)
        fail(fmt("%s from events %" PRIu64 " != metrics %" PRIu64,
                 s.name, s.got, s.want));
    const its::Duration in_state =
        m.health_healthy_time + m.health_degraded_time +
        m.health_offline_time + m.health_recovering_time;
    const its::Duration span = its::duration_between(m.makespan, 0);
    if (in_state != span)
      fail(fmt("health time-in-state total %" PRIu64
               " does not partition the makespan %" PRIu64,
               in_state, span));
  }
  expect_count(EventKind::kPoolStore, m.pool_stores, "pool_stores");
  expect_count(EventKind::kPoolLoad, m.pool_hits, "pool_hits");
  expect_count(EventKind::kPoolDrain, m.pool_drains, "pool_drains");
  const std::uint64_t drained = trace.sum_b(EventKind::kPoolDrain);
  if (drained != m.drain_bytes)
    fail(fmt("drained bytes from events %" PRIu64 " != drain_bytes %" PRIu64,
             drained, m.drain_bytes));
  if (degraded_faults != m.faults_served_degraded)
    fail(fmt("degraded-entry faults from events %" PRIu64
             " != faults_served_degraded %" PRIu64,
             degraded_faults, m.faults_served_degraded));

  return r;
}

}  // namespace its::obs
