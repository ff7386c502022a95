// its_cli — command-line driver for the simulator.
//
//   its_cli --list
//   its_cli --batch=1 --policy=ITS
//   its_cli --batch=3 --policy=all --scheduler=cfs --csv=/tmp/out
//   its_cli --batch=0 --policy=Sync --media-us=10 --ctx-us=7 --seed=7
//
// Flags: --batch=<0..3>  --policy=<Async|Sync|Sync_Runahead|Sync_Prefetch|
// ITS|all>  --scheduler=<rr|cfs>  --seed=<n>  --degree=<n>  --media-us=<n>
// --ctx-us=<n>  --length-scale=<f>  --csv=<dir>  --fault-profile=<name>
// --fault-seed=<n>  --fault-outage=<k=v,...>  --jobs=<n>  --list
//
// The open-loop serving scenario (docs/serving.md) rides the same binary:
//   its_cli --scenario=serve --policy=ITS --arrival-rate=40000
//           --duration-ms=40 --overcommit=2 --slo-p99=8000000
// with --arrival-model=poisson|mmpp  --admit-limit=<n>  --max-requests=<n>
// --burst-mult=<f>  --burst-fraction=<f> shaping the stream.
//
// Exit codes: 0 success, 1 invariant violation, 2 usage error (unknown
// flag / bad value), 3 unreadable or corrupt input file, 4 invalid fault
// profile or outage spec, 5 unrecoverable outage (the device died and a
// page was lost past the fallback pool — docs/robustness.md), 6 SLO gate
// failed (--slo-p99 given and a run's aggregate p99 exceeded it).
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/simulator.h"
#include "fault/fault_injector.h"
#include "vm/fallback_pool.h"
#include "obs/invariant_checker.h"
#include "obs/trace_json.h"
#include "trace/lackey.h"
#include "trace/trace_io.h"
#include "core/report.h"
#include "serve/arrival.h"
#include "serve/report.h"
#include "serve/scenario.h"
#include "serve/sweep.h"
#include "util/args.h"
#include "util/quantile.h"
#include "util/table.h"
#include "util/types.h"

namespace {

using namespace its;

// Distinct exit codes so scripts can tell misuse from bad data.
constexpr int kUsageError = 2;
constexpr int kInputError = 3;
constexpr int kBadFaultProfile = 4;
constexpr int kUnrecoverableOutage = 5;
constexpr int kSloGateFailed = 6;

int list_everything() {
  std::cout << "batches:\n";
  for (std::size_t i = 0; i < core::paper_batches().size(); ++i) {
    const auto& b = core::paper_batches()[i];
    std::cout << "  " << i << ": " << b.name << " (";
    for (auto id : b.members) std::cout << ' ' << trace::spec_for(id).name;
    std::cout << " )\n";
  }
  std::cout << "policies:";
  for (auto k : core::kAllPolicies) std::cout << ' ' << core::policy_name(k);
  std::cout << " all\nschedulers: rr cfs\n";
  return 0;
}

void print_one(const std::string& policy, const core::SimMetrics& m) {
  util::Table t({"metric", "value"});
  auto ms = [](its::Duration d) {
    return util::Table::fmt(static_cast<double>(d) / 1e6, 2) + " ms";
  };
  t.add_row({"policy", policy});
  t.add_row({"cpu busy", ms(m.cpu_busy)});
  t.add_row({"total CPU idle", ms(m.idle.total())});
  t.add_row({"  mem stall", ms(m.idle.mem_stall)});
  t.add_row({"  busy wait", ms(m.idle.busy_wait)});
  t.add_row({"  ctx switch", ms(m.idle.ctx_switch)});
  t.add_row({"  no runnable", ms(m.idle.no_runnable)});
  t.add_row({"major faults", util::Table::fmt(m.major_faults)});
  t.add_row({"minor faults", util::Table::fmt(m.minor_faults)});
  t.add_row({"LLC misses", util::Table::fmt(m.llc_misses)});
  t.add_row({"prefetch issued/useful", util::Table::fmt(m.prefetch_issued) + " / " +
                                           util::Table::fmt(m.prefetch_useful)});
  t.add_row({"pre-exec episodes", util::Table::fmt(m.preexec_episodes)});
  t.add_row({"async give-ways", util::Table::fmt(m.async_switches)});
  t.add_row({"stolen time", ms(m.stolen_time)});
  if (m.io_errors != 0 || m.io_retries != 0 || m.deadline_aborts != 0 ||
      m.mode_fallbacks != 0 || m.retry_exhausted != 0) {
    t.add_row({"I/O errors/retries", util::Table::fmt(m.io_errors) + " / " +
                                         util::Table::fmt(m.io_retries)});
    t.add_row({"retry budget exhausted", util::Table::fmt(m.retry_exhausted)});
    t.add_row({"deadline aborts", util::Table::fmt(m.deadline_aborts)});
    t.add_row({"mode fallbacks", util::Table::fmt(m.mode_fallbacks)});
    t.add_row({"degraded time", ms(m.degraded_time)});
  }
  if (m.health_degraded_time != 0 || m.health_offline_time != 0 ||
      m.health_recovering_time != 0) {
    t.add_row({"device degraded", ms(m.health_degraded_time)});
    t.add_row({"device offline", ms(m.health_offline_time)});
    t.add_row({"device recovering", ms(m.health_recovering_time)});
    t.add_row({"pool stores/hits/drains",
               util::Table::fmt(m.pool_stores) + " / " +
                   util::Table::fmt(m.pool_hits) + " / " +
                   util::Table::fmt(m.pool_drains)});
    t.add_row({"faults served degraded",
               util::Table::fmt(m.faults_served_degraded)});
  }
  t.add_row({"makespan", ms(m.makespan)});
  t.add_row({"top-50% finish", ms(static_cast<its::Duration>(m.avg_finish_top_half()))});
  t.add_row({"bottom-50% finish",
             ms(static_cast<its::Duration>(m.avg_finish_bottom_half()))});
  t.print(std::cout);
  std::cout << '\n';
}

/// Writes the event timeline as Chrome trace JSON and cross-checks it
/// against the final metrics.  Returns 0, or 1 if an invariant failed.
int emit_trace(const std::string& path, const obs::EventTrace& et,
               const core::SimMetrics& m, const std::string& policy,
               std::vector<std::string> names) {
  obs::ExportOptions opts;
  opts.policy = policy;
  opts.process_names = std::move(names);
  obs::save_chrome_trace(path, et, opts);
  obs::CheckResult res = obs::check_invariants(et, m);
  std::cout << "wrote " << path << " (" << et.size()
            << " events); invariants: " << res.summary() << '\n';
  return res.ok() ? 0 : 1;
}

}  // namespace

namespace {
int run_cli(int argc, char** argv);
}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const its::vm::PageLostError& e) {
    std::cerr << "its_cli: unrecoverable outage: " << e.what() << '\n';
    return kUnrecoverableOutage;
  } catch (const its::trace::TraceIoError& e) {
    std::cerr << "its_cli: cannot load input: " << e.what() << '\n';
    return kInputError;
  } catch (const std::exception& e) {
    std::cerr << "its_cli: " << e.what() << '\n';
    return kUsageError;
  }
}

namespace {

/// Parses --fault-outage's comma-separated key=value list into the
/// profile's outage model (fault::OutageModelConfig) and force-enables the
/// injector — a scheduled outage is itself an injection, so the flag works
/// standalone as well as stacked on a named profile.  Returns 0 or
/// kBadFaultProfile with the message printed.
int apply_outage_spec(const std::string& spec, fault::FaultProfile& fp) {
  fault::OutageModelConfig& o = fp.outage;
  for (std::size_t pos = 0; pos <= spec.size();) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    const std::string key = item.substr(0, eq);
    std::uint64_t val = 0;
    try {
      if (eq == std::string::npos) throw std::invalid_argument("missing '='");
      val = std::stoull(item.substr(eq + 1));
    } catch (const std::exception&) {
      std::cerr << "invalid --fault-outage item '" << item
                << "' (want key=nanoseconds)\n";
      return kBadFaultProfile;
    }
    if (key == "period") o.period = val;
    else if (key == "length") o.length = val;
    else if (key == "recovery") o.recovery = val;
    else if (key == "phase") o.phase = val;
    else if (key == "dead-at") o.dead_at = val;
    else if (key == "degrade-errors") o.degrade_errors = static_cast<unsigned>(val);
    else if (key == "offline-timeouts") o.offline_timeouts = static_cast<unsigned>(val);
    else if (key == "error-outage") o.error_outage = val;
    else if (key == "degraded-hold") o.degraded_hold = val;
    else {
      std::cerr << "unknown --fault-outage key '" << key
                << "'; choose from: period length recovery phase dead-at "
                   "degrade-errors offline-timeouts error-outage "
                   "degraded-hold\n";
      return kBadFaultProfile;
    }
  }
  if (!o.enabled()) {
    std::cerr << "--fault-outage spec enables nothing (need period+length, "
                 "dead-at, degrade-errors or offline-timeouts)\n";
    return kBadFaultProfile;
  }
  fp.enabled = true;
  return 0;
}

/// Resolves --fault-profile / --fault-seed / --fault-outage into `fp`.
/// Returns 0 or the exit code to fail with (kBadFaultProfile, message
/// already printed).
int apply_fault_flags(const util::Args& args, fault::FaultProfile& fp) {
  if (auto name = args.get("fault-profile")) {
    auto preset = fault::profile_by_name(*name);
    if (!preset) {
      std::cerr << "invalid --fault-profile '" << *name << "'; choose from:";
      for (auto n : fault::profile_names()) std::cerr << ' ' << n;
      std::cerr << '\n';
      return kBadFaultProfile;
    }
    fp = *preset;
  }
  if (args.has("fault-seed")) fp.seed = args.get_u64("fault-seed", fp.seed);
  if (auto spec = args.get("fault-outage")) {
    if (int rc = apply_outage_spec(*spec, fp); rc != 0) return rc;
  }
  return 0;
}

void print_serve_point(const serve::ServePoint& pt) {
  std::cout << "policy " << core::policy_name(pt.policy) << ", overcommit "
            << pt.overcommit << ":\n";
  util::Table t({"tier", "slo ms", "arrive", "admit", "reject", "done",
                 "viol", "p50 ms", "p99 ms", "p999 ms"});
  auto ms = [](its::Duration d) {
    return util::Table::fmt(static_cast<double>(d) / 1e6, 2);
  };
  auto row = [&](const std::string& name, its::Duration slo,
                 std::uint64_t arrive, std::uint64_t admit,
                 std::uint64_t reject, std::uint64_t done, std::uint64_t viol,
                 const util::QuantileDigest& lat) {
    t.add_row({name, slo == 0 ? "-" : ms(slo), util::Table::fmt(arrive),
               util::Table::fmt(admit), util::Table::fmt(reject),
               util::Table::fmt(done), util::Table::fmt(viol),
               ms(lat.quantile(0.50)), ms(lat.quantile(0.99)),
               ms(lat.quantile(0.999))});
  };
  const serve::ServeMetrics& m = pt.metrics;
  for (const serve::TierMetrics& tm : m.tiers)
    row(tm.name, tm.slo_ns, tm.arrivals, tm.admits, tm.rejects, tm.completed,
        tm.slo_violations, tm.latency);
  row("all", 0, m.arrivals, m.admits, m.rejects, m.completed,
      m.slo_violations, m.latency);
  t.print(std::cout);
  std::cout << "  " << util::Table::fmt(m.requests_per_sec(), 0)
            << " req/s sustained over "
            << util::Table::fmt(static_cast<double>(m.sim.makespan) / 1e6, 2)
            << " ms\n\n";
}

/// `--name`, given in units of `scale` (1_ms, 1_MiB, ...), in base units.
/// A value whose product overflows 64 bits is a usage error (exit 2), not a
/// silent wrap.
std::uint64_t get_scaled(const util::Args& args, std::string_view name,
                         std::uint64_t def, std::uint64_t scale) {
  const std::uint64_t v = args.get_u64(name, def);
  if (mul_overflows(v, scale))
    throw std::invalid_argument("--" + std::string(name) +
                                ": out of range: " + std::to_string(v));
  return v * scale;
}

/// --scenario=serve: the open-loop serving scenario (docs/serving.md).
/// Reuses --policy/--seed/--jobs/--csv/--trace-out and the fault flags;
/// the serve-only knobs shape the arrival stream and the frame pool.
int run_serve_cli(const util::Args& args) {
  serve::ServeConfig cfg;
  cfg.arrivals.seed = args.get_u64("seed", cfg.arrivals.seed);
  cfg.sim.seed = cfg.arrivals.seed;
  cfg.arrivals.rate_rps =
      args.get_double("arrival-rate", cfg.arrivals.rate_rps);
  cfg.arrivals.burst_rate_mult =
      args.get_double("burst-mult", cfg.arrivals.burst_rate_mult);
  cfg.arrivals.burst_fraction =
      args.get_double("burst-fraction", cfg.arrivals.burst_fraction);
  if (auto name = args.get("arrival-model")) {
    auto m = serve::find_arrival_model(*name);
    if (!m) {
      std::cerr << "--arrival-model must be poisson or mmpp\n";
      return kUsageError;
    }
    cfg.arrivals.model = *m;
  }
  cfg.duration = get_scaled(args, "duration-ms", cfg.duration / 1_ms, 1_ms);
  cfg.max_requests = args.get_u64("max-requests", cfg.max_requests);
  cfg.admit_limit = args.get_unsigned("admit-limit", cfg.admit_limit);
  cfg.overcommit = args.get_double("overcommit", cfg.overcommit);
  if (int rc = apply_fault_flags(args, cfg.sim.fault); rc != 0) return rc;

  const std::string policy = args.get_string("policy", "all");
  std::vector<core::PolicyKind> policies;
  for (auto k : core::kAllPolicies)
    if (policy == "all" || core::policy_name(k) == policy)
      policies.push_back(k);
  if (policies.empty()) {
    std::cerr << "unknown --policy " << policy << " (see --list)\n";
    return kUsageError;
  }
  if (args.has("trace-out") && policies.size() > 1) {
    std::cerr << "--trace-out needs a single --policy, not 'all'\n";
    return kUsageError;
  }

  std::cout << "serve: " << serve::arrival_model_name(cfg.arrivals.model)
            << " arrivals at " << cfg.arrivals.rate_rps << " req/s for "
            << static_cast<double>(cfg.duration) / 1e6
            << " ms, admit limit " << cfg.admit_limit << ", overcommit "
            << cfg.overcommit << ", seed " << cfg.arrivals.seed << "\n\n";

  int rc = 0;
  std::vector<serve::ServePoint> points;
  if (args.has("trace-out")) {
    obs::EventTrace etrace;
    serve::ServePoint pt;
    pt.policy = policies[0];
    pt.overcommit = cfg.overcommit;
    pt.metrics = serve::run_serve(cfg, policies[0], &etrace);
    rc = emit_trace(*args.get("trace-out"), etrace, pt.metrics.sim,
                    std::string(core::policy_name(policies[0])), {});
    points.push_back(std::move(pt));
  } else {
    const double overcommits[] = {cfg.overcommit};
    points = serve::run_serve_sweep(cfg, overcommits, policies,
                                    args.get_unsigned("jobs", 0));
  }
  for (const serve::ServePoint& pt : points) print_serve_point(pt);

  if (auto dir = args.get("csv")) {
    serve::save_serve_csv(*dir + "/its_serve.csv", points);
    std::cout << "wrote " << *dir << "/its_serve.csv\n";
  }
  if (args.has("slo-p99")) {
    const its::Duration gate = args.get_u64("slo-p99", 0);
    for (const serve::ServePoint& pt : points) {
      const its::Duration p99 = pt.metrics.latency.quantile(0.99);
      if (p99 > gate) {
        std::cerr << "SLO gate failed: policy "
                  << core::policy_name(pt.policy) << " aggregate p99 " << p99
                  << " ns > gate " << gate << " ns\n";
        return kSloGateFailed;
      }
    }
    std::cout << "SLO gate passed: every aggregate p99 <= " << gate
              << " ns\n";
  }
  return rc;
}

int run_cli(int argc, char** argv) {
  using namespace its;
  util::Args args(argc, argv);

  for (const auto& u : args.unknown({"batch", "policy", "scheduler", "seed", "degree",
                                     "media-us", "ctx-us", "length-scale", "csv",
                                     "trace", "trace-out", "dram-mb",
                                     "fault-profile", "fault-seed",
                                     "fault-outage", "jobs",
                                     "scenario", "arrival-rate",
                                     "arrival-model", "duration-ms",
                                     "admit-limit", "overcommit",
                                     "max-requests", "burst-mult",
                                     "burst-fraction", "slo-p99",
                                     "list", "help"})) {
    std::cerr << "unknown flag --" << u << " (try --help)\n";
    return kUsageError;
  }
  if (args.has("help")) {
    std::cout << "usage: its_cli [--list] [--batch=N] [--policy=NAME|all] "
                 "[--scheduler=rr|cfs]\n               [--seed=N] [--degree=N] "
                 "[--media-us=N] [--ctx-us=N]\n               "
                 "[--length-scale=F] [--csv=DIR] [--jobs=N]\n               "
                 "[--fault-profile=none|tail|bursty|errors|outage|hostile] "
                 "[--fault-seed=N]\n               "
                 "[--fault-outage=KEY=N,...] "
                 "[--trace-out=FILE.json]\n       its_cli "
                 "--trace=FILE.trc|FILE.lk --policy=NAME [--dram-mb=N]\n"
                 "  (.trc = binary trace, anything else parses as Valgrind "
                 "lackey output)\n"
                 "  --fault-profile enables deterministic fault injection "
                 "(see\n  docs/robustness.md); --fault-seed reseeds the "
                 "injector stream.\n"
                 "  --fault-outage schedules device outages (keys: period "
                 "length recovery\n  phase dead-at degrade-errors "
                 "offline-timeouts error-outage degraded-hold,\n  values in "
                 "ns), stacking on any --fault-profile.\n"
                 "       its_cli --scenario=serve [--policy=NAME|all] "
                 "[--arrival-rate=RPS]\n               "
                 "[--arrival-model=poisson|mmpp] [--duration-ms=N] "
                 "[--admit-limit=N]\n               [--overcommit=F] "
                 "[--max-requests=N] [--burst-mult=F]\n               "
                 "[--burst-fraction=F] [--slo-p99=NS]\n"
                 "  --scenario=serve runs the open-loop multi-tenant serving "
                 "scenario\n  (docs/serving.md): seeded arrivals spawn "
                 "short-lived processes into a\n  frame pool sized "
                 "1/overcommit of the admitted working set, and every\n  "
                 "retirement is scored against its tier's latency SLO.\n"
                 "  --slo-p99=NS gates the run: exit 6 if any run's "
                 "aggregate p99 exceeds\n  NS nanoseconds — the serving "
                 "analogue of a failing test.\n"
                 "  exit codes: 0 ok, 1 invariant violation, 2 usage, 3 bad "
                 "input file,\n  4 bad fault profile/outage spec, 5 "
                 "unrecoverable outage (page lost\n  past the fallback "
                 "pool), 6 SLO gate failed (--slo-p99 exceeded).\n"
                 "  --trace-out writes a Chrome trace_event JSON timeline "
                 "(load in\n  chrome://tracing or ui.perfetto.dev) and runs "
                 "the invariant checker;\n  needs a single --policy, not "
                 "'all'.\n"
                 "  --jobs sets the run-farm width for --policy=all (0 = "
                 "hardware\n  concurrency or ITS_JOBS; 1 = serial reference; "
                 "results are\n  bit-identical at every width).\n";
    return 0;
  }
  if (args.has("list")) return list_everything();

  const std::string scenario = args.get_string("scenario", "batch");
  if (scenario == "serve") return run_serve_cli(args);
  if (scenario != "batch") {
    std::cerr << "--scenario must be batch or serve\n";
    return kUsageError;
  }

  if (auto path = args.get("trace")) {
    // Single-trace mode: simulate a captured trace file under one policy.
    trace::Trace t{""};
    try {
      t = path->ends_with(".trc") ? trace::load_trace_file(*path)
                                  : trace::load_lackey_file(*path);
    } catch (const trace::TraceIoError&) {
      throw;  // main() maps this to kInputError with the typed message.
    } catch (const std::exception& e) {
      std::cerr << "its_cli: cannot load input '" << *path << "': " << e.what()
                << '\n';
      return kInputError;
    }
    std::cout << "loaded '" << t.name() << "': " << t.size() << " records, "
              << t.stats().footprint_pages << " pages touched\n\n";
    core::SimConfig cfg;
    cfg.seed = args.get_u64("seed", cfg.seed);
    cfg.dram_bytes = get_scaled(args, "dram-mb", 64, 1_MiB);
    if (int rc = apply_fault_flags(args, cfg.fault); rc != 0) return rc;
    std::string pol = args.get_string("policy", "Sync");
    for (auto k : core::kAllPolicies) {
      if (core::policy_name(k) != pol) continue;
      core::Simulator sim(cfg, k);
      obs::EventTrace etrace;
      if (args.has("trace-out")) sim.set_trace(&etrace);
      std::string name = t.name();
      sim.add_process(std::make_unique<sched::Process>(
          0, t.name(), 30, std::make_shared<const trace::Trace>(std::move(t))));
      core::SimMetrics m = sim.run();
      print_one(pol, m);
      if (auto out = args.get("trace-out"))
        return emit_trace(*out, etrace, m, pol, {name});
      return 0;
    }
    std::cerr << "unknown --policy " << pol << " (see --list)\n";
    return kUsageError;
  }

  auto batch_idx = args.get_u64("batch", 1);
  if (batch_idx >= core::paper_batches().size()) {
    std::cerr << "--batch out of range\n";
    return kUsageError;
  }
  const core::BatchSpec& batch = core::paper_batches()[batch_idx];

  core::ExperimentConfig cfg;
  cfg.sim.seed = args.get_u64("seed", cfg.sim.seed);
  cfg.sim.va_prefetch.degree =
      args.get_unsigned("degree", cfg.sim.va_prefetch.degree);
  cfg.sim.ull.read_latency = get_scaled(args, "media-us", 3, 1_us);
  cfg.sim.ull.write_latency = cfg.sim.ull.read_latency;
  cfg.sim.ctx_switch_cost = get_scaled(args, "ctx-us", 7, 1_us);
  cfg.gen.length_scale = args.get_double("length-scale", 1.0);
  cfg.jobs = args.get_unsigned("jobs", 0);
  if (int rc = apply_fault_flags(args, cfg.sim.fault); rc != 0) return rc;
  std::string sched = args.get_string("scheduler", "rr");
  if (sched == "cfs") {
    cfg.sim.scheduler = core::SchedulerKind::kCfs;
  } else if (sched != "rr") {
    std::cerr << "--scheduler must be rr or cfs\n";
    return kUsageError;
  }

  std::string policy = args.get_string("policy", "all");
  if (args.has("trace-out") && policy == "all") {
    std::cerr << "--trace-out needs a single --policy, not 'all'\n";
    return kUsageError;
  }
  std::cout << "batch " << batch.name << ", scheduler " << sched << ", seed "
            << cfg.sim.seed << "\n\n";

  int rc = 0;
  std::vector<core::BatchResult> grid;
  if (policy == "all") {
    grid.push_back(core::run_batch_all(batch, cfg));
    for (auto k : core::kAllPolicies)
      print_one(std::string(core::policy_name(k)), grid[0].by_policy.at(k));
  } else {
    bool found = false;
    core::BatchResult r;
    r.spec = &batch;
    for (auto k : core::kAllPolicies) {
      if (core::policy_name(k) == policy) {
        obs::EventTrace etrace;
        obs::EventTrace* et = args.has("trace-out") ? &etrace : nullptr;
        r.by_policy.emplace(
            k, core::run_batch_policy(batch, k, cfg,
                                      core::batch_traces(batch, cfg.gen), et));
        print_one(policy, r.by_policy.at(k));
        if (auto out = args.get("trace-out")) {
          std::vector<std::string> names;
          for (auto id : batch.members)
            names.emplace_back(trace::spec_for(id).name);
          rc = emit_trace(*out, etrace, r.by_policy.at(k), policy,
                          std::move(names));
        }
        found = true;
      }
    }
    if (!found) {
      std::cerr << "unknown --policy " << policy << " (see --list)\n";
      return kUsageError;
    }
    grid.push_back(std::move(r));
  }

  if (auto dir = args.get("csv")) {
    core::save_csv_files(*dir, grid);
    std::cout << "wrote " << *dir << "/its_metrics.csv and its_processes.csv\n";
  }
  return rc;
}

}  // namespace
