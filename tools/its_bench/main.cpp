// its_bench — the perf-trajectory snapshot tool (docs/performance.md).
//
//   its_bench --out BENCH_$(git rev-parse --short HEAD).json --rev=<rev>
//   its_bench --quick --compare bench/snapshots/BENCH_baseline.json
//
// Measures (a) micro ns/op for the substrate data structures the simulator
// spends its time in (ns per record for `preexec_episode` and
// `trace_generation_per_record`) — the same operations bench/micro_substrates.cpp
// benchmarks under google-benchmark, timed here with a plain steady_clock
// loop so the result lands in machine-readable JSON — and (b) one macro
// figure-regen: the full 4-batch x 5-policy grid through the run farm,
// serial and at --jobs width, reporting runs/sec and speedup.
//
// --compare gates on a committed baseline: >tolerance (default 15%)
// regression in any micro metric or in macro runs/sec exits non-zero;
// a missing baseline or a foreign machine fingerprint warns and exits 0
// (see snapshot.h).  Wall-clock measurement lives in tools/ on purpose:
// src/ is deterministic simulated time and its_lint bans clock reads there.
#include "snapshot.h"

#include "core/experiment.h"
#include "cpu/preexec_engine.h"
#include "cpu/register_file.h"
#include "farm/farm.h"
#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "mem/preexec_cache.h"
#include "mem/tlb.h"
#include "serve/arrival.h"
#include "serve/scenario.h"
#include "storage/dma.h"
#include "trace/trace.h"
#include "trace/workloads.h"
#include "util/args.h"
#include "util/rng.h"
#include "vm/mm.h"
#include "vm/prefetch.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

namespace {

using namespace its;

/// Keeps a computed value alive past the optimiser without a benchmark
/// library dependency.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `op` over `iters` calls (after a 1/16 warm-up) and returns the
/// amortised ns per unit of work, where each timed call reports how many
/// units it did (records examined, records generated, or 1 for one op).
double time_ns_per_unit(std::uint64_t iters,
                        const std::function<std::uint64_t()>& op) {
  for (std::uint64_t i = 0; i < iters / 16 + 1; ++i) keep(op());
  std::uint64_t units = 0;
  auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) units += op();
  auto elapsed = std::chrono::steady_clock::now() - start;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         static_cast<double>(units == 0 ? 1 : units);
}

std::vector<its::Vpn> bench_footprint(unsigned pages) {
  std::vector<its::Vpn> fp;
  const its::Vpn base = trace::kHeapBase >> its::kPageShift;
  for (unsigned i = 0; i < pages; ++i) fp.push_back(base + i);
  return fp;
}

/// The micro suite — one entry per substrate op, mirroring
/// bench/micro_substrates.cpp so the two harnesses cross-check.
std::vector<perf::Metric> run_micro(bool quick) {
  const std::uint64_t scale = quick ? 1 : 8;
  std::vector<perf::Metric> out;
  auto add_per_unit = [&](const char* name, std::uint64_t iters,
                          const std::function<std::uint64_t()>& op) {
    std::cerr << "  micro " << name << " ...\n";
    out.push_back({name, time_ns_per_unit(iters * scale, op)});
  };
  auto add = [&](const char* name, std::uint64_t iters,
                 const std::function<void()>& op) {
    add_per_unit(name, iters, [&] {
      op();
      return std::uint64_t{1};
    });
  };

  {
    auto fp = bench_footprint(4096);
    vm::MemoryDescriptor mm(1, fp);
    util::Rng rng(1);
    add("page_table_walk", 200'000,
        [&] { keep(mm.pte(fp[rng.below(fp.size())])); });
  }
  {
    auto fp = bench_footprint(4096);
    vm::MemoryDescriptor mm(1, fp);
    add("page_table_cursor64", 20'000, [&] {
      auto cur = mm.page_table().cursor_at(fp[0]);
      its::Vpn vpn = 0;
      for (int i = 0; i < 64; ++i) keep(cur.next(vpn));
    });
  }
  {
    mem::SetAssocCache c({4ull << 20, 16, 64, 1});
    util::Rng rng(2);
    add("cache_access", 200'000, [&] { keep(c.access(rng.below(64ull << 20))); });
  }
  {
    mem::CacheHierarchy h;
    util::Rng rng(3);
    add("hierarchy_access", 100'000,
        [&] { keep(h.access(rng.below(64ull << 20), 8)); });
  }
  {
    mem::Tlb tlb(64);
    for (its::Vpn v = 0; v < 64; ++v) tlb.insert(v);
    util::Rng rng(4);
    add("tlb_lookup", 400'000, [&] { keep(tlb.lookup(rng.below(128))); });
  }
  {
    mem::PreexecCache px;
    util::Rng rng(5);
    add("preexec_cache_store_load", 200'000, [&] {
      std::uint64_t a = rng.below(1ull << 22) & ~7ull;
      px.store(a, 8, (a & 64) != 0);
      keep(px.lookup(a, 8));
    });
  }
  {
    auto fp = bench_footprint(8192);
    vm::MemoryDescriptor mm(1, fp);
    for (unsigned i = 0; i < fp.size(); i += 2) mm.pte(fp[i])->map(i);
    vm::VaPrefetcher pf({.degree = 8});
    util::Rng rng(6);
    add("va_prefetch_collect8", 50'000, [&] {
      its::Vpn victim = fp[rng.below(fp.size() - 64)];
      keep(pf.collect(mm, victim));
    });
  }
  {
    storage::DmaController dma;
    its::SimTime now = 0;
    add("dma_post_page", 200'000, [&] {
      now += 3000;
      keep(dma.post_page(now, storage::Dir::kRead));
    });
  }
  {
    // One pre-execute episode per op over a fixed PageRank trace with half
    // its pages swapped out, faulting at a stride through the trace;
    // reported per record examined.
    trace::GeneratorConfig cfg;
    cfg.length_scale = 0.02;
    const trace::Trace t = trace::generate(trace::WorkloadId::kPageRank, cfg);
    const std::vector<its::Vpn> pages = t.touched_pages();
    vm::MemoryDescriptor mm(1, pages);
    for (std::size_t i = 0; i < pages.size(); i += 2) mm.pte(pages[i])->map(i);
    mem::CacheHierarchy caches;
    mem::PreexecCache px;
    cpu::PreexecEngine engine({}, caches, px);
    cpu::RegisterFile rf;
    std::size_t fault = 0;
    add_per_unit("preexec_episode", 5'000, [&] {
      fault = (fault + 97) % t.size();
      return std::uint64_t{engine.run(t, fault, rf, mm, 20_us).records};
    });
  }
  {
    // Reported per generated record, so it never reads against the old
    // whole-trace `trace_generation` figure.
    trace::GeneratorConfig cfg;
    cfg.length_scale = 0.02;
    add_per_unit("trace_generation_per_record", 20, [&] {
      trace::Trace t = trace::generate(trace::WorkloadId::kRandomWalk, cfg);
      return std::uint64_t{t.size()};
    });
  }
  return out;
}

/// The macro benchmark: regenerate the full figure grid (the workload
/// behind every fig4*/fig5* bench) serially and on the farm.  Uses the
/// golden-test scale so one run stays in CI budget while still executing
/// all 20 simulations.
perf::MacroResult run_macro(unsigned jobs) {
  core::ExperimentConfig cfg;
  cfg.gen.length_scale = 0.02;
  cfg.gen.footprint_scale = 0.25;

  perf::MacroResult m;
  m.jobs = jobs == 0 ? farm::default_jobs() : jobs;
  m.runs = static_cast<unsigned>(core::paper_batches().size() *
                                 std::size(core::kAllPolicies));

  std::cerr << "  macro figure_regen serial ...\n";
  cfg.jobs = 1;
  double t0 = now_ms();
  keep(core::run_grid_all(cfg));
  m.serial_wall_ms = now_ms() - t0;

  std::cerr << "  macro figure_regen --jobs=" << m.jobs << " ...\n";
  cfg.jobs = m.jobs;
  t0 = now_ms();
  keep(core::run_grid_all(cfg));
  m.wall_ms = now_ms() - t0;

  m.runs_per_sec = m.wall_ms > 0 ? 1e3 * m.runs / m.wall_ms : 0.0;
  m.speedup = m.wall_ms > 0 ? m.serial_wall_ms / m.wall_ms : 0.0;
  return m;
}

/// The serving macro: sustained requests/sec at a fixed p99.  Runs the
/// fig_serve_latency operating point (bursty MMPP slightly below capacity,
/// overcommit 2) under ITS and reports the sim-domain throughput — gated on
/// the aggregate p99 holding 25 ms, so a tail-latency regression zeroes the
/// metric instead of hiding behind an unchanged completion count.
perf::ServeResult run_serve_macro(bool quick) {
  constexpr double kP99GateMs = 25.0;
  serve::ServeConfig cfg;
  cfg.arrivals.model = serve::ArrivalModel::kMmpp;
  cfg.arrivals.rate_rps = 800.0;
  cfg.duration = quick ? 50'000'000 : 100'000'000;
  cfg.admit_limit = 64;
  cfg.overcommit = 2.0;

  std::cerr << "  macro serving ...\n";
  double t0 = now_ms();
  serve::ServeMetrics m = serve::run_serve(cfg, core::PolicyKind::kIts);
  perf::ServeResult r;
  r.wall_ms = now_ms() - t0;
  r.requests = static_cast<unsigned>(m.completed);
  r.p99_ms = static_cast<double>(m.latency.quantile(0.99)) / 1e6;
  r.req_per_sec = r.p99_ms <= kP99GateMs ? m.requests_per_sec() : 0.0;
  return r;
}

int run(int argc, char** argv) {
  util::Args args(argc, argv);
  for (const auto& u : args.unknown(
           {"out", "compare", "tolerance", "jobs", "quick", "rev", "help"})) {
    std::cerr << "unknown flag --" << u << " (try --help)\n";
    return 2;
  }
  if (args.has("help")) {
    std::cout
        << "usage: its_bench [--out=FILE] [--compare=BASELINE.json]\n"
           "                 [--tolerance=F] [--jobs=N] [--quick] [--rev=STR]\n"
           "  Measures substrate micro ns/op and one figure-regen macro run\n"
           "  (serial + farmed), emits a schema-versioned snapshot, and with\n"
           "  --compare exits non-zero on a >tolerance (default 0.15)\n"
           "  regression.  Missing baseline or a different machine\n"
           "  fingerprint warns and exits 0.\n";
    return 0;
  }

  perf::Snapshot snap;
  snap.revision = args.get_string("rev", "worktree");
  snap.machine = perf::host_machine();
  const bool quick = args.has("quick");
  std::cerr << "its_bench: " << (quick ? "quick" : "full") << " run on "
            << snap.machine.cpus << " cpu(s), " << snap.machine.compiler
            << ", " << snap.machine.build << "\n";
  snap.micro = run_micro(quick);
  snap.macro = run_macro(args.get_unsigned("jobs", 0));
  snap.serve = run_serve_macro(quick);

  for (const perf::Metric& m : snap.micro)
    std::cout << "  " << m.name << ": " << m.ns_per_op << " ns/op\n";
  std::cout << "  figure_regen: " << snap.macro.runs << " runs, serial "
            << snap.macro.serial_wall_ms << " ms, --jobs=" << snap.macro.jobs
            << " " << snap.macro.wall_ms << " ms (" << snap.macro.runs_per_sec
            << " runs/sec, speedup " << snap.macro.speedup << "x)\n";
  std::cout << "  serving: " << snap.serve.requests << " requests, p99 "
            << snap.serve.p99_ms << " ms, sustained " << snap.serve.req_per_sec
            << " req/sec (" << snap.serve.wall_ms << " ms wall)\n";

  if (auto out = args.get("out")) {
    if (!perf::save_snapshot(*out, snap)) {
      std::cerr << "its_bench: cannot write " << *out << "\n";
      return 3;
    }
    std::cout << "wrote " << *out << "\n";
  }

  if (auto baseline = args.get("compare")) {
    perf::CompareReport rep = perf::compare_against_file(
        *baseline, snap, args.get_double("tolerance", 0.15));
    std::cout << "compare vs " << *baseline << ":\n";
    for (const std::string& line : rep.lines) std::cout << "  " << line << "\n";
    std::cout << (perf::exit_code(rep.status) == 0 ? "PASS" : "REGRESSED")
              << "\n";
    return perf::exit_code(rep.status);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "its_bench: " << e.what() << "\n";
    return 3;
  }
}
