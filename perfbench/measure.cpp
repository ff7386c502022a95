#include "measure.h"

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>

namespace perfbench {

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"host_ns_per_record", "ns"},
    {"runs_per_s", "1/s"},
    {"host_ms_per_request", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Set-ups per untraced run; setup_s is their median.  Three keep a run of
// the heaviest workload (about 1 s per set-up) within its measuring time.
constexpr unsigned kSetups = 3;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digest_error(std::uint64_t got, std::uint64_t want, const char* what) {
  return "digest " + hex(got) + " != " + what + " " + hex(want);
}

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }

RunResult run_untraced(const RunOptions& opt) {
  RunResult res;
  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    Inputs in = set_up(opt.workload, opt.seed);
    setup_s.push_back(seconds_since(t0));
    return in;
  };

  const auto start = std::chrono::steady_clock::now();
  Inputs in = timed_set_up();
  std::vector<Round> rounds{run_round(in)};
  // Peak RSS of one set-up and one round, taken before the repeats: they
  // allocate the same again and could only add allocator fragmentation.
  const double rss_mb = peak_rss_mb();
  if (!opt.quick) {
    for (unsigned i = 1; i < kSetups; ++i) in = timed_set_up();
    // No round starts that would end past the measuring time.
    while (seconds_since(start) + rounds.back().wall_s < opt.seconds)
      rounds.push_back(run_round(in));
  }

  // A round whose digest is wrong fails as a whole.
  res.digest = rounds.front().digest;
  const std::uint64_t want = opt.expected_digest.value_or(res.digest);
  const char* what = opt.expected_digest ? "expected" : "first round's";
  for (const Round& r : rounds) {
    res.attempted += r.sims;
    res.errors.insert(res.errors.end(), r.errors.begin(), r.errors.end());
    if (r.digest == want) {
      res.failed += r.failed;
      continue;
    }
    res.failed += r.sims;
    res.errors.push_back(digest_error(r.digest, want, what));
  }

  const Round& r = rounds.front();
  const double wall = round_wall_s(rounds);
  const double values[] = {
      wall * 1e9 / static_cast<double>(r.records),
      static_cast<double>(r.sims) / wall,
      wall * 1e3 / static_cast<double>(r.processes),
      median(setup_s),
      rss_mb,
  };
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i)
    res.metrics.push_back(Metric{std::string(kEndToEnd[i].name), values[i],
                                 std::string(kEndToEnd[i].unit)});
  std::fprintf(stderr, "%s seed %llu: %zu rounds, round wall %.4f s\n",
               std::string(workload_name(opt.workload)).c_str(),
               static_cast<unsigned long long>(opt.seed), rounds.size(), wall);
  return res;
}

RunResult run_traced_pass(const RunOptions& opt, SpanLog& spans) {
  const Inputs in = set_up(opt.workload, opt.seed, &spans);
  RunResult res = run_traced(in, opt.seconds, opt.quick, spans);
  if (opt.expected_digest && res.digest != *opt.expected_digest) {
    res.failed = res.attempted;
    res.errors.push_back(digest_error(res.digest, *opt.expected_digest, "expected"));
  }
  return res;
}

std::string to_json(const RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
