// its_workload — one run of the repository benchmark (see README.md).
//
//   its_workload --workload paper_grid --seed 1 --seconds 20 --trace 0
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ledger.  Every run is
// checked against the digest committed in digests.txt for its (workload,
// seed), where there is one.  Exit codes: 0 correct, 1 a check failed, 2 bad
// usage or a polluted environment, 3 an unexpected error.
#include "measure.h"

#include "util/args.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

namespace {

using namespace perfbench;

int run(int argc, char** argv) {
  its::util::Args args(argc, argv);
  for (const auto& u : args.unknown({"workload", "seed", "seconds", "trace", "quick",
                                     "spans-out", "help"})) {
    std::cerr << "its_workload: unknown flag --" << u << "\n";
    return 2;
  }
  if (args.has("help") || !args.get("workload")) {
    std::cerr << "usage: its_workload --workload NAME [--seed N] [--seconds S]\n"
                 "                    [--trace 0|1] [--quick] [--spans-out FILE]\n"
                 "workloads:";
    for (const WorkloadInfo& w : workloads()) std::cerr << " " << w.name;
    std::cerr << "\n";
    return args.has("help") ? 0 : 2;
  }
  // Both variables silently change what a workload runs: the experiment
  // and serve configs read the fault profile, the farm reads the width.
  for (const char* var : {"ITS_FAULT_PROFILE", "ITS_JOBS"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "its_workload: refusing to run with " << var
                << " set; unset it so the workload is the one defined\n";
      return 2;
    }
  }

  RunOptions opt;
  const std::string name = *args.get("workload");
  const auto w = find_workload(name);
  if (!w) {
    std::cerr << "its_workload: unknown workload '" << name << "'\n";
    return 2;
  }
  opt.workload = *w;
  opt.seed = args.get_u64("seed", opt.seed);
  opt.seconds = args.get_double("seconds", opt.seconds);
  opt.quick = args.has("quick");
  const std::uint64_t trace = args.get_u64("trace", 0);
  if (trace > 1 || !(opt.seconds > 0.0)) {
    std::cerr << "its_workload: --trace must be 0 or 1 and --seconds positive\n";
    return 2;
  }
  opt.expected_digest = committed_digest(opt.workload, opt.seed);
  if (!opt.expected_digest)
    std::cerr << "its_workload: digests.txt has no digest for " << name << " seed "
              << opt.seed << "; the rounds are checked against each other only\n";

  SpanLog spans;
  RunResult res = trace ? run_traced_pass(opt, spans) : run_untraced(opt);
  if (auto path = args.get("spans-out")) {
    std::ofstream f(*path);
    spans.write_jsonl(f);
    if (!f) {
      std::cerr << "its_workload: cannot write " << *path << "\n";
      return 2;
    }
  }

  std::fprintf(stderr, "digest %s %llu %016llx\n", name.c_str(),
               static_cast<unsigned long long>(opt.seed),
               static_cast<unsigned long long>(res.digest));
  for (const std::string& e : res.errors) std::cerr << "FAILED: " << e << "\n";
  std::cout << to_json(res) << std::endl;
  return res.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::cerr << "its_workload: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "its_workload: " << e.what() << "\n";
    return 3;
  }
}
