// Tests for the repository benchmark: its names agree with BENCHMARK.json,
// its digests are reproducible and actually checked, it refuses a polluted
// environment, and span self time is computed correctly.
#include "ledger.h"
#include "measure.h"
#include "spans.h"
#include "workloads.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Every "name" value inside the array that follows `"key":`.
std::vector<std::string> names_in(const std::string& json, const std::string& key) {
  std::vector<std::string> out;
  const std::size_t k = json.find("\"" + key + "\"");
  if (k == std::string::npos) return out;
  const std::size_t open = json.find('[', k);
  const std::size_t close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  const std::string tag = "\"name\": \"";
  for (std::size_t p = body.find(tag); p != std::string::npos; p = body.find(tag, p)) {
    p += tag.size();
    out.push_back(body.substr(p, body.find('"', p) - p));
  }
  return out;
}

struct Invocation {
  int code = -1;
  std::string output;  // stderr then stdout, interleaved
};

Invocation invoke(const std::string& args, const std::string& env = "") {
  Invocation r;
  const std::string cmd = env + " " ITS_WORKLOAD " " + args + " 2>&1";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, p) != nullptr) r.output += buf;
  const int status = pclose(p);
  r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

/// The "digest <workload> <seed> <hex>" line a run prints to stderr.
std::string digest_line(const Invocation& r) {
  std::istringstream lines(r.output);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("digest ", 0) == 0) return line;
  return "";
}

TEST(BenchmarkJson, WorkloadAndMetricNamesMatch) {
  const std::string json = read_file(std::string(PERFBENCH_DIR) + "/../BENCHMARK.json");
  ASSERT_FALSE(json.empty());

  std::vector<std::string> want;
  for (const WorkloadInfo& w : workloads()) want.emplace_back(w.name);
  EXPECT_EQ(names_in(json, "workloads"), want);

  want.clear();
  for (const MetricSpec& m : end_to_end_metrics()) want.emplace_back(m.name);
  EXPECT_EQ(names_in(json, "end_to_end"), want);

  want.clear();
  for (const MetricSpec& m : per_layer_metrics()) want.emplace_back(m.name);
  EXPECT_EQ(names_in(json, "per_layer"), want);
}

TEST(Digest, QuickDigestIsIdenticalAcrossInvocations) {
  for (const WorkloadInfo& w : workloads()) {
    const std::string args = "--workload " + std::string(w.name) + " --seed 1 --quick";
    const Invocation a = invoke(args);
    const Invocation b = invoke(args);
    EXPECT_EQ(a.code, 0) << a.output;
    EXPECT_EQ(b.code, 0) << b.output;
    EXPECT_FALSE(digest_line(a).empty()) << a.output;
    EXPECT_EQ(digest_line(a), digest_line(b)) << w.name;
  }
}

TEST(Digest, SeedsOneAndTwoAreCommitted) {
  for (const WorkloadInfo& w : workloads())
    for (std::uint64_t seed : {1, 2})
      EXPECT_TRUE(committed_digest(w.id, seed).has_value()) << w.name << " " << seed;
}

TEST(Digest, GridFarmIsIdenticalAtOneAndTwoJobs) {
  const Inputs in = set_up(Workload::kGridFarm, 2);
  const Round one = run_round(in, 1);
  const Round two = run_round(in, 2);
  EXPECT_EQ(one.jobs, 1u);
  EXPECT_EQ(two.jobs, 2u);
  EXPECT_EQ(one.failed + two.failed, 0u);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.digest, committed_digest(Workload::kGridFarm, 2));
}

TEST(Digest, TamperedExpectedDigestFailsTheRun) {
  RunOptions opt;
  opt.workload = Workload::kSwapStorm;
  opt.quick = true;
  opt.expected_digest = 0x0123456789abcdefull;
  const RunResult r = run_untraced(opt);
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(r.failed, r.attempted);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_NE(to_json(r).find("\"correct\": false"), std::string::npos);
}

TEST(Environment, RefusesFaultProfileAndJobsOverrides) {
  for (const char* env : {"ITS_FAULT_PROFILE=hostile", "ITS_JOBS=4"}) {
    const Invocation r = invoke("--workload swap_storm --quick", std::string("env ") + env);
    EXPECT_EQ(r.code, 2) << env << ": " << r.output;
    EXPECT_EQ(r.output.find("\"correct\""), std::string::npos) << r.output;
  }
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100) with children [10,30) and [20,50) overlapping (two farm
  // workers), plus [90,120) that runs past the parent's end.
  // grandchild [12,18) lies inside the first child.
  std::vector<Span> s = {
      {"root", 0, 100, kNoParent, 0},   {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 2},              {"c", 90, 120, 0, 3},
      {"a.child", 12, 18, 1, 1},
  };
  const std::vector<std::int64_t> self = self_times(s);
  EXPECT_EQ(self[0], 100 - (40 + 10));  // union [10,50) ∪ [90,100)
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(Spans, LogRecordsNestingAndDuration) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer");
    ScopedSpan inner(&log, "inner", outer.id(), 7);
  }
  const std::vector<Span> s = log.spans();
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[1].parent, 0u);
  EXPECT_EQ(s[1].sim, 7u);
  EXPECT_LE(s[0].start_ns, s[1].start_ns);
  EXPECT_GE(s[0].end_ns, s[1].end_ns);
}

}  // namespace
}  // namespace perfbench
