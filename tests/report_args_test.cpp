// Tests for the CSV report writer and the CLI argument parser.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>

#include "core/report.h"
#include "obs/invariant_checker.h"
#include "util/args.h"

namespace its {
namespace {

core::BatchResult fake_result() {
  core::BatchResult r;
  r.spec = &core::paper_batches()[0];
  core::SimMetrics m;
  m.idle.mem_stall = 100;
  m.idle.busy_wait = 200;
  m.major_faults = 7;
  m.llc_misses = 42;
  m.makespan = 12345;
  core::ProcessOutcome p;
  p.pid = 0;
  p.name = "wrf";
  p.priority = 30;
  p.metrics.finish_time = 999;
  p.metrics.major_faults = 7;
  m.processes.push_back(p);
  r.by_policy.emplace(core::PolicyKind::kSync, m);
  return r;
}

TEST(ReportCsv, MetricsHeaderAndRow) {
  auto r = fake_result();
  std::string csv = core::metrics_csv({&r, 1});
  std::istringstream is(csv);
  std::string header, row, extra;
  ASSERT_TRUE(std::getline(is, header));
  ASSERT_TRUE(std::getline(is, row));
  EXPECT_FALSE(std::getline(is, extra));  // one policy → one row
  EXPECT_NE(header.find("idle_total_ns"), std::string::npos);
  EXPECT_NE(row.find("No_Data_Intensive,Sync,0,300,100,200"), std::string::npos);
  // Same column count in header and row.
  auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(row));
}

// Every scalar run counter is one 64-bit word of obs::RunTotals, so the
// test below can set each word alone to a sentinel: a counter that no CSV
// column reports fails it, whatever the counter is called.
static_assert(std::is_trivially_copyable_v<obs::RunTotals>);
static_assert(sizeof(obs::RunTotals) % sizeof(std::uint64_t) == 0);

TEST(ReportCsv, EveryRunTotalsWordReachesTheRow) {
  constexpr std::size_t kWords = sizeof(obs::RunTotals) / sizeof(std::uint64_t);
  for (std::size_t w = 0; w < kWords; ++w) {
    std::array<std::uint64_t, kWords> words{};
    const std::uint64_t sentinel = 987'654'321'000 + w;
    words[w] = sentinel;
    const auto totals = std::bit_cast<obs::RunTotals>(words);

    core::BatchResult r;
    r.spec = &core::paper_batches()[0];
    core::SimMetrics m;
    static_cast<obs::RunTotals&>(m) = totals;
    r.by_policy.emplace(core::PolicyKind::kSync, m);
    std::istringstream csv(core::metrics_csv({&r, 1}));
    std::string header, row;
    ASSERT_TRUE(std::getline(csv, header));
    ASSERT_TRUE(std::getline(csv, row));
    bool reported = false;
    std::string cell;
    for (std::istringstream cells(row); std::getline(cells, cell, ',');)
      reported = reported || cell == std::to_string(sentinel);
    EXPECT_TRUE(reported) << "RunTotals word " << w << " is not in " << row;
  }
}

TEST(ReportCsv, ProcessesRows) {
  auto r = fake_result();
  std::ostringstream os;
  core::write_processes_csv(os, {&r, 1});
  std::string out = os.str();
  EXPECT_NE(out.find("No_Data_Intensive,Sync,0,wrf,30,999,7"), std::string::npos);
}

TEST(ReportCsv, SaveCreatesDirectoryAndFiles) {
  auto dir = std::filesystem::temp_directory_path() / "its_report_test" / "nested";
  std::filesystem::remove_all(dir.parent_path());
  auto r = fake_result();
  core::save_csv_files(dir.string(), {&r, 1});
  EXPECT_TRUE(std::filesystem::exists(dir / "its_metrics.csv"));
  EXPECT_TRUE(std::filesystem::exists(dir / "its_processes.csv"));
  std::filesystem::remove_all(dir.parent_path());
}

util::Args make_args(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return util::Args(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EqualsSyntax) {
  auto a = make_args({"--batch=3", "--policy=ITS"});
  EXPECT_EQ(a.get_u64("batch", 0), 3u);
  EXPECT_EQ(a.get_string("policy", ""), "ITS");
}

TEST(Args, SpaceSyntax) {
  auto a = make_args({"--seed", "99"});
  EXPECT_EQ(a.get_u64("seed", 0), 99u);
}

TEST(Args, BareBooleanFlag) {
  auto a = make_args({"--list", "--batch=1"});
  EXPECT_TRUE(a.has("list"));
  EXPECT_FALSE(a.has("missing"));
  EXPECT_EQ(a.get_u64("batch", 0), 1u);
}

TEST(Args, DefaultsWhenAbsent) {
  auto a = make_args({});
  EXPECT_EQ(a.get_u64("x", 42), 42u);
  EXPECT_DOUBLE_EQ(a.get_double("y", 1.5), 1.5);
  EXPECT_EQ(a.get_string("z", "dflt"), "dflt");
}

TEST(Args, PositionalCollected) {
  auto a = make_args({"pos1", "--k=v", "pos2"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "pos1");
  EXPECT_EQ(a.positional()[1], "pos2");
}

TEST(Args, MalformedNumberThrows) {
  // Signs and whitespace are malformed too: "-1" used to parse as 2^64 - 1.
  for (const char* v : {"12x", "-1", "+3", " 7", "7 "}) {
    auto a = make_args({"--n", v});
    EXPECT_THROW(a.get_u64("n", 0), std::invalid_argument) << '"' << v << '"';
  }
  auto b = make_args({"--f=1.2.3"});
  EXPECT_THROW(b.get_double("f", 0), std::invalid_argument);
}

TEST(Args, EntirelyNonNumericThrowsInvalidArgument) {
  // Regression: std::stoull's own exception must be translated, not leak
  // through as an unhandled std::invalid_argument("stoull") terminate.
  auto a = make_args({"--batch=xx"});
  try {
    a.get_u64("batch", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("batch"), std::string::npos)
        << "error must name the flag";
  }
  auto b = make_args({"--scale=abc"});
  EXPECT_THROW(b.get_double("scale", 0), std::invalid_argument);
  // Out-of-range numerics are also translated.
  auto c = make_args({"--n=99999999999999999999999999"});
  EXPECT_THROW(c.get_u64("n", 0), std::invalid_argument);
  auto d = make_args({"--n=18446744073709551616"});
  EXPECT_THROW(d.get_u64("n", 0), std::invalid_argument);
  auto e = make_args({"--n=18446744073709551615"});
  EXPECT_EQ(e.get_u64("n", 0), 18446744073709551615u);
}

TEST(Args, UnsignedRejectsValuesAboveUintMax) {
  // --jobs=4294967296 used to wrap to 0, which means hardware width.
  auto a = make_args({"--jobs=4294967296"});
  EXPECT_THROW(a.get_unsigned("jobs", 0), std::invalid_argument);
  auto b = make_args({"--jobs=4294967295"});
  EXPECT_EQ(b.get_unsigned("jobs", 0), 4294967295u);
  auto c = make_args({});
  EXPECT_EQ(c.get_unsigned("jobs", 7), 7u);
}

TEST(Args, UnknownFlagDetection) {
  auto a = make_args({"--good=1", "--typo=2"});
  auto unknown = a.unknown({"good"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(Args, DoubleParsing) {
  auto a = make_args({"--scale=0.25"});
  EXPECT_DOUBLE_EQ(a.get_double("scale", 1.0), 0.25);
}

TEST(Args, NonFiniteDoubleThrowsNamingTheFlag) {
  // stod parses all of these; a NaN used to reach a float-to-integer cast.
  for (const char* v : {"nan", "-nan", "inf", "-inf", "infinity"}) {
    try {
      make_args({"--scale", v}).get_double("scale", 1.0);
      ADD_FAILURE() << v << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--scale"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace its
