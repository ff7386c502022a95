// Tests for src/trace: instruction records, the Trace container, binary
// round-trips, and the nine workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "trace/instr.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"

namespace its::trace {
namespace {

TEST(Instr, FactoriesSetFields) {
  Instr c = Instr::compute(5, 3, 1, 2);
  EXPECT_EQ(c.op, Op::kCompute);
  EXPECT_EQ(c.repeat, 5);
  EXPECT_EQ(c.dst, 3);
  EXPECT_FALSE(c.is_mem());

  Instr l = Instr::load(0x1000, 8, 4, 2, 1);
  EXPECT_EQ(l.op, Op::kLoad);
  EXPECT_EQ(l.addr, 0x1000u);
  EXPECT_EQ(l.size, 8);
  EXPECT_EQ(l.dst, 4);
  EXPECT_EQ(l.src1, 2);
  EXPECT_EQ(l.src2, 1);
  EXPECT_TRUE(l.is_mem());

  Instr s = Instr::store(0x2000, 16, 7, 3);
  EXPECT_EQ(s.op, Op::kStore);
  EXPECT_EQ(s.src1, 7);
  EXPECT_EQ(s.src2, 3);
  EXPECT_TRUE(s.is_mem());
}

TEST(Instr, ComputeRepeatNeverZero) {
  Instr c = Instr::compute(0, 1, 0, 0);
  EXPECT_EQ(c.repeat, 1);
}

TEST(TraceContainer, StatsCountEverything) {
  Trace t("test");
  t.push_back(Instr::compute(10, 1, 0, 0));
  t.push_back(Instr::load(0x1000, 8, 2, 0));
  t.push_back(Instr::store(0x1F00, 64, 2));  // within page 1
  t.push_back(Instr::load(0x5000, 8, 3, 0));
  TraceStats s = t.stats();
  EXPECT_EQ(s.records, 4u);
  EXPECT_EQ(s.instructions, 13u);  // 10 folded + 3 memory
  EXPECT_EQ(s.mem_refs, 3u);
  EXPECT_EQ(s.loads, 2u);
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.footprint_pages, 2u);  // pages 1 and 5
  EXPECT_EQ(s.min_addr, 0x1000u);
  EXPECT_EQ(s.max_addr, 0x5007u);
}

TEST(TraceContainer, PageSpanningAccessCountsBothPages) {
  Trace t;
  t.push_back(Instr::load(0x1FFC, 8, 1, 0));  // crosses page 1 → 2
  EXPECT_EQ(t.stats().footprint_pages, 2u);
  auto pages = t.touched_pages();
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0], 1u);
  EXPECT_EQ(pages[1], 2u);
}

TEST(TraceContainer, TouchedPagesSortedUnique) {
  Trace t;
  t.push_back(Instr::load(0x5000, 8, 1, 0));
  t.push_back(Instr::load(0x1000, 8, 1, 0));
  t.push_back(Instr::load(0x5008, 8, 1, 0));
  auto pages = t.touched_pages();
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0], 1u);
  EXPECT_EQ(pages[1], 5u);
}

TEST(TraceContainer, PushBackRefreshesKeptFootprint) {
  Trace t;
  t.push_back(Instr::load(0x1000, 8, 1, 0));
  t.push_back(Instr::file_write(3, 0, 100, 1));
  const Trace before = t;
  ASSERT_EQ(t.touched_pages().size(), 1u);
  ASSERT_EQ(t.file_sizes().size(), 1u);
  EXPECT_EQ(t, before);  // the kept results are not part of equality
  t.push_back(Instr::load(0x9000, 8, 1, 0));
  t.push_back(Instr::file_read(4, 0, 50, 1));
  EXPECT_EQ(t.touched_pages().size(), 2u);
  EXPECT_EQ(t.touched_pages().back(), 9u);
  EXPECT_EQ(t.file_sizes().size(), 2u);
  EXPECT_EQ(t.stats().footprint_pages, 2u);
  Trace moved = std::move(t);
  EXPECT_EQ(moved.touched_pages().size(), 2u);
}

TEST(TraceContainer, EmptyTraceStats) {
  Trace t;
  TraceStats s = t.stats();
  EXPECT_EQ(s.records, 0u);
  EXPECT_EQ(s.footprint_pages, 0u);
  EXPECT_TRUE(t.empty());
}

TEST(TraceIo, RoundTripPreservesEverything) {
  Trace t("roundtrip");
  for (int i = 0; i < 1000; ++i) {
    t.push_back(Instr::load(0x1000 + static_cast<its::VirtAddr>(i) * 64, 8,
                            static_cast<std::uint8_t>(i % 31 + 1), 0));
    t.push_back(Instr::compute(static_cast<std::uint16_t>(i % 7 + 1), 1, 2, 3));
  }
  std::stringstream ss;
  write_trace(ss, t);
  Trace back = read_trace(ss);
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.name(), "roundtrip");
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss;
  ss << "garbage-not-a-trace-file-at-all";
  EXPECT_THROW(read_trace(ss), TraceIoError);
}

TEST(TraceIo, RejectsTruncatedStream) {
  Trace t("x");
  t.push_back(Instr::compute(1, 1, 0, 0));
  std::stringstream ss;
  write_trace(ss, t);
  std::string whole = ss.str();
  std::stringstream cut(whole.substr(0, whole.size() - 5));
  EXPECT_THROW(read_trace(cut), TraceIoError);
}

TEST(TraceIo, FileRoundTrip) {
  Trace t("file-test");
  t.push_back(Instr::store(0xdead000, 4, 9));
  auto path = std::filesystem::temp_directory_path() / "its_trace_test.bin";
  save_trace_file(path.string(), t);
  Trace back = load_trace_file(path.string());
  EXPECT_EQ(back, t);
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_file("/nonexistent/dir/trace.bin"), TraceIoError);
}

// -- Hardened loader: typed errors with byte offsets ------------------------

namespace {
/// Serialises a one-record trace ("x", one compute op) and returns the raw
/// bytes.  Layout: magic @0 (8), name_len @8 (4), name @12 (1), count @13
/// (8), record @21 (16).
std::string one_record_bytes() {
  Trace t("x");
  t.push_back(Instr::compute(1, 1, 0, 0));
  std::stringstream ss;
  write_trace(ss, t);
  return ss.str();
}

TraceIoError capture_error(const std::string& bytes) {
  std::stringstream ss(bytes);
  try {
    read_trace(ss);
  } catch (const TraceIoError& e) {
    return e;
  }
  throw std::logic_error("expected read_trace to throw");
}
}  // namespace

TEST(TraceIo, BadMagicCarriesCodeAndOffset) {
  TraceIoError e = capture_error("garbage-not-a-trace-file-at-all");
  EXPECT_EQ(e.code(), TraceIoErrc::kBadMagic);
  EXPECT_EQ(e.offset(), 0u);
}

TEST(TraceIo, TruncatedHeaderReportsFieldOffset) {
  // Cut inside the name_len field: the error points at byte 8 where the
  // field begins.
  TraceIoError e = capture_error(one_record_bytes().substr(0, 10));
  EXPECT_EQ(e.code(), TraceIoErrc::kTruncated);
  EXPECT_EQ(e.offset(), 8u);
}

TEST(TraceIo, OversizedNameLenRejectedBeforeAllocation) {
  std::string bytes = one_record_bytes();
  // name_len := 0xFFFFFFFF — an allocation bomb if taken at face value.
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = '\xff';
  TraceIoError e = capture_error(bytes);
  EXPECT_EQ(e.code(), TraceIoErrc::kNameTooLong);
  EXPECT_EQ(e.offset(), 8u);
}

TEST(TraceIo, OversizedCountRejectedBeforeAllocation) {
  std::string bytes = one_record_bytes();
  // count := 2^56 — promises far more records than the stream holds.
  for (std::size_t i = 0; i < 8; ++i) bytes[13 + i] = (i == 7) ? '\x01' : '\0';
  TraceIoError e = capture_error(bytes);
  EXPECT_EQ(e.code(), TraceIoErrc::kCountTooLarge);
  EXPECT_EQ(e.offset(), 13u);
}

TEST(TraceIo, TruncatedRecordPayloadRejected) {
  // Cutting the last bytes of the record leaves count promising one record
  // with fewer than sizeof(Instr) bytes behind it.
  std::string whole = one_record_bytes();
  TraceIoError e = capture_error(whole.substr(0, whole.size() - 5));
  EXPECT_EQ(e.code(), TraceIoErrc::kCountTooLarge);
  EXPECT_EQ(e.offset(), 13u);
}

TEST(TraceIo, OutOfRangeOpcodeRejected) {
  std::string bytes = one_record_bytes();
  bytes[21 + 8] = '\x09';  // op byte of record 0: beyond kFileWrite
  TraceIoError e = capture_error(bytes);
  EXPECT_EQ(e.code(), TraceIoErrc::kBadOpcode);
  EXPECT_EQ(e.offset(), 21u);
}

TEST(TraceIo, ComputeWithZeroRepeatRejected) {
  std::string bytes = one_record_bytes();
  bytes[21 + 14] = '\0';  // repeat u16 of record 0
  bytes[21 + 15] = '\0';
  TraceIoError e = capture_error(bytes);
  EXPECT_EQ(e.code(), TraceIoErrc::kBadRecord);
  EXPECT_EQ(e.offset(), 21u);
}

TEST(TraceIo, ErrorMessageNamesCodeAndOffset) {
  TraceIoError e = capture_error(one_record_bytes().substr(0, 10));
  std::string what = e.what();
  EXPECT_NE(what.find("truncated"), std::string::npos);
  EXPECT_NE(what.find("byte 8"), std::string::npos);
}

TEST(Workloads, RegistryHasNineEntries) {
  auto all = all_workloads();
  ASSERT_EQ(all.size(), kNumWorkloads);
  std::unordered_set<std::string_view> names;
  unsigned data_intensive = 0;
  for (const auto& s : all) {
    names.insert(s.name);
    data_intensive += s.data_intensive ? 1 : 0;
    EXPECT_GT(s.footprint_bytes, 0u);
    EXPECT_LE(s.hot_bytes, s.footprint_bytes);
    EXPECT_GT(s.records, 0u);
  }
  EXPECT_EQ(names.size(), kNumWorkloads);  // names unique
  EXPECT_EQ(data_intensive, 3u);           // paper: three data-intensive traces
}

TEST(Workloads, FindByName) {
  EXPECT_EQ(find_workload("caffe"), WorkloadId::kCaffe);
  EXPECT_EQ(find_workload("graph500"), WorkloadId::kGraph500Sssp);
  EXPECT_EQ(find_workload("not-a-workload"), std::nullopt);
}

class GeneratorTest : public ::testing::TestWithParam<WorkloadId> {};

TEST_P(GeneratorTest, ProducesRequestedLength) {
  GeneratorConfig cfg;
  cfg.length_scale = 0.05;
  Trace t = generate(GetParam(), cfg);
  const WorkloadSpec& spec = spec_for(GetParam());
  auto want = static_cast<std::uint64_t>(static_cast<double>(spec.records) * 0.05);
  EXPECT_GE(t.size(), want);
  EXPECT_LT(t.size(), want + 64);  // generators overshoot at most one burst
  EXPECT_EQ(t.name(), spec.name);
}

TEST_P(GeneratorTest, AddressesStayInsideRegion) {
  GeneratorConfig cfg;
  cfg.length_scale = 0.05;
  Trace t = generate(GetParam(), cfg);
  const WorkloadSpec& spec = spec_for(GetParam());
  for (const auto& in : t.records()) {
    if (!in.is_mem()) continue;
    EXPECT_GE(in.addr, kHeapBase);
    EXPECT_LT(in.addr + in.size, kHeapBase + spec.footprint_bytes);
  }
}

TEST_P(GeneratorTest, TouchedPagesEqualTheSetOfPagesTouched) {
  GeneratorConfig cfg;
  cfg.length_scale = 0.05;
  const Trace t = generate(GetParam(), cfg);
  std::set<its::Vpn> want;
  for (const auto& in : t.records()) {
    if (!in.is_mem()) continue;
    const its::VirtAddr end = in.addr + (in.size ? in.size - 1 : 0);
    for (its::Vpn p = its::vpn_of(in.addr); p <= its::vpn_of(end); ++p) want.insert(p);
  }
  const std::vector<its::Vpn>& got = t.touched_pages();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
  EXPECT_EQ(t.stats().footprint_pages, want.size());
}

TEST_P(GeneratorTest, DeterministicInSeed) {
  GeneratorConfig cfg;
  cfg.length_scale = 0.02;
  cfg.seed = 777;
  EXPECT_EQ(generate(GetParam(), cfg), generate(GetParam(), cfg));
}

TEST_P(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorConfig a, b;
  a.length_scale = b.length_scale = 0.02;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(generate(GetParam(), a), generate(GetParam(), b));
}

TEST_P(GeneratorTest, HasBothComputeAndMemory) {
  GeneratorConfig cfg;
  cfg.length_scale = 0.05;
  TraceStats s = generate(GetParam(), cfg).stats();
  EXPECT_GT(s.mem_refs, 0u);
  EXPECT_GT(s.instructions, s.mem_refs);  // some compute exists
  double mem_ratio = static_cast<double>(s.mem_refs) / static_cast<double>(s.records);
  EXPECT_GT(mem_ratio, 0.10);
  EXPECT_LT(mem_ratio, 0.95);
}

TEST_P(GeneratorTest, FootprintScaleShrinksRegion) {
  GeneratorConfig big, small;
  big.length_scale = small.length_scale = 0.05;
  small.footprint_scale = 0.25;
  auto fp_big = generate(GetParam(), big).stats().max_addr;
  auto fp_small = generate(GetParam(), small).stats().max_addr;
  EXPECT_LT(fp_small, fp_big);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, GeneratorTest,
    ::testing::Values(WorkloadId::kCaffe, WorkloadId::kWrf, WorkloadId::kBlender,
                      WorkloadId::kXz, WorkloadId::kDeepSjeng, WorkloadId::kCommunity,
                      WorkloadId::kRandomWalk, WorkloadId::kPageRank,
                      WorkloadId::kGraph500Sssp),
    [](const auto& param_info) {
      return std::string(spec_for(param_info.param).name);
    });

TEST(Workloads, NonPositiveOrNonFiniteScalesThrowNamingTheField) {
  // Each used to reach a float-to-integer cast: undefined behaviour.
  auto error_of = [](const GeneratorConfig& cfg) -> std::string {
    try {
      generate(WorkloadId::kXz, cfg);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  for (double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(), 1e300}) {
    GeneratorConfig len, fp;
    len.length_scale = bad;
    fp.length_scale = 0.01;
    fp.footprint_scale = bad;
    EXPECT_NE(error_of(len).find("length_scale"), std::string::npos) << bad;
    EXPECT_NE(error_of(fp).find("footprint_scale"), std::string::npos) << bad;
  }
}

TEST(Workloads, DataIntensiveRegionsAreSparse) {
  // The graph workloads must leave untouched holes in their regions —
  // that is what defeats spatial prefetching (DESIGN.md).
  for (WorkloadId id :
       {WorkloadId::kRandomWalk, WorkloadId::kGraph500Sssp}) {
    GeneratorConfig cfg;
    cfg.length_scale = 1.0;
    Trace t = generate(id, cfg);
    const WorkloadSpec& spec = spec_for(id);
    double touched_frac = static_cast<double>(t.stats().footprint_pages) /
                          static_cast<double>(spec.footprint_bytes >> its::kPageShift);
    EXPECT_LT(touched_frac, 0.75) << spec.name;
  }
}

TEST(Workloads, PointerChasingWorkloadsHaveDependentLoads) {
  // randwalk/graph500 loads must form register dependence chains so the
  // pre-execute engine's INV poisoning has something to bite on.
  for (WorkloadId id : {WorkloadId::kRandomWalk, WorkloadId::kGraph500Sssp,
                        WorkloadId::kDeepSjeng}) {
    GeneratorConfig cfg;
    cfg.length_scale = 0.05;
    Trace t = generate(id, cfg);
    bool dependent = false;
    for (const auto& in : t.records())
      if (in.op == Op::kLoad && in.src1 != 0) dependent = true;
    EXPECT_TRUE(dependent) << spec_for(id).name;
  }
}

TEST(Workloads, SequentialWorkloadsUseIndependentAddresses) {
  GeneratorConfig cfg;
  cfg.length_scale = 0.05;
  Trace t = generate(WorkloadId::kWrf, cfg);
  for (const auto& in : t.records()) {
    if (in.op == Op::kLoad) {
      EXPECT_EQ(in.src1, 0) << "wrf loads are stencil-indexed";
    }
  }
}

}  // namespace
}  // namespace its::trace
