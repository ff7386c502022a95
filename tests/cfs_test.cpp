// Tests for the CFS-style fair scheduler (ablation alternative to the
// paper's SCHED_RR).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "sched/cfs.h"
#include "trace/instr.h"

namespace its::sched {
namespace {

std::shared_ptr<const trace::Trace> tiny_trace() {
  auto t = std::make_shared<trace::Trace>("tiny");
  t->push_back(trace::Instr::compute(1, 1, 0, 0));
  return t;
}

class CfsTest : public ::testing::Test {
 protected:
  CfsTest() {
    for (int i = 0; i < 3; ++i) {
      std::string name(1, 'p');
      name += std::to_string(i);
      procs_.push_back(std::make_unique<Process>(
          static_cast<its::Pid>(i), name, 10 * (i + 1), tiny_trace()));
    }
  }
  CfsConfig cfg_{.sched_latency = 12000, .min_granularity = 1000};
  std::vector<std::unique_ptr<Process>> procs_;
};

TEST_F(CfsTest, PicksMinimumVruntime) {
  CfsScheduler s(cfg_);
  for (auto& p : procs_) s.add(p.get());
  Process* first = s.pick();
  ASSERT_NE(first, nullptr);
  s.account(*first, 5000);  // consume CPU
  s.yield(first);
  // first now has the largest vruntime; the others (still 0) go first.
  Process* second = s.pick();
  EXPECT_NE(second, first);
}

TEST_F(CfsTest, TieBreaksByPidDeterministically) {
  CfsScheduler s(cfg_);
  for (auto& p : procs_) s.add(p.get());
  EXPECT_EQ(s.pick(), procs_[0].get());  // all vruntime 0 → lowest pid
}

TEST_F(CfsTest, HigherPriorityAccruesSlower) {
  CfsScheduler s(cfg_);
  s.add(procs_[0].get());  // priority 10
  s.add(procs_[2].get());  // priority 30
  s.account(*procs_[0], 3000);
  s.account(*procs_[2], 3000);
  // Equal wall time: the high-priority process accrues less vruntime.
  EXPECT_GT(s.vruntime(*procs_[0]), s.vruntime(*procs_[2]));
}

TEST_F(CfsTest, SliceProportionalToWeight) {
  CfsScheduler s(cfg_);
  for (auto& p : procs_) s.add(p.get());
  // Weights 10/20/30 of 60 → 2000/4000/6000 ns of the 12 µs latency.
  EXPECT_EQ(s.slice_for(*procs_[0]), 2000u);
  EXPECT_EQ(s.slice_for(*procs_[1]), 4000u);
  EXPECT_EQ(s.slice_for(*procs_[2]), 6000u);
}

TEST_F(CfsTest, SliceFloorApplies) {
  CfsScheduler s({.sched_latency = 1200, .min_granularity = 1000});
  for (auto& p : procs_) s.add(p.get());
  EXPECT_EQ(s.slice_for(*procs_[0]), 1000u);  // share 200 < floor
}

TEST_F(CfsTest, BlockAndWakeWithSleeperFairness) {
  CfsScheduler s(cfg_);
  for (auto& p : procs_) s.add(p.get());
  Process* p = s.pick();
  s.account(*p, 100);
  s.block(p);
  EXPECT_EQ(p->state(), ProcState::kBlocked);
  // Run the others far ahead.
  for (int round = 0; round < 10; ++round) {
    Process* q = s.pick();
    ASSERT_NE(q, nullptr);
    s.account(*q, 50000);
    s.yield(q);
  }
  s.wake(p);
  // Sleeper fairness: p resumes bounded behind min_vruntime, so it is the
  // next pick, but its vruntime is not stuck at its tiny pre-sleep value.
  EXPECT_EQ(s.pick(), p);
  EXPECT_GT(s.vruntime(*p), 100u);
}

TEST_F(CfsTest, PeekNextMatchesPick) {
  CfsScheduler s(cfg_);
  for (auto& p : procs_) s.add(p.get());
  const Process* peeked = s.peek_next();
  EXPECT_EQ(s.pick(), peeked);
}

TEST_F(CfsTest, EmptyQueueBehaviour) {
  CfsScheduler s(cfg_);
  EXPECT_EQ(s.pick(), nullptr);
  EXPECT_EQ(s.peek_next(), nullptr);
  EXPECT_FALSE(s.any_ready());
}

TEST_F(CfsTest, WakeNonBlockedThrows) {
  CfsScheduler s(cfg_);
  s.add(procs_[0].get());
  EXPECT_THROW(s.wake(procs_[0].get()), std::logic_error);
}

TEST_F(CfsTest, AccountUnknownProcessThrows) {
  CfsScheduler s(cfg_);
  EXPECT_THROW(s.account(*procs_[0], 10), std::logic_error);
}

TEST_F(CfsTest, AddNullThrows) {
  CfsScheduler s(cfg_);
  EXPECT_THROW(s.add(nullptr), std::invalid_argument);
}

TEST_F(CfsTest, FairnessOverManyRounds) {
  // Two equal-priority processes must receive (nearly) equal CPU when
  // always charged their granted slice.
  auto a = std::make_unique<Process>(0, "a", 20, tiny_trace());
  auto b = std::make_unique<Process>(1, "b", 20, tiny_trace());
  CfsScheduler s(cfg_);
  s.add(a.get());
  s.add(b.get());
  its::Duration ran_a = 0, ran_b = 0;
  for (int i = 0; i < 100; ++i) {
    Process* p = s.pick();
    its::Duration d = s.slice_for(*p);
    s.account(*p, d);
    (p == a.get() ? ran_a : ran_b) += d;
    s.yield(p);
  }
  EXPECT_NEAR(static_cast<double>(ran_a) / static_cast<double>(ran_b), 1.0, 0.1);
}

TEST_F(CfsTest, WeightedShareOverManyRounds) {
  // Priority 30 vs 10 should converge to a ~3:1 CPU share.
  auto lo = std::make_unique<Process>(0, "lo", 10, tiny_trace());
  auto hi = std::make_unique<Process>(1, "hi", 30, tiny_trace());
  CfsScheduler s(cfg_);
  s.add(lo.get());
  s.add(hi.get());
  its::Duration ran_lo = 0, ran_hi = 0;
  for (int i = 0; i < 400; ++i) {
    Process* p = s.pick();
    its::Duration d = s.slice_for(*p);
    s.account(*p, d);
    (p == lo.get() ? ran_lo : ran_hi) += d;
    s.yield(p);
  }
  double share = static_cast<double>(ran_hi) / static_cast<double>(ran_lo);
  EXPECT_NEAR(share, 3.0, 0.5);
}

}  // namespace
}  // namespace its::sched
