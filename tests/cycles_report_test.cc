// Tests of working-cycle records (paper §II-B / Fig 1) and the
// consolidated report writer.

#include <gtest/gtest.h>

#include <cstdio>

#include "fairmove/core/fairmove.h"
#include "fairmove/core/report.h"
#include "fairmove/rl/gt_policy.h"

namespace fairmove {
namespace {

class CycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.05);
    system_ = std::move(FairMoveSystem::Create(cfg)).value();
    GtPolicy policy;
    system_->sim().RunDays(&policy, 2);
  }
  std::unique_ptr<FairMoveSystem> system_;
};

TEST_F(CycleTest, OneCyclePerChargeEvent) {
  EXPECT_EQ(system_->sim().trace().cycles().size(),
            system_->sim().trace().charge_events().size());
}

TEST_F(CycleTest, CycleDecompositionIsConsistent) {
  for (const CycleRecord& c : system_->sim().trace().cycles()) {
    EXPECT_GE(c.cruise_min, 0.0f);
    EXPECT_GE(c.serve_min, 0.0f);
    EXPECT_GE(c.idle_min, 0.0f);
    EXPECT_GT(c.charge_min, 0.0f) << "a cycle ends with a charge";
    EXPECT_FLOAT_EQ(c.op_min, c.cruise_min + c.serve_min);
    EXPECT_LT(c.start_slot, c.end_slot);
    // T_cycle = T_op + T_idle + T_charge must roughly match the wall-clock
    // span (stranding penalties can make the accounted time exceed it).
    const double wall_min =
        static_cast<double>(c.end_slot - c.start_slot) * kMinutesPerSlot;
    EXPECT_NEAR(c.cycle_min(), wall_min,
                system_->config().sim.stranding_penalty_min + 1e-3);
  }
}

TEST_F(CycleTest, CycleProfitsAndTripsArePlausible) {
  int64_t trips = 0;
  double revenue = 0.0;
  for (const CycleRecord& c : system_->sim().trace().cycles()) {
    EXPECT_GE(c.trips, 0);
    EXPECT_GE(c.revenue_cny, 0.0f);
    EXPECT_GT(c.charge_cost_cny, 0.0f);
    trips += c.trips;
    revenue += c.revenue_cny;
  }
  // Cycle-attributed trips are a subset of all trips (the horizon's open
  // cycles are not closed).
  EXPECT_LE(trips, system_->sim().trace().total_trips());
  EXPECT_GT(trips, 0);
  EXPECT_GT(revenue, 0.0);
}

TEST_F(CycleTest, TypicalCycleLastsHours) {
  Sample cycle_hours;
  for (const CycleRecord& c : system_->sim().trace().cycles()) {
    cycle_hours.Add(c.cycle_min() / 60.0);
  }
  ASSERT_FALSE(cycle_hours.empty());
  // One charge per ~12-24h of operation at these consumption rates.
  EXPECT_GT(cycle_hours.Median(), 3.0);
  EXPECT_LT(cycle_hours.Median(), 48.0);
}

// ---------------------------------------------------------------- Report --

TEST(ReportWriterTest, RendersAllSections) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 1;
  cfg.eval.days = 1;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const auto results = system->RunComparison({PolicyKind::kSd2});
  ReportWriter report(results);
  const std::string markdown = report.ToMarkdown();
  EXPECT_NE(markdown.find("# FairMove evaluation report"), std::string::npos);
  EXPECT_NE(markdown.find("Headline comparison"), std::string::npos);
  EXPECT_NE(markdown.find("Fig 10"), std::string::npos);
  EXPECT_NE(markdown.find("Fig 12"), std::string::npos);
  EXPECT_NE(markdown.find("Fig 14"), std::string::npos);
  EXPECT_NE(markdown.find("Figs 11/13"), std::string::npos);
  EXPECT_NE(markdown.find("| GT |"), std::string::npos);
  EXPECT_NE(markdown.find("| SD2 |"), std::string::npos);
  // Every Section-IV artefact appears under its paper title.
  for (const char* artefact : {
           "Table II — average PRCT per method",
           "Table III — average PRIT per method",
           "Fig 10 — per-trip cruise time by method",
           "Fig 11 — hourly PRCT by method",
           "Fig 12 — per-charge idle time by method",
           "Fig 13 — hourly PRIT by method",
           "Fig 14 — hourly PE distribution by method",
           "Fig 15 — overall PIPE per method",
           "Fig 16 — overall PIPF per method",
       }) {
    EXPECT_NE(markdown.find(artefact), std::string::npos) << artefact;
  }
  const size_t fig14 = markdown.find("## Fig 14");
  ASSERT_NE(fig14, std::string::npos);
  EXPECT_NE(markdown.find("| p10 |", fig14), std::string::npos);
  EXPECT_NE(markdown.find("| PE gini |"), std::string::npos);
  // The paper's SD2 row: PIPE, PIPF, PRCT, PRIT (Figs 15/16, Tables II/III).
  EXPECT_NE(markdown.find("| SD2 | -5.0% | 13% | 19.4% | -23.1% |"),
            std::string::npos);
}

TEST(ReportWriterTest, WritesFile) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.eval.days = 1;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  Evaluator evaluator = system->MakeEvaluator();
  std::vector<MethodResult> results{evaluator.RunGroundTruth()};
  ReportWriter report(std::move(results));
  const std::string path = ::testing::TempDir() + "/fairmove_report_test.md";
  ASSERT_TRUE(report.WriteFile(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fairmove
