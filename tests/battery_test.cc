#include <gtest/gtest.h>

#include "fairmove/sim/battery.h"

namespace fairmove {
namespace {

using battery_math::ChargeToward;
using battery_math::ConsumeKm;
using battery_math::PowerKwAt;

constexpr double kDayMinutes = 24.0 * 60.0;

TEST(BatteryConfigTest, DefaultIsBydE6) {
  const BatteryConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.capacity_kwh, 80.0);
  EXPECT_DOUBLE_EQ(cfg.consumption_kwh_per_km, 0.2);
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(BatteryConfigTest, ValidateRejectsBadValues) {
  BatteryConfig cfg;
  cfg.capacity_kwh = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BatteryConfig{};
  cfg.consumption_kwh_per_km = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BatteryConfig{};
  cfg.min_charge_kw = 100.0;  // > max
  EXPECT_FALSE(cfg.Validate().ok());
  cfg = BatteryConfig{};
  cfg.taper_soc = 1.5;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(BatteryTest, FullPackHas400KmRange) {
  double soc = 1.0;
  EXPECT_DOUBLE_EQ(ConsumeKm(BatteryConfig{}, &soc, 400.0), 400.0);
  EXPECT_DOUBLE_EQ(soc, 0.0);
}

TEST(BatteryTest, ConsumeDrainsProportionally) {
  double soc = 1.0;
  EXPECT_DOUBLE_EQ(ConsumeKm(BatteryConfig{}, &soc, 100.0), 100.0);
  EXPECT_NEAR(soc, 0.75, 1e-12);
}

TEST(BatteryTest, ConsumeBeyondRangeStopsAtEmpty) {
  double soc = 0.1;  // 40 km range
  EXPECT_NEAR(ConsumeKm(BatteryConfig{}, &soc, 100.0), 40.0, 1e-9);
  EXPECT_LE(soc, 0.0);
  EXPECT_DOUBLE_EQ(ConsumeKm(BatteryConfig{}, &soc, 10.0), 0.0);
}

TEST(BatteryTest, ChargePowerConstantBelowTaper) {
  const BatteryConfig cfg;
  EXPECT_DOUBLE_EQ(PowerKwAt(cfg, 0.2), cfg.max_charge_kw);
  EXPECT_DOUBLE_EQ(PowerKwAt(cfg, 0.79), cfg.max_charge_kw);
}

TEST(BatteryTest, ChargePowerTapersAboveKnee) {
  const BatteryConfig cfg;
  const double p90 = PowerKwAt(cfg, 0.9);
  EXPECT_LT(p90, cfg.max_charge_kw);
  EXPECT_GT(p90, cfg.min_charge_kw - 1e-9);
  EXPECT_DOUBLE_EQ(PowerKwAt(cfg, 1.0), 0.0);
}

// Energy over a fixed time: with the target out of reach, ChargeToward
// charges for the whole cap.
TEST(BatteryTest, ChargeForAddsExpectedEnergy) {
  double soc = 0.2;
  double minutes = 0.0;
  // 60 minutes at 40 kW (all below taper) = 40 kWh.
  const double added =
      ChargeToward(BatteryConfig{}, &soc, 1.0, 60.0, 1.0, &minutes);
  EXPECT_NEAR(added, 40.0, 0.5);
  EXPECT_NEAR(soc, 0.7, 0.01);
  EXPECT_DOUBLE_EQ(minutes, 60.0);
}

// No overshoot: charging stops in the minute that reaches the target, and
// never passes a full pack.
TEST(BatteryTest, ChargeForNeverOvershootsFull) {
  const BatteryConfig cfg;
  const double one_minute = cfg.max_charge_kw / 60.0 / cfg.capacity_kwh;
  double soc = 0.5;
  double minutes = 0.0;
  ChargeToward(cfg, &soc, 0.6, 600.0, 1.0, &minutes);
  EXPECT_GE(soc, 0.6);
  EXPECT_LT(soc, 0.6 + one_minute);
  EXPECT_DOUBLE_EQ(minutes, 12.0);  // 8 kWh at 40 kW

  soc = 0.99;
  ChargeToward(cfg, &soc, 1.0, 600.0, 1.0, &minutes);
  EXPECT_LE(soc, 1.0 + 1e-12);
  EXPECT_DOUBLE_EQ(ChargeToward(cfg, &soc, 1.0, 10.0, 1.0, &minutes), 0.0);
}

TEST(BatteryTest, PowerScaleDeratesCharging) {
  double fast = 0.2;
  double slow = 0.2;
  double minutes = 0.0;
  const double fast_added =
      ChargeToward(BatteryConfig{}, &fast, 1.0, 30.0, 1.0, &minutes);
  const double slow_added =
      ChargeToward(BatteryConfig{}, &slow, 1.0, 30.0, 0.5, &minutes);
  EXPECT_NEAR(slow_added, fast_added / 2.0, 0.3);
}

// Above the knee the same time buys less energy, and a session that
// crosses the knee matches one that stops there and resumes.
TEST(BatteryTest, ChargeTowardSlowsAboveTheTaperKnee) {
  const BatteryConfig cfg;
  double low = 0.2;
  double high = 0.85;
  double minutes = 0.0;
  const double low_added = ChargeToward(cfg, &low, 1.0, 10.0, 1.0, &minutes);
  const double high_added =
      ChargeToward(cfg, &high, 1.0, 10.0, 1.0, &minutes);
  EXPECT_LT(high_added, low_added);
  EXPECT_GT(high_added, cfg.min_charge_kw * 10.0 / 60.0);

  double through = 0.7;
  double split = 0.7;
  double first = 0.0, second = 0.0;
  ChargeToward(cfg, &through, 0.95, kDayMinutes, 1.0, &minutes);
  ChargeToward(cfg, &split, cfg.taper_soc, kDayMinutes, 1.0, &first);
  ChargeToward(cfg, &split, 0.95, kDayMinutes, 1.0, &second);
  EXPECT_NEAR(split, through, 0.01);
  EXPECT_NEAR(first + second, minutes, 1.0);
}

TEST(BatteryTest, MinutesToReachZeroWhenAlreadyThere) {
  double soc = 0.9;
  double minutes = -1.0;
  EXPECT_DOUBLE_EQ(
      ChargeToward(BatteryConfig{}, &soc, 0.5, kDayMinutes, 1.0, &minutes),
      0.0);
  EXPECT_DOUBLE_EQ(minutes, 0.0);
  ChargeToward(BatteryConfig{}, &soc, 0.9, kDayMinutes, 1.0, &minutes);
  EXPECT_DOUBLE_EQ(minutes, 0.0);
  EXPECT_DOUBLE_EQ(soc, 0.9);
}

TEST(BatteryTest, TypicalSessionMatchesPaperDurations) {
  // Forced charge at 20% to ~95% should land in the paper's dominant
  // 45-120 min band (Fig 3).
  double soc = 0.2;
  double minutes = 0.0;
  ChargeToward(BatteryConfig{}, &soc, 0.95, kDayMinutes, 1.0, &minutes);
  EXPECT_GE(soc, 0.95);
  EXPECT_GT(minutes, 45.0);
  EXPECT_LT(minutes, 120.0);
}

class BatteryRoundTrip
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(BatteryRoundTrip, DriveChargeCycleConservesEnergyAccounting) {
  const BatteryConfig cfg;
  const double initial = std::get<0>(GetParam());
  const double km = std::get<1>(GetParam());
  double soc = initial;
  const double driven = ConsumeKm(cfg, &soc, km);
  const double kwh_used = driven * cfg.consumption_kwh_per_km;
  double minutes = 0.0;
  const double added =
      ChargeToward(cfg, &soc, initial, kDayMinutes, 1.0, &minutes);
  // Energy put back ~= energy used (within the 1-minute integration step).
  EXPECT_NEAR(added, kwh_used, 1.0);
  EXPECT_NEAR(soc, initial, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Cycles, BatteryRoundTrip,
    ::testing::Combine(::testing::Values(0.5, 0.7, 0.9),
                       ::testing::Values(10.0, 60.0, 150.0)));

}  // namespace
}  // namespace fairmove
