#include <gtest/gtest.h>

#include "fairmove/pricing/fare_model.h"
#include "fairmove/pricing/tou_tariff.h"

namespace fairmove {
namespace {

// ------------------------------------------------------------- TouTariff --

TEST(TouTariffTest, RatesMatchPaper) {
  EXPECT_DOUBLE_EQ(TouTariff::RateOf(PricePeriod::kOffPeak), 0.9);
  EXPECT_DOUBLE_EQ(TouTariff::RateOf(PricePeriod::kFlat), 1.2);
  EXPECT_DOUBLE_EQ(TouTariff::RateOf(PricePeriod::kPeak), 1.6);
}

TEST(TouTariffTest, ShenzhenScheduleHasAllThreePeriods) {
  const TouTariff tariff = TouTariff::Shenzhen();
  EXPECT_GT(tariff.HoursIn(PricePeriod::kOffPeak), 0);
  EXPECT_GT(tariff.HoursIn(PricePeriod::kFlat), 0);
  EXPECT_GT(tariff.HoursIn(PricePeriod::kPeak), 0);
  EXPECT_EQ(tariff.HoursIn(PricePeriod::kOffPeak) +
                tariff.HoursIn(PricePeriod::kFlat) +
                tariff.HoursIn(PricePeriod::kPeak),
            kHoursPerDay);
}

TEST(TouTariffTest, ValleysMatchFig4ChargingPeaks) {
  // The paper's charging peaks (2-6, 12-14, 17-18 h) sit in price valleys.
  const TouTariff tariff = TouTariff::Shenzhen();
  auto slot_at_hour = [](int h) { return TimeSlot(h * kSlotsPerHour); };
  for (int h : {2, 3, 4, 5, 6, 12, 13, 17}) {
    EXPECT_EQ(tariff.PeriodAt(slot_at_hour(h)), PricePeriod::kOffPeak)
        << "hour " << h;
  }
  for (int h : {9, 10, 11, 14, 15, 16, 18, 19, 20, 21}) {
    EXPECT_EQ(tariff.PeriodAt(slot_at_hour(h)), PricePeriod::kPeak)
        << "hour " << h;
  }
}

TEST(TouTariffTest, RateAtFollowsPeriod) {
  const TouTariff tariff = TouTariff::Shenzhen();
  const TimeSlot night(3 * kSlotsPerHour);
  const TimeSlot morning(10 * kSlotsPerHour);
  EXPECT_DOUBLE_EQ(tariff.RateAt(night), 0.9);
  EXPECT_DOUBLE_EQ(tariff.RateAt(morning), 1.6);
}

TEST(TouTariffTest, CostOfScalesWithEnergy) {
  const TouTariff tariff = TouTariff::Shenzhen();
  const TimeSlot night(3 * kSlotsPerHour);
  EXPECT_DOUBLE_EQ(tariff.CostOf(night, 10.0), 9.0);
  EXPECT_DOUBLE_EQ(tariff.CostOf(night, 0.0), 0.0);
}

TEST(TouTariffTest, PeriodRepeatsDaily) {
  const TouTariff tariff = TouTariff::Shenzhen();
  for (int s = 0; s < kSlotsPerDay; ++s) {
    EXPECT_EQ(tariff.PeriodAt(TimeSlot(s)),
              tariff.PeriodAt(TimeSlot(s + 3 * kSlotsPerDay)));
  }
}

TEST(TouTariffTest, PeriodNames) {
  EXPECT_STREQ(PricePeriodName(PricePeriod::kOffPeak), "off-peak");
  EXPECT_STREQ(PricePeriodName(PricePeriod::kPeak), "peak");
}

// ----------------------------------------------------------- FareSchedule --

TEST(FareScheduleTest, FlagFareCoversShortTrips) {
  const FareSchedule fares = ShenzhenFares();
  const TimeSlot noon(12 * kSlotsPerHour);
  const double fare = fares.Fare(1.0, 5.0, noon);
  EXPECT_DOUBLE_EQ(fare, fares.flag_fare_cny + 5.0 * fares.per_minute_cny);
}

TEST(FareScheduleTest, MeteredBeyondFlagDistance) {
  const FareSchedule fares = ShenzhenFares();
  const TimeSlot noon(12 * kSlotsPerHour);
  const double f2 = fares.Fare(2.0, 0.0, noon);
  const double f5 = fares.Fare(5.0, 0.0, noon);
  EXPECT_NEAR(f5 - f2, 3.0 * fares.per_km_cny, 1e-9);
}

TEST(FareScheduleTest, MonotoneInDistanceAndTime) {
  const FareSchedule fares = ShenzhenFares();
  const TimeSlot noon(12 * kSlotsPerHour);
  double prev = 0.0;
  for (double km = 0.0; km <= 40.0; km += 1.0) {
    const double f = fares.Fare(km, km * 2.0, noon);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(FareScheduleTest, NightSurchargeApplies) {
  const FareSchedule fares = ShenzhenFares();
  const TimeSlot night(2 * kSlotsPerHour);
  const TimeSlot noon(12 * kSlotsPerHour);
  const double day_fare = fares.Fare(8.0, 15.0, noon);
  const double night_fare = fares.Fare(8.0, 15.0, night);
  EXPECT_NEAR(night_fare, day_fare * (1.0 + fares.night_surcharge), 1e-9);
}

TEST(FareScheduleTest, LongTripSurchargeBeyond25Km) {
  const FareSchedule fares = ShenzhenFares();
  const TimeSlot noon(12 * kSlotsPerHour);
  const double f25 = fares.Fare(25.0, 0.0, noon);
  const double f26 = fares.Fare(26.0, 0.0, noon);
  EXPECT_NEAR(f26 - f25,
              fares.per_km_cny * (1.0 + fares.long_trip_surcharge), 1e-9);
}

TEST(FareScheduleTest, ValidateRejectsNegatives) {
  FareSchedule fares;
  fares.per_km_cny = -1.0;
  EXPECT_FALSE(fares.Validate().ok());
  fares = FareSchedule{};
  fares.night_surcharge = -0.1;
  EXPECT_FALSE(fares.Validate().ok());
  EXPECT_TRUE(ShenzhenFares().Validate().ok());
}

TEST(FareScheduleTest, TypicalUrbanTripIsPlausible) {
  // A 6 km / 15 min daytime trip should cost roughly 20-40 CNY.
  const double fare =
      ShenzhenFares().Fare(6.0, 15.0, TimeSlot(10 * kSlotsPerHour));
  EXPECT_GT(fare, 18.0);
  EXPECT_LT(fare, 45.0);
}

}  // namespace
}  // namespace fairmove
