#ifndef FAIRMOVE_PRICING_TOU_TARIFF_H_
#define FAIRMOVE_PRICING_TOU_TARIFF_H_

#include <array>

#include "fairmove/common/time_types.h"

namespace fairmove {

/// Time-of-use charging price periods (paper §II-A dataset v / Fig 2).
enum class PricePeriod : uint8_t {
  kOffPeak = 0,  // low rate
  kFlat = 1,     // semi-peak / medium rate
  kPeak = 2,     // high rate
};

const char* PricePeriodName(PricePeriod p);

/// Shenzhen e-taxi charging rates in CNY/kWh (paper §II-A).
inline constexpr double kOffPeakRate = 0.9;
inline constexpr double kFlatRate = 1.2;
inline constexpr double kPeakRate = 1.6;

/// Time-of-use tariff: maps every hour of day to a price period and CNY/kWh
/// rate. The default schedule reproduces the paper's Fig 2 structure —
/// off-peak valleys at night (02:00–07:00), midday (12:00–14:00) and
/// 17:00–18:00, which is what produces the intensive charging peaks of
/// Fig 4 at exactly those windows.
class TouTariff {
 public:
  /// The Fig-2 schedule.
  static TouTariff Shenzhen();

  /// Price period in effect during `slot`.
  PricePeriod PeriodAt(TimeSlot slot) const {
    return periods_[static_cast<size_t>(slot.HourOfDay())];
  }

  /// CNY per kWh in effect during `slot`.
  double RateAt(TimeSlot slot) const { return RateOf(PeriodAt(slot)); }

  /// CNY per kWh of a period (the lambda vector of Eq. 2:
  /// [lambda_o, lambda_f, lambda_p] = [0.9, 1.2, 1.6]).
  static double RateOf(PricePeriod p);

  /// Cost in CNY of drawing `kwh` during `slot`.
  double CostOf(TimeSlot slot, double kwh) const { return RateAt(slot) * kwh; }

  /// Hours of day assigned to `p` (for rendering Fig 2).
  int HoursIn(PricePeriod p) const;

 private:
  explicit TouTariff(std::array<PricePeriod, kHoursPerDay> periods)
      : periods_(periods) {}

  std::array<PricePeriod, kHoursPerDay> periods_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_PRICING_TOU_TARIFF_H_
