#ifndef FAIRMOVE_SIM_BATTERY_H_
#define FAIRMOVE_SIM_BATTERY_H_

#include "fairmove/common/status.h"

namespace fairmove {

/// Electrical parameters of the fleet's vehicle model. Defaults are the
/// BYD e6 the whole Shenzhen fleet uses (paper §II-A): 80 kWh pack,
/// 400 km range.
struct BatteryConfig {
  double capacity_kwh = 80.0;
  double consumption_kwh_per_km = 0.2;  // => 400 km range
  /// DC fast-charge power while below `taper_soc` (BYD e6 fast chargers
  /// in the paper's era were ~40 kW).
  double max_charge_kw = 40.0;
  /// State of charge above which charging power tapers linearly...
  double taper_soc = 0.80;
  /// ...down to this power at 100% SoC.
  double min_charge_kw = 10.0;

  Status Validate() const;
};

/// SoC arithmetic on one pack's state of charge, as FleetState's SoC
/// column applies it.
namespace battery_math {

/// Charging power at `soc`: `max_charge_kw` below `taper_soc`, then a
/// linear taper toward `min_charge_kw` as the pack fills, and 0 once full.
/// The taper is what stretches top-ups into the 45-120 min sessions the
/// paper reports in Fig 3.
double PowerKwAt(const BatteryConfig& config, double soc);

/// Drains `*soc` by `km` of driving; returns the km actually covered
/// before the pack hit empty.
double ConsumeKm(const BatteryConfig& config, double* soc, double km);

/// Per-slot charging step: advances `*soc` toward `target_soc` for at most
/// `cap_minutes` at the plug (1-minute numeric integration of the power
/// curve, `power_scale` derating it), stopping at the first whole minute
/// where the target is reached and never past full. Returns kWh absorbed
/// and writes the minutes spent to `*minutes_used`.
double ChargeToward(const BatteryConfig& config, double* soc,
                    double target_soc, double cap_minutes,
                    double power_scale, double* minutes_used);

}  // namespace battery_math

}  // namespace fairmove

#endif  // FAIRMOVE_SIM_BATTERY_H_
