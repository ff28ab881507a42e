#include "fairmove/sim/battery.h"

#include <algorithm>
#include <cmath>

namespace fairmove {

Status BatteryConfig::Validate() const {
  if (capacity_kwh <= 0.0) {
    return Status::InvalidArgument("capacity_kwh must be > 0");
  }
  if (consumption_kwh_per_km <= 0.0) {
    return Status::InvalidArgument("consumption_kwh_per_km must be > 0");
  }
  if (max_charge_kw <= 0.0 || min_charge_kw <= 0.0 ||
      min_charge_kw > max_charge_kw) {
    return Status::InvalidArgument(
        "need 0 < min_charge_kw <= max_charge_kw");
  }
  if (taper_soc <= 0.0 || taper_soc > 1.0) {
    return Status::InvalidArgument("taper_soc must be in (0, 1]");
  }
  return Status::OK();
}

namespace battery_math {

double PowerKwAt(const BatteryConfig& config, double soc) {
  if (soc < config.taper_soc) return config.max_charge_kw;
  if (soc >= 1.0) return 0.0;
  const double frac = (soc - config.taper_soc) / (1.0 - config.taper_soc);
  return config.max_charge_kw +
         frac * (config.min_charge_kw - config.max_charge_kw);
}

double ConsumeKm(const BatteryConfig& config, double* soc, double km) {
  FM_CHECK(km >= 0.0);
  const double possible_km =
      *soc * config.capacity_kwh / config.consumption_kwh_per_km;
  const double driven = std::min(km, possible_km);
  *soc = std::max(
      0.0, *soc - driven * config.consumption_kwh_per_km / config.capacity_kwh);
  return driven;
}

double ChargeToward(const BatteryConfig& config, double* soc,
                    double target_soc, double cap_minutes,
                    double power_scale, double* minutes_used) {
  FM_CHECK(cap_minutes >= 0.0);
  FM_CHECK(power_scale > 0.0);
  double added = 0.0;
  double minutes = 0.0;
  // 1-minute integration steps, stopping as soon as the target is reached.
  // Below the taper knee the power is constant, so whole minutes there are
  // batched into one closed-form jump instead of stepping.
  while (minutes < cap_minutes && *soc < target_soc && *soc < 1.0) {
    const double bound = std::min(target_soc, config.taper_soc);
    const double whole = std::floor(cap_minutes - minutes);
    if (whole >= 1.0 && *soc < bound) {
      const double kwh_min = power_scale * config.max_charge_kw / 60.0;
      const double dsoc = kwh_min / config.capacity_kwh;
      if (dsoc < (1.0 - *soc)) {  // the per-minute cap cannot bind here
        const double steps = std::min(
            whole, std::ceil((bound - *soc) / dsoc));
        if (steps >= 1.0) {
          *soc += steps * dsoc;
          added += steps * kwh_min;
          minutes += steps;
          continue;
        }
      }
    }
    const double dt_min = std::min(1.0, cap_minutes - minutes);
    const double kwh = power_scale * PowerKwAt(config, *soc) * dt_min / 60.0;
    const double capped = std::min(kwh, (1.0 - *soc) * config.capacity_kwh);
    if (capped <= 0.0) break;
    *soc += capped / config.capacity_kwh;
    added += capped;
    minutes += dt_min;
  }
  *minutes_used = minutes;
  return added;
}

}  // namespace battery_math

}  // namespace fairmove
