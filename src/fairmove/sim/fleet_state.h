#ifndef FAIRMOVE_SIM_FLEET_STATE_H_
#define FAIRMOVE_SIM_FLEET_STATE_H_

#include <cstdint>
#include <vector>

#include "fairmove/geo/region.h"
#include "fairmove/sim/battery.h"
#include "fairmove/sim/taxi.h"

namespace fairmove {

/// Cold per-taxi state: fields only touched when an *event* happens to that
/// taxi (a pickup, a charge errand, a breakdown). Kept as an array of
/// structs on purpose — per-slot scans never read it, so packing it densely
/// would only dilute the hot columns' cache lines.
struct TaxiCold {
  // Field order is deliberate: the members every pickup touches (the trip
  // fields and counters below) are packed together at the front so
  // BeginServing dirties one cache line per trip instead of three.

  /// Serving: where the passenger is going and the fare to credit at
  /// drop-off.
  RegionId trip_dest = kInvalidRegion;
  /// Event-driven lifetime trip counter (the slot-driven minute/money
  /// counters live as FleetState columns).
  int num_trips = 0;
  double pending_fare = 0.0;
  /// Slot at which the taxi last became vacant (cruise-time bookkeeping).
  int64_t vacant_since = 0;
  /// Index into the trace's charge-event vector of the most recent
  /// completed charge, so the first pickup afterwards can back-fill the
  /// first-cruise time (Figs 5/6). -1 when none pending.
  int64_t last_charge_event = -1;
  double km_driven = 0.0;
  /// True from charge completion until the next pickup.
  bool awaiting_first_pickup = false;

  /// Charging: the station being targeted / used.
  StationId station = kInvalidStation;
  /// SoC at which the current charging session unplugs.
  double charge_target_soc = 0.95;

  /// Slot at which the taxi started seeking a charger (t3 in Fig 1).
  int64_t idle_since = 0;
  /// Slot at which the taxi plugged in (t4 in Fig 1).
  int64_t plugged_at = 0;
  /// kWh and CNY of the in-progress charging session.
  double session_kwh = 0.0;
  double session_cost = 0.0;
  double session_start_soc = 0.0;
  /// Minutes actually spent plugged in this session (continuous).
  double session_charge_min = 0.0;
  /// Plug derating of the current session (1 = full-power fast point).
  double session_power_factor = 1.0;
  /// Continuous driving time to the station (part of the idle time record).
  double session_travel_min = 0.0;
  /// Whole slots the drive to the station occupied.
  int64_t charge_travel_slots = 0;
  /// Times this charge errand was redirected after balking at a full
  /// station's queue.
  int charge_redirects = 0;

  /// Event-driven lifetime counters (the slot-driven minute/money counters
  /// live as FleetState columns; km_driven/num_trips sit in the trip block
  /// above).
  double kwh_charged = 0.0;
  int num_charges = 0;
  int num_strandings = 0;
  int num_breakdowns = 0;

  /// Snapshot of the taxi's totals at the start of the current working
  /// cycle (the end of the previous charging event); the delta at the next
  /// charge end is the CycleRecord.
  TaxiTotals cycle_baseline;
  int64_t cycle_start_slot = 0;
};

/// Structure-of-arrays state of the whole fleet. The per-slot hot loops
/// (arrival completion, matching candidate scans, time accounting, PE
/// statistics, observation building) each touch only the columns they need,
/// so a 20,130-taxi scan moves a few dense cache lines per 8 taxis instead
/// of one ~400-byte struct per taxi.
///
/// The columns are public by design: FleetState is a data bundle like
/// TaxiTotals, and the simulator's hot loops index the vectors directly.
/// External readers (metrics, analysis, tests) should prefer the
/// materialised Totals()/hourly_pe() views.
class FleetState {
 public:
  /// Re-initialises `num_taxis` taxis in the default (cruising, slot-0)
  /// state with SoC 0; the simulator fills positions and SoCs from its
  /// seeded draws. CHECK-fails on an invalid battery config.
  void Reset(int num_taxis, const BatteryConfig& battery);

  int size() const { return static_cast<int>(region.size()); }

  const BatteryConfig& battery() const { return battery_; }

  bool IsVacant(TaxiId i, int64_t slot) const {
    return phase[static_cast<size_t>(i)] == TaxiPhase::kCruising &&
           busy_until[static_cast<size_t>(i)] <= slot;
  }

  double on_duty_min(TaxiId i) const {
    const size_t k = static_cast<size_t>(i);
    return cruise_min[k] + serve_min[k] + idle_min[k] + charge_min[k];
  }
  double profit_cny(TaxiId i) const {
    const size_t k = static_cast<size_t>(i);
    return revenue_cny[k] - charge_cost_cny[k];
  }
  /// Profit efficiency in CNY per on-duty hour (Eq. 2). 0 when idle-new.
  double hourly_pe(TaxiId i) const {
    const double m = on_duty_min(i);
    return m > 0.0 ? profit_cny(i) / (m / 60.0) : 0.0;
  }

  /// Materialises the classic per-taxi accounting view from the columns.
  TaxiTotals Totals(TaxiId i) const;

  // --- Battery column ops (battery_math on the SoC column) -------------
  double kwh(TaxiId i) const {
    return soc[static_cast<size_t>(i)] * battery_.capacity_kwh;
  }
  bool BatteryEmpty(TaxiId i) const {
    return soc[static_cast<size_t>(i)] <= 0.0;
  }
  /// Drains taxi `i` by `km` of driving; returns km actually covered.
  double ConsumeKm(TaxiId i, double km) {
    return battery_math::ConsumeKm(battery_, &soc[static_cast<size_t>(i)], km);
  }
  /// Per-slot charge step: advances taxi `i` toward `target_soc` for at
  /// most `cap_minutes`; returns kWh absorbed, writes minutes spent.
  double ChargeToward(TaxiId i, double target_soc, double cap_minutes,
                      double power_scale, double* minutes_used) {
    return battery_math::ChargeToward(battery_, &soc[static_cast<size_t>(i)],
                                      target_soc, cap_minutes, power_scale,
                                      minutes_used);
  }

  // --- Hot columns ------------------------------------------------------
  std::vector<RegionId> region;
  std::vector<TaxiPhase> phase;
  /// Slot index at which the current busy activity (serving / driving to a
  /// station / relocating) completes; meaningful when > current slot.
  std::vector<int64_t> busy_until;
  /// State of charge in [0, 1].
  std::vector<double> soc;
  /// Per-slot time accounting (the Eq-1/2 denominators).
  std::vector<double> cruise_min;
  std::vector<double> serve_min;
  std::vector<double> idle_min;
  std::vector<double> charge_min;
  /// Money accounting (the Eq-1/2 numerator).
  std::vector<double> revenue_cny;
  std::vector<double> charge_cost_cny;

  /// Event-driven cold state, one entry per taxi.
  std::vector<TaxiCold> cold;

 private:
  BatteryConfig battery_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_SIM_FLEET_STATE_H_
