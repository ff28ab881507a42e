#ifndef FAIRMOVE_SIM_SIMULATOR_H_
#define FAIRMOVE_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/common/stats.h"
#include "fairmove/common/status.h"
#include "fairmove/common/time_types.h"
#include "fairmove/demand/demand_source.h"
#include "fairmove/demand/demand_predictor.h"
#include "fairmove/geo/city.h"
#include "fairmove/pricing/fare_model.h"
#include "fairmove/pricing/tou_tariff.h"
#include "fairmove/resilience/fault_schedule.h"
#include "fairmove/sim/action.h"
#include "fairmove/sim/fleet_state.h"
#include "fairmove/sim/matching.h"
#include "fairmove/sim/policy.h"
#include "fairmove/sim/station_queue.h"
#include "fairmove/sim/taxi.h"
#include "fairmove/sim/trace.h"

namespace fairmove {

/// Simulation parameters. Defaults follow the paper: eta = 20% forced
/// charging threshold (§III-C), 10-minute slots, BYD-e6 batteries.
struct SimConfig {
  int num_taxis = 20130;
  /// City scale this sim config was derived at (FairMoveConfig::Scaled
  /// records it; 1.0 = the paper's full Shenzhen). Carried here so an
  /// invalid requested scale is rejected with a structured Status at
  /// Create() instead of silently building a degenerate city.
  double scale = 1.0;
  /// Forced-charging SoC threshold eta: at/below this the policy must pick
  /// a charging action.
  double soc_force_charge = 0.20;
  /// Below this SoC charging actions become *available* to the policy.
  double soc_may_charge = 0.60;
  /// A charging session unplugs at a per-session target SoC drawn
  /// uniformly from [charge_target_min, charge_target_max] — drivers do
  /// not all charge to full, which spreads the Fig-3 duration distribution.
  double charge_target_min = 0.70;
  double charge_target_max = 1.00;
  /// Whole slots an unserved request waits before expiring.
  int request_patience_slots = 2;
  /// Minutes from match to passenger on board (approach + boarding).
  double pickup_overhead_min = 1.5;
  /// Fraction of a cruising slot actually spent driving (battery drain).
  double cruise_drive_factor = 0.5;
  /// Initial SoC is drawn uniformly from this range at Reset.
  double initial_soc_min = 0.55;
  double initial_soc_max = 1.00;
  /// Idle-time penalty charged to a taxi that strands with an empty pack
  /// (tow to the nearest station).
  double stranding_penalty_min = 60.0;
  /// A share of plug-ins land on derated points (ageing plugs / load
  /// sharing), stretching the charge-duration tail of Fig 3.
  double slow_plug_prob = 0.15;
  double slow_plug_factor = 0.5;
  /// Balking: a taxi arriving at a station whose waiting line is at least
  /// renege_queue_factor * num_points drives on to a less loaded nearby
  /// station (at most max_charge_redirects times per errand).
  double renege_queue_factor = 1.0;
  int max_charge_redirects = 2;
  /// Ridesharing generalisation (paper SV): when > 0, unserved requests
  /// may be dispatched to vacant taxis in *other* regions within this
  /// travel-time radius (nearest region first), modelling a centralized
  /// e-hailing fleet where origins are known. 0 = pure street hailing
  /// (the paper's e-taxi setting).
  double dispatch_radius_minutes = 0.0;
  /// Street-hailing competitiveness: per-driver "hustle" is drawn from
  /// lognormal(0, hustle_sigma) at Reset; within a region, waiting
  /// passengers go to drivers in proportion to hustle (a weighted lottery
  /// each slot). This is the persistent, displacement-addressable
  /// inequality behind the paper's Fig 8: low-hustle drivers starve in
  /// contested regions but earn normally where supply is scarce.
  double hustle_sigma = 0.45;
  BatteryConfig battery;
  FareSchedule fares;
  TraceLevel trace_level = TraceLevel::kFull;
  uint64_t seed = 7;

  Status Validate() const;
};

/// One displacement decision as executed, kept for the RL trainer.
struct Decision {
  TaxiId taxi = -1;
  RegionId region = kInvalidRegion;  // region at decision time
  int action_index = 0;
  bool must_charge = false;
  bool may_charge = false;
};

/// Discrete-time fleet simulator. Each Step() advances one 10-minute slot:
/// trips complete, stations plug in and charge queued taxis, new passenger
/// requests spawn, region-local matching runs, and the supplied policy
/// decides a displacement action for every still-vacant taxi.
///
/// The simulator is the "environment" of the paper's MDP (§III-C); all
/// stochasticity flows from the seed in SimConfig, so runs are reproducible.
///
/// Scale architecture (DESIGN.md §11): fleet state is a structure of
/// arrays (FleetState), region-local phases run sharded over the global
/// ThreadPool with per-shard outboxes merged in shard order (the §7
/// determinism contract: results are byte-identical at any
/// FAIRMOVE_THREADS), and busy-taxi transitions come due via a slot
/// calendar instead of a full-fleet scan.
class Simulator {
 public:
  /// `city` and `demand` must outlive the simulator.
  static StatusOr<std::unique_ptr<Simulator>> Create(
      const City* city, const DemandSource* demand, const TouTariff& tariff,
      const SimConfig& config);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Re-initialises the fleet (positions, SoCs) and clears all accounting.
  /// Uses the config seed unless `seed_override` is non-zero.
  void Reset(uint64_t seed_override = 0);

  /// Installs a fault-injection schedule (nullptr removes it). The schedule
  /// must outlive the simulator and is validated against this city; it
  /// survives Reset() so chaos experiments replay identically per episode.
  /// Breakdown draws come from a dedicated RNG stream seeded alongside the
  /// main one, so an installed-but-empty schedule leaves a run bit-for-bit
  /// identical to a schedule-free run.
  Status SetFaultSchedule(const FaultSchedule* schedule);
  const FaultSchedule* fault_schedule() const { return fault_schedule_; }

  /// Advances one slot under `policy` (nullptr = every taxi stays, charging
  /// forced at the threshold via the nearest station).
  void Step(DisplacementPolicy* policy);

  /// Convenience: run `slots` consecutive steps.
  void RunSlots(DisplacementPolicy* policy, int64_t slots);
  void RunDays(DisplacementPolicy* policy, int days) {
    RunSlots(policy, static_cast<int64_t>(days) * kSlotsPerDay);
  }

  // --- Observable state (what policies/features may read) ---------------
  TimeSlot now() const { return now_; }
  const City& city() const { return *city_; }
  const DemandSource& demand() const { return *demand_; }
  const TouTariff& tariff() const { return tariff_; }
  const SimConfig& config() const { return config_; }
  const ActionSpace& action_space() const { return action_space_; }
  const DemandPredictor& predictor() const { return predictor_; }

  int num_taxis() const { return fleet_.size(); }
  /// Structure-of-arrays fleet state (columns + materialised Totals()).
  const FleetState& fleet() const { return fleet_; }

  /// Persistent street-hailing competitiveness of one driver (constant
  /// between Resets).
  double hustle(TaxiId id) const {
    return hustle_.at(static_cast<size_t>(id));
  }

  /// Cruising (available) taxis currently in `region`.
  int VacantCount(RegionId region) const {
    return vacant_count_.at(static_cast<size_t>(region));
  }
  /// Requests currently waiting in `region`.
  int PendingRequests(RegionId region) const {
    return matching_.PendingCount(region);
  }
  const StationQueue& station_queue(StationId s) const {
    return stations_.at(static_cast<size_t>(s));
  }

  /// Fixed region-shard count of this city (independent of the thread
  /// count, so shard-local RNG streams and merge order never depend on
  /// FAIRMOVE_THREADS).
  int num_shards() const { return num_shards_; }

  /// Fleet-mean hourly PE so far (0 early on).
  double FleetMeanPe() const { return fleet_mean_pe_; }
  /// Fleet population variance of hourly PE so far (the running Eq-3 PF).
  double FleetPeVariance() const { return fleet_pe_variance_; }

  // --- Trainer hooks ------------------------------------------------------
  /// Decisions taken during the last Step().
  const std::vector<Decision>& last_decisions() const { return decisions_; }
  /// Per-taxi profit (fares credited minus charging cost) during the last
  /// Step(), CNY.
  const std::vector<double>& slot_profits() const { return slot_profit_; }

  /// Event log of the run since the last Reset().
  const Trace& trace() const { return trace_; }

  /// Total requests spawned since Reset (served + expired + pending).
  int64_t total_requests() const { return total_requests_; }

  /// Opts this simulator into the per-slot sim.jsonl telemetry stream under
  /// `label` (empty = silent, the default). Only the run's main simulator
  /// should be labelled: the evaluator's replica sims stay silent so the
  /// stream is one coherent time series. Survives Reset(). No-op on the
  /// simulation itself — with FAIRMOVE_TELEMETRY unset, labelled and
  /// unlabelled runs are byte-identical.
  void SetTelemetryLabel(const std::string& label) {
    telemetry_label_ = label;
  }

 private:
  Simulator(const City* city, const DemandSource* demand,
            const TouTariff& tariff, const SimConfig& config);

  /// A shard's arrival work list, its outbox and its accounting sums. The
  /// outbox holds the effects a shard body has on state outside its shard:
  /// trace records, station joins, calendar bookings, fault events and the
  /// request and stranding counts. Shard bodies, and the helpers they share
  /// with serial code, write that state only by appending to an outbox;
  /// Commit applies it on the calling thread, shard outboxes in ascending
  /// shard order (the §7 determinism contract applied to the simulator).
  /// Commit clears the vectors without freeing them, so a warm Step stays
  /// allocation-free.
  struct ShardScratch {
    std::vector<TaxiId> work;  // arrivals phase input list, ascending id
    std::vector<ChargeEvent> charge_events;
    std::vector<CycleRecord> cycles;  // parallel to charge_events
    std::vector<TripRecord> trips;
    std::vector<std::pair<int64_t, float>> first_cruise;  // event idx, min
    std::vector<std::pair<StationId, TaxiId>> enqueues;
    std::vector<std::pair<int64_t, TaxiId>> schedule;  // due slot, taxi
    std::vector<FaultEvent> faults;
    int64_t spawned = 0;
    int64_t strandings = 0;
    PhaseCounts counts;
    double pe_sum = 0.0;
    double pe_sum2 = 0.0;
    int64_t pe_count = 0;
  };

  /// Applies `outbox` and leaves it empty. Kinds land in one fixed order:
  /// charge events (each one's trace index goes to its taxi, then its cycle
  /// is added), trips, first-cruise back-fills, station joins, calendar
  /// bookings, fault events, then the spawned and stranding counts; within
  /// a kind, in append order.
  void Commit(ShardScratch& outbox);

  // Step phases, in execution order.
  /// Applies schedule transitions for this slot: station capacity changes
  /// (unplugging / rerouting as needed) and shock-boundary trace events.
  void ApplyScheduledFaults();
  /// Breakdown hazard draws for cruising/serving taxis (fault RNG stream).
  void ApplyBreakdownHazard();
  void CompleteArrivals();
  void PlugInWaiting();
  void AdvanceCharging();
  void SpawnRequests();
  void MatchPassengers();
  void DecideAndApply(DisplacementPolicy* policy);
  void ExpireRequests();
  void AccountTimeAndStranding();
  void RefreshFleetPeStats();

  // Shard bodies (run under ParallelFor; write only shard-owned state and
  // their own ShardScratch).
  void ArrivalsShard(int shard);
  void PlugInShard(int shard);
  void ChargeShard(int shard);
  void SpawnShard(int shard);
  void MatchShard(int shard);
  void AccountShard(int shard);

  /// Runs `body(shard)` for every shard on the global pool under its cost
  /// rule, weighing the phase by the fleet size: a small city's shards run
  /// inline on the caller in ascending order, as on a one-lane pool. Either
  /// way the bytes are the same, by the disjoint-write + ordered-commit
  /// discipline.
  void RunSharded(void (Simulator::*body)(int));

  /// Inserts `taxi` into the arrival calendar for `due_slot` (clamped to
  /// the next slot). Serial contexts only: Commit, and serial code booking
  /// a taxi it moves itself (a charge trip's departure, a breakdown, a
  /// re-book). The helpers shared with shard bodies book through an
  /// outbox.
  void ScheduleArrival(TaxiId taxi, int64_t due_slot);
  /// Pops this slot's calendar bucket (plus any due far-horizon entries)
  /// into the due bitmap and dispatches them to shard work lists in
  /// ascending-id order. Membership is unique (a reschedule unlinks the
  /// old entry), so no de-duplication is needed.
  void CollectDueArrivals();
  /// Revalidates one due taxi and routes it to its shard's work list.
  void DispatchDueArrival(TaxiId id, size_t k, int64_t now);

  /// Logs `event` in the trace and, when telemetry is on, as a structured
  /// fault row in sim.jsonl (plus a registry counter).
  void RecordFault(const FaultEvent& event);
  /// Emits this slot's fleet-composition gauges to sim.jsonl (labelled
  /// simulators under an enabled Telemetry only): one row per shard, then
  /// the fleet-wide row their merge must reproduce (tools/obs_check pins
  /// the sums).
  void EmitSlotTelemetry(const PhaseCounts& counts);

  void ApplyAction(TaxiId taxi, const Action& action);
  /// Second matching pass in dispatch mode: assigns remaining requests to
  /// vacant taxis within the dispatch radius, popping them from the back of
  /// the lottery's CSR slices (region r's still-poppable candidates are
  /// match_pool_[match_offsets_[r], match_offsets_[r] + match_sizes_[r])).
  void DispatchRemoteMatches();
  void StartChargeTrip(TaxiId taxi, StationId station);
  /// Arrival at the taxi's target station: join the line, or balk and
  /// redirect when it is overloaded. The queue join or the re-booking goes
  /// into `outbox`. The balk decision reads the live queues, which only
  /// Commit changes: during the arrivals phase every join waits in a shard
  /// outbox, so every shard reads the same pre-phase loads at any thread
  /// count, and a serial caller (the dark-station drain, a same-region
  /// charge trip) commits after each arrival, so the next one sees it.
  void ArriveAtStationOrRenege(TaxiId taxi, ShardScratch& outbox);
  /// Puts `taxi` on `request`'s trip; the trip record, the first-cruise
  /// back-fill and the drop-off booking go into `outbox`.
  /// `pickup_minutes`/`pickup_km` cover a remote-dispatch approach leg
  /// (0 for street hails). `rng` is the origin region's stream.
  void BeginServing(TaxiId taxi, const Request& request, Rng& rng,
                    ShardScratch& outbox, double pickup_minutes = 0.0,
                    double pickup_km = 0.0);
  /// Swap-erases `taxi` from its station shard's charging roster.
  void ChargingRosterRemove(TaxiId taxi);
  /// Ends `taxi`'s charging session: frees its point, resets it to
  /// cruising, and appends the session's charge event and working cycle to
  /// `outbox` (Commit gives the taxi the event's trace index).
  void CloseChargeSession(TaxiId taxi, ShardScratch& outbox);

  double RegionSpeedKmh(RegionId r) const {
    return City::ClassSpeedKmh(city_->region(r).cls);
  }

  const City* city_;
  const DemandSource* demand_;
  TouTariff tariff_;
  SimConfig config_;
  ActionSpace action_space_;
  DemandPredictor predictor_;
  MatchingEngine matching_;
  FleetState fleet_;
  std::vector<double> hustle_;  // per taxi
  std::vector<StationQueue> stations_;
  Trace trace_;
  Rng rng_;
  /// Dedicated stream for fault draws so injecting faults never perturbs
  /// the main simulation stream (and vice versa).
  Rng fault_rng_;
  /// One stream per region: region-local draws (request counts and
  /// destinations, hailing lotteries, plug-in targets) are keyed by region,
  /// not by a global consumption order, so shards can run concurrently and
  /// still draw identical values at any thread count.
  std::vector<Rng> region_rngs_;
  const FaultSchedule* fault_schedule_ = nullptr;
  /// Last applied usable-point count per station (outage edge detection).
  std::vector<int> applied_points_;
  TimeSlot now_{0};

  std::vector<int> vacant_count_;      // per region, refreshed each step
  std::vector<double> slot_profit_;    // per taxi, this step
  std::vector<Decision> decisions_;    // this step
  std::vector<TaxiObs> vacant_obs_;    // scratch
  std::vector<Action> actions_;        // scratch

  // --- Region shard plan (fixed per city; see DESIGN.md §11) ------------
  int num_shards_ = 1;
  std::vector<int> shard_of_region_;  // region -> shard
  /// Contiguous [begin, end) region range of each shard.
  std::vector<std::pair<RegionId, RegionId>> shard_regions_;
  /// Stations of each shard (grouped by the station's region), ascending id.
  std::vector<std::vector<StationId>> shard_stations_;
  std::vector<int> shard_of_station_;  // station -> shard (its region's)
  /// Per-shard list of currently plugged-in taxis (keyed by the station's
  /// shard), so AdvanceCharging visits exactly the charging fleet instead
  /// of every shard scanning all taxis. `charging_pos_` is each taxi's
  /// index in its shard's roster, -1 when unplugged; removal is swap-erase,
  /// so roster order is plug-in history, deterministic at any thread count.
  std::vector<std::vector<TaxiId>> charging_roster_;
  std::vector<int32_t> charging_pos_;
  /// Contiguous [begin, end) taxi-id range of each shard (fleet-wide
  /// passes: accounting, PE stats).
  std::vector<std::pair<TaxiId, TaxiId>> shard_taxis_;
  std::vector<ShardScratch> shards_;
  /// The outbox of the serial callers of the shared helpers (the fault
  /// unplug loop and drain, same-region charge trips, remote dispatch).
  ShardScratch serial_outbox_;

  // --- Arrival calendar (event-driven slot advance) ---------------------
  /// Ring of per-slot due buckets, stored as intrusive doubly-linked lists
  /// threaded through the per-taxi cal_next_/cal_prev_ arrays (a taxi sits
  /// in at most one bucket, so links are per-taxi fields). Intrusive rather
  /// than vector-of-vectors so scheduling never touches the heap — bucket
  /// growth would otherwise chase each bucket's high-water mark for days
  /// (the ring stride is coprime-ish with the diurnal cycle) and break the
  /// steady-state zero-allocation contract pinned by sim_alloc_test.
  /// Wider-than-horizon schedules (very long repairs) overflow into
  /// calendar_far_, scanned per slot (normally empty).
  static constexpr int64_t kCalendarSlots = 1024;
  std::vector<TaxiId> cal_head_;        // bucket -> first taxi or -1
  std::vector<TaxiId> cal_next_;        // per taxi: bucket-list link
  std::vector<TaxiId> cal_prev_;        // per taxi: bucket-list link
  std::vector<int64_t> cal_due_;        // per taxi: due slot, -1 unscheduled
  std::vector<uint8_t> cal_in_ring_;    // per taxi: ring (1) vs far (0)
  std::vector<std::pair<int64_t, TaxiId>> calendar_far_;
  /// Bitmap of this slot's due taxis: set while draining the calendar,
  /// then swept word-by-word so arrivals process in ascending-id order
  /// without sorting the (unordered) bucket chain.
  std::vector<uint64_t> due_bits_;

  /// Unlinks `taxi` from its ring bucket if it is linked there.
  void CalendarUnlink(TaxiId taxi);

  // Match scratch, sized at Reset: the fleet and the region count are fixed
  // between Resets, so MatchPassengers never allocates. Region r's vacant
  // taxis are match_pool_[match_offsets_[r], match_offsets_[r] +
  // match_sizes_[r]) by ascending id; scores and ranks share the slice.
  std::vector<int> match_sizes_;                // per region
  std::vector<int> match_offsets_;              // per region, plus the total
  std::vector<int> match_fill_;                 // per region
  std::vector<TaxiId> match_vacant_ids_;        // per taxi
  std::vector<int16_t> match_vacant_regions_;   // per taxi
  std::vector<TaxiId> match_pool_;              // per taxi
  std::vector<double> match_scores_;            // per taxi
  std::vector<int> match_order_;                // per taxi

  double fleet_mean_pe_ = 0.0;
  double fleet_pe_variance_ = 0.0;
  int64_t total_requests_ = 0;
  int64_t total_strandings_ = 0;
  std::string telemetry_label_;
  PhaseCounts slot_counts_;  // composition of the last completed slot
  // Regions within the dispatch radius of each region, nearest first
  // (built lazily when dispatch mode is on).
  std::vector<std::vector<RegionId>> dispatch_neighbors_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_SIM_SIMULATOR_H_
