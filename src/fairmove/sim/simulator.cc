#include "fairmove/sim/simulator.h"

#include "fairmove/common/parallel.h"
#include "fairmove/common/stats.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/metrics.h"
#include "fairmove/obs/span.h"
#include "fairmove/obs/telemetry.h"
#include "fairmove/obs/watchdog.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace fairmove {

namespace {

/// One-lane cost of a sharded phase per taxi of the fleet, the proxy
/// RunSharded weighs a phase's work with: the six sharded phases of a GT
/// step take about 24 ns per taxi together at one lane (5,032 taxis,
/// FAIRMOVE_PROFILE). So a phase is shared from 7,500 taxis up.
constexpr int64_t kShardedPhaseNsPerTaxi = 4;

}  // namespace

Status SimConfig::Validate() const {
  // NaN slips through every range comparison below (NaN < x and NaN > x are
  // both false), so reject non-finite knobs explicitly first.
  const double knobs[] = {
      scale,             soc_force_charge,    soc_may_charge,
      charge_target_min, charge_target_max,   pickup_overhead_min,
      cruise_drive_factor, initial_soc_min,   initial_soc_max,
      stranding_penalty_min, slow_plug_prob,  slow_plug_factor,
      renege_queue_factor, dispatch_radius_minutes, hustle_sigma};
  for (double v : knobs) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument(
          "SimConfig contains a non-finite (NaN/Inf) parameter");
    }
  }
  if (scale <= 0.0 || scale > 1.0) {
    return Status::InvalidArgument("scale must be in (0, 1]");
  }
  if (num_taxis <= 0) return Status::InvalidArgument("num_taxis must be > 0");
  if (soc_force_charge <= 0.0 || soc_force_charge >= 1.0) {
    return Status::InvalidArgument("soc_force_charge must be in (0, 1)");
  }
  if (soc_may_charge < soc_force_charge || soc_may_charge > 1.0) {
    return Status::InvalidArgument(
        "soc_may_charge must be in [soc_force_charge, 1]");
  }
  if (charge_target_min <= soc_force_charge || charge_target_max > 1.0 ||
      charge_target_min > charge_target_max) {
    return Status::InvalidArgument(
        "need soc_force_charge < charge_target_min <= charge_target_max <= 1");
  }
  if (request_patience_slots < 0) {
    return Status::InvalidArgument("request_patience_slots must be >= 0");
  }
  if (pickup_overhead_min < 0.0) {
    return Status::InvalidArgument("pickup_overhead_min must be >= 0");
  }
  if (cruise_drive_factor < 0.0 || cruise_drive_factor > 1.0) {
    return Status::InvalidArgument("cruise_drive_factor must be in [0, 1]");
  }
  if (initial_soc_min < 0.0 || initial_soc_max > 1.0 ||
      initial_soc_min > initial_soc_max) {
    return Status::InvalidArgument("bad initial SoC range");
  }
  if (stranding_penalty_min < 0.0) {
    return Status::InvalidArgument("stranding_penalty_min must be >= 0");
  }
  if (slow_plug_prob < 0.0 || slow_plug_prob > 1.0) {
    return Status::InvalidArgument("slow_plug_prob must be in [0, 1]");
  }
  if (slow_plug_factor <= 0.0 || slow_plug_factor > 1.0) {
    return Status::InvalidArgument("slow_plug_factor must be in (0, 1]");
  }
  if (renege_queue_factor < 0.0) {
    return Status::InvalidArgument("renege_queue_factor must be >= 0");
  }
  if (max_charge_redirects < 0) {
    return Status::InvalidArgument("max_charge_redirects must be >= 0");
  }
  if (hustle_sigma < 0.0) {
    return Status::InvalidArgument("hustle_sigma must be >= 0");
  }
  if (dispatch_radius_minutes < 0.0) {
    return Status::InvalidArgument("dispatch_radius_minutes must be >= 0");
  }
  FM_RETURN_IF_ERROR(battery.Validate());
  FM_RETURN_IF_ERROR(fares.Validate());
  return Status::OK();
}

StatusOr<std::unique_ptr<Simulator>> Simulator::Create(
    const City* city, const DemandSource* demand, const TouTariff& tariff,
    const SimConfig& config) {
  if (city == nullptr) return Status::InvalidArgument("city is null");
  if (demand == nullptr) return Status::InvalidArgument("demand is null");
  if (city->num_stations() == 0) {
    return Status::InvalidArgument("an e-taxi city needs charging stations");
  }
  FM_RETURN_IF_ERROR(config.Validate());
  // Not std::make_unique: the constructor is private.
  return std::unique_ptr<Simulator>(
      new Simulator(city, demand, tariff, config));
}

Simulator::Simulator(const City* city, const DemandSource* demand,
                     const TouTariff& tariff, const SimConfig& config)
    : city_(city),
      demand_(demand),
      tariff_(tariff),
      config_(config),
      action_space_(city),
      predictor_(city->num_regions()),
      matching_(city->num_regions(), config.request_patience_slots),
      trace_(config.trace_level),
      rng_(config.seed),
      fault_rng_(config.seed) {
  Reset();
}

namespace {
/// Salt separating the fault stream from the main stream under one seed.
constexpr uint64_t kFaultStreamSalt = 0xFA017EC7ED5EEDULL;
/// DeriveSeed namespace of the per-region streams.
constexpr uint64_t kRegionStreamNs = 0x5EED0FA1E6103ULL;
}  // namespace

Status Simulator::SetFaultSchedule(const FaultSchedule* schedule) {
  if (schedule != nullptr) {
    FM_RETURN_IF_ERROR(
        schedule->ValidateFor(city_->num_regions(), city_->num_stations()));
  }
  fault_schedule_ = schedule;
  return Status::OK();
}

void Simulator::Reset(uint64_t seed_override) {
  const uint64_t seed = seed_override != 0 ? seed_override : config_.seed;
  rng_.Seed(seed);
  fault_rng_.Seed(seed ^ kFaultStreamSalt);
  now_ = TimeSlot(0);
  trace_.Clear();
  matching_.Clear();
  total_requests_ = 0;
  total_strandings_ = 0;
  fleet_mean_pe_ = 0.0;
  fleet_pe_variance_ = 0.0;

  // Station queues are cleared in place, so their waiting lines keep the
  // capacity earlier episodes grew (the zero-allocation step contract
  // holds across Reset).
  if (stations_.empty()) {
    stations_.reserve(static_cast<size_t>(city_->num_stations()));
    for (const ChargingStation& st : city_->stations()) {
      stations_.emplace_back(st.num_points);
    }
  }
  applied_points_.clear();
  for (StationQueue& station : stations_) {
    station.Clear();
    applied_points_.push_back(station.num_points());
  }

  // Initial taxi placement follows the daily demand share of each region,
  // which is where an operating fleet would be. The draw order (placement,
  // SoC, hustle, per taxi) is the historical one, so initial fleets are
  // bit-identical across the SoA refactor.
  std::vector<double> weights(static_cast<size_t>(city_->num_regions()));
  for (RegionId r = 0; r < city_->num_regions(); ++r) {
    double total = 0.0;
    for (int s = 0; s < kSlotsPerDay; ++s) {
      total += demand_->Rate(r, TimeSlot(s));
    }
    weights[static_cast<size_t>(r)] = total;
  }
  fleet_.Reset(config_.num_taxis, config_.battery);
  hustle_.clear();
  hustle_.reserve(static_cast<size_t>(config_.num_taxis));
  for (int i = 0; i < config_.num_taxis; ++i) {
    fleet_.region[static_cast<size_t>(i)] =
        static_cast<RegionId>(rng_.WeightedIndex(weights));
    fleet_.soc[static_cast<size_t>(i)] =
        rng_.Uniform(config_.initial_soc_min, config_.initial_soc_max);
    hustle_.push_back(rng_.LogNormal(0.0, config_.hustle_sigma));
  }

  // Per-region streams: region-keyed draws come from DeriveSeed(seed, r)
  // streams instead of one global consumption order, so sharded phases draw
  // identical values at any thread count (DESIGN.md §11).
  region_rngs_.clear();
  region_rngs_.reserve(static_cast<size_t>(city_->num_regions()));
  for (RegionId r = 0; r < city_->num_regions(); ++r) {
    region_rngs_.emplace_back(
        DeriveSeed(seed, kRegionStreamNs, static_cast<uint64_t>(r)));
  }

  predictor_ = DemandPredictor(city_->num_regions());
  predictor_.PrimeFromModel(*demand_);

  vacant_count_.assign(static_cast<size_t>(city_->num_regions()), 0);
  slot_profit_.assign(static_cast<size_t>(fleet_.size()), 0.0);
  decisions_.clear();
  const size_t regions = static_cast<size_t>(city_->num_regions());
  const size_t taxis = static_cast<size_t>(fleet_.size());
  match_sizes_.resize(regions);
  match_offsets_.resize(regions + 1);
  match_fill_.resize(regions);
  match_vacant_ids_.resize(taxis);
  match_vacant_regions_.resize(taxis);
  match_pool_.resize(taxis);
  match_scores_.resize(taxis);
  match_order_.resize(taxis);

  // Region shard plan: a fixed number of contiguous region blocks,
  // independent of the thread count (more threads never changes which
  // stream a draw comes from or the outbox merge order).
  const int num_regions = city_->num_regions();
  num_shards_ = std::min(8, num_regions);
  shard_of_region_.resize(static_cast<size_t>(num_regions));
  shard_regions_.assign(static_cast<size_t>(num_shards_),
                        {RegionId{0}, RegionId{0}});
  for (RegionId r = 0; r < num_regions; ++r) {
    const int s = static_cast<int>(static_cast<int64_t>(r) * num_shards_ /
                                   num_regions);
    shard_of_region_[static_cast<size_t>(r)] = s;
  }
  for (int s = 0; s < num_shards_; ++s) {
    shard_regions_[static_cast<size_t>(s)] = {
        static_cast<RegionId>(static_cast<int64_t>(s) * num_regions /
                              num_shards_),
        static_cast<RegionId>(static_cast<int64_t>(s + 1) * num_regions /
                              num_shards_)};
  }
  shard_stations_.assign(static_cast<size_t>(num_shards_), {});
  shard_of_station_.resize(static_cast<size_t>(city_->num_stations()));
  for (StationId s = 0; s < city_->num_stations(); ++s) {
    const int shard =
        shard_of_region_[static_cast<size_t>(city_->station(s).region)];
    shard_of_station_[static_cast<size_t>(s)] = shard;
    shard_stations_[static_cast<size_t>(shard)].push_back(s);
  }
  shard_taxis_.assign(static_cast<size_t>(num_shards_), {TaxiId{0}, TaxiId{0}});
  for (int s = 0; s < num_shards_; ++s) {
    shard_taxis_[static_cast<size_t>(s)] = {
        static_cast<TaxiId>(static_cast<int64_t>(s) * fleet_.size() /
                            num_shards_),
        static_cast<TaxiId>(static_cast<int64_t>(s + 1) * fleet_.size() /
                            num_shards_)};
  }
  shards_.resize(static_cast<size_t>(num_shards_));
  // A region-slot Poisson draw never plausibly exceeds this, so the spawn
  // scratch stays allocation-free once warm.
  charging_roster_.assign(static_cast<size_t>(num_shards_), {});
  charging_pos_.assign(static_cast<size_t>(fleet_.size()), -1);

  // Arrival calendar: empty buckets, every taxi unscheduled.
  cal_head_.assign(static_cast<size_t>(kCalendarSlots), -1);
  cal_next_.assign(static_cast<size_t>(fleet_.size()), -1);
  cal_prev_.assign(static_cast<size_t>(fleet_.size()), -1);
  cal_due_.assign(static_cast<size_t>(fleet_.size()), -1);
  cal_in_ring_.assign(static_cast<size_t>(fleet_.size()), 0);
  calendar_far_.clear();
  due_bits_.assign((static_cast<size_t>(fleet_.size()) + 63) / 64, 0);

  // Dispatch mode: precompute, per region, the other regions within the
  // radius (nearest first).
  dispatch_neighbors_.clear();
  if (config_.dispatch_radius_minutes > 0.0) {
    const int n = city_->num_regions();
    dispatch_neighbors_.assign(static_cast<size_t>(n), {});
    for (RegionId r = 0; r < n; ++r) {
      std::vector<RegionId> near;
      for (RegionId other = 0; other < n; ++other) {
        if (other == r) continue;
        if (city_->TravelMinutes(other, r) <=
            config_.dispatch_radius_minutes) {
          near.push_back(other);
        }
      }
      std::sort(near.begin(), near.end(), [&](RegionId a, RegionId b) {
        return city_->TravelMinutes(a, r) < city_->TravelMinutes(b, r);
      });
      dispatch_neighbors_[static_cast<size_t>(r)] = std::move(near);
    }
  }
}

void Simulator::Step(DisplacementPolicy* policy) {
  FM_SPAN("sim.step");
  StallWatchdog::Heartbeat();
  std::fill(slot_profit_.begin(), slot_profit_.end(), 0.0);
  decisions_.clear();

  if (fault_schedule_ != nullptr) {
    FM_SPAN("sim.faults");
    ApplyScheduledFaults();
  }
  {
    FM_SPAN("sim.arrivals");
    CompleteArrivals();
  }
  {
    FM_SPAN("sim.plugin");
    PlugInWaiting();
  }
  {
    FM_SPAN("sim.charge");
    AdvanceCharging();
  }
  {
    FM_SPAN("sim.spawn");
    SpawnRequests();
  }
  {
    FM_SPAN("sim.match");
    MatchPassengers();
  }
  {
    FM_SPAN("sim.decide");
    DecideAndApply(policy);
  }
  {
    FM_SPAN("sim.expire");
    ExpireRequests();
  }
  {
    FM_SPAN("sim.account");
    AccountTimeAndStranding();
  }
  {
    FM_SPAN("sim.pestats");
    RefreshFleetPeStats();
  }
  EmitSlotTelemetry(slot_counts_);

  now_ = now_.Next();
}

void Simulator::RunSlots(DisplacementPolicy* policy, int64_t slots) {
  for (int64_t i = 0; i < slots; ++i) Step(policy);
}

void Simulator::RunSharded(void (Simulator::*body)(int)) {
  const int64_t work_ns = int64_t{fleet_.size()} * kShardedPhaseNsPerTaxi;
  GlobalPool().ParallelFor(num_shards_, work_ns, [this, body](int64_t shard) {
    StallWatchdog::Heartbeat();
    (this->*body)(static_cast<int>(shard));
  });
}

void Simulator::Commit(ShardScratch& outbox) {
  for (size_t i = 0; i < outbox.charge_events.size(); ++i) {
    const ChargeEvent& event = outbox.charge_events[i];
    fleet_.cold[static_cast<size_t>(event.taxi)].last_charge_event =
        trace_.AddChargeEvent(event);
    trace_.AddCycle(outbox.cycles[i]);
  }
  for (const TripRecord& trip : outbox.trips) trace_.AddTrip(trip);
  for (const auto& [index, minutes] : outbox.first_cruise) {
    trace_.SetFirstCruise(index, minutes);
  }
  for (const auto& [station, taxi] : outbox.enqueues) {
    stations_[static_cast<size_t>(station)].Enqueue(taxi);
  }
  for (const auto& [due, taxi] : outbox.schedule) ScheduleArrival(taxi, due);
  for (const FaultEvent& event : outbox.faults) RecordFault(event);
  total_requests_ += outbox.spawned;
  total_strandings_ += outbox.strandings;
  outbox.charge_events.clear();
  outbox.cycles.clear();
  outbox.trips.clear();
  outbox.first_cruise.clear();
  outbox.enqueues.clear();
  outbox.schedule.clear();
  outbox.faults.clear();
  outbox.spawned = 0;
  outbox.strandings = 0;
}

// --- Arrival calendar ------------------------------------------------------

void Simulator::CalendarUnlink(TaxiId taxi) {
  const size_t k = static_cast<size_t>(taxi);
  if (cal_due_[k] < 0 || !cal_in_ring_[k]) return;  // far entries go stale
  const TaxiId next = cal_next_[k];
  const TaxiId prev = cal_prev_[k];
  if (prev >= 0) {
    cal_next_[static_cast<size_t>(prev)] = next;
  } else {
    cal_head_[static_cast<size_t>(cal_due_[k] % kCalendarSlots)] = next;
  }
  if (next >= 0) cal_prev_[static_cast<size_t>(next)] = prev;
}

void Simulator::ScheduleArrival(TaxiId taxi, int64_t due_slot) {
  // Clamp to the next slot: a transition scheduled "now or earlier" is
  // picked up at the next CompleteArrivals, exactly when the historical
  // full-fleet busy_until scan would have seen it.
  const int64_t due = std::max<int64_t>(due_slot, now_.index + 1);
  const size_t k = static_cast<size_t>(taxi);
  if (cal_due_[k] == due) return;  // already booked for that slot
  CalendarUnlink(taxi);  // a reschedule supersedes the previous booking
  cal_due_[k] = due;
  if (due - now_.index >= kCalendarSlots) {
    cal_in_ring_[k] = 0;
    calendar_far_.push_back({due, taxi});
    return;
  }
  cal_in_ring_[k] = 1;
  const size_t bucket = static_cast<size_t>(due % kCalendarSlots);
  const TaxiId head = cal_head_[bucket];
  cal_next_[k] = head;
  cal_prev_[k] = -1;
  if (head >= 0) cal_prev_[static_cast<size_t>(head)] = taxi;
  cal_head_[bucket] = taxi;
}

void Simulator::CollectDueArrivals() {
  const int64_t now = now_.index;
  // Pop the whole bucket: every linked entry's due slot is exactly `now`
  // (entries land at most kCalendarSlots - 1 ahead, and the bucket was
  // drained the last time the ring index passed it). The chain is in
  // insertion order; marking a bitmap and sweeping it below yields the
  // ascending-id processing order without a sort.
  const size_t bucket = static_cast<size_t>(now % kCalendarSlots);
  for (TaxiId t = cal_head_[bucket]; t >= 0;) {
    const size_t k = static_cast<size_t>(t);
    due_bits_[k >> 6] |= uint64_t{1} << (k & 63);
    const TaxiId next = cal_next_[k];
    cal_due_[k] = -1;  // next/prev left stale: any future link rewrites them
    t = next;
  }
  cal_head_[bucket] = -1;
  if (!calendar_far_.empty()) {
    // Far-horizon entries migrate into the ring once their due slot is
    // within the window (normally empty: only multi-week repairs land
    // here). An entry is live only while it matches the taxi's current
    // booking — a reschedule cannot reach into this vector, it just strands
    // the old pair here until this sweep drops it.
    size_t keep = 0;
    for (const auto& entry : calendar_far_) {
      const size_t k = static_cast<size_t>(entry.second);
      if (cal_due_[k] != entry.first || cal_in_ring_[k]) continue;  // stale
      if (entry.first - now >= kCalendarSlots) {
        calendar_far_[keep++] = entry;
      } else if (entry.first <= now) {
        cal_due_[k] = -1;
        due_bits_[k >> 6] |= uint64_t{1} << (k & 63);
      } else {
        cal_due_[k] = -1;  // re-book through the front door
        ScheduleArrival(entry.second, entry.first);
      }
    }
    calendar_far_.resize(keep);
  }
  for (auto& sc : shards_) sc.work.clear();
  for (size_t w = 0; w < due_bits_.size(); ++w) {
    uint64_t bits = due_bits_[w];
    if (bits == 0) continue;
    due_bits_[w] = 0;
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      const TaxiId id = static_cast<TaxiId>((w << 6) + static_cast<size_t>(bit));
      const size_t k = static_cast<size_t>(id);
      DispatchDueArrival(id, k, now);
    }
  }
}

void Simulator::DispatchDueArrival(TaxiId id, size_t k, int64_t now) {
  // Membership is unique, so a popped entry is the taxi's only booking.
  // Revalidation is a safety net for a transition that moved busy_until
  // without rescheduling: re-book instead of dropping so the completion
  // is never lost.
  if (fleet_.busy_until[k] > now) {
    ScheduleArrival(id, fleet_.busy_until[k]);
    return;
  }
  int target;
  switch (fleet_.phase[k]) {
    case TaxiPhase::kServing:
      target = shard_of_region_[static_cast<size_t>(fleet_.cold[k].trip_dest)];
      break;
    case TaxiPhase::kToStation:
      target = shard_of_station_[static_cast<size_t>(fleet_.cold[k].station)];
      break;
    case TaxiPhase::kBrokenDown:
      target = shard_of_region_[static_cast<size_t>(fleet_.region[k])];
      break;
    default:
      return;
  }
  shards_[static_cast<size_t>(target)].work.push_back(id);
}

// --- Faults (serial) -------------------------------------------------------

void Simulator::ApplyScheduledFaults() {
  // Station capacity transitions (outage start/derating change/restore).
  for (StationId s = 0; s < city_->num_stations(); ++s) {
    StationQueue& queue = stations_[static_cast<size_t>(s)];
    const double factor =
        fault_schedule_->StationCapacityFactor(s, now_.index);
    const int applied = std::min(
        queue.num_points(),
        static_cast<int>(std::floor(queue.num_points() * factor + 1e-9)));
    if (applied == applied_points_[static_cast<size_t>(s)]) continue;
    queue.SetAvailablePoints(applied);
    applied_points_[static_cast<size_t>(s)] = applied;
    FaultEvent event;
    event.kind = applied < queue.num_points() ? FaultKind::kStationOutage
                                              : FaultKind::kStationRestored;
    event.slot = now_.index;
    event.subject = s;
    event.magnitude = static_cast<double>(applied);
    RecordFault(event);
    // The grid cut power to occupied points: unplug sessions down to the
    // new capacity (they end early rather than strand mid-session). The
    // loop reads only occupancy, so it commits once.
    if (queue.occupied() > applied) {
      for (TaxiId i = 0; i < fleet_.size(); ++i) {
        if (queue.occupied() <= applied) break;
        if (fleet_.phase[static_cast<size_t>(i)] == TaxiPhase::kCharging &&
            fleet_.cold[static_cast<size_t>(i)].station == s) {
          CloseChargeSession(i, serial_outbox_);
        }
      }
      Commit(serial_outbox_);
    }
    // A dark station serves nobody: push its waiting line back through the
    // normal balking machinery so the taxis redirect instead of stranding.
    // Each taxi commits before the next one chooses, so it sees the joins.
    if (applied == 0) {
      for (TaxiId id : queue.DrainWaiting()) {
        ArriveAtStationOrRenege(id, serial_outbox_);
        Commit(serial_outbox_);
      }
    }
  }
  // Demand-shock boundary events; the multiplier itself is applied in
  // SpawnRequests every slot of the window.
  for (const DemandShock& shock : fault_schedule_->demand_shocks()) {
    if (shock.from_slot == now_.index) {
      RecordFault(FaultEvent{FaultKind::kDemandShock, now_.index,
                             shock.region, shock.multiplier});
    }
    if (shock.until_slot == now_.index) {
      RecordFault(FaultEvent{FaultKind::kDemandShockEnd, now_.index,
                             shock.region, shock.multiplier});
    }
  }
}

void Simulator::ApplyBreakdownHazard() {
  // Serial on purpose: the per-taxi Bernoulli draws consume the dedicated
  // fault stream in ascending-id order regardless of the shard plan.
  for (TaxiId i = 0; i < fleet_.size(); ++i) {
    const size_t k = static_cast<size_t>(i);
    if (fleet_.phase[k] != TaxiPhase::kCruising &&
        fleet_.phase[k] != TaxiPhase::kServing) {
      continue;
    }
    for (const BreakdownHazard& hazard :
         fault_schedule_->breakdown_hazards()) {
      if (now_.index < hazard.from_slot || now_.index >= hazard.until_slot) {
        continue;
      }
      if (!fault_rng_.Bernoulli(hazard.per_slot_prob)) continue;
      if (fleet_.phase[k] == TaxiPhase::kServing) {
        // Trip abandoned: the passenger finds another ride, no fare.
        fleet_.cold[k].pending_fare = 0.0;
        fleet_.cold[k].trip_dest = kInvalidRegion;
      }
      fleet_.phase[k] = TaxiPhase::kBrokenDown;
      fleet_.busy_until[k] = now_.index + hazard.repair_slots;
      fleet_.cold[k].num_breakdowns += 1;
      ScheduleArrival(i, fleet_.busy_until[k]);
      RecordFault(FaultEvent{FaultKind::kBreakdown, now_.index, i,
                             static_cast<double>(hazard.repair_slots)});
      break;
    }
  }
}

// --- Arrivals --------------------------------------------------------------

void Simulator::CompleteArrivals() {
  CollectDueArrivals();
  RunSharded(&Simulator::ArrivalsShard);
  // Queue joins, re-bookings and repairs land in ascending shard order,
  // then work order: a fixed total order at any thread count.
  for (ShardScratch& sc : shards_) Commit(sc);
}

void Simulator::ArrivalsShard(int shard) {
  ShardScratch& sc = shards_[static_cast<size_t>(shard)];
  const int64_t now = now_.index;
  for (TaxiId id : sc.work) {
    const size_t k = static_cast<size_t>(id);
    switch (fleet_.phase[k]) {
      case TaxiPhase::kServing: {
        // Drop-off: credit the fare, become vacant at the destination.
        TaxiCold& cold = fleet_.cold[k];
        fleet_.revenue_cny[k] += cold.pending_fare;
        slot_profit_[k] += cold.pending_fare;
        cold.pending_fare = 0.0;
        fleet_.region[k] = cold.trip_dest;
        cold.trip_dest = kInvalidRegion;
        fleet_.phase[k] = TaxiPhase::kCruising;
        cold.vacant_since = now;
        break;
      }
      case TaxiPhase::kToStation: {
        ArriveAtStationOrRenege(id, sc);
        break;
      }
      case TaxiPhase::kBrokenDown: {
        // Repair finished: rejoin the fleet vacant where the tow left it.
        fleet_.phase[k] = TaxiPhase::kCruising;
        fleet_.cold[k].vacant_since = now;
        sc.faults.push_back(
            FaultEvent{FaultKind::kRepaired, now, id, 0.0});
        break;
      }
      default:
        break;  // revalidation in CollectDueArrivals filters the rest
    }
  }
}

// --- Charging --------------------------------------------------------------

void Simulator::PlugInWaiting() { RunSharded(&Simulator::PlugInShard); }

void Simulator::PlugInShard(int shard) {
  for (StationId s : shard_stations_[static_cast<size_t>(shard)]) {
    StationQueue& station = stations_[static_cast<size_t>(s)];
    Rng& rng =
        region_rngs_[static_cast<size_t>(city_->station(s).region)];
    while (station.CanPlugIn()) {
      const TaxiId id = station.PlugInNext();
      const size_t k = static_cast<size_t>(id);
      FM_CHECK(fleet_.phase[k] == TaxiPhase::kQueuing)
          << "plugged a non-queuing taxi " << id;
      TaxiCold& cold = fleet_.cold[k];
      fleet_.phase[k] = TaxiPhase::kCharging;
      charging_pos_[k] =
          static_cast<int32_t>(charging_roster_[static_cast<size_t>(shard)]
                                   .size());
      charging_roster_[static_cast<size_t>(shard)].push_back(id);
      cold.plugged_at = now_.index;
      cold.charge_target_soc = rng.Uniform(config_.charge_target_min,
                                           config_.charge_target_max);
      if (cold.charge_target_soc <= fleet_.soc[k]) {
        cold.charge_target_soc = std::min(1.0, fleet_.soc[k] + 0.05);
      }
      cold.session_power_factor = rng.Bernoulli(config_.slow_plug_prob)
                                      ? config_.slow_plug_factor
                                      : 1.0;
      cold.session_kwh = 0.0;
      cold.session_cost = 0.0;
      cold.session_charge_min = 0.0;
      cold.session_start_soc = fleet_.soc[k];
    }
  }
}

void Simulator::AdvanceCharging() {
  RunSharded(&Simulator::ChargeShard);
  // The charge-event index a taxi remembers (for the first-cruise
  // back-fill) only exists once its shard's events are committed.
  for (ShardScratch& sc : shards_) Commit(sc);
}

void Simulator::ChargeShard(int shard) {
  ShardScratch& sc = shards_[static_cast<size_t>(shard)];
  std::vector<TaxiId>& roster = charging_roster_[static_cast<size_t>(shard)];
  for (size_t i = 0; i < roster.size();) {
    const TaxiId id = roster[i];
    const size_t k = static_cast<size_t>(id);
    TaxiCold& cold = fleet_.cold[k];
    // One integration pass per slot: advances the pack toward the session
    // target and reports the whole minutes it took.
    double minutes = 0.0;
    const double added = fleet_.ChargeToward(
        id, cold.charge_target_soc, kMinutesPerSlot, cold.session_power_factor,
        &minutes);
    const double cost = tariff_.CostOf(now_, added);
    cold.session_kwh += added;
    cold.session_cost += cost;
    cold.session_charge_min += minutes;
    fleet_.charge_cost_cny[k] += cost;
    slot_profit_[k] -= cost;
    if (fleet_.soc[k] >= cold.charge_target_soc - 1e-9 || minutes <= 0.0) {
      // CloseChargeSession swap-erases roster[i]; whatever lands there is
      // an unvisited taxi, so the index stays put.
      CloseChargeSession(id, sc);
      continue;
    }
    ++i;
  }
}

void Simulator::CloseChargeSession(TaxiId taxi, ShardScratch& outbox) {
  const size_t k = static_cast<size_t>(taxi);
  TaxiCold& cold = fleet_.cold[k];
  ChargeEvent& event = outbox.charge_events.emplace_back();
  event.taxi = taxi;
  event.station = cold.station;
  event.seek_slot = cold.idle_since;
  event.plugin_slot = cold.plugged_at;
  event.finish_slot = now_.index + 1;
  const int64_t queue_slots =
      cold.plugged_at - cold.idle_since - cold.charge_travel_slots;
  event.idle_min = static_cast<float>(
      cold.session_travel_min +
      kMinutesPerSlot * std::max<int64_t>(0, queue_slots));
  event.charge_min = static_cast<float>(cold.session_charge_min);
  event.kwh = static_cast<float>(cold.session_kwh);
  event.cost_cny = static_cast<float>(cold.session_cost);
  event.soc_start = static_cast<float>(cold.session_start_soc);
  event.soc_end = static_cast<float>(fleet_.soc[k]);

  ChargingRosterRemove(taxi);
  stations_[static_cast<size_t>(cold.station)].Release();
  cold.num_charges += 1;
  cold.kwh_charged += cold.session_kwh;

  // Close the working cycle t0 -> t5 (paper SII-B): the delta of the
  // taxi's totals since the previous charge completed.
  const TaxiTotals totals = fleet_.Totals(taxi);
  CycleRecord& cycle = outbox.cycles.emplace_back();
  cycle.taxi = taxi;
  cycle.start_slot = cold.cycle_start_slot;
  cycle.end_slot = now_.index + 1;
  cycle.cruise_min = static_cast<float>(totals.cruise_min -
                                        cold.cycle_baseline.cruise_min);
  cycle.serve_min =
      static_cast<float>(totals.serve_min - cold.cycle_baseline.serve_min);
  cycle.op_min = cycle.cruise_min + cycle.serve_min;
  cycle.idle_min =
      static_cast<float>(totals.idle_min - cold.cycle_baseline.idle_min);
  cycle.charge_min =
      static_cast<float>(totals.charge_min - cold.cycle_baseline.charge_min);
  cycle.revenue_cny =
      static_cast<float>(totals.revenue_cny - cold.cycle_baseline.revenue_cny);
  cycle.charge_cost_cny = static_cast<float>(
      totals.charge_cost_cny - cold.cycle_baseline.charge_cost_cny);
  cycle.trips = totals.num_trips - cold.cycle_baseline.num_trips;
  cold.cycle_baseline = totals;
  cold.cycle_start_slot = now_.index + 1;
  fleet_.phase[k] = TaxiPhase::kCruising;
  fleet_.busy_until[k] = now_.index + 1;  // available from the next slot
  cold.vacant_since = now_.index + 1;
  cold.station = kInvalidStation;
  cold.awaiting_first_pickup = true;
  // Trace index pending: Commit assigns it, before the taxi can be matched
  // (it is busy until the next slot).
  cold.last_charge_event = -1;
}

void Simulator::ChargingRosterRemove(TaxiId taxi) {
  const size_t k = static_cast<size_t>(taxi);
  const int shard =
      shard_of_station_[static_cast<size_t>(fleet_.cold[k].station)];
  std::vector<TaxiId>& roster = charging_roster_[static_cast<size_t>(shard)];
  const int32_t pos = charging_pos_[k];
  const TaxiId last = roster.back();
  roster[static_cast<size_t>(pos)] = last;
  charging_pos_[static_cast<size_t>(last)] = pos;
  roster.pop_back();
  charging_pos_[k] = -1;
}

// --- Demand ----------------------------------------------------------------

void Simulator::SpawnRequests() {
  RunSharded(&Simulator::SpawnShard);
  for (ShardScratch& sc : shards_) Commit(sc);
}

void Simulator::SpawnShard(int shard) {
  ShardScratch& sc = shards_[static_cast<size_t>(shard)];
  const auto [r_begin, r_end] = shard_regions_[static_cast<size_t>(shard)];
  for (RegionId r = r_begin; r < r_end; ++r) {
    double mult = 1.0;
    if (fault_schedule_ != nullptr) {
      mult = fault_schedule_->DemandMultiplier(r, now_.index);
    }
    Rng& rng = region_rngs_[static_cast<size_t>(r)];
    // A multiplier of exactly 1 keeps the unmodified SampleCount stream, so
    // runs outside shock windows stay bit-identical to schedule-free runs.
    const int n = mult == 1.0 ? demand_->SampleCount(r, now_, rng)
                              : rng.Poisson(demand_->Rate(r, now_) * mult);
    predictor_.Observe(r, now_, n);
    sc.spawned += n;
    if (n == 0) continue;
    // One cohort push per region-slot. Destinations are not drawn here:
    // ~40% of spawned requests expire unserved at full scale, so the
    // serving sites draw them lazily (from this same region stream) only
    // for trips that actually happen.
    matching_.AddRequests(r, n, now_.index);
  }
}

// --- Matching --------------------------------------------------------------

void Simulator::MatchPassengers() {
  // CSR candidate arrays instead of a vector-of-vectors, in members sized at
  // Reset, so the phase performs zero heap allocations. The serial pass
  // lays the candidates out; the sharded pass runs each region's hailing
  // lottery on its own slice (disjoint writes) with the region's own stream.
  const int num_regions = city_->num_regions();
  {
    FM_SPAN("sim.match.csr");
    const int64_t now = now_.index;
    std::fill(match_sizes_.begin(), match_sizes_.end(), 0);
    int* sizes = match_sizes_.data();
    const int n_taxis = fleet_.size();
    // One pass over the fleet columns records each vacant taxi and its
    // region; the placement pass below then reads this compact stream
    // instead of re-scanning phase/busy_until/region.
    TaxiId* vacant_ids = match_vacant_ids_.data();
    int16_t* vacant_regions = match_vacant_regions_.data();
    int total_vacant = 0;
    for (TaxiId i = 0; i < n_taxis; ++i) {
      if (fleet_.IsVacant(i, now)) {
        const RegionId r = fleet_.region[static_cast<size_t>(i)];
        ++sizes[r];
        vacant_ids[total_vacant] = i;
        vacant_regions[total_vacant] = static_cast<int16_t>(r);
        ++total_vacant;
      }
    }
    int* offsets = match_offsets_.data();
    offsets[0] = 0;
    for (int r = 0; r < num_regions; ++r) {
      offsets[r + 1] = offsets[r] + sizes[r];
    }
    std::fill(match_fill_.begin(), match_fill_.end(), 0);
    int* fill = match_fill_.data();
    TaxiId* pool = match_pool_.data();
    // Fill in taxi-id order: region r's slice pool[offsets[r], offsets[r+1])
    // holds its vacant taxis by ascending id (region-local FIFO on both
    // sides, longest-vacant first).
    for (int v = 0; v < total_vacant; ++v) {
      const int r = vacant_regions[v];
      pool[offsets[r] + fill[r]++] = vacant_ids[v];
    }
  }
  {
    FM_SPAN("sim.match.lottery");
    RunSharded(&Simulator::MatchShard);
  }
  FM_SPAN("sim.match.commit");
  // Trip records and first-cruise back-fills commit in shard order, which
  // for contiguous shard blocks is exactly ascending-region order.
  for (ShardScratch& sc : shards_) Commit(sc);
  if (config_.dispatch_radius_minutes > 0.0) {
    DispatchRemoteMatches();
  }
}

void Simulator::MatchShard(int shard) {
  ShardScratch& sc = shards_[static_cast<size_t>(shard)];
  const auto [r_begin, r_end] = shard_regions_[static_cast<size_t>(shard)];
  for (RegionId r = r_begin; r < r_end; ++r) {
    const int n = match_sizes_[r];
    if (n == 0 || matching_.PendingCount(r) == 0) continue;
    TaxiId* cands = match_pool_.data() + match_offsets_[r];
    double* scores = match_scores_.data() + match_offsets_[r];
    int* order = match_order_.data() + match_offsets_[r];
    Rng& rng = region_rngs_[static_cast<size_t>(r)];
    const int pending = matching_.PendingCount(r);
    // A nearly empty pack cannot take a trip; it is left for the policy's
    // forced charge decision.
    int low_soc = 0;
    for (int i = 0; i < n; ++i) {
      if (fleet_.soc[static_cast<size_t>(cands[i])] <=
          config_.soc_force_charge) {
        ++low_soc;
      }
    }
    if (pending >= n - low_soc) {
      // Oversubscribed region: every able driver gets a trip regardless of
      // lottery rank, so skip the draws and the sort and serve in id order.
      // Hustle only shapes outcomes when trips are scarce, which is
      // exactly when the lottery below still runs.
      for (int i = 0; i < n; ++i) {
        if (matching_.PendingCount(r) == 0) break;
        const TaxiId id = cands[i];
        if (fleet_.soc[static_cast<size_t>(id)] <= config_.soc_force_charge) {
          continue;
        }
        BeginServing(id, matching_.PopOldest(r), rng, sc);
      }
      continue;
    }
    if (pending <= 16) {
      // Scarce-trip fast path: the exponential race's winner order is
      // exactly successive weighted picks without replacement (by
      // memorylessness), so draw each winner directly proportional to
      // hustle — `pending` cheap uniforms and O(pending * n) scan work
      // replace n log() draws plus a partial sort. scores[] doubles as
      // the remaining-weight array (0 = low-SoC or already served).
      double total = 0.0;
      for (int i = 0; i < n; ++i) {
        const TaxiId id = cands[i];
        const bool eligible =
            fleet_.soc[static_cast<size_t>(id)] > config_.soc_force_charge;
        scores[i] = eligible ? hustle_[static_cast<size_t>(id)] : 0.0;
        total += scores[i];
      }
      for (int p = 0; p < pending && total > 1e-12; ++p) {
        double draw = rng.NextDouble() * total;
        int win = -1;
        for (int i = 0; i < n; ++i) {
          draw -= scores[i];
          if (draw < 0.0 && scores[i] > 0.0) {
            win = i;
            break;
          }
        }
        if (win < 0) {  // float-summation tail: last eligible candidate
          for (int i = n - 1; i >= 0; --i) {
            if (scores[i] > 0.0) {
              win = i;
              break;
            }
          }
          if (win < 0) break;
        }
        BeginServing(cands[win], matching_.PopOldest(r), rng, sc);
        total -= scores[win];
        scores[win] = 0.0;
      }
      continue;
    }
    // Weighted street-hailing lottery: each driver's "clock" fires at an
    // exponential time scaled by hustle; earliest clocks get the trips.
    for (int i = 0; i < n; ++i) {
      scores[i] =
          rng.Exponential(1.0) / hustle_[static_cast<size_t>(cands[i])];
    }
    for (int i = 0; i < n; ++i) order[i] = i;
    // The serving loop below pops `pending` requests and skips at most
    // `low_soc` candidates, so only the first pending + low_soc ranks can
    // ever be reached — rank those and leave the tail unordered.
    const int reach = std::min(n, pending + low_soc);
    std::partial_sort(order, order + reach, order + n,
                      [&](int a, int b) { return scores[a] < scores[b]; });
    // Serve through the rank permutation directly; cands stays in id order
    // (the remote-dispatch pass re-checks vacancy, so any deterministic
    // ordering of its pops is fine).
    for (int i = 0; i < reach; ++i) {
      if (matching_.PendingCount(r) == 0) break;
      const TaxiId id = cands[order[i]];
      if (fleet_.soc[static_cast<size_t>(id)] <= config_.soc_force_charge) {
        continue;
      }
      BeginServing(id, matching_.PopOldest(r), rng, sc);
    }
  }
}

void Simulator::DispatchRemoteMatches() {
  // Centralized e-hailing pass (SV generalisation): leftover requests are
  // offered to the nearest still-vacant taxi within the radius. Requests
  // are walked region by region, nearest supply region first, so the
  // assignment approximates a greedy global nearest-dispatch. Candidates
  // pop from the back of each region's CSR slice. Serial: cross-region by
  // construction, and off in the paper's street-hailing setting. Nothing
  // here reads the trace or the calendar, so the pass commits once.
  for (RegionId r = 0; r < city_->num_regions(); ++r) {
    if (matching_.PendingCount(r) == 0) continue;
    for (RegionId src : dispatch_neighbors_[static_cast<size_t>(r)]) {
      if (matching_.PendingCount(r) == 0) break;
      const TaxiId* cands = match_pool_.data() + match_offsets_[src];
      int& remaining = match_sizes_[src];
      while (remaining > 0 && matching_.PendingCount(r) > 0) {
        const TaxiId id = cands[--remaining];
        if (!fleet_.IsVacant(id, now_.index) ||
            fleet_.soc[static_cast<size_t>(id)] <= config_.soc_force_charge) {
          continue;
        }
        const double pickup_minutes = city_->TravelMinutes(src, r);
        const double pickup_km = city_->DrivingKm(src, r);
        BeginServing(id, matching_.PopOldest(r),
                     region_rngs_[static_cast<size_t>(r)], serial_outbox_,
                     pickup_minutes, pickup_km);
      }
    }
  }
  Commit(serial_outbox_);
}

void Simulator::BeginServing(TaxiId taxi, const Request& request, Rng& rng,
                             ShardScratch& outbox, double pickup_minutes,
                             double pickup_km) {
  const size_t k = static_cast<size_t>(taxi);
  TaxiCold& cold = fleet_.cold[k];
  // Lazy destination: cohort-queued requests carry none (expired requests
  // never consume a draw), so the trip's destination comes off the origin
  // region's stream here, at pickup.
  const RegionId dest =
      demand_->SampleDestination(request.origin, now_, rng);
  const double km = demand_->TripKm(request.origin, dest);
  double trip_min;
  if (request.origin == dest) {
    trip_min = km / RegionSpeedKmh(request.origin) * 60.0;
  } else {
    trip_min = city_->TravelMinutes(request.origin, dest);
  }
  const double serve_min =
      config_.pickup_overhead_min + pickup_minutes + trip_min;
  const int64_t busy_slots =
      std::max<int64_t>(1, MinutesToSlotsCeil(serve_min));
  const double fare = config_.fares.Fare(km, trip_min, now_);

  TripRecord trip;
  trip.taxi = taxi;
  trip.pickup_slot = now_.index;
  trip.dropoff_slot = now_.index + busy_slots;
  trip.origin = request.origin;
  trip.dest = dest;
  trip.distance_km = static_cast<float>(km);
  trip.fare_cny = static_cast<float>(fare);
  // Sub-slot pickup jitter keeps the cruise-time distribution continuous
  // (decisions are slot-granular but street pickups are not).
  const double cruise_min =
      static_cast<double>(now_.index - cold.vacant_since) * kMinutesPerSlot +
      pickup_minutes + rng.Uniform(0.0, kMinutesPerSlot);
  trip.cruise_min = static_cast<float>(cruise_min);
  trip.first_after_charge = cold.awaiting_first_pickup;
  outbox.trips.push_back(trip);

  if (cold.awaiting_first_pickup) {
    outbox.first_cruise.push_back(
        {cold.last_charge_event, static_cast<float>(cruise_min)});
    cold.awaiting_first_pickup = false;
    cold.last_charge_event = -1;
  }

  fleet_.phase[k] = TaxiPhase::kServing;
  fleet_.busy_until[k] = now_.index + busy_slots;
  cold.trip_dest = dest;
  cold.pending_fare = fare;
  cold.num_trips += 1;
  cold.km_driven += fleet_.ConsumeKm(taxi, km + 0.5 + pickup_km);
  outbox.schedule.push_back({now_.index + busy_slots, taxi});
}

// --- Displacement ----------------------------------------------------------

void Simulator::DecideAndApply(DisplacementPolicy* policy) {
  // Supply snapshot for the policy's global view. Serial: policies are
  // stateful black boxes, and the phase is a single dense column scan plus
  // whatever the policy does.
  {
    FM_SPAN("sim.decide.obs");
    std::fill(vacant_count_.begin(), vacant_count_.end(), 0);
    vacant_obs_.clear();
    const int64_t now = now_.index;
    for (TaxiId i = 0; i < fleet_.size(); ++i) {
      const size_t k = static_cast<size_t>(i);
      if (fleet_.phase[k] == TaxiPhase::kCruising) {
        ++vacant_count_[static_cast<size_t>(fleet_.region[k])];
      }
      if (fleet_.phase[k] != TaxiPhase::kCruising ||
          fleet_.busy_until[k] > now) {
        continue;
      }
      TaxiObs obs;
      obs.taxi = i;
      obs.region = fleet_.region[k];
      obs.soc = fleet_.soc[k];
      obs.must_charge = fleet_.soc[k] <= config_.soc_force_charge;
      obs.may_charge = fleet_.soc[k] <= config_.soc_may_charge;
      obs.pe_gap = fleet_.hourly_pe(i) - fleet_mean_pe_;
      vacant_obs_.push_back(obs);
    }
  }
  if (vacant_obs_.empty()) return;

  actions_.clear();
  if (policy != nullptr) {
    FM_SPAN("sim.decide.policy");
    policy->DecideActions(*this, vacant_obs_, &actions_);
    FM_CHECK(actions_.size() == vacant_obs_.size())
        << policy->name() << " returned " << actions_.size()
        << " actions for " << vacant_obs_.size() << " taxis";
  } else {
    // Null policy: stay, but honour the forced-charge rule.
    actions_.reserve(vacant_obs_.size());
    for (const TaxiObs& obs : vacant_obs_) {
      if (obs.must_charge) {
        actions_.push_back(
            Action::Charge(city_->NearestStations(obs.region).front()));
      } else {
        actions_.push_back(Action::Stay());
      }
    }
  }

  FM_SPAN("sim.decide.apply");
  for (size_t i = 0; i < vacant_obs_.size(); ++i) {
    const TaxiObs& obs = vacant_obs_[i];
    const Action& action = actions_[i];
    const int index = action_space_.IndexOf(obs.region, action);
    FM_CHECK(index >= 0) << "action " << action.ToString()
                         << " not in the action set of region " << obs.region;
    FM_CHECK(action_space_.IsValid(obs.region, index, obs.must_charge,
                                   obs.may_charge))
        << "invalid action " << action.ToString() << " for taxi " << obs.taxi
        << " (soc=" << obs.soc << ")";
    Decision decision;
    decision.taxi = obs.taxi;
    decision.region = obs.region;
    decision.action_index = index;
    decision.must_charge = obs.must_charge;
    decision.may_charge = obs.may_charge;
    decisions_.push_back(decision);
    ApplyAction(obs.taxi, action);
  }
}

void Simulator::ApplyAction(TaxiId taxi, const Action& action) {
  const size_t k = static_cast<size_t>(taxi);
  switch (action.type) {
    case Action::Type::kStay: {
      // Circling the current region looking for flags.
      const double km = RegionSpeedKmh(fleet_.region[k]) *
                        config_.cruise_drive_factor *
                        (kMinutesPerSlot / 60.0);
      fleet_.cold[k].km_driven += fleet_.ConsumeKm(taxi, km);
      break;
    }
    case Action::Type::kMove: {
      const double km = city_->DrivingKm(fleet_.region[k], action.move_to);
      fleet_.cold[k].km_driven += fleet_.ConsumeKm(taxi, km);
      fleet_.region[k] = action.move_to;
      fleet_.busy_until[k] = now_.index + 1;  // hop takes the slot
      break;
    }
    case Action::Type::kCharge: {
      StartChargeTrip(taxi, action.station);
      break;
    }
  }
}

void Simulator::ArriveAtStationOrRenege(TaxiId taxi, ShardScratch& outbox) {
  // The join waits in the outbox until Commit, so same-slot co-arrivals in
  // a shard don't see each other in the line — the deterministic analogue
  // of drivers checking the charging app a few minutes before pulling in.
  // A serial caller commits after each arrival, so its next one sees it.
  const size_t k = static_cast<size_t>(taxi);
  TaxiCold& cold = fleet_.cold[k];
  const StationId arrived_at = cold.station;
  const ChargingStation& st = city_->station(arrived_at);
  fleet_.region[k] = st.region;
  const StationQueue& queue = stations_[static_cast<size_t>(arrived_at)];
  // A dark station (fault-injection outage) can never plug anyone in, so
  // the taxi always tries to move on, ignoring the redirect budget.
  const bool dead = queue.available_points() == 0;
  const bool overloaded =
      dead || queue.waiting() >= static_cast<int>(config_.renege_queue_factor *
                                                  queue.available_points());
  if (overloaded &&
      (dead || cold.charge_redirects < config_.max_charge_redirects)) {
    // Balk: head for the least-loaded nearby alternative (drivers see
    // station occupancy in the charging app).
    StationId best = kInvalidStation;
    double best_cost = 1e18;
    for (StationId s : city_->NearestStations(st.region)) {
      if (s == arrived_at) continue;
      const StationQueue& alt = stations_[static_cast<size_t>(s)];
      if (alt.available_points() == 0) continue;  // also dark
      const double load =
          static_cast<double>(alt.load()) / alt.available_points();
      const double travel = city_->TravelMinutesToStation(st.region, s);
      const double cost = 30.0 * load + travel;
      if (cost < best_cost) {
        best_cost = cost;
        best = s;
      }
    }
    if (best != kInvalidStation) {
      cold.charge_redirects += 1;
      const double travel_min =
          city_->TravelMinutesToStation(st.region, best);
      const double km = city_->DrivingKmToStation(st.region, best);
      cold.km_driven += fleet_.ConsumeKm(taxi, km);
      cold.session_travel_min += travel_min;
      const int64_t travel_slots =
          travel_min <= 0.0 ? 0 : MinutesToSlotsCeil(travel_min);
      cold.charge_travel_slots += travel_slots;
      cold.station = best;
      if (travel_slots == 0) {
        fleet_.region[k] = city_->station(best).region;
        fleet_.phase[k] = TaxiPhase::kQueuing;
        fleet_.busy_until[k] = now_.index;
        outbox.enqueues.push_back({best, taxi});
        return;
      }
      fleet_.phase[k] = TaxiPhase::kToStation;
      fleet_.busy_until[k] = now_.index + travel_slots;
      outbox.schedule.push_back({fleet_.busy_until[k], taxi});
      return;
    }
  }
  fleet_.phase[k] = TaxiPhase::kQueuing;
  outbox.enqueues.push_back({arrived_at, taxi});
}

void Simulator::StartChargeTrip(TaxiId taxi, StationId station) {
  const size_t k = static_cast<size_t>(taxi);
  TaxiCold& cold = fleet_.cold[k];
  const double travel_min =
      city_->TravelMinutesToStation(fleet_.region[k], station);
  const double km = city_->DrivingKmToStation(fleet_.region[k], station);
  const int64_t travel_slots =
      travel_min <= 0.0 ? 0 : MinutesToSlotsCeil(travel_min);
  cold.station = station;
  cold.idle_since = now_.index;
  cold.session_travel_min = travel_min;
  cold.charge_travel_slots = travel_slots;
  cold.charge_redirects = 0;
  cold.km_driven += fleet_.ConsumeKm(taxi, km);
  if (travel_slots == 0) {
    // Station in the current region: arrive immediately (may balk). The
    // commit lets the next taxi's balk decision see this one's join.
    fleet_.busy_until[k] = now_.index;
    ArriveAtStationOrRenege(taxi, serial_outbox_);
    Commit(serial_outbox_);
  } else {
    fleet_.phase[k] = TaxiPhase::kToStation;
    fleet_.busy_until[k] = now_.index + travel_slots;
    ScheduleArrival(taxi, fleet_.busy_until[k]);
  }
}

void Simulator::ExpireRequests() {
  trace_.CountExpiredRequests(matching_.ExpireOld(now_));
}

// --- Accounting ------------------------------------------------------------

void Simulator::AccountTimeAndStranding() {
  RunSharded(&Simulator::AccountShard);
  PhaseCounts counts;
  counts.slot = now_.index;
  for (ShardScratch& sc : shards_) {
    counts.cruising += sc.counts.cruising;
    counts.serving += sc.counts.serving;
    counts.to_station += sc.counts.to_station;
    counts.queuing += sc.counts.queuing;
    counts.charging += sc.counts.charging;
    counts.broken_down += sc.counts.broken_down;
    // Stranding tow-ins: shard order x id order == global ascending id,
    // the historical enqueue order.
    Commit(sc);
  }
  trace_.RecordPhaseCounts(counts);
  if (fault_schedule_ != nullptr &&
      fault_schedule_->HazardActive(now_.index)) {
    ApplyBreakdownHazard();
  }
  slot_counts_ = counts;
}

void Simulator::AccountShard(int shard) {
  ShardScratch& sc = shards_[static_cast<size_t>(shard)];
  sc.counts = PhaseCounts{};
  sc.counts.slot = now_.index;
  double pe_sum = 0.0;
  double pe_sum2 = 0.0;
  const auto [t_begin, t_end] = shard_taxis_[static_cast<size_t>(shard)];
  for (TaxiId i = t_begin; i < t_end; ++i) {
    const size_t k = static_cast<size_t>(i);
    // Count the phase before the stranding transition below mutates it —
    // the composition gauge reflects the slot as lived, like the
    // historical separate counting pass did.
    switch (fleet_.phase[k]) {
      case TaxiPhase::kCruising:
        ++sc.counts.cruising;
        fleet_.cruise_min[k] += kMinutesPerSlot;
        break;
      case TaxiPhase::kServing:
        ++sc.counts.serving;
        fleet_.serve_min[k] += kMinutesPerSlot;
        break;
      case TaxiPhase::kToStation:
        ++sc.counts.to_station;
        fleet_.idle_min[k] += kMinutesPerSlot;
        break;
      case TaxiPhase::kQueuing:
        ++sc.counts.queuing;
        fleet_.idle_min[k] += kMinutesPerSlot;
        break;
      case TaxiPhase::kCharging:
        ++sc.counts.charging;
        fleet_.charge_min[k] += kMinutesPerSlot;
        break;
      case TaxiPhase::kBrokenDown:  // repair downtime is lost (idle) time
        ++sc.counts.broken_down;
        fleet_.idle_min[k] += kMinutesPerSlot;
        break;
    }
    // Stranding: an empty pack outside a charging context is towed to the
    // nearest station and pays an idle-time penalty.
    if (fleet_.BatteryEmpty(i) && (fleet_.phase[k] == TaxiPhase::kCruising ||
                                   fleet_.phase[k] == TaxiPhase::kServing)) {
      TaxiCold& cold = fleet_.cold[k];
      if (fleet_.phase[k] == TaxiPhase::kServing) {
        cold.pending_fare = 0.0;  // trip abandoned
        cold.trip_dest = kInvalidRegion;
      }
      cold.num_strandings += 1;
      sc.strandings += 1;
      fleet_.idle_min[k] += config_.stranding_penalty_min;
      const StationId station =
          city_->NearestStations(fleet_.region[k]).front();
      cold.station = station;
      fleet_.region[k] = city_->station(station).region;
      fleet_.phase[k] = TaxiPhase::kQueuing;
      cold.idle_since = now_.index;
      cold.session_travel_min = config_.stranding_penalty_min;
      cold.charge_travel_slots = 0;
      cold.charge_redirects = config_.max_charge_redirects;  // no balking
      fleet_.busy_until[k] = now_.index;
      sc.enqueues.push_back({station, i});
    }
    // PE moments, fused into the accounting scan: the taxi's minute and
    // money columns are final for this slot right here (stranding penalty
    // included), and they are hot in cache.
    const double pe = fleet_.hourly_pe(i);
    pe_sum += pe;
    pe_sum2 += pe * pe;
  }
  sc.pe_sum = pe_sum;
  sc.pe_sum2 = pe_sum2;
  sc.pe_count = t_end - t_begin;
}

void Simulator::RefreshFleetPeStats() {
  // The per-shard moments were accumulated inside AccountShard (the
  // columns are final and cache-hot there); this is just the merge.
  // Plain moment sums merged in fixed shard order: the same mean/variance
  // at any thread count, without Welford's per-sample division. PE values
  // are O(10²) over 2·10⁴ taxis, far from the cancellation regime.
  double sum = 0.0;
  double sum2 = 0.0;
  int64_t count = 0;
  for (const auto& sc : shards_) {
    sum += sc.pe_sum;
    sum2 += sc.pe_sum2;
    count += sc.pe_count;
  }
  fleet_mean_pe_ = count > 0 ? sum / static_cast<double>(count) : 0.0;
  const double ex2 = count > 0 ? sum2 / static_cast<double>(count) : 0.0;
  fleet_pe_variance_ = std::max(0.0, ex2 - fleet_mean_pe_ * fleet_mean_pe_);
}

// --- Telemetry -------------------------------------------------------------

void Simulator::RecordFault(const FaultEvent& event) {
  FM_FLIGHT_EVENT("sim.fault", static_cast<int32_t>(event.kind),
                  static_cast<int64_t>(event.subject));
  trace_.AddFaultEvent(event);
  Telemetry& telemetry = Telemetry::Get();
  if (!telemetry.enabled() || telemetry_label_.empty()) return;
  Metrics().Count(std::string("sim/fault/") + FaultKindName(event.kind));
  JsonObject row;
  row.Set("kind", "fault")
      .Set("run", telemetry_label_)
      .Set("slot", event.slot)
      .Set("fault", FaultKindName(event.kind))
      .Set("subject", static_cast<int64_t>(event.subject))
      .Set("magnitude", event.magnitude);
  telemetry.sim_stream().Write(row);
}

void Simulator::EmitSlotTelemetry(const PhaseCounts& counts) {
  FM_FLIGHT_EVENT("sim.slot", static_cast<int32_t>(counts.slot),
                  total_strandings_);
  Telemetry& telemetry = Telemetry::Get();
  if (!telemetry.enabled() || telemetry_label_.empty()) return;
  // Per-shard composition rows first, then the fleet row their merge must
  // reproduce (tools/obs_check pins shard ids ascending and the sums).
  for (int s = 0; s < num_shards_; ++s) {
    const PhaseCounts& pc = shards_[static_cast<size_t>(s)].counts;
    JsonObject row;
    row.Set("kind", "shard")
        .Set("run", telemetry_label_)
        .Set("slot", counts.slot)
        .Set("shard", static_cast<int64_t>(s))
        .Set("cruising", pc.cruising)
        .Set("serving", pc.serving)
        .Set("to_station", pc.to_station)
        .Set("queuing", pc.queuing)
        .Set("charging", pc.charging)
        .Set("broken_down", pc.broken_down);
    telemetry.sim_stream().Write(row);
  }
  JsonObject row;
  row.Set("kind", "slot")
      .Set("run", telemetry_label_)
      .Set("slot", counts.slot)
      .Set("cruising", counts.cruising)
      .Set("serving", counts.serving)
      .Set("to_station", counts.to_station)
      .Set("queuing", counts.queuing)
      .Set("charging", counts.charging)
      .Set("broken_down", counts.broken_down)
      .Set("strandings", total_strandings_)
      .Set("fault_events", trace_.total_fault_events())
      .Set("expired_requests", trace_.expired_requests())
      .Set("total_requests", total_requests_)
      .Set("fleet_pe_mean", fleet_mean_pe_)
      .Set("fleet_pf", fleet_pe_variance_);
  telemetry.sim_stream().Write(row);
}

}  // namespace fairmove
