// Tests of the fault-injection & resilience subsystem: FaultSchedule
// validation and CSV round-trip, bit-exact deterministic replay of chaos
// episodes, graceful degradation under every shipped policy, the
// DivergenceGuard checkpoint-rollback machinery, the hardened Adam step,
// and the record-corruption chaos helper.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "fairmove/common/csv.h"
#include "fairmove/core/evaluator.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/core/metrics.h"
#include "fairmove/nn/adam.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/resilience/chaos.h"
#include "fairmove/resilience/divergence_guard.h"
#include "fairmove/resilience/fault_schedule.h"
#include "fairmove/rl/cma2c_policy.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/gt_policy.h"
#include "synthetic_transitions.h"

namespace fairmove {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------- FaultSchedule --

TEST(FaultScheduleTest, ValidateAcceptsReasonableSchedule) {
  FaultSchedule schedule;
  schedule.AddStationOutage(0, 10, 20)
      .AddStationOutage(1, 10, 20, 0.5)
      .AddDemandShock(DemandShock::kAllRegions, 0, 144, 2.0)
      .AddDemandShock(3, 12, 24, 0.0)
      .AddBreakdownHazard(0, 144, 0.01, 6);
  EXPECT_TRUE(schedule.Validate().ok());
  EXPECT_FALSE(schedule.empty());
  EXPECT_TRUE(FaultSchedule().Validate().ok());
  EXPECT_TRUE(FaultSchedule().empty());
}

TEST(FaultScheduleTest, ValidateRejectsBadEntries) {
  EXPECT_FALSE(FaultSchedule().AddStationOutage(0, 20, 10).Validate().ok());
  EXPECT_FALSE(FaultSchedule().AddStationOutage(0, -1, 10).Validate().ok());
  EXPECT_FALSE(
      FaultSchedule().AddStationOutage(0, 0, 10, 1.5).Validate().ok());
  EXPECT_FALSE(
      FaultSchedule().AddStationOutage(0, 0, 10, -0.1).Validate().ok());
  EXPECT_FALSE(
      FaultSchedule().AddStationOutage(0, 0, 10, kNan).Validate().ok());
  EXPECT_FALSE(FaultSchedule().AddDemandShock(0, 0, 10, -2.0).Validate().ok());
  EXPECT_FALSE(FaultSchedule().AddDemandShock(0, 0, 10, kNan).Validate().ok());
  EXPECT_FALSE(FaultSchedule().AddDemandShock(-5, 0, 10, 1.0).Validate().ok());
  EXPECT_FALSE(
      FaultSchedule().AddBreakdownHazard(0, 10, 1.5, 6).Validate().ok());
  EXPECT_FALSE(
      FaultSchedule().AddBreakdownHazard(0, 10, 0.1, 0).Validate().ok());
}

TEST(FaultScheduleTest, ValidateForChecksIdsAgainstCitySize) {
  FaultSchedule schedule;
  schedule.AddStationOutage(4, 0, 10).AddDemandShock(7, 0, 10, 2.0);
  EXPECT_TRUE(schedule.ValidateFor(/*num_regions=*/8, /*num_stations=*/5).ok());
  EXPECT_FALSE(schedule.ValidateFor(8, 4).ok());  // station 4 out of range
  EXPECT_FALSE(schedule.ValidateFor(7, 5).ok());  // region 7 out of range
  FaultSchedule fleet_wide;
  fleet_wide.AddDemandShock(DemandShock::kAllRegions, 0, 10, 2.0);
  EXPECT_TRUE(fleet_wide.ValidateFor(1, 1).ok());
}

TEST(FaultScheduleTest, QueriesComposeOverlappingWindows) {
  FaultSchedule schedule;
  schedule.AddStationOutage(2, 10, 30, 0.5)
      .AddStationOutage(2, 20, 40, 0.5)
      .AddDemandShock(DemandShock::kAllRegions, 0, 100, 2.0)
      .AddDemandShock(5, 50, 60, 3.0)
      .AddBreakdownHazard(70, 80, 0.2, 3);
  EXPECT_DOUBLE_EQ(schedule.StationCapacityFactor(2, 9), 1.0);
  EXPECT_DOUBLE_EQ(schedule.StationCapacityFactor(2, 15), 0.5);
  EXPECT_DOUBLE_EQ(schedule.StationCapacityFactor(2, 25), 0.25);  // overlap
  EXPECT_DOUBLE_EQ(schedule.StationCapacityFactor(2, 35), 0.5);
  EXPECT_DOUBLE_EQ(schedule.StationCapacityFactor(2, 40), 1.0);  // exclusive
  EXPECT_DOUBLE_EQ(schedule.StationCapacityFactor(1, 25), 1.0);  // other id
  EXPECT_DOUBLE_EQ(schedule.DemandMultiplier(0, 10), 2.0);
  EXPECT_DOUBLE_EQ(schedule.DemandMultiplier(5, 55), 6.0);  // fleet x region
  EXPECT_DOUBLE_EQ(schedule.DemandMultiplier(5, 65), 2.0);
  EXPECT_DOUBLE_EQ(schedule.DemandMultiplier(5, 100), 1.0);
  EXPECT_FALSE(schedule.HazardActive(69));
  EXPECT_TRUE(schedule.HazardActive(70));
  EXPECT_TRUE(schedule.HazardActive(79));
  EXPECT_FALSE(schedule.HazardActive(80));
}

TEST(FaultScheduleTest, CsvRoundTrip) {
  FaultSchedule schedule;
  schedule.AddStationOutage(3, 36, 72, 0.0)
      .AddStationOutage(1, 40, 50, 0.25)
      .AddDemandShock(DemandShock::kAllRegions, 36, 108, 2.0)
      .AddDemandShock(9, 60, 66, 0.5)
      .AddBreakdownHazard(36, 72, 0.01, 6);
  auto parsed_or = FaultSchedule::FromCsv(schedule.ToCsv());
  ASSERT_TRUE(parsed_or.ok()) << parsed_or.status();
  const FaultSchedule& parsed = parsed_or.value();
  ASSERT_EQ(parsed.station_outages().size(), 2u);
  ASSERT_EQ(parsed.demand_shocks().size(), 2u);
  ASSERT_EQ(parsed.breakdown_hazards().size(), 1u);
  EXPECT_EQ(parsed.station_outages()[0].station, 3);
  EXPECT_EQ(parsed.station_outages()[0].from_slot, 36);
  EXPECT_EQ(parsed.station_outages()[0].until_slot, 72);
  EXPECT_DOUBLE_EQ(parsed.station_outages()[1].capacity_factor, 0.25);
  EXPECT_EQ(parsed.demand_shocks()[0].region, DemandShock::kAllRegions);
  EXPECT_DOUBLE_EQ(parsed.demand_shocks()[1].multiplier, 0.5);
  EXPECT_EQ(parsed.breakdown_hazards()[0].repair_slots, 6);
  EXPECT_DOUBLE_EQ(parsed.breakdown_hazards()[0].per_slot_prob, 0.01);
}

TEST(FaultScheduleTest, FromCsvRejectsGarbage) {
  EXPECT_FALSE(FaultSchedule::FromCsv("").ok());
  EXPECT_FALSE(FaultSchedule::FromCsv("wrong,header\n1,2\n").ok());
  EXPECT_FALSE(
      FaultSchedule::FromCsv("kind,target,from_slot,until_slot,magnitude,"
                             "param\nearthquake,0,0,10,1.0,0\n")
          .ok());
  EXPECT_FALSE(
      FaultSchedule::FromCsv("kind,target,from_slot,until_slot,magnitude,"
                             "param\nstation_outage,zero,0,10,0.0,0\n")
          .ok());
  // Parses but fails Validate (inverted window).
  EXPECT_FALSE(
      FaultSchedule::FromCsv("kind,target,from_slot,until_slot,magnitude,"
                             "param\nstation_outage,0,20,10,0.0,0\n")
          .ok());
}

TEST(FaultScheduleTest, StandardOutageScenarioIsValidForItsCity) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.05);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const FaultSchedule schedule = StandardOutageScenario(system->city());
  EXPECT_TRUE(schedule
                  .ValidateFor(system->city().num_regions(),
                               system->city().num_stations())
                  .ok());
  EXPECT_EQ(schedule.station_outages().size(), 2u);
  EXPECT_EQ(schedule.demand_shocks().size(), 1u);
  EXPECT_EQ(schedule.breakdown_hazards().size(), 1u);
  // The darked stations are the two biggest ones.
  int max_points = 0;
  for (StationId s = 0; s < system->city().num_stations(); ++s) {
    max_points = std::max(max_points, system->city().station(s).num_points);
  }
  EXPECT_EQ(system->city()
                .station(schedule.station_outages()[0].station)
                .num_points,
            max_points);
}

// ----------------------------------------------- Deterministic chaos runs --

/// Byte-comparable digest of everything a run produced: trace aggregates,
/// the fault-event log, and the final per-taxi state.
std::string Fingerprint(const Simulator& sim, bool include_fault_events) {
  std::ostringstream os;
  os.precision(17);
  const Trace& t = sim.trace();
  os << t.total_trips() << '|' << t.total_charge_events() << '|'
     << t.total_fares() << '|' << t.total_charge_cost() << '|'
     << t.expired_requests() << '|' << t.total_breakdowns() << '|'
     << sim.total_requests() << '|' << sim.FleetMeanPe() << '|'
     << sim.FleetPeVariance() << '\n';
  if (include_fault_events) {
    os << t.total_fault_events() << '\n';
    for (const FaultEvent& e : t.fault_events()) {
      os << static_cast<int>(e.kind) << ',' << e.slot << ',' << e.subject
         << ',' << e.magnitude << '\n';
    }
  }
  const FleetState& fleet = sim.fleet();
  for (TaxiId id = 0; id < fleet.size(); ++id) {
    const size_t k = static_cast<size_t>(id);
    os << fleet.region[k] << ',' << static_cast<int>(fleet.phase[k]) << ','
       << fleet.soc[k] << ',' << fleet.revenue_cny[k] << ','
       << fleet.charge_cost_cny[k] << ',' << fleet.cold[k].num_trips << ','
       << fleet.cold[k].num_charges << ',' << fleet.cold[k].num_breakdowns
       << '\n';
  }
  return os.str();
}

class ResilienceSimTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.05);
    system_ = std::move(FairMoveSystem::Create(cfg)).value();
  }

  std::string RunOnce(const FaultSchedule* schedule, uint64_t seed,
                      int64_t slots, bool include_fault_events = true) {
    Simulator& sim = system_->sim();
    EXPECT_TRUE(sim.SetFaultSchedule(schedule).ok());
    sim.Reset(seed);
    GtPolicy policy;
    sim.RunSlots(&policy, slots);
    std::string fp = Fingerprint(sim, include_fault_events);
    EXPECT_TRUE(sim.SetFaultSchedule(nullptr).ok());
    return fp;
  }

  /// Runs a 12-slot breakdown hazard with `repair_slots`-slot repairs until
  /// every repair is done; each broken-down taxi must rejoin exactly
  /// `repair_slots` after its breakdown, and the trace, the per-taxi counts
  /// and the fleet metrics must agree on how many broke down.
  void ExpectBreakdownsAccountedAndRepairedOnTime(int repair_slots) {
    SCOPED_TRACE(::testing::Message() << repair_slots << "-slot repairs");
    FaultSchedule schedule;
    schedule.AddBreakdownHazard(6, 18, 0.2, repair_slots);
    Simulator& sim = system_->sim();
    ASSERT_TRUE(sim.SetFaultSchedule(&schedule).ok());
    sim.Reset(5);
    GtPolicy policy;
    sim.RunSlots(&policy, 60 + repair_slots);  // every repair is done
    const Trace& trace = sim.trace();
    ASSERT_GT(trace.total_breakdowns(), 0);
    const FleetState& fleet = sim.fleet();
    std::vector<int64_t> broken_at(static_cast<size_t>(fleet.size()), -1);
    int64_t breakdown_events = 0;
    int64_t repaired_events = 0;
    for (const FaultEvent& e : trace.fault_events()) {
      int64_t& since = broken_at[static_cast<size_t>(e.subject)];
      if (e.kind == FaultKind::kBreakdown) {
        ++breakdown_events;
        EXPECT_EQ(since, -1) << "taxi " << e.subject << " broke down twice";
        since = e.slot;
      } else if (e.kind == FaultKind::kRepaired) {
        ++repaired_events;
        EXPECT_EQ(e.slot, since + repair_slots) << "taxi " << e.subject;
        since = -1;
      }
    }
    EXPECT_EQ(breakdown_events, trace.total_breakdowns());
    EXPECT_EQ(repaired_events, breakdown_events);
    int64_t per_taxi = 0;
    for (TaxiId id = 0; id < fleet.size(); ++id) {
      per_taxi += fleet.cold[static_cast<size_t>(id)].num_breakdowns;
      EXPECT_NE(fleet.phase[static_cast<size_t>(id)], TaxiPhase::kBrokenDown);
    }
    EXPECT_EQ(per_taxi, trace.total_breakdowns());
    const FleetMetrics m = ComputeFleetMetrics(sim);
    EXPECT_EQ(m.breakdowns, trace.total_breakdowns());
    EXPECT_GT(m.fault_events, 0);
    ASSERT_TRUE(sim.SetFaultSchedule(nullptr).ok());
  }

  std::unique_ptr<FairMoveSystem> system_;
};

TEST_F(ResilienceSimTest, SameSeedSameScheduleReplaysBitForBit) {
  const FaultSchedule schedule = StandardOutageScenario(system_->city(), 12);
  const std::string a = RunOnce(&schedule, 321, 144);
  const std::string b = RunOnce(&schedule, 321, 144);
  EXPECT_EQ(a, b);
}

TEST_F(ResilienceSimTest, EmptyScheduleMatchesNoScheduleBitForBit) {
  const FaultSchedule empty;
  const std::string without = RunOnce(nullptr, 321, 144);
  const std::string with_empty = RunOnce(&empty, 321, 144);
  EXPECT_EQ(without, with_empty);
}

TEST_F(ResilienceSimTest, ExtraOutageDivergesTheDynamics) {
  FaultSchedule base = StandardOutageScenario(system_->city(), 12);
  FaultSchedule more = base;
  // Dark every station for the whole run on top of the standard scenario:
  // charging becomes impossible, so the fleets must evolve differently.
  for (StationId s = 0; s < system_->city().num_stations(); ++s) {
    more.AddStationOutage(s, 0, 400, 0.0);
  }
  // Compare only the taxi-state digest so the divergence is in the actual
  // dynamics, not merely in the longer fault-event log.
  const std::string a = RunOnce(&base, 321, 144, /*include_fault_events=*/false);
  const std::string b = RunOnce(&more, 321, 144, /*include_fault_events=*/false);
  EXPECT_NE(a, b);
}

TEST_F(ResilienceSimTest, ScheduleSurvivesResetAndIsValidatedOnInstall) {
  Simulator& sim = system_->sim();
  FaultSchedule bad;
  bad.AddStationOutage(system_->city().num_stations(), 0, 10);
  EXPECT_FALSE(sim.SetFaultSchedule(&bad).ok());
  EXPECT_EQ(sim.fault_schedule(), nullptr);

  const FaultSchedule good = StandardOutageScenario(system_->city(), 12);
  ASSERT_TRUE(sim.SetFaultSchedule(&good).ok());
  sim.Reset(99);
  EXPECT_EQ(sim.fault_schedule(), &good);
  ASSERT_TRUE(sim.SetFaultSchedule(nullptr).ok());
}

TEST_F(ResilienceSimTest, DarkStationHoldsNoSessionsAndLogsTheOutage) {
  FaultSchedule schedule;
  schedule.AddStationOutage(0, 0, 400, 0.0);
  Simulator& sim = system_->sim();
  ASSERT_TRUE(sim.SetFaultSchedule(&schedule).ok());
  sim.Reset(17);
  GtPolicy policy;
  sim.RunSlots(&policy, 144);
  EXPECT_EQ(sim.station_queue(0).available_points(), 0);
  EXPECT_EQ(sim.station_queue(0).occupied(), 0);
  bool logged = false;
  for (const FaultEvent& e : sim.trace().fault_events()) {
    if (e.kind == FaultKind::kStationOutage && e.subject == 0) logged = true;
  }
  EXPECT_TRUE(logged);
  ASSERT_TRUE(sim.SetFaultSchedule(nullptr).ok());
}

TEST_F(ResilienceSimTest, FullDerateKeepsStationFeaturesFiniteAndSaturated) {
  // Regression test for the station-feature normalisation under fault
  // derating: pre-fix, the two queue-state features were normalised by the
  // INSTALLED point count, so a station darked by a FaultSchedule outage
  // (zero usable points — the "division by zero charging points" case once
  // any derate-aware denominator is used) still advertised a calm, empty
  // queue. Post-fix, the denominator is the derated available_points() and
  // a dark station renders as the documented "infinitely long queue": free
  // share 0, queue share saturated at 1, travel time still real.
  FaultSchedule schedule;
  const int num_stations = system_->city().num_stations();
  for (StationId s = 0; s < num_stations; ++s) {
    schedule.AddStationOutage(s, 0, 400, 0.0);  // every station dark
  }
  Simulator& sim = system_->sim();
  ASSERT_TRUE(sim.SetFaultSchedule(&schedule).ok());
  sim.Reset(23);
  GtPolicy policy;
  sim.RunSlots(&policy, 6);  // outage windows applied, queues drained
  ASSERT_EQ(sim.station_queue(0).available_points(), 0);

  FeatureExtractor features(&sim);
  // The station block sits between the neighbourhood aggregates and the
  // two price + two fairness tail features; locate it from the tail so the
  // test does not depend on the head-of-row layout.
  const int station_block =
      features.dim() - 4 - City::kNearestStations * 3;
  ASSERT_GT(station_block, 0);
  std::vector<float> out;
  for (RegionId r = 0; r < system_->city().num_regions(); ++r) {
    TaxiObs obs;
    obs.taxi = 0;
    obs.region = r;
    obs.soc = 0.4;
    features.Extract(obs, &out);
    for (int i = 0; i < features.dim(); ++i) {
      ASSERT_TRUE(std::isfinite(out[static_cast<size_t>(i)]))
          << "feature " << i << " of region " << r << " is non-finite";
    }
    const auto& near = system_->city().NearestStations(r);
    for (int j = 0; j < static_cast<int>(near.size()); ++j) {
      const float* f =
          out.data() + static_cast<size_t>(station_block + 3 * j);
      EXPECT_EQ(f[0], 0.0f) << "free share, region " << r << " slot " << j;
      EXPECT_EQ(f[1], 1.0f) << "queue share, region " << r << " slot " << j;
    }
  }
  ASSERT_TRUE(sim.SetFaultSchedule(nullptr).ok());
}

TEST_F(ResilienceSimTest, BreakdownsAreAccountedAndTaxisRejoin) {
  // 1,100-slot repairs are booked past the arrival calendar's 1,024-slot
  // ring and move back into it once they come within its reach.
  for (const int repair_slots : {3, 1100}) {
    ExpectBreakdownsAccountedAndRepairedOnTime(repair_slots);
  }
}

TEST_F(ResilienceSimTest, ChaosEpisodeCompletesUnderEveryShippedPolicy) {
  const FaultSchedule schedule = StandardOutageScenario(system_->city(), 36);
  Simulator& sim = system_->sim();
  std::vector<PolicyKind> kinds = FairMoveSystem::AllMethods();
  kinds.push_back(PolicyKind::kFairCharge);
  for (const PolicyKind kind : kinds) {
    ASSERT_TRUE(sim.SetFaultSchedule(&schedule).ok());
    sim.Reset(1234);
    auto policy = MakePolicy(kind, sim, 99);
    policy->SetTraining(false);
    sim.RunSlots(policy.get(), 144);
    const FleetMetrics m = ComputeFleetMetrics(sim);
    EXPECT_TRUE(std::isfinite(m.pe.Mean())) << policy->name();
    EXPECT_TRUE(std::isfinite(m.pf)) << policy->name();
    // 2 outages + 2 restorations + shock begin/end at minimum.
    EXPECT_GE(m.fault_events, 6) << policy->name();
    EXPECT_GT(m.trips, 0) << policy->name();
    ASSERT_TRUE(sim.SetFaultSchedule(nullptr).ok());
  }
}

// -------------------------------------------------------- DivergenceGuard --

TEST(DivergenceGuardTest, RollbackRestoresCheckpointedWeightsExactly) {
  Mlp net({3, 8, 2}, Activation::kTanh, 11);
  const std::vector<float> x{0.3f, -0.7f, 1.1f};
  DivergenceGuard guard;
  guard.Register(&net);
  ASSERT_TRUE(guard.Checkpoint().ok());
  ASSERT_TRUE(guard.has_checkpoint());
  const std::vector<float> y0 = net.Forward1(x);
  EXPECT_TRUE(guard.ParametersFinite());

  net.weights()[0].At(0, 0) = std::numeric_limits<float>::quiet_NaN();
  net.biases()[1][0] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(guard.ParametersFinite());

  ASSERT_TRUE(guard.OnDivergence("rigged NaN").ok());
  EXPECT_TRUE(guard.ParametersFinite());
  EXPECT_EQ(net.Forward1(x), y0);  // bit-exact restore
  EXPECT_EQ(guard.consecutive_rollbacks(), 1);
  EXPECT_EQ(guard.total_rollbacks(), 1);
  EXPECT_DOUBLE_EQ(guard.lr_scale(), 0.5);
  EXPECT_TRUE(guard.status().ok());
}

TEST(DivergenceGuardTest, HealthyUpdateResetsTheBudget) {
  Mlp net({2, 2}, Activation::kRelu, 3);
  DivergenceGuard guard(DivergenceGuard::Options{.max_consecutive_rollbacks = 2,
                                                 .lr_decay = 0.1});
  guard.Register(&net);
  ASSERT_TRUE(guard.Checkpoint().ok());
  ASSERT_TRUE(guard.OnDivergence("one").ok());
  ASSERT_TRUE(guard.NoteHealthyUpdate().ok());
  EXPECT_EQ(guard.consecutive_rollbacks(), 0);
  ASSERT_TRUE(guard.OnDivergence("two").ok());
  EXPECT_TRUE(guard.status().ok());  // 1 < budget of 2 again
  EXPECT_EQ(guard.total_rollbacks(), 2);
  EXPECT_DOUBLE_EQ(guard.lr_scale(), 0.01);
}

TEST(DivergenceGuardTest, GivesUpWithDescriptiveStatusAfterBudget) {
  Mlp net({2, 2}, Activation::kRelu, 3);
  DivergenceGuard guard(DivergenceGuard::Options{.max_consecutive_rollbacks = 2,
                                                 .lr_decay = 0.5});
  guard.Register(&net);
  ASSERT_TRUE(guard.Checkpoint().ok());
  ASSERT_TRUE(guard.OnDivergence("first blow-up").ok());
  EXPECT_FALSE(guard.exhausted());
  ASSERT_TRUE(guard.OnDivergence("final blow-up").ok());
  EXPECT_TRUE(guard.exhausted());
  EXPECT_FALSE(guard.status().ok());
  EXPECT_NE(guard.status().message().find("final blow-up"), std::string::npos);
  EXPECT_NE(guard.status().message().find("diverged"), std::string::npos);
}

TEST(DivergenceGuardTest, RollbackWithoutCheckpointFails) {
  Mlp net({2, 2}, Activation::kRelu, 3);
  DivergenceGuard guard;
  guard.Register(&net);
  EXPECT_FALSE(guard.OnDivergence("no checkpoint yet").ok());
  // Registering another net invalidates an existing snapshot set.
  Mlp other({2, 2}, Activation::kRelu, 4);
  ASSERT_TRUE(guard.Checkpoint().ok());
  guard.Register(&other);
  EXPECT_FALSE(guard.OnDivergence("stale checkpoint").ok());
}

// ------------------------------------------------------------ Adam guard --

TEST(AdamResilienceTest, NonFiniteGradientsSkipTheStep) {
  Mlp net({2, 3}, Activation::kRelu, 7);
  const std::vector<float> x{1.0f, -1.0f};
  Adam opt(&net, Adam::Options{});
  const std::vector<float> y0 = net.Forward1(x);

  Mlp::Gradients grads = net.MakeGradients();
  grads.dw[0].At(0, 0) = std::numeric_limits<float>::quiet_NaN();
  opt.Step(grads);
  EXPECT_EQ(opt.skipped_steps(), 1);
  EXPECT_EQ(opt.steps(), 0);
  EXPECT_EQ(net.Forward1(x), y0);  // parameters untouched

  grads.Zero();
  grads.dw[0].At(0, 0) = 0.25f;
  opt.Step(grads);
  EXPECT_EQ(opt.steps(), 1);
  EXPECT_NE(net.Forward1(x), y0);
}

// ------------------------------------------------- CMA2C rigged-NaN loss --

TEST(Cma2cDivergenceTest, RiggedNanRewardRollsBackThenGivesUpCleanly) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  Cma2cPolicy::Options opt;
  opt.actor_hidden = {8};
  opt.critic_hidden = {8};
  opt.batch_size = 4;
  opt.actor_warmup_batches = 0;
  Cma2cPolicy policy(system->sim(), opt);
  policy.EnableDivergenceGuard();
  ASSERT_NE(policy.divergence_guard(), nullptr);

  // One live step to obtain genuine feature vectors.
  system->sim().Reset();
  policy.SetTraining(true);
  system->sim().Step(&policy);
  ASSERT_FALSE(policy.LastFeatures()->empty());
  const std::vector<float> state = policy.LastFeatures()->front();
  const double v0 = policy.Value(state);

  DisplacementPolicy::Transition t;
  t.state = state;
  t.action_index = 0;
  t.reward = kNan;  // poisons the TD target
  t.terminal = true;
  t.region = 0;
  const TransitionStore batch = RowsOf(
      system->sim(), static_cast<int>(state.size()), std::vector(4, t));

  policy.Update(batch);
  EXPECT_EQ(policy.divergence_guard()->total_rollbacks(), 1);
  EXPECT_TRUE(policy.Health().ok());
  // The rollback fires before any optimizer step, so the critic still
  // equals the checkpoint exactly.
  EXPECT_EQ(policy.Value(state), v0);

  policy.Update(batch);
  policy.Update(batch);  // third consecutive rollback: budget spent
  EXPECT_TRUE(policy.divergence_guard()->exhausted());
  const Status health = policy.Health();
  EXPECT_FALSE(health.ok());
  EXPECT_NE(health.message().find("diverged"), std::string::npos);
  EXPECT_EQ(policy.Value(state), v0);

  // Learn() is now a no-op: no further rollbacks, no crash.
  std::vector<DisplacementPolicy::Transition> more(8, t);
  policy.Learn(more);
  EXPECT_EQ(policy.divergence_guard()->total_rollbacks(), 3);
}

// ----------------------------------------------------- Trainer guard rail --

/// Heuristic stand-in whose Health() turns non-OK after the first Learn().
class SickPolicy : public DisplacementPolicy {
 public:
  std::string name() const override { return "sick"; }
  void DecideActions(const Simulator& sim, const std::vector<TaxiObs>& vacant,
                     std::vector<Action>* actions) override {
    actions->clear();
    for (const TaxiObs& obs : vacant) {
      if (obs.must_charge) {
        actions->push_back(
            Action::Charge(sim.city().NearestStations(obs.region).front()));
      } else {
        actions->push_back(Action::Stay());
      }
    }
  }
  bool WantsTransitions() const override { return true; }
  void Learn(const std::vector<Transition>&) override { sick_ = true; }
  Status Health() const override {
    return sick_ ? Status::Internal("synthetic divergence") : Status::OK();
  }

 private:
  bool sick_ = false;
};

TEST(TrainGuardedTest, StopsWithDescriptiveStatusOnUnhealthyPolicy) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 3;
  cfg.trainer.slots_per_episode = 24;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  Trainer trainer = system->MakeTrainer();
  SickPolicy policy;
  std::vector<Trainer::EpisodeStats> stats;
  const Status st = trainer.TrainGuarded(&policy, &stats);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("episode 1"), std::string::npos);
  EXPECT_NE(st.message().find("synthetic divergence"), std::string::npos);
  EXPECT_EQ(stats.size(), 1u);  // stopped after the first episode
}

TEST(TrainGuardedTest, HealthyRunFinishesAllEpisodes) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 2;
  cfg.trainer.slots_per_episode = 24;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  Trainer trainer = system->MakeTrainer();
  GtPolicy policy;
  std::vector<Trainer::EpisodeStats> stats;
  const Status st = trainer.TrainGuarded(&policy, &stats);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(stats.size(), 2u);
}

// --------------------------------------------------------- CorruptCsvText --

TEST(CorruptCsvTextTest, ValidateRejectsBadProbabilities) {
  RecordCorruption c;
  EXPECT_TRUE(c.Validate().ok());
  c.drop_prob = -0.1;
  EXPECT_FALSE(c.Validate().ok());
  c = RecordCorruption{};
  c.nul_prob = 1.5;
  EXPECT_FALSE(c.Validate().ok());
  c = RecordCorruption{};
  c.truncate_prob = kNan;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(CorruptCsvTextTest, ZeroProbabilitiesAreTheIdentity) {
  const std::string text = "a,b\n1,2\n3,4\n";
  CorruptionStats stats;
  EXPECT_EQ(CorruptCsvText(text, RecordCorruption{}, &stats), text);
  EXPECT_EQ(stats.rows_seen, 2);
  EXPECT_EQ(stats.total_corrupted(), 0);
}

TEST(CorruptCsvTextTest, DeterministicForSeedAndHeaderIsNeverTouched) {
  std::string text = "h1,h2\n";
  for (int i = 0; i < 200; ++i) {
    text += std::to_string(i) + "," + std::to_string(i * 2) + "\n";
  }
  RecordCorruption c;
  c.drop_prob = 0.1;
  c.truncate_prob = 0.1;
  c.mangle_prob = 0.1;
  c.nul_prob = 0.1;
  c.seed = 42;
  CorruptionStats s1, s2;
  const std::string out1 = CorruptCsvText(text, c, &s1);
  const std::string out2 = CorruptCsvText(text, c, &s2);
  EXPECT_EQ(out1, out2);
  EXPECT_GT(s1.total_corrupted(), 0);
  EXPECT_EQ(s1.total_corrupted(), s2.total_corrupted());
  EXPECT_EQ(out1.substr(0, 6), "h1,h2\n");
  c.seed = 43;
  EXPECT_NE(CorruptCsvText(text, c, nullptr), out1);
}

TEST(CorruptCsvTextTest, DropOneRemovesEveryDataRow) {
  RecordCorruption c;
  c.drop_prob = 1.0;
  CorruptionStats stats;
  EXPECT_EQ(CorruptCsvText("a,b\n1,2\n3,4\n", c, &stats), "a,b\n");
  EXPECT_EQ(stats.dropped, 2);
}

TEST(CorruptCsvTextTest, NulOneDefeatsStrictParserButNotLenient) {
  RecordCorruption c;
  c.nul_prob = 1.0;
  c.seed = 9;
  CorruptionStats stats;
  const std::string corrupted =
      CorruptCsvText("a,b\n1,2\n3,4\n", c, &stats);
  EXPECT_EQ(stats.nul_injected, 2);
  EXPECT_FALSE(ParseCsv(corrupted).ok());
  CsvQuarantine q;
  auto lenient = ParseCsvLenient(corrupted, &q);
  ASSERT_TRUE(lenient.ok()) << lenient.status();
  EXPECT_EQ(lenient->num_rows(), 0u);
  EXPECT_EQ(q.nul_rows, 2);
}

}  // namespace
}  // namespace fairmove
