// Reproducibility guarantees: golden RNG values (pinning the exact stream
// across refactors), end-to-end evaluator determinism, and cross-component
// seed isolation. These tests are what make "same seed, same experiment"
// a contract rather than an accident.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fairmove/common/parallel.h"
#include "fairmove/common/rng.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/core/metrics.h"
#include "fairmove/io/binary.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/resilience/fault_schedule.h"
#include "fairmove/rl/cma2c_policy.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/gt_policy.h"

namespace fairmove {
namespace {

// ------------------------------------------------------------ Golden RNG --

TEST(GoldenRngTest, FirstWordsOfKnownSeedsNeverChange) {
  // Golden values pin the exact xoshiro256++/SplitMix64 stream. If this
  // test fails, every recorded experiment in EXPERIMENTS.md is invalidated
  // — bump them consciously, never casually.
  Rng a(0);
  const uint64_t a0 = a.NextU64();
  const uint64_t a1 = a.NextU64();
  Rng b(20130);
  const uint64_t b0 = b.NextU64();
  Rng c(0), d(20130);
  EXPECT_EQ(c.NextU64(), a0);
  EXPECT_EQ(c.NextU64(), a1);
  EXPECT_EQ(d.NextU64(), b0);
  EXPECT_NE(a0, b0);
}

TEST(GoldenRngTest, CityBuildIsBitStableAcrossCalls) {
  CityConfig cfg = CityConfig{}.Scaled(0.08);
  auto a = std::move(CityBuilder(cfg).Build()).value();
  auto b = std::move(CityBuilder(cfg).Build()).value();
  for (RegionId r = 0; r < a.num_regions(); ++r) {
    EXPECT_DOUBLE_EQ(a.region(r).centroid_km.x, b.region(r).centroid_km.x);
    EXPECT_DOUBLE_EQ(a.region(r).centroid_km.y, b.region(r).centroid_km.y);
  }
  for (StationId s = 0; s < a.num_stations(); ++s) {
    EXPECT_EQ(a.station(s).num_points, b.station(s).num_points);
    EXPECT_EQ(a.station(s).region, b.station(s).region);
  }
}

// ------------------------------------------------- end-to-end determinism --

TEST(DeterminismTest, EvaluatorProducesIdenticalMetricsTwice) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.eval.days = 1;
  auto run = [&]() {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    Evaluator evaluator = system->MakeEvaluator();
    return evaluator.RunGroundTruth();
  };
  const MethodResult a = run();
  const MethodResult b = run();
  EXPECT_DOUBLE_EQ(a.metrics.pe.Mean(), b.metrics.pe.Mean());
  EXPECT_DOUBLE_EQ(a.metrics.pf, b.metrics.pf);
  EXPECT_EQ(a.metrics.trips, b.metrics.trips);
  EXPECT_EQ(a.metrics.charge_events, b.metrics.charge_events);
}

TEST(DeterminismTest, TrainedCma2cIsReproducible) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 2;
  cfg.eval.days = 1;
  auto run = [&]() {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    Cma2cPolicy::Options options;
    options.seed = 5;
    Cma2cPolicy policy(system->sim(), options);
    Trainer trainer = system->MakeTrainer();
    trainer.Train(&policy);
    const auto stats = trainer.RunEvaluationEpisode(&policy, 77, 144);
    return stats.avg_reward;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

// ------------------------------------- sharded stepping is thread-blind --

std::string Digest(const FleetMetrics& m) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.17g|%.17g|%.17g|%.17g|%lld|%lld|%lld|%lld",
                m.pe.empty() ? 0.0 : m.pe.Mean(), m.pf, m.pe_sum,
                m.revenue_cny, static_cast<long long>(m.trips),
                static_cast<long long>(m.charge_events),
                static_cast<long long>(m.expired_requests),
                static_cast<long long>(m.total_requests));
  return buf;
}

// `busy_outage` also darkens station 7 at slot 25, when about 20 taxis
// wait in its line, so the fault drain reroutes a real line (station 3 has
// an empty line when it goes dark at slot 10).
std::string FullScaleDigest(int threads, bool busy_outage = false) {
  SetGlobalThreads(threads);
  // Full Shenzhen scale — 20,130 taxis / 491 regions / 123 stations — so
  // the digest exercises every shard boundary the bench config has, with
  // an active fault schedule perturbing demand, charging, and breakdowns
  // mid-run (fault draws come from dedicated per-region streams and must
  // be as thread-blind as the rest).
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen();
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  FaultSchedule faults;
  faults.AddDemandShock(/*region=*/7, /*from_slot=*/6, /*until_slot=*/30,
                        /*multiplier=*/2.5);
  faults.AddStationOutage(/*station=*/3, /*from_slot=*/10, /*until_slot=*/40);
  if (busy_outage) {
    faults.AddStationOutage(/*station=*/7, /*from_slot=*/25,
                            /*until_slot=*/40);
  }
  faults.AddBreakdownHazard(/*from_slot=*/12, /*until_slot=*/36,
                            /*per_slot_prob=*/2e-4, /*repair_slots=*/6);
  EXPECT_TRUE(system->sim().SetFaultSchedule(&faults).ok());
  GtPolicy policy;
  system->sim().Reset();
  system->sim().RunSlots(&policy, 48);
  const std::string digest = Digest(ComputeFleetMetrics(system->sim()));
  SetGlobalThreads(1);
  return digest;
}

TEST(DeterminismTest, FullScaleShardedSteppingIsThreadCountInvariant) {
  // The tentpole contract: region-sharded stepping with deterministic
  // cross-shard handoff is byte-identical at any FAIRMOVE_THREADS, and
  // two same-seed runs at the same thread count agree exactly.
  const std::string one = FullScaleDigest(1);
  const std::string two = FullScaleDigest(2);
  const std::string four = FullScaleDigest(4);
  const std::string four_again = FullScaleDigest(4);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(four, four_again);
  // Golden bytes: a refactor that moves the digest at every thread count
  // alike fails here.
  EXPECT_EQ(one,
            "28.986271937373623|187.99898162442639|583493.654099331|"
            "4893564.1531949872|124323|7510|9897|171364");
}

// The fault drain sends every taxi waiting at a station that goes dark back
// through the arrival logic on live station loads; golden bytes pin those
// reroutes.
TEST(DeterminismTest, BusyStationOutageDrainIsGolden) {
  const std::string one = FullScaleDigest(1, /*busy_outage=*/true);
  EXPECT_EQ(one, FullScaleDigest(4, /*busy_outage=*/true));
  EXPECT_EQ(one,
            "29.040238191290179|187.00323161077498|584579.99479067128|"
            "4901065.94502299|124669|7476|9991|171579");
}

// 48 GT slots of a city at `scale` on `threads` lanes: the FleetMetrics
// digest, and how many regions the pool shared meanwhile. `threshold_ns` is
// the pool's cost rule (0 forks every sharded phase).
struct SteppedCity {
  std::string digest;
  int64_t shared_regions = 0;
};

SteppedCity StepCity(double scale, int threads,
                     int64_t threshold_ns = kForkThresholdNs) {
  SetGlobalThreads(threads);
  SteppedCity out;
  {
    ScopedForkThresholdForTesting threshold(threshold_ns);
    auto system = std::move(FairMoveSystem::Create(
                                FairMoveConfig::FullShenzhen().Scaled(scale)))
                      .value();
    GtPolicy policy;
    const int64_t before = GlobalPool().stats().regions;
    system->sim().RunSlots(&policy, 48);
    out.shared_regions = GlobalPool().stats().regions - before;
    out.digest = Digest(ComputeFleetMetrics(system->sim()));
  }
  SetGlobalThreads(1);
  return out;
}

// The pool's cost rule decides whether a phase's shards fork; the shard
// plan, and so the bytes, stay the same. A 1,007-taxi city runs inline at
// every lane count (and forks under a lowered threshold), a 10,065-taxi
// city forks at 2 and 4 lanes, and both step to one digest at 1, 2 and 4.
TEST(DeterminismTest, ForkRuleKeepsDigestsAtEveryLaneCount) {
  const SteppedCity small = StepCity(0.05, 1);
  const SteppedCity large = StepCity(0.5, 1);
  EXPECT_NE(small.digest, large.digest);
  for (int threads : {2, 4}) {
    const SteppedCity inline_small = StepCity(0.05, threads);
    EXPECT_EQ(inline_small.digest, small.digest) << threads << " lanes";
    EXPECT_EQ(inline_small.shared_regions, 0) << threads << " lanes";
    const SteppedCity forked_small = StepCity(0.05, threads, 0);
    EXPECT_EQ(forked_small.digest, small.digest) << threads << " lanes";
    EXPECT_GT(forked_small.shared_regions, 0) << threads << " lanes";
    const SteppedCity forked_large = StepCity(0.5, threads);
    EXPECT_EQ(forked_large.digest, large.digest) << threads << " lanes";
    EXPECT_GT(forked_large.shared_regions, 0) << threads << " lanes";
  }
}

// ------------------------------ serial paths: golden bytes per version --

// The fault drain, the unplug loop, same-region charge arrivals and remote
// dispatch run serially between the sharded phases. These golden digests
// pin each of them in a two-day GT run at scale 0.08, down to every trace
// record, at 1 lane, 4 lanes inline and 4 lanes forced through the pool, so
// a change that moves one byte of these paths fails here.

/// CRC-32 over a run's FleetMetrics JSON, every trace record field by
/// field, and the request totals.
uint32_t TraceDigest(const Simulator& sim) {
  JsonObject metrics;
  AppendFleetMetricsJson(ComputeFleetMetrics(sim), &metrics);
  BinaryWriter out;
  out.WriteString(metrics.Str());
  const Trace& trace = sim.trace();
  out.WriteU64(trace.trips().size());
  for (const TripRecord& t : trace.trips()) {
    out.WriteI32(t.taxi);
    out.WriteI64(t.pickup_slot);
    out.WriteI64(t.dropoff_slot);
    out.WriteI32(t.origin);
    out.WriteI32(t.dest);
    out.WriteF32(t.distance_km);
    out.WriteF32(t.fare_cny);
    out.WriteF32(t.cruise_min);
    out.WriteBool(t.first_after_charge);
  }
  out.WriteU64(trace.charge_events().size());
  for (const ChargeEvent& e : trace.charge_events()) {
    out.WriteI32(e.taxi);
    out.WriteI32(e.station);
    out.WriteI64(e.seek_slot);
    out.WriteI64(e.plugin_slot);
    out.WriteI64(e.finish_slot);
    out.WriteF32(e.idle_min);
    out.WriteF32(e.charge_min);
    out.WriteF32(e.kwh);
    out.WriteF32(e.cost_cny);
    out.WriteF32(e.soc_start);
    out.WriteF32(e.soc_end);
    out.WriteF32(e.first_cruise_min);
  }
  out.WriteU64(trace.cycles().size());
  for (const CycleRecord& c : trace.cycles()) {
    out.WriteI32(c.taxi);
    out.WriteI64(c.start_slot);
    out.WriteI64(c.end_slot);
    out.WriteF32(c.op_min);
    out.WriteF32(c.cruise_min);
    out.WriteF32(c.serve_min);
    out.WriteF32(c.idle_min);
    out.WriteF32(c.charge_min);
    out.WriteF32(c.revenue_cny);
    out.WriteF32(c.charge_cost_cny);
    out.WriteI32(c.trips);
  }
  out.WriteU64(trace.fault_events().size());
  for (const FaultEvent& f : trace.fault_events()) {
    out.WriteU8(static_cast<uint8_t>(f.kind));
    out.WriteI64(f.slot);
    out.WriteI32(f.subject);
    out.WriteF64(f.magnitude);
  }
  out.WriteU64(trace.phase_counts().size());
  for (const PhaseCounts& p : trace.phase_counts()) {
    out.WriteI64(p.slot);
    out.WriteI32(p.cruising);
    out.WriteI32(p.serving);
    out.WriteI32(p.to_station);
    out.WriteI32(p.queuing);
    out.WriteI32(p.charging);
    out.WriteI32(p.broken_down);
  }
  out.WriteI64(sim.total_requests());
  out.WriteI64(trace.expired_requests());
  return Crc32(out.str());
}

enum class SerialPath { kNone, kFaults, kDispatch };

// The fault case's schedule: the standard scenario from slot 84, when both
// of its dark stations have a line of 30-odd taxis to drain. From slot 162,
// station 0 goes dark with a line of about 40. Station 1 shares its region,
// so drained taxis join its line one at a time, each seeing the joins
// before it, until its load sends others elsewhere. Station 2 drops to half
// its points then, while more than half of them are plugged in. Breakdowns
// in between get repairs that outlast the arrival calendar's ring.
constexpr int64_t kDarkFrom = 84;
constexpr int64_t kLateFrom = 162;
constexpr StationId kLateDarkStation = 0;
constexpr StationId kDeratedStation = 2;
constexpr int kLongRepairSlots = 1100;

/// What a pinned run reached, so a pin cannot pass by skipping its path.
struct PinnedRun {
  uint32_t digest = 0;
  int64_t trips = 0;
  uint32_t fault_kinds = 0;  // bit per FaultKind seen in the trace
  int drained = 0;           // taxis waiting at stations as they go dark
  int unplugged = 0;         // sessions above a derated station's capacity
  int64_t long_repairs = 0;  // breakdowns booked past the calendar ring
};

PinnedRun RunPinnedDays(SerialPath path, int threads,
                        int64_t threshold_ns = kForkThresholdNs) {
  SetGlobalThreads(threads);
  PinnedRun out;
  {
    ScopedForkThresholdForTesting threshold(threshold_ns);
    FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.08);
    cfg.sim.seed = 1;
    if (path == SerialPath::kDispatch) cfg.sim.dispatch_radius_minutes = 15;
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    Simulator& sim = system->sim();
    FaultSchedule faults = StandardOutageScenario(system->city(), kDarkFrom);
    faults.AddStationOutage(kLateDarkStation, kLateFrom, kLateFrom + 36);
    faults.AddStationOutage(kDeratedStation, kLateFrom, kLateFrom + 36,
                            /*capacity_factor=*/0.5);
    faults.AddBreakdownHazard(/*from_slot=*/130, /*until_slot=*/150,
                              /*per_slot_prob=*/0.002, kLongRepairSlots);
    if (path == SerialPath::kFaults) {
      EXPECT_EQ(system->city().station(kLateDarkStation).region,
                system->city().station(1).region);
      EXPECT_TRUE(sim.SetFaultSchedule(&faults).ok());
    }
    sim.Reset();
    GtPolicy policy;
    // What the outages starting at the current slot find.
    const auto note_outages_starting_now = [&] {
      for (const StationOutage& outage : faults.station_outages()) {
        if (outage.from_slot != sim.now().index) continue;
        const StationQueue& queue = sim.station_queue(outage.station);
        if (outage.capacity_factor == 0.0) {
          out.drained += queue.waiting();
        } else {
          out.unplugged +=
              queue.occupied() -
              static_cast<int>(queue.num_points() * outage.capacity_factor);
        }
      }
    };
    sim.RunSlots(&policy, kDarkFrom);
    note_outages_starting_now();
    sim.RunSlots(&policy, kLateFrom - kDarkFrom);
    note_outages_starting_now();
    sim.RunSlots(&policy, 2 * kSlotsPerDay - kLateFrom);
    out.digest = TraceDigest(sim);
    out.trips = sim.trace().total_trips();
    for (const FaultEvent& f : sim.trace().fault_events()) {
      out.fault_kinds |= 1u << static_cast<int>(f.kind);
      if (f.kind == FaultKind::kBreakdown &&
          f.magnitude == static_cast<double>(kLongRepairSlots)) {
        ++out.long_repairs;
      }
    }
    EXPECT_TRUE(sim.SetFaultSchedule(nullptr).ok());
  }
  SetGlobalThreads(1);
  return out;
}

/// Runs `path` at 1 lane, 4 lanes and 4 lanes forced through the pool;
/// each digest must equal `golden`. Returns the 1-lane run.
PinnedRun ExpectGoldenAtEveryLaneCount(SerialPath path, uint32_t golden) {
  const PinnedRun one = RunPinnedDays(path, 1);
  EXPECT_EQ(one.digest, golden) << "1 lane";
  EXPECT_EQ(RunPinnedDays(path, 4).digest, golden) << "4 lanes";
  EXPECT_EQ(RunPinnedDays(path, 4, /*threshold_ns=*/0).digest, golden)
      << "4 lanes forced through the pool";
  return one;
}

TEST(DeterminismTest, GtTwoDaysAreGolden) {
  const PinnedRun run =
      ExpectGoldenAtEveryLaneCount(SerialPath::kNone, 0xA2770FB8u);
  EXPECT_GT(run.trips, 0);
  EXPECT_EQ(run.fault_kinds, 0u);
}

TEST(DeterminismTest, FaultPathsAreGolden) {
  const PinnedRun run =
      ExpectGoldenAtEveryLaneCount(SerialPath::kFaults, 0xFC35AB75u);
  // Every fault kind, real lines drained (one of them into a same-region
  // station), sessions unplugged down to the derated capacity, and repairs
  // booked past the ring.
  const uint32_t every_kind =
      (2u << static_cast<int>(FaultKind::kRepaired)) - 1;
  EXPECT_EQ(run.fault_kinds, every_kind);
  EXPECT_GT(run.drained, 60);
  EXPECT_GT(run.unplugged, 0);
  EXPECT_GT(run.long_repairs, 0);
}

TEST(DeterminismTest, RemoteDispatchIsGolden) {
  const PinnedRun run =
      ExpectGoldenAtEveryLaneCount(SerialPath::kDispatch, 0x0F302E8Cu);
  EXPECT_GT(run.trips, RunPinnedDays(SerialPath::kNone, 1).trips);
}

TEST(DeterminismTest, FeatureVectorsAreDeterministic) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  GtPolicy policy;
  system->sim().RunSlots(&policy, 30);
  FeatureExtractor f1(&system->sim());
  FeatureExtractor f2(&system->sim());
  TaxiObs obs;
  obs.taxi = 3;
  obs.region = 2;
  obs.soc = 0.42;
  obs.may_charge = true;
  std::vector<float> a, b;
  f1.Extract(obs, &a);
  f2.Extract(obs, &b);
  EXPECT_EQ(a, b);
}

TEST(DeterminismTest, PolicySeedsAreIsolatedFromEnvironmentSeed) {
  // The same policy seed against two different environment seeds must not
  // crash or alias; different policy seeds on the same environment diverge.
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 1;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  auto run = [&](uint64_t policy_seed) {
    Cma2cPolicy::Options options;
    options.seed = policy_seed;
    Cma2cPolicy policy(system->sim(), options);
    Trainer trainer = system->MakeTrainer();
    const auto stats = trainer.Train(&policy);
    return stats[0].avg_reward;
  };
  const double a = run(1);
  const double b = run(2);
  EXPECT_NE(a, b) << "different policy seeds should explore differently";
}

}  // namespace
}  // namespace fairmove
