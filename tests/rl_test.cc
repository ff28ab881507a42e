// Tests of the RL layer: features, replay buffer, and every displacement
// policy's behavioural contract (valid actions, learning hooks, traits).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "fairmove/common/stats.h"
#include "fairmove/demand/demand_model.h"
#include "fairmove/geo/city_builder.h"
#include "fairmove/pricing/tou_tariff.h"
#include "fairmove/rl/cma2c_policy.h"
#include "fairmove/rl/dqn_policy.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/gt_policy.h"
#include "fairmove/rl/replay_buffer.h"
#include "fairmove/rl/sd2_policy.h"
#include "fairmove/rl/tba_policy.h"
#include "fairmove/rl/tql_policy.h"
#include "fairmove/sim/simulator.h"
#include "synthetic_transitions.h"

namespace fairmove {
namespace {

struct TestStack {
  std::unique_ptr<City> city;
  std::unique_ptr<DemandModel> demand;
  std::unique_ptr<Simulator> sim;
};

TestStack MakeStack(int num_taxis = 250, uint64_t seed = 31) {
  TestStack stack;
  CityConfig city_cfg = CityConfig{}.Scaled(0.05);
  city_cfg.seed = seed;
  stack.city = std::make_unique<City>(
      std::move(CityBuilder(city_cfg).Build()).value());
  DemandConfig demand_cfg;
  demand_cfg.num_taxis = num_taxis;
  stack.demand = std::make_unique<DemandModel>(
      DemandModel::Create(stack.city.get(), demand_cfg).value());
  SimConfig sim_cfg;
  sim_cfg.num_taxis = num_taxis;
  sim_cfg.seed = seed;
  stack.sim = std::move(Simulator::Create(stack.city.get(),
                                          stack.demand.get(),
                                          TouTariff::Shenzhen(), sim_cfg))
                  .value();
  return stack;
}

// ------------------------------------------------------ FeatureExtractor --

TEST(FeatureExtractorTest, DimIsStableAndVectorsMatch) {
  TestStack stack = MakeStack();
  FeatureExtractor features(stack.sim.get());
  EXPECT_GT(features.dim(), 20);
  TaxiObs obs;
  obs.taxi = 0;
  obs.region = 0;
  obs.soc = 0.8;
  std::vector<float> out;
  features.Extract(obs, &out);
  EXPECT_EQ(static_cast<int>(out.size()), features.dim());
}

TEST(FeatureExtractorTest, FeaturesAreBounded) {
  TestStack stack = MakeStack();
  stack.sim->RunSlots(nullptr, 40);  // populate some state
  FeatureExtractor features(stack.sim.get());
  std::vector<float> out;
  for (RegionId r = 0; r < stack.sim->city().num_regions(); ++r) {
    TaxiObs obs;
    obs.taxi = 0;
    obs.region = r;
    obs.soc = 0.3;
    obs.may_charge = true;
    obs.pe_gap = 100.0;  // extreme gap must still clamp
    features.Extract(obs, &out);
    for (float v : out) {
      EXPECT_GE(v, -1.5f);
      EXPECT_LE(v, 1.5f);
    }
  }
}

TEST(FeatureExtractorTest, SocAndFlagsAppearInFeatures) {
  TestStack stack = MakeStack();
  FeatureExtractor features(stack.sim.get());
  TaxiObs a, b;
  a.taxi = b.taxi = 0;
  a.region = b.region = 0;
  a.soc = 0.9;
  b.soc = 0.1;
  b.must_charge = b.may_charge = true;
  std::vector<float> fa, fb;
  features.Extract(a, &fa);
  features.Extract(b, &fb);
  EXPECT_NE(fa, fb);
}

// ---------------------------------------------------------- ReplayBuffer --

/// A transition of width 2 over 8 actions whose action index and state
/// both identify it.
DisplacementPolicy::Transition Numbered(int i) {
  DisplacementPolicy::Transition t;
  t.state = {static_cast<float>(i), 0.0f};
  t.next_state = {0.0f, static_cast<float>(i)};
  t.action_index = i;
  return t;
}

TEST(ReplayBufferTest, FillsThenWraps) {
  ReplayBuffer buffer(3, /*dim=*/2, /*num_actions=*/8);
  for (int i = 0; i < 5; ++i) buffer.Add(Numbered(i));
  EXPECT_EQ(buffer.size(), 3u);
  // Rows 0 and 1 were overwritten in place by transitions 3 and 4.
  const TransitionStore& rows = buffer.rows();
  EXPECT_EQ(rows.scalars(0).action_index, 3);
  EXPECT_EQ(rows.scalars(1).action_index, 4);
  EXPECT_EQ(rows.scalars(2).action_index, 2);
  EXPECT_EQ(rows.states().At(0, 0), 3.0f);
  EXPECT_EQ(rows.next_states().At(1, 1), 4.0f);
  Rng rng(1);
  std::vector<int> out;
  buffer.Sample(50, rng, &out);
  std::set<int> seen;
  for (int row : out) seen.insert(rows.scalars(row).action_index);
  // Oldest two (0, 1) were overwritten.
  EXPECT_EQ(seen.count(0), 0u);
  EXPECT_EQ(seen.count(1), 0u);
  EXPECT_GT(seen.count(2) + seen.count(3) + seen.count(4), 0u);
}

TEST(ReplayBufferTest, SampleSizeAndClear) {
  ReplayBuffer buffer(10, /*dim=*/2, /*num_actions=*/8);
  buffer.Add(Numbered(1));
  Rng rng(2);
  std::vector<int> out;
  buffer.Sample(4, rng, &out);
  EXPECT_EQ(out.size(), 4u);
  for (int row : out) EXPECT_EQ(row, 0);
  buffer.Clear();
  EXPECT_TRUE(buffer.empty());
}

// -------------------------------------------------------------- Policies --

/// Runs `policy` for `slots` and verifies the simulator never rejects an
/// action (the sim CHECK-fails on invalid ones, so surviving = passing).
void RunPolicyContract(TestStack& stack, DisplacementPolicy* policy,
                       int slots = 80) {
  policy->BeginEpisode(*stack.sim);
  stack.sim->RunSlots(policy, slots);
  EXPECT_EQ(stack.sim->now().index, slots);
}

TEST(GtPolicyTest, ProducesValidActions) {
  TestStack stack = MakeStack();
  GtPolicy policy;
  RunPolicyContract(stack, &policy);
}

TEST(GtPolicyTest, DriverTraitsDeterministicAndHeterogeneous) {
  GtPolicy policy;
  Sample skills;
  for (TaxiId id = 0; id < 500; ++id) {
    const double s1 = policy.DriverSkill(id);
    const double s2 = policy.DriverSkill(id);
    EXPECT_DOUBLE_EQ(s1, s2);
    skills.Add(s1);
    EXPECT_GE(policy.DriverLeash(id), 8.0 - 1e-9);
    const RegionId home = policy.DriverHome(id, 50);
    EXPECT_GE(home, 0);
    EXPECT_LT(home, 50);
  }
  EXPECT_GT(skills.Stddev(), 0.1);
}

TEST(GtPolicyTest, ChargesDuringOffPeakValleys) {
  TestStack stack = MakeStack(300);
  GtPolicy policy;
  stack.sim->RunDays(&policy, 2);
  const auto& starts = stack.sim->trace().charge_starts_by_hour();
  int64_t valley = 0, peak_hours = 0;
  for (int h : {2, 3, 4, 5, 12, 13, 17}) valley += starts[h];
  for (int h : {9, 10, 11, 14, 15, 16}) peak_hours += starts[h];
  EXPECT_GT(valley, peak_hours)
      << "GT must concentrate charging in the price valleys (Fig 4)";
}

TEST(Sd2PolicyTest, ProducesValidActions) {
  TestStack stack = MakeStack();
  Sd2Policy policy;
  RunPolicyContract(stack, &policy);
}

TEST(Sd2PolicyTest, StaysWhenLocalDemandPresent) {
  TestStack stack = MakeStack();
  Sd2Policy policy;
  // Drive some steps so requests exist, then check the policy's choices:
  // a vacant taxi in a region with pending demand must stay.
  stack.sim->RunSlots(&policy, 30);
  std::vector<TaxiObs> obs;
  for (RegionId r = 0; r < stack.sim->city().num_regions(); ++r) {
    if (stack.sim->PendingRequests(r) > 0) {
      TaxiObs o;
      o.taxi = 0;
      o.region = r;
      o.soc = 0.9;
      obs.push_back(o);
      break;
    }
  }
  if (!obs.empty()) {
    std::vector<Action> actions;
    policy.DecideActions(*stack.sim, obs, &actions);
    EXPECT_EQ(actions[0].type, Action::Type::kStay);
  }
}

TEST(TqlPolicyTest, ProducesValidActionsAndLearns) {
  TestStack stack = MakeStack();
  TqlPolicy policy(*stack.sim);
  policy.SetTraining(true);
  EXPECT_TRUE(policy.WantsTransitions());
  RunPolicyContract(stack, &policy);
}

TEST(TqlPolicyTest, QUpdateMovesTowardTarget) {
  TestStack stack = MakeStack();
  TqlPolicy::Options options;
  options.learning_rate = 0.5;
  TqlPolicy policy(*stack.sim, options);
  DisplacementPolicy::Transition t;
  t.region = 0;
  t.next_region = 0;
  t.slot_of_day = 0;
  t.next_slot_of_day = 1;
  t.action_index = 0;  // stay
  t.reward = 1.0;
  t.discount = 0.9;
  t.terminal = true;  // target == reward
  const float before = policy.Q(0, 0, 2, 0);
  policy.Learn({t});
  const float after = policy.Q(0, 0, 2, 0);
  EXPECT_NEAR(after, before + 0.5f * (1.0f - before), 1e-5);
}

TEST(TqlPolicyTest, EpsilonAnneals) {
  TestStack stack = MakeStack();
  TqlPolicy policy(*stack.sim);
  const double initial = policy.CurrentEpsilon();
  std::vector<DisplacementPolicy::Transition> batch(1);
  batch[0].region = 0;
  batch[0].next_region = 0;
  batch[0].terminal = true;
  for (int i = 0; i < 500; ++i) policy.Learn(batch);
  EXPECT_LT(policy.CurrentEpsilon(), initial);
}

TEST(DqnPolicyTest, ProducesValidActionsWhileTraining) {
  TestStack stack = MakeStack();
  DqnPolicy::Options options;
  options.min_replay = 100;
  options.minibatch = 16;
  DqnPolicy policy(*stack.sim, options);
  policy.SetTraining(true);
  RunPolicyContract(stack, &policy, 60);
  EXPECT_EQ(policy.replay_size(), 0u) << "nothing fed yet without a trainer";
}

TEST(DqnPolicyTest, LearnFillsReplayAndTrains) {
  TestStack stack = MakeStack();
  DqnPolicy::Options options;
  options.min_replay = 8;
  options.minibatch = 8;
  DqnPolicy policy(*stack.sim, options);
  FeatureExtractor features(stack.sim.get());
  std::vector<DisplacementPolicy::Transition> batch;
  Rng rng(5);
  for (int i = 0; i < 32; ++i) {
    DisplacementPolicy::Transition t;
    TaxiObs obs;
    obs.taxi = 0;
    obs.region = static_cast<RegionId>(
        rng.NextBounded(stack.sim->city().num_regions()));
    obs.soc = 0.9;
    features.Extract(obs, &t.state);
    t.next_state = t.state;
    t.region = obs.region;
    t.next_region = obs.region;
    t.action_index = 0;
    t.reward = 1.0;
    t.discount = 0.9;
    batch.push_back(std::move(t));
  }
  policy.Learn(batch);
  EXPECT_EQ(policy.replay_size(), 32u);
}

TEST(DqnPolicyTest, EvalModeIsMostlyGreedyAndDeterministicNet) {
  TestStack stack = MakeStack();
  DqnPolicy policy(*stack.sim);
  policy.SetTraining(false);
  RunPolicyContract(stack, &policy, 40);
}

TEST(TbaPolicyTest, LocalFeaturesExcludeGlobalState) {
  TestStack stack = MakeStack();
  TbaPolicy policy(*stack.sim);
  EXPECT_LT(policy.feature_dim(), 20)
      << "TBA sees only its own state (competitive, no global view)";
  TaxiObs obs;
  obs.taxi = 1;
  obs.region = 0;
  obs.soc = 0.5;
  std::vector<float> f(static_cast<size_t>(policy.feature_dim()), -1.0f);
  policy.LocalFeatures(*stack.sim, obs, f.data());
  EXPECT_FLOAT_EQ(f.back(), 0.0f);  // may_charge, the last feature
}

TEST(TbaPolicyTest, ProducesValidActionsAndUpdates) {
  TestStack stack = MakeStack();
  TbaPolicy::Options options;
  options.batch_size = 64;
  TbaPolicy policy(*stack.sim, options);
  policy.SetTraining(true);
  RunPolicyContract(stack, &policy, 60);
}

TEST(TbaPolicyTest, BaselineTracksRewards) {
  TestStack stack = MakeStack();
  TbaPolicy::Options options;
  options.batch_size = 4;
  options.baseline_decay = 0.5;
  TbaPolicy policy(*stack.sim, options);
  std::vector<DisplacementPolicy::Transition> batch;
  for (int i = 0; i < 4; ++i) {
    DisplacementPolicy::Transition t;
    TaxiObs obs;
    obs.taxi = 0;
    obs.region = 0;
    obs.soc = 0.9;
    t.state.resize(static_cast<size_t>(policy.feature_dim()));
    policy.LocalFeatures(*stack.sim, obs, t.state.data());
    t.region = 0;
    t.action_index = 0;
    t.reward_own = 2.0;
    t.terminal = true;
    batch.push_back(std::move(t));
  }
  policy.Learn(batch);
  EXPECT_GT(policy.baseline(), 0.5);
}

TEST(Cma2cPolicyTest, ProducesValidActionsAndTrains) {
  TestStack stack = MakeStack();
  Cma2cPolicy::Options options;
  options.batch_size = 128;
  Cma2cPolicy policy(*stack.sim, options);
  policy.SetTraining(true);
  RunPolicyContract(stack, &policy, 60);
}

TEST(Cma2cPolicyTest, CriticLearnsAConstantTarget) {
  TestStack stack = MakeStack();
  Cma2cPolicy::Options options;
  options.actor_warmup_batches = 1000000;  // critic-only
  Cma2cPolicy policy(*stack.sim, options);
  FeatureExtractor features(stack.sim.get());
  TaxiObs obs;
  obs.taxi = 0;
  obs.region = 0;
  obs.soc = 0.7;
  DisplacementPolicy::Transition t;
  features.Extract(obs, &t.state);
  t.region = 0;
  t.action_index = 0;
  t.reward = 3.0;
  t.terminal = true;
  const TransitionStore batch = RowsOf(*stack.sim, features.dim(),
                                       std::vector(64, t));
  for (int i = 0; i < 150; ++i) policy.Update(batch);
  EXPECT_NEAR(policy.Value(t.state), 3.0, 0.3);
  EXPECT_LT(policy.last_critic_loss(), 0.2);
}

TEST(Cma2cPolicyTest, ColdPolicyRarelyChargesVoluntarily) {
  // The negative charge-logit prior: a fresh actor with a half-full pack
  // should almost always cruise, not queue at a charger.
  TestStack stack = MakeStack();
  Cma2cPolicy policy(*stack.sim);
  std::vector<TaxiObs> obs(200);
  for (int i = 0; i < 200; ++i) {
    obs[static_cast<size_t>(i)].taxi = i % stack.sim->num_taxis();
    obs[static_cast<size_t>(i)].region =
        static_cast<RegionId>(i % stack.sim->city().num_regions());
    obs[static_cast<size_t>(i)].soc = 0.5;
    obs[static_cast<size_t>(i)].may_charge = true;
  }
  std::vector<Action> actions;
  policy.DecideActions(*stack.sim, obs, &actions);
  int charges = 0;
  for (const Action& a : actions) {
    charges += a.type == Action::Type::kCharge ? 1 : 0;
  }
  EXPECT_LT(charges, 60) << "cold policy charged " << charges << "/200";
}

TEST(Cma2cPolicyTest, EntropyReportedAfterActorUpdates) {
  TestStack stack = MakeStack();
  Cma2cPolicy::Options options;
  options.actor_warmup_batches = 0;
  options.batch_size = 32;
  Cma2cPolicy policy(*stack.sim, options);
  FeatureExtractor features(stack.sim.get());
  DisplacementPolicy::Transition t;
  TaxiObs obs;
  obs.taxi = 0;
  obs.region = 0;
  obs.soc = 0.9;
  features.Extract(obs, &t.state);
  t.region = 0;
  t.action_index = 0;
  t.reward = 1.0;
  t.terminal = true;
  policy.Update(RowsOf(*stack.sim, features.dim(), std::vector(32, t)));
  EXPECT_GT(policy.last_entropy(), 0.0);
}

// ------------------------------------------- batched decision-path tests --

TEST(FeatureExtractorTest, ExtractAllRowsMatchExtractExactly) {
  TestStack stack = MakeStack();
  stack.sim->RunSlots(nullptr, 20);  // non-trivial state
  FeatureExtractor features(stack.sim.get());
  std::vector<TaxiObs> obs(17);
  for (size_t i = 0; i < obs.size(); ++i) {
    obs[i].taxi = static_cast<TaxiId>(i);
    obs[i].region =
        static_cast<RegionId>(i % stack.sim->city().num_regions());
    obs[i].soc = 0.2 + 0.04 * static_cast<double>(i);
    obs[i].may_charge = i % 2 == 0;
    obs[i].must_charge = i % 5 == 0;
    obs[i].pe_gap = static_cast<double>(i) - 8.0;
  }
  Matrix batch;
  features.ExtractAll(obs, &batch);
  ASSERT_EQ(batch.rows(), 17);
  ASSERT_EQ(batch.cols(), features.dim());
  std::vector<float> single;
  for (size_t i = 0; i < obs.size(); ++i) {
    features.Extract(obs[i], &single);
    for (int j = 0; j < features.dim(); ++j) {
      // Exact equality: the batched row must be bit-identical.
      EXPECT_EQ(batch.At(static_cast<int>(i), j),
                single[static_cast<size_t>(j)])
          << "row " << i << " col " << j;
    }
  }
}

TEST(FeatureExtractorTest, ExtractAllHandlesEmptyBatch) {
  TestStack stack = MakeStack();
  FeatureExtractor features(stack.sim.get());
  Matrix batch;
  features.ExtractAll({}, &batch);
  EXPECT_EQ(batch.rows(), 0);
  EXPECT_EQ(batch.cols(), features.dim());
}

namespace {

// Samples `rounds` decisions for one fixed observation and returns how
// often each action index was chosen.
std::vector<int> SampleActionHistogram(const TestStack& stack,
                                       Cma2cPolicy* policy, int rounds) {
  TaxiObs obs;
  obs.taxi = 0;
  obs.region = 0;
  obs.soc = 0.6;
  obs.may_charge = true;
  const std::vector<TaxiObs> vacant(1, obs);
  std::vector<int> counts(
      static_cast<size_t>(stack.sim->action_space().size()), 0);
  std::vector<Action> actions;
  for (int r = 0; r < rounds; ++r) {
    policy->DecideActions(*stack.sim, vacant, &actions);
    const int idx = stack.sim->action_space().IndexOf(obs.region, actions[0]);
    EXPECT_GE(idx, 0);
    ++counts[static_cast<size_t>(idx)];
  }
  return counts;
}

double HistogramEntropy(const std::vector<int>& counts) {
  int total = 0;
  for (int c : counts) total += c;
  double h = 0.0;
  for (int c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / total;
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace

TEST(Cma2cPolicyTest, EvalTemperatureBelowOneSharpensSampling) {
  TestStack stack = MakeStack();
  Cma2cPolicy::Options base;
  base.seed = 99;
  Cma2cPolicy::Options sharp = base;
  sharp.eval_temperature = 0.25;
  Cma2cPolicy baseline(*stack.sim, base);
  Cma2cPolicy sharpened(*stack.sim, sharp);
  baseline.SetTraining(false);
  sharpened.SetTraining(false);
  const std::vector<int> base_counts =
      SampleActionHistogram(stack, &baseline, 600);
  const std::vector<int> sharp_counts =
      SampleActionHistogram(stack, &sharpened, 600);
  // Identical networks (same seed), so dividing logits by T < 1 must
  // concentrate the sampled distribution: lower empirical entropy and a
  // taller mode.
  EXPECT_LT(HistogramEntropy(sharp_counts), HistogramEntropy(base_counts));
  EXPECT_GT(*std::max_element(sharp_counts.begin(), sharp_counts.end()),
            *std::max_element(base_counts.begin(), base_counts.end()));
}

TEST(Cma2cPolicyTest, EvalTemperatureOneIsANoOp) {
  // T = 1 must leave the decision path untouched: an eval-mode policy with
  // T = 1 consumes the same RNG stream and picks the same actions as an
  // identically seeded policy in training mode (where no scaling applies).
  TestStack stack = MakeStack();
  Cma2cPolicy::Options options;
  options.seed = 77;
  options.eval_temperature = 1.0;
  Cma2cPolicy eval_policy(*stack.sim, options);
  Cma2cPolicy train_policy(*stack.sim, options);
  eval_policy.SetTraining(false);
  train_policy.SetTraining(true);
  std::vector<TaxiObs> obs(40);
  for (size_t i = 0; i < obs.size(); ++i) {
    obs[i].taxi = static_cast<TaxiId>(i);
    obs[i].region =
        static_cast<RegionId>(i % stack.sim->city().num_regions());
    obs[i].soc = 0.5;
    obs[i].may_charge = true;
  }
  std::vector<Action> eval_actions, train_actions;
  for (int round = 0; round < 5; ++round) {
    eval_policy.DecideActions(*stack.sim, obs, &eval_actions);
    train_policy.DecideActions(*stack.sim, obs, &train_actions);
    EXPECT_EQ(eval_actions, train_actions) << "round " << round;
  }
}

TEST(Cma2cPolicyTest, MaskedActionsNeverSampledAtAnyTemperature) {
  TestStack stack = MakeStack();
  for (const double temperature : {0.25, 1.0, 4.0}) {
    Cma2cPolicy::Options options;
    options.eval_temperature = temperature;
    // Kill the anti-charge prior so charge logits aren't tiny — the mask,
    // not the logits, must be what keeps invalid actions out.
    options.charge_logit_bias = 0.0;
    Cma2cPolicy policy(*stack.sim, options);
    policy.SetTraining(false);
    std::vector<TaxiObs> obs(60);
    for (size_t i = 0; i < obs.size(); ++i) {
      obs[i].taxi = static_cast<TaxiId>(i);
      obs[i].region =
          static_cast<RegionId>(i % stack.sim->city().num_regions());
      obs[i].soc = 0.05;
      obs[i].must_charge = true;  // only charge actions are valid
      obs[i].may_charge = true;
    }
    std::vector<Action> actions;
    for (int round = 0; round < 10; ++round) {
      policy.DecideActions(*stack.sim, obs, &actions);
      for (const Action& a : actions) {
        EXPECT_EQ(a.type, Action::Type::kCharge)
            << "temperature " << temperature;
      }
    }
  }
}

// All six policies: end-to-end contract sweep.
class PolicyContractSweep : public ::testing::TestWithParam<int> {};

TEST_P(PolicyContractSweep, SurvivesTrainingModeEpisode) {
  TestStack stack = MakeStack(200, 57);
  std::unique_ptr<DisplacementPolicy> policy;
  switch (GetParam()) {
    case 0:
      policy = std::make_unique<GtPolicy>();
      break;
    case 1:
      policy = std::make_unique<Sd2Policy>();
      break;
    case 2:
      policy = std::make_unique<TqlPolicy>(*stack.sim);
      break;
    case 3: {
      DqnPolicy::Options o;
      o.min_replay = 64;
      policy = std::make_unique<DqnPolicy>(*stack.sim, o);
      break;
    }
    case 4: {
      TbaPolicy::Options o;
      o.batch_size = 256;
      policy = std::make_unique<TbaPolicy>(*stack.sim, o);
      break;
    }
    default: {
      Cma2cPolicy::Options o;
      o.batch_size = 256;
      policy = std::make_unique<Cma2cPolicy>(*stack.sim, o);
      break;
    }
  }
  policy->SetTraining(true);
  policy->BeginEpisode(*stack.sim);
  stack.sim->RunSlots(policy.get(), 100);
  EXPECT_EQ(stack.sim->now().index, 100);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyContractSweep,
                         ::testing::Range(0, 6));

}  // namespace
}  // namespace fairmove
