// A fixed, seed-determined batch of transitions for tests that drive a
// policy's Learn or Update directly (no simulation episode in between):
// states of a given width (by default the feature extractor's, CMA2C's and
// DQN's), an action that the region's mask allows, every ninth transition
// terminal with an empty next_state. Built only from Rng::Uniform and
// NextBounded, so the batch is the same bytes on any host and at any thread
// count.

#ifndef FAIRMOVE_TESTS_SYNTHETIC_TRANSITIONS_H_
#define FAIRMOVE_TESTS_SYNTHETIC_TRANSITIONS_H_

#include <cstdint>
#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/replay_buffer.h"
#include "fairmove/sim/simulator.h"

namespace fairmove {

inline std::vector<DisplacementPolicy::Transition> SyntheticTransitions(
    const Simulator& sim, int n, uint64_t seed, int dim) {
  const ActionSpace& space = sim.action_space();
  Rng rng(seed);
  std::vector<bool> mask;
  std::vector<DisplacementPolicy::Transition> batch(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    DisplacementPolicy::Transition& t = batch[static_cast<size_t>(i)];
    t.state.resize(static_cast<size_t>(dim));
    for (float& v : t.state) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
    t.region = static_cast<RegionId>(rng.NextBounded(
        static_cast<uint64_t>(sim.city().num_regions())));
    t.may_charge = i % 3 == 0;
    space.Mask(t.region, /*must_charge=*/false, t.may_charge, &mask);
    int valid = 0;
    for (bool b : mask) valid += b ? 1 : 0;
    int pick = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(valid)));
    for (int a = 0; a < space.size(); ++a) {
      if (mask[static_cast<size_t>(a)] && pick-- == 0) {
        t.action_index = a;
        break;
      }
    }
    t.reward = rng.Uniform(-2.0, 3.0);
    t.reward_own = rng.Uniform(-1.0, 2.0);
    t.discount = rng.Uniform(0.9, 1.0);
    t.terminal = i % 9 == 0;
    if (!t.terminal) {
      t.next_state.resize(static_cast<size_t>(dim));
      for (float& v : t.next_state) {
        v = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
      t.next_region = t.region;
    }
  }
  return batch;
}

inline std::vector<DisplacementPolicy::Transition> SyntheticTransitions(
    const Simulator& sim, int n, uint64_t seed) {
  return SyntheticTransitions(sim, n, seed, FeatureExtractor(&sim).dim());
}

// `transitions` as the rows of a store of width `dim` over `sim`'s action
// space, the batch an Update takes.
inline TransitionStore RowsOf(
    const Simulator& sim, int dim,
    const std::vector<DisplacementPolicy::Transition>& transitions) {
  TransitionStore rows(dim, sim.action_space().size());
  for (const DisplacementPolicy::Transition& t : transitions) rows.Append(t);
  return rows;
}

}  // namespace fairmove

#endif  // FAIRMOVE_TESTS_SYNTHETIC_TRANSITIONS_H_
