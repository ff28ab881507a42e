#ifndef FAIRMOVE_RL_EPSILON_GREEDY_H_
#define FAIRMOVE_RL_EPSILON_GREEDY_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fairmove/common/rng.h"

namespace fairmove {

// Action picks shared by the value-based baselines, DQN and TQL.

/// Exploration rate after `learn_batches` Learn calls: linear from `start`
/// to `end` over `decay_batches` calls, then flat.
inline double AnnealedEpsilon(double start, double end, int decay_batches,
                              int learn_batches) {
  const double frac = std::min(
      1.0, static_cast<double>(learn_batches) / std::max(1, decay_batches));
  return start + frac * (end - start);
}

/// The first action `mask` allows with the largest `q` (a strict `>` from
/// -1e30), or -1 when none is valid.
inline int MaskedArgmax(const std::vector<bool>& mask, const float* q) {
  int chosen = -1;
  float best = -1e30f;
  for (size_t a = 0; a < mask.size(); ++a) {
    if (mask[a] && q[a] > best) {
      best = q[a];
      chosen = static_cast<int>(a);
    }
  }
  return chosen;
}

/// The largest `q` among the actions `mask` allows, folded with std::max
/// from -1e30 (the value-based baselines' bootstrap target).
inline float MaskedMax(const std::vector<bool>& mask, const float* q) {
  float best = -1e30f;
  for (size_t a = 0; a < mask.size(); ++a) {
    if (mask[a]) best = std::max(best, q[a]);
  }
  return best;
}

/// Epsilon-greedy pick over the actions `mask` allows: draws NextDouble,
/// and below `epsilon` also NextBounded for a uniform valid action;
/// otherwise MaskedArgmax. Returns -1 when no action is valid.
inline int EpsilonGreedyPick(const std::vector<bool>& mask, const float* q,
                             double epsilon, Rng& rng) {
  if (rng.NextDouble() >= epsilon) return MaskedArgmax(mask, q);
  const auto valid = std::count(mask.begin(), mask.end(), true);
  int pick = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(valid)));
  for (size_t a = 0; a < mask.size(); ++a) {
    if (mask[a] && pick-- == 0) return static_cast<int>(a);
  }
  return -1;
}

}  // namespace fairmove

#endif  // FAIRMOVE_RL_EPSILON_GREEDY_H_
