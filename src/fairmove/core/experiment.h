#ifndef FAIRMOVE_CORE_EXPERIMENT_H_
#define FAIRMOVE_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "fairmove/common/csv.h"
#include "fairmove/common/stats.h"
#include "fairmove/core/fairmove.h"

namespace fairmove {

/// Multi-seed experiment runner (paper §IV-A: "all the experiments are
/// repeated 10 times to ensure the robustness of the results"). Each
/// repeat rebuilds the whole stack with independently derived simulator /
/// city / training / evaluation seeds, so city randomness, demand
/// realisations, policy initialisation and exploration all vary.
struct RepeatedMethodResult {
  PolicyKind kind = PolicyKind::kGroundTruth;
  std::string name;
  RunningStats pipe;
  RunningStats pipf;
  RunningStats prct;
  RunningStats prit;
  RunningStats pe_mean;
  RunningStats pf;
  RunningStats service_rate;
  /// Mean Eq-5 evaluation reward (Trainer::EpisodeStats::avg_reward) — the
  /// scalar the racing layer (core/racing.h) races on. Not rendered by
  /// ToTable(), so the comparison table bytes are unchanged by its addition.
  RunningStats reward;

  /// Folds one repeat's method row into the running statistics.
  void Accumulate(const MethodResult& r);
  /// Chan-combines another partial into this one (RunningStats::Merge per
  /// field); kind/name are not touched.
  void Merge(const RepeatedMethodResult& other);
};

struct RepeatedComparison {
  int repeats = 0;
  std::vector<RepeatedMethodResult> methods;

  /// "mean ± std" comparison table over all repeats.
  Table ToTable() const;
};

/// Seed-derivation namespace tags (DeriveSeed's `ns`), one per seed field
/// of FairMoveConfig. Distinct tags give each field an independent stream
/// even when two fields share a base seed value.
inline constexpr uint64_t kSeedNsSim = 0x73696d;          // "sim"
inline constexpr uint64_t kSeedNsCity = 0x63697479;       // "city"
inline constexpr uint64_t kSeedNsTrainer = 0x747261696e;  // "train"
inline constexpr uint64_t kSeedNsEval = 0x6576616c;       // "eval"

/// The full config of repeat `repeat`: every seed field is replaced by
/// DeriveSeed(base_field_seed, namespace_tag, repeat), a SplitMix64 mix
/// that decorrelates both adjacent repeats and the four namespaces (the
/// old `+repeat` shift fed neighbouring repeats near-identical raw seeds).
/// Exception: trainer.seed_base == 0 is preserved — 0 means "reuse the
/// simulator's own seed per episode" and must stay 0.
FairMoveConfig RepeatConfig(const FairMoveConfig& base, int repeat);

/// Runs the six-method comparison `repeats` times on fresh systems derived
/// from `base_config` (see RepeatConfig) and returns aggregate statistics
/// per method: GT first, then the non-GT `kinds` in order.
///
/// This is a one-round race (core/racing.h: RunRacingComparison with
/// min_replicas == max_replicas == repeats), so it keeps RunRace's
/// contract: the aggregate is byte-identical for any FAIRMOVE_THREADS
/// value, and errors surface in repeat order (the lowest failing repeat
/// wins), independent of timing.
StatusOr<RepeatedComparison> RunRepeatedComparison(
    const FairMoveConfig& base_config, const std::vector<PolicyKind>& kinds,
    int repeats);

}  // namespace fairmove

#endif  // FAIRMOVE_CORE_EXPERIMENT_H_
