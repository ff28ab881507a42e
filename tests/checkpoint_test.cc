// Tests of the durable-checkpoint subsystem: CRC32 / binary codec
// primitives, atomic file replacement, the FMCKPT1 frame (every single-byte
// corruption must be rejected), the retained CheckpointStore with its
// LATEST pointer, per-policy SaveState/RestoreState bit-exactness, the
// chaos file corrupters, FAIRMOVE_CHECKPOINT_* env validation, and the
// end-to-end interrupted-resume path of Trainer::TrainGuarded — including
// graceful degradation to older retained frames and a run on the parallel
// execution pool.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fairmove/common/config.h"
#include "fairmove/common/parallel.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/io/atomic_file.h"
#include "fairmove/io/binary.h"
#include "fairmove/nn/simd.h"
#include "fairmove/resilience/chaos.h"
#include "fairmove/resilience/checkpoint.h"
#include "fairmove/rl/cma2c_policy.h"
#include "fairmove/rl/dqn_policy.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/replay_buffer.h"
#include "fairmove/rl/tba_policy.h"
#include "fairmove/rl/tql_policy.h"
#include "synthetic_transitions.h"

namespace fairmove {
namespace {

/// Fresh per-test scratch directory.
std::string ScratchDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fairmove_ckpt_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Serialized policy state, as one byte string (the bit-exactness probe).
std::string StateBytes(const DisplacementPolicy& policy) {
  BinaryWriter w;
  const Status st = policy.SaveState(&w);
  EXPECT_TRUE(st.ok()) << st;
  return w.Release();
}

// ------------------------------------------------------------------ CRC32 --

TEST(Crc32Test, KnownAnswer) {
  // The standard CRC-32 (IEEE 802.3) check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(Crc32Test, SensitiveToEveryByte) {
  const std::string base = "fairmove checkpoint";
  const uint32_t crc = Crc32(base);
  for (size_t i = 0; i < base.size(); ++i) {
    std::string mutated = base;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
    EXPECT_NE(Crc32(mutated), crc) << "flip at byte " << i;
  }
}

// ----------------------------------------------------- BinaryWriter/Reader --

TEST(BinaryCodecTest, RoundTripsEveryType) {
  BinaryWriter w;
  w.WriteBool(true);
  w.WriteU8(0xAB);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(0x0123456789ABCDEFull);
  w.WriteI32(-42);
  w.WriteI64(-1234567890123ll);
  w.WriteF32(1.5f);
  w.WriteF64(-2.25);
  w.WriteString("hello");
  w.WriteFloatVec({1.0f, -2.0f, 3.5f});

  BinaryReader r(w.str());
  bool b = false;
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  int64_t i64 = 0;
  float f32 = 0.0f;
  double f64 = 0.0;
  std::string s;
  std::vector<float> vec;
  ASSERT_TRUE(r.ReadBool(&b).ok());
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadF32(&f32).ok());
  ASSERT_TRUE(r.ReadF64(&f64).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  ASSERT_TRUE(r.ReadFloatVec(&vec).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(b);
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -42);
  EXPECT_EQ(i64, -1234567890123ll);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -2.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(vec, (std::vector<float>{1.0f, -2.0f, 3.5f}));
}

TEST(BinaryCodecTest, TruncationYieldsDescriptiveError) {
  BinaryWriter w;
  w.WriteU64(7);
  const std::string bytes = w.str();
  for (size_t keep = 0; keep < bytes.size(); ++keep) {
    BinaryReader r(bytes.substr(0, keep));
    uint64_t v = 0;
    const Status st = r.ReadU64(&v);
    EXPECT_FALSE(st.ok()) << "prefix of " << keep << " byte(s)";
  }
}

TEST(BinaryCodecTest, OverlongStringRejectedNotAllocated) {
  BinaryWriter w;
  w.WriteU64(uint64_t{1} << 40);  // absurd declared length
  BinaryReader r(w.str());
  std::string s;
  const Status st = r.ReadString(&s);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("length"), std::string::npos) << st;
}

TEST(BinaryCodecTest, RejectsMalformedBool) {
  BinaryWriter w;
  w.WriteU8(2);
  BinaryReader r(w.str());
  bool b = false;
  EXPECT_FALSE(r.ReadBool(&b).ok());
}

// A restored transition becomes a fixed-width row of the reading policy's
// store as it stands, so TransitionStore::Read refuses one that does not fit
// the store, and appends nothing when it does.
TEST(BinaryCodecTest, ReadTransitionsRefusesMisfitsAndAppendsNothing) {
  DisplacementPolicy::Transition good;
  good.state.assign(5, 0.5f);
  good.next_state.assign(5, -0.5f);
  good.action_index = 2;
  DisplacementPolicy::Transition terminal = good;
  terminal.terminal = true;
  terminal.next_state.clear();
  DisplacementPolicy::Transition short_state = good;
  short_state.state.pop_back();
  DisplacementPolicy::Transition long_next = good;
  long_next.next_state.assign(400, 1.0f);
  DisplacementPolicy::Transition action_past_end = good;
  action_past_end.action_index = 3;
  DisplacementPolicy::Transition negative_action = good;
  negative_action.action_index = -1;
  DisplacementPolicy::Transition terminal_with_next = good;
  terminal_with_next.terminal = true;

  const auto read = [](const std::vector<DisplacementPolicy::Transition>& ts,
                       TransitionStore* out) {
    BinaryWriter w;
    for (const auto& t : ts) WriteTransition(t, &w);
    BinaryReader r(w.str());
    return out->Read(&r, ts.size());
  };
  TransitionStore out(/*dim=*/5, /*num_actions=*/3);
  out.Append(good);
  ASSERT_TRUE(read({good, terminal}, &out).ok());
  EXPECT_EQ(out.size(), 3);
  for (const auto& bad : {short_state, long_next, action_past_end,
                          negative_action, terminal_with_next}) {
    const Status st = read({good, terminal, bad}, &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
    EXPECT_NE(st.message().find("transition 2"), std::string::npos) << st;
    EXPECT_EQ(out.size(), 3) << "a refused read appended transitions";
  }
}

// The store keeps transitions as rows but writes each in WriteTransition's
// encoding, a terminal one with an empty next_state, so the buffered
// experience in CA21, DQN1 and TBA1 records keeps its bytes.
TEST(BinaryCodecTest, TransitionStoreWritesTheTransitionEncoding) {
  DisplacementPolicy::Transition open;
  open.state = {0.5f, -1.0f, 2.0f};
  open.next_state = {0.25f, 0.0f, -3.0f};
  open.action_index = 1;
  open.reward = 1.5;
  open.reward_own = -0.5;
  open.discount = 0.81;
  open.region = 4;
  open.next_region = 2;
  open.slot_of_day = 17;
  open.next_slot_of_day = 19;
  open.may_charge = true;
  open.next_must_charge = true;
  DisplacementPolicy::Transition terminal = open;
  terminal.terminal = true;
  terminal.next_state.clear();
  BinaryWriter expected;
  for (const auto& t : {open, terminal, open}) WriteTransition(t, &expected);

  TransitionStore rows(/*dim=*/3, /*num_actions=*/2);
  for (const auto& t : {open, terminal, open}) rows.Append(t);
  EXPECT_EQ(rows.next_states().At(1, 0), 0.0f) << "terminal row not zeroed";
  BinaryWriter written;
  rows.Write(&written);
  EXPECT_TRUE(written.str() == expected.str());

  TransitionStore read(/*dim=*/3, /*num_actions=*/2);
  BinaryReader in(written.str());
  ASSERT_TRUE(read.Read(&in, 3).ok());
  EXPECT_TRUE(in.AtEnd());
  BinaryWriter rewritten;
  read.Write(&rewritten);
  EXPECT_TRUE(rewritten.str() == expected.str());
}

// ------------------------------------------------------------- atomic file --

TEST(AtomicFileTest, WritesAndReplacesDurably) {
  const std::string dir = ScratchDir("atomic");
  const std::string path = dir + "/file.bin";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second").ok());
  const StatusOr<std::string> read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "second");
  // No tmp droppings left behind.
  int entries = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1);
}

TEST(AtomicFileTest, MissingFileIsNotFound) {
  const StatusOr<std::string> read =
      ReadFileToString(ScratchDir("missing") + "/nope");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

// ----------------------------------------------------------- FMCKPT1 frame --

CheckpointMeta TestMeta() {
  CheckpointMeta meta;
  meta.episode = 7;
  meta.policy_name = "FairMove";
  meta.config_crc = 0x1234ABCD;
  return meta;
}

TEST(CheckpointFrameTest, RoundTripsPayloadAndMeta) {
  const std::string payload = "the quick brown payload";
  const std::string framed = FrameCheckpoint(TestMeta(), payload);
  CheckpointMeta meta;
  const StatusOr<std::string> back = UnframeCheckpoint(framed, &meta);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, payload);
  EXPECT_EQ(meta.episode, 7);
  EXPECT_EQ(meta.policy_name, "FairMove");
  EXPECT_EQ(meta.config_crc, 0x1234ABCDu);
  EXPECT_EQ(meta.payload_size, payload.size());
}

TEST(CheckpointFrameTest, EverySingleByteCorruptionIsRejected) {
  const std::string framed = FrameCheckpoint(TestMeta(), "payload bytes");
  for (size_t i = 0; i < framed.size(); ++i) {
    std::string corrupt = framed;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_FALSE(UnframeCheckpoint(corrupt).ok()) << "flip at byte " << i;
  }
}

TEST(CheckpointFrameTest, EveryTruncationIsRejected) {
  const std::string framed = FrameCheckpoint(TestMeta(), "payload bytes");
  for (size_t keep = 0; keep < framed.size(); ++keep) {
    EXPECT_FALSE(UnframeCheckpoint(framed.substr(0, keep)).ok())
        << "kept " << keep << " byte(s)";
  }
}

TEST(CheckpointFrameTest, ParseMetaDoesNotRequireValidPayload) {
  std::string framed = FrameCheckpoint(TestMeta(), "payload bytes");
  // Corrupt one payload byte: the cheap header parse still succeeds, the
  // full unframe rejects.
  framed[framed.size() - 6] ^= 0x01;
  EXPECT_TRUE(ParseCheckpointMeta(framed).ok());
  EXPECT_FALSE(UnframeCheckpoint(framed).ok());
}

// --------------------------------------------------------- CheckpointStore --

TEST(CheckpointStoreTest, WriteAdvancesLatestAndPrunes) {
  const std::string dir = ScratchDir("store");
  CheckpointStore store(dir, CheckpointStore::Options{2});
  ASSERT_TRUE(store.Init().ok());
  for (int e = 1; e <= 5; ++e) {
    CheckpointMeta meta;
    meta.episode = e;
    meta.policy_name = "p";
    ASSERT_TRUE(store.Write(meta, "payload " + std::to_string(e)).ok());
  }
  const std::vector<CheckpointStore::Candidate> candidates =
      store.ListCandidates();
  ASSERT_EQ(candidates.size(), 2u);  // retain = 2, LATEST deduped
  EXPECT_EQ(candidates[0].episode, 5);
  EXPECT_EQ(candidates[1].episode, 4);
  const StatusOr<CheckpointStore::Loaded> latest = store.LoadLatest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->meta.episode, 5);
  EXPECT_EQ(latest->payload, "payload 5");
}

TEST(CheckpointStoreTest, FallsBackPastCorruptNewestFrame) {
  const std::string dir = ScratchDir("fallback");
  CheckpointStore store(dir, CheckpointStore::Options{3});
  ASSERT_TRUE(store.Init().ok());
  for (int e = 1; e <= 3; ++e) {
    CheckpointMeta meta;
    meta.episode = e;
    meta.policy_name = "p";
    ASSERT_TRUE(store.Write(meta, "payload " + std::to_string(e)).ok());
  }
  ASSERT_TRUE(
      FlipFileBytes(dir + "/" + CheckpointStore::FileName(3), 4, 99).ok());
  const StatusOr<CheckpointStore::Loaded> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->meta.episode, 2);
  EXPECT_EQ(loaded->payload, "payload 2");
}

TEST(CheckpointStoreTest, SurvivesStaleLatestPointer) {
  const std::string dir = ScratchDir("stale_latest");
  CheckpointStore store(dir, CheckpointStore::Options{3});
  ASSERT_TRUE(store.Init().ok());
  CheckpointMeta meta;
  meta.episode = 1;
  meta.policy_name = "p";
  ASSERT_TRUE(store.Write(meta, "payload 1").ok());
  ASSERT_TRUE(CorruptLatestPointer(dir, "ckpt-99999999.fmck").ok());
  const StatusOr<CheckpointStore::Loaded> loaded = store.LoadLatest();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->meta.episode, 1);
}

TEST(CheckpointStoreTest, TruncatedFrameRejectedWithDescriptiveStatus) {
  const std::string dir = ScratchDir("truncated");
  CheckpointStore store(dir, CheckpointStore::Options{3});
  ASSERT_TRUE(store.Init().ok());
  CheckpointMeta meta;
  meta.episode = 1;
  meta.policy_name = "p";
  ASSERT_TRUE(store.Write(meta, std::string(256, 'x')).ok());
  const std::string frame = dir + "/" + CheckpointStore::FileName(1);
  ASSERT_TRUE(TruncateFileBytes(frame, 40).ok());
  const StatusOr<CheckpointStore::Loaded> loaded = store.Load(frame);
  ASSERT_FALSE(loaded.ok());
  EXPECT_FALSE(loaded.status().message().empty());
  EXPECT_FALSE(store.LoadLatest().ok());  // nothing valid remains
}

TEST(CheckpointStoreTest, EmptyDirectoryIsNotFound) {
  CheckpointStore store(ScratchDir("empty"));
  ASSERT_TRUE(store.Init().ok());
  const StatusOr<CheckpointStore::Loaded> loaded = store.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// -------------------------------------------- policy state bit-exactness --

/// Trains `policy` briefly so optimizer moments / RNG streams / buffers are
/// all non-trivial, then checks SaveState -> fresh policy -> RestoreState
/// -> SaveState reproduces the byte-identical state. `size` and `crc` pin
/// the trained state's bytes, so the encoder and its mirror cannot drift
/// together unnoticed. A change that moves them changes a record format and
/// needs a new tag or version, not new constants. They hold on the portable
/// (non-FAIRMOVE_NATIVE) build at any thread count.
template <typename MakePolicyFn>
void CheckStateRoundTrip(MakePolicyFn make_policy, size_t size,
                         uint32_t crc) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 2;
  cfg.trainer.slots_per_episode = 24;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  auto policy = make_policy(system->sim());
  Trainer trainer = system->MakeTrainer();
  ASSERT_TRUE(trainer.TrainGuarded(policy.get(), nullptr).ok());
  const std::string bytes = StateBytes(*policy);
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(Crc32(bytes), crc);

  auto restored = make_policy(system->sim());
  ASSERT_NE(StateBytes(*restored), bytes);  // fresh state really differs
  BinaryReader in(bytes);
  const Status st = restored->RestoreState(&in);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_TRUE(in.AtEnd());
  EXPECT_EQ(StateBytes(*restored), bytes);
}

TEST(PolicyStateTest, Cma2cRoundTripsBitExact) {
  CheckStateRoundTrip([](const Simulator& sim) {
    Cma2cPolicy::Options opt;
    opt.actor_hidden = {8};
    opt.critic_hidden = {8};
    opt.batch_size = 32;
    opt.actor_warmup_batches = 0;
    auto policy = std::make_unique<Cma2cPolicy>(sim, opt);
    policy->EnableDivergenceGuard();
    return policy;
  }, 14519, 0x8559414Du);  // CA21 + ADM1 + GRD1, nested FMLP1
}

// The paper-size update: default 64x64 actor and critic on a 3,501-row
// batch, which the row-sharded training passes split raggedly at 2, 3 and 4
// lanes. Three updates (a critic warm-up, then two with the actor) must
// leave the same state bytes at every lane count and under every kernel
// table the host runs, and the bytes the serial kernels left before
// training was sharded (recorded then, never edited).
TEST(PolicyStateTest, Cma2cFullSizeUpdateIsLaneCountInvariant) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const TransitionStore batch =
      RowsOf(system->sim(), FeatureExtractor(&system->sim()).dim(),
             SyntheticTransitions(system->sim(), 3501, /*seed=*/41));
  const int before = GlobalPool().num_threads();
  for (const simd::KernelTable* table : simd::CompiledTables()) {
    if (!simd::HostSupports(*table)) continue;
    simd::ScopedKernelTableForTesting pin(*table);
    for (int lanes : {1, 2, 4}) {
      SetGlobalThreads(lanes);
      Cma2cPolicy::Options opt;
      opt.actor_warmup_batches = 1;
      Cma2cPolicy policy(system->sim(), opt);
      for (int update = 0; update < 3; ++update) policy.Update(batch);
      const std::string bytes = StateBytes(policy);
      EXPECT_EQ(bytes.size(), 202393u) << table->name << ", " << lanes
                                       << " lanes";
      EXPECT_EQ(Crc32(bytes), 0xBDC39E0Du) << table->name << ", " << lanes
                                           << " lanes";
    }
  }
  SetGlobalThreads(before);
}

TEST(PolicyStateTest, DqnRoundTripsBitExact) {
  CheckStateRoundTrip([](const Simulator& sim) {
    DqnPolicy::Options opt;
    opt.hidden = {8};
    opt.min_replay = 64;
    opt.minibatch = 16;
    return std::make_unique<DqnPolicy>(sim, opt);
  }, 11173262, 0x021BED3Eu);  // DQN1 + replay ring
}

TEST(PolicyStateTest, TqlRoundTripsBitExact) {
  CheckStateRoundTrip(
      [](const Simulator& sim) { return std::make_unique<TqlPolicy>(sim); },
      149257, 0xD4EA6A4Bu);
}

TEST(PolicyStateTest, TbaRoundTripsBitExact) {
  CheckStateRoundTrip([](const Simulator& sim) {
    TbaPolicy::Options opt;
    opt.hidden = {8};
    opt.batch_size = 64;
    return std::make_unique<TbaPolicy>(sim, opt);
  }, 3159, 0x5026E9ADu);
}

/// A transition that fits a policy with `state_dim` features, then the
/// misfits a checkpoint could carry: a short state, a 400-float next_state,
/// and an action index one past the action space.
struct Misfits {
  DisplacementPolicy::Transition fit, short_state, long_next_state,
      bad_action;
};

Misfits MakeMisfits(const Simulator& sim, int state_dim) {
  DisplacementPolicy::Transition fit = SyntheticTransitions(sim, 2, 3)[1];
  fit.state.resize(static_cast<size_t>(state_dim), 0.25f);
  fit.next_state.resize(static_cast<size_t>(state_dim), 0.25f);
  Misfits m{fit, fit, fit, fit};
  m.short_state.state.pop_back();
  m.long_next_state.next_state.assign(400, 1.0f);
  m.bad_action.action_index = sim.action_space().size();
  return m;
}

/// The record a checkpoint would carry had `misfit` been buffered: a policy
/// that buffered `fit` (Learn only queues it) is saved, and the encoding of
/// `fit` in the record is replaced by `misfit`'s. Learn itself refuses a
/// misfit, so the codec is the only way one reaches a record.
template <typename PolicyT>
std::string RecordWithMisfit(PolicyT* source,
                             const DisplacementPolicy::Transition& fit,
                             const DisplacementPolicy::Transition& misfit) {
  source->Learn({fit});
  const std::string bytes = StateBytes(*source);
  BinaryWriter fit_bytes, misfit_bytes;
  WriteTransition(fit, &fit_bytes);
  WriteTransition(misfit, &misfit_bytes);
  const size_t at = bytes.find(fit_bytes.str());
  EXPECT_NE(at, std::string::npos) << "the buffered transition is missing";
  EXPECT_EQ(bytes.find(fit_bytes.str(), at + 1), std::string::npos);
  return bytes.substr(0, at) + misfit_bytes.str() +
         bytes.substr(at + fit_bytes.str().size());
}

/// Expects a fresh policy to refuse, with InvalidArgument, a record that
/// buffers `misfit`, instead of carrying the transition into its store.
template <typename MakePolicyFn>
void ExpectMisfitTransitionRefused(
    const Simulator& sim, MakePolicyFn make_policy, const Misfits& m,
    const DisplacementPolicy::Transition& misfit, const char* what) {
  auto source = make_policy(sim);
  const std::string bytes = RecordWithMisfit(source.get(), m.fit, misfit);
  auto fresh = make_policy(sim);
  BinaryReader in(bytes);
  const Status st = fresh->RestoreState(&in);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what << ": " << st;
}

TEST(PolicyStateTest, Cma2cRefusesMisfitTransitions) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const auto make = [](const Simulator& sim) {
    Cma2cPolicy::Options opt;
    opt.actor_hidden = {8};
    opt.critic_hidden = {8};
    opt.batch_size = 4;
    return std::make_unique<Cma2cPolicy>(sim, opt);
  };
  const Misfits m =
      MakeMisfits(system->sim(), FeatureExtractor(&system->sim()).dim());
  ExpectMisfitTransitionRefused(system->sim(), make, m, m.short_state,
                                "state");
  ExpectMisfitTransitionRefused(system->sim(), make, m, m.long_next_state,
                                "next_state");
  ExpectMisfitTransitionRefused(system->sim(), make, m, m.bad_action,
                                "action");
}

TEST(PolicyStateTest, TbaRefusesMisfitTransitions) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const auto make = [](const Simulator& sim) {
    TbaPolicy::Options opt;
    opt.hidden = {8};
    opt.batch_size = 64;
    return std::make_unique<TbaPolicy>(sim, opt);
  };
  const Misfits m =
      MakeMisfits(system->sim(), make(system->sim())->feature_dim());
  ExpectMisfitTransitionRefused(system->sim(), make, m, m.short_state,
                                "state");
  ExpectMisfitTransitionRefused(system->sim(), make, m, m.long_next_state,
                                "next_state");
  ExpectMisfitTransitionRefused(system->sim(), make, m, m.bad_action,
                                "action");
}

TEST(PolicyStateTest, DqnRefusesMisfitTransitions) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const auto make = [](const Simulator& sim) {
    DqnPolicy::Options opt;
    opt.hidden = {8};
    opt.replay_capacity = 16;
    opt.min_replay = 16;
    return std::make_unique<DqnPolicy>(sim, opt);
  };
  const Misfits m =
      MakeMisfits(system->sim(), FeatureExtractor(&system->sim()).dim());
  ExpectMisfitTransitionRefused(system->sim(), make, m, m.short_state,
                                "state");
  ExpectMisfitTransitionRefused(system->sim(), make, m, m.long_next_state,
                                "next_state");
  ExpectMisfitTransitionRefused(system->sim(), make, m, m.bad_action,
                                "action");
}

// In process, a misfit dies where it would enter the policy's store, before
// any update could read past a fixed-width row or index an action that is
// not there; with min_replay = 1, DQN would sample it in the same Learn.
TEST(PolicyStateDeathTest, LearnRefusesMisfitTransitions) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const Simulator& sim = system->sim();
  const auto learn = [&](const char* method,
                         const DisplacementPolicy::Transition& misfit) {
    std::unique_ptr<DisplacementPolicy> policy;
    if (std::string(method) == "CMA2C") {
      Cma2cPolicy::Options opt;
      opt.actor_hidden = {8};
      opt.critic_hidden = {8};
      opt.batch_size = 1;
      policy = std::make_unique<Cma2cPolicy>(sim, opt);
    } else if (std::string(method) == "TBA") {
      TbaPolicy::Options opt;
      opt.hidden = {8};
      opt.batch_size = 1;
      policy = std::make_unique<TbaPolicy>(sim, opt);
    } else {
      DqnPolicy::Options opt;
      opt.hidden = {8};
      opt.replay_capacity = 16;
      opt.min_replay = 1;
      opt.minibatch = 4;
      policy = std::make_unique<DqnPolicy>(sim, opt);
    }
    policy->Learn({misfit});
  };
  const Misfits wide = MakeMisfits(sim, FeatureExtractor(&sim).dim());
  const Misfits local = MakeMisfits(sim, TbaPolicy(sim).feature_dim());
  for (const char* method : {"CMA2C", "TBA", "DQN"}) {
    const Misfits& m = std::string(method) == "TBA" ? local : wide;
    EXPECT_DEATH(learn(method, m.short_state), "does not fit.*state has")
        << method;
    EXPECT_DEATH(learn(method, m.long_next_state),
                 "does not fit.*next_state has 400 features")
        << method;
    EXPECT_DEATH(learn(method, m.bad_action), "action index [0-9]+ outside")
        << method;
  }
}

/// Restores `bytes` into `target`, expects a refusal, and expects target's
/// SaveState bytes to be what they were: a refused record commits nothing,
/// so Trainer::TrainGuarded never trains a half-restored policy.
void ExpectRefusedRestoreChangesNothing(DisplacementPolicy* target,
                                        const std::string& bytes,
                                        const std::string& what) {
  const std::string before = StateBytes(*target);
  BinaryReader in(bytes);
  EXPECT_FALSE(target->RestoreState(&in).ok()) << what;
  EXPECT_TRUE(StateBytes(*target) == before)
      << what << ": the refused record changed the policy's state";
}

// Each record comes from a policy seeded apart from the target, so its
// networks, optimizer moments and RNG differ from the target's, and each is
// refused late: by a misfit transition behind those fields, a guard
// mismatch, or truncation in the very last field.
TEST(PolicyStateTest, RefusedCma2cRestoreChangesNothing) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const Simulator& sim = system->sim();
  Cma2cPolicy::Options opt;
  opt.actor_hidden = {8};
  opt.critic_hidden = {8};
  opt.batch_size = 4;
  Cma2cPolicy::Options other = opt;
  other.seed = opt.seed + 1;
  const Misfits m = MakeMisfits(sim, FeatureExtractor(&sim).dim());

  Cma2cPolicy misfit_source(sim, other);
  misfit_source.EnableDivergenceGuard();
  Cma2cPolicy guarded_target(sim, opt);
  guarded_target.EnableDivergenceGuard();
  ExpectRefusedRestoreChangesNothing(
      &guarded_target,
      RecordWithMisfit(&misfit_source, m.fit, m.long_next_state),
      "CA21 with a misfit transition");

  Cma2cPolicy guarded_source(sim, other);
  guarded_source.EnableDivergenceGuard();
  const std::string guarded_bytes = StateBytes(guarded_source);
  Cma2cPolicy guardless_target(sim, opt);
  ExpectRefusedRestoreChangesNothing(&guardless_target, guarded_bytes,
                                     "CA21 with a guard the target lacks");
  ExpectRefusedRestoreChangesNothing(
      &guarded_target, guarded_bytes.substr(0, guarded_bytes.size() - 1),
      "CA21 truncated by one byte");
}

TEST(PolicyStateTest, RefusedDqnRestoreChangesNothing) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const Simulator& sim = system->sim();
  DqnPolicy::Options opt;
  opt.hidden = {8};
  opt.replay_capacity = 16;
  opt.min_replay = 16;
  DqnPolicy::Options other = opt;
  other.seed = opt.seed + 1;
  const Misfits m = MakeMisfits(sim, FeatureExtractor(&sim).dim());

  DqnPolicy source(sim, other);
  DqnPolicy target(sim, opt);
  ExpectRefusedRestoreChangesNothing(
      &target, RecordWithMisfit(&source, m.fit, m.long_next_state),
      "DQN1 with a misfit replay entry");
  DqnPolicy clean_source(sim, other);
  const std::string bytes = StateBytes(clean_source);
  ExpectRefusedRestoreChangesNothing(&target,
                                     bytes.substr(0, bytes.size() - 1),
                                     "DQN1 truncated by one byte");
}

TEST(PolicyStateTest, RefusedTbaRestoreChangesNothing) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  const Simulator& sim = system->sim();
  TbaPolicy::Options opt;
  opt.hidden = {8};
  opt.batch_size = 64;
  TbaPolicy::Options other = opt;
  other.seed = opt.seed + 1;
  TbaPolicy target(sim, opt);
  const Misfits m = MakeMisfits(sim, target.feature_dim());

  TbaPolicy source(sim, other);
  ExpectRefusedRestoreChangesNothing(
      &target, RecordWithMisfit(&source, m.fit, m.long_next_state),
      "TBA1 with a misfit transition");
  TbaPolicy clean_source(sim, other);
  const std::string bytes = StateBytes(clean_source);
  ExpectRefusedRestoreChangesNothing(&target,
                                     bytes.substr(0, bytes.size() - 1),
                                     "TBA1 truncated by one byte");
}

TEST(PolicyStateTest, Cma2cRefusesForeignAndGuardlessRestores) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  Cma2cPolicy::Options opt;
  opt.actor_hidden = {8};
  opt.critic_hidden = {8};
  Cma2cPolicy guarded(system->sim(), opt);
  guarded.EnableDivergenceGuard();
  const std::string bytes = StateBytes(guarded);

  // A guard-armed checkpoint cannot restore into a guard-less policy.
  Cma2cPolicy guardless(system->sim(), opt);
  BinaryReader in1(bytes);
  const Status st1 = guardless.RestoreState(&in1);
  ASSERT_FALSE(st1.ok());
  EXPECT_NE(st1.message().find("EnableDivergenceGuard"), std::string::npos)
      << st1;

  // A different architecture is refused outright.
  Cma2cPolicy::Options wide = opt;
  wide.actor_hidden = {16};
  Cma2cPolicy foreign(system->sim(), wide);
  foreign.EnableDivergenceGuard();
  BinaryReader in2(bytes);
  EXPECT_FALSE(foreign.RestoreState(&in2).ok());

  // A TQL record is not a CMA2C record.
  TqlPolicy tql(system->sim());
  const std::string tql_bytes = StateBytes(tql);
  Cma2cPolicy fresh(system->sim(), opt);
  fresh.EnableDivergenceGuard();
  BinaryReader in3(tql_bytes);
  EXPECT_FALSE(fresh.RestoreState(&in3).ok());
}

// ---------------------------------------- FAIRMOVE_CHECKPOINT_* overrides --

struct EnvVarGuard {
  ~EnvVarGuard() {
    unsetenv("FAIRMOVE_CHECKPOINT_DIR");
    unsetenv("FAIRMOVE_CHECKPOINT_EVERY");
    unsetenv("FAIRMOVE_CHECKPOINT_RETAIN");
  }
};

TEST(CheckpointEnvTest, ParsesValidOverrides) {
  EnvVarGuard guard;
  setenv("FAIRMOVE_CHECKPOINT_DIR", "/tmp/ckpts", 1);
  setenv("FAIRMOVE_CHECKPOINT_EVERY", "5", 1);
  setenv("FAIRMOVE_CHECKPOINT_RETAIN", "7", 1);
  const StatusOr<CheckpointConfig> ckpt = CheckpointConfig::FromEnv();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  EXPECT_TRUE(ckpt->enabled());
  EXPECT_EQ(ckpt->dir, "/tmp/ckpts");
  EXPECT_EQ(ckpt->every, 5);
  EXPECT_EQ(ckpt->retain, 7);
}

TEST(CheckpointEnvTest, UnsetDirDisablesCheckpointing) {
  EnvVarGuard guard;
  unsetenv("FAIRMOVE_CHECKPOINT_DIR");
  const StatusOr<CheckpointConfig> ckpt = CheckpointConfig::FromEnv();
  ASSERT_TRUE(ckpt.ok()) << ckpt.status();
  EXPECT_FALSE(ckpt->enabled());
}

TEST(CheckpointEnvTest, RejectsMalformedOverrides) {
  EnvVarGuard guard;
  setenv("FAIRMOVE_CHECKPOINT_DIR", "", 1);
  EXPECT_FALSE(CheckpointConfig::FromEnv().ok());
  setenv("FAIRMOVE_CHECKPOINT_DIR", "/tmp/ckpts", 1);
  setenv("FAIRMOVE_CHECKPOINT_EVERY", "0", 1);
  EXPECT_FALSE(CheckpointConfig::FromEnv().ok());
  setenv("FAIRMOVE_CHECKPOINT_EVERY", "three", 1);
  EXPECT_FALSE(CheckpointConfig::FromEnv().ok());
  setenv("FAIRMOVE_CHECKPOINT_EVERY", "1", 1);
  setenv("FAIRMOVE_CHECKPOINT_RETAIN", "-2", 1);
  EXPECT_FALSE(CheckpointConfig::FromEnv().ok());
}

// ------------------------------------------- end-to-end interrupted resume --

std::unique_ptr<Cma2cPolicy> MakeSmallCma2c(const Simulator& sim) {
  Cma2cPolicy::Options opt;
  opt.actor_hidden = {8};
  opt.critic_hidden = {8};
  opt.batch_size = 32;
  opt.actor_warmup_batches = 0;
  auto policy = std::make_unique<Cma2cPolicy>(sim, opt);
  policy->EnableDivergenceGuard();
  return policy;
}

FairMoveConfig SmallTrainingConfig() {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 4;
  cfg.trainer.slots_per_episode = 24;
  return cfg;
}

/// Reference run (no checkpointing): final state bytes + stats history.
void RunReference(std::string* final_state,
                  std::vector<Trainer::EpisodeStats>* stats) {
  const FairMoveConfig cfg = SmallTrainingConfig();
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  auto policy = MakeSmallCma2c(system->sim());
  Trainer trainer = system->MakeTrainer();
  ASSERT_TRUE(trainer.TrainGuarded(policy.get(), stats).ok());
  *final_state = StateBytes(*policy);
}

TEST(ResumeTest, MidRunResumeIsBitIdenticalEvenPastCorruptFrames) {
  std::string want_state;
  std::vector<Trainer::EpisodeStats> want_stats;
  RunReference(&want_state, &want_stats);
  ASSERT_EQ(want_stats.size(), 4u);

  // Checkpointed run: every episode, retain all four frames.
  const std::string dir = ScratchDir("resume");
  CheckpointConfig ckpt;
  ckpt.dir = dir;
  ckpt.every = 1;
  ckpt.retain = 4;
  const FairMoveConfig cfg = SmallTrainingConfig();
  {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    auto policy = MakeSmallCma2c(system->sim());
    Trainer trainer = system->MakeTrainer();
    std::vector<Trainer::EpisodeStats> stats;
    ASSERT_TRUE(trainer.TrainGuarded(policy.get(), &stats, ckpt).ok());
    ASSERT_EQ(StateBytes(*policy), want_state);  // checkpointing is inert
  }

  // Simulate a crash that tore the two newest frames: the resume must fall
  // back to the episode-2 frame, retrain episodes 3 and 4, and still end
  // bit-identical to the uninterrupted reference.
  ASSERT_TRUE(
      FlipFileBytes(dir + "/" + CheckpointStore::FileName(4), 2, 1).ok());
  ASSERT_TRUE(TruncateFileBytes(dir + "/" + CheckpointStore::FileName(3),
                                64).ok());
  {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    auto policy = MakeSmallCma2c(system->sim());
    Trainer trainer = system->MakeTrainer();
    std::vector<Trainer::EpisodeStats> stats;
    ASSERT_TRUE(trainer.TrainGuarded(policy.get(), &stats, ckpt).ok());
    EXPECT_EQ(StateBytes(*policy), want_state);
    ASSERT_EQ(stats.size(), want_stats.size());
    for (size_t i = 0; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].avg_reward, want_stats[i].avg_reward) << i;
      EXPECT_EQ(stats[i].transitions, want_stats[i].transitions) << i;
      EXPECT_EQ(stats[i].fleet_pf, want_stats[i].fleet_pf) << i;
    }
  }

  // Resume at the final frame: nothing retrains, same bytes again.
  {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    auto policy = MakeSmallCma2c(system->sim());
    Trainer trainer = system->MakeTrainer();
    std::vector<Trainer::EpisodeStats> stats;
    ASSERT_TRUE(trainer.TrainGuarded(policy.get(), &stats, ckpt).ok());
    EXPECT_EQ(StateBytes(*policy), want_state);
    EXPECT_EQ(stats.size(), want_stats.size());
  }
}

TEST(ResumeTest, AllFramesCorruptDegradesToFreshStart) {
  std::string want_state;
  std::vector<Trainer::EpisodeStats> want_stats;
  RunReference(&want_state, &want_stats);

  const std::string dir = ScratchDir("all_corrupt");
  CheckpointConfig ckpt;
  ckpt.dir = dir;
  ckpt.every = 1;
  ckpt.retain = 4;
  const FairMoveConfig cfg = SmallTrainingConfig();
  {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    auto policy = MakeSmallCma2c(system->sim());
    Trainer trainer = system->MakeTrainer();
    ASSERT_TRUE(trainer.TrainGuarded(policy.get(), nullptr, ckpt).ok());
  }
  for (int e = 1; e <= 4; ++e) {
    ASSERT_TRUE(FlipFileBytes(dir + "/" + CheckpointStore::FileName(e), 3,
                              static_cast<uint64_t>(e)).ok());
  }
  ASSERT_TRUE(CorruptLatestPointer(dir, "ckpt-00424242.fmck").ok());
  {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    auto policy = MakeSmallCma2c(system->sim());
    Trainer trainer = system->MakeTrainer();
    std::vector<Trainer::EpisodeStats> stats;
    ASSERT_TRUE(trainer.TrainGuarded(policy.get(), &stats, ckpt).ok());
    EXPECT_EQ(StateBytes(*policy), want_state);  // trained from scratch
    EXPECT_EQ(stats.size(), want_stats.size());
  }
}

TEST(ResumeTest, ForeignConfigOrPolicyIsRefused) {
  const std::string dir = ScratchDir("foreign");
  CheckpointConfig ckpt;
  ckpt.dir = dir;
  FairMoveConfig cfg = SmallTrainingConfig();
  {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    auto policy = MakeSmallCma2c(system->sim());
    Trainer trainer = system->MakeTrainer();
    ASSERT_TRUE(trainer.TrainGuarded(policy.get(), nullptr, ckpt).ok());
  }
  // Same checkpoint dir, different reward shape: the config CRC differs, so
  // resume must refuse every frame and train from scratch — which here just
  // means the cursor starts at 0 (verified via a different-policy refusal
  // below plus stats length).
  FairMoveConfig other = cfg;
  other.trainer.reward.alpha = 0.9;
  {
    auto system = std::move(FairMoveSystem::Create(other)).value();
    auto policy = MakeSmallCma2c(system->sim());
    Trainer trainer = system->MakeTrainer();
    ASSERT_NE(trainer.ConfigCrc(),
              Trainer(&system->sim(), cfg.trainer).ConfigCrc());
    std::vector<Trainer::EpisodeStats> stats;
    ASSERT_TRUE(trainer.TrainGuarded(policy.get(), &stats, ckpt).ok());
    EXPECT_EQ(stats.size(), 4u);  // resumed nothing
  }
  // A TQL run refuses the FairMove frames (policy-name check).
  {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    TqlPolicy policy(system->sim());
    Trainer trainer = system->MakeTrainer();
    std::vector<Trainer::EpisodeStats> stats;
    ASSERT_TRUE(trainer.TrainGuarded(&policy, &stats, ckpt).ok());
    EXPECT_EQ(stats.size(), 4u);  // resumed nothing
  }
}

TEST(ResumeTest, ParallelPoolRunMatchesReference) {
  std::string want_state;
  std::vector<Trainer::EpisodeStats> want_stats;
  RunReference(&want_state, &want_stats);

  SetGlobalThreads(4);
  // Small-city phases are below the pool's cost rule; keep them forking.
  ScopedForkThresholdForTesting fork_every_phase(0);
  const std::string dir = ScratchDir("parallel");
  CheckpointConfig ckpt;
  ckpt.dir = dir;
  const FairMoveConfig cfg = SmallTrainingConfig();
  {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    auto policy = MakeSmallCma2c(system->sim());
    Trainer trainer = system->MakeTrainer();
    ASSERT_TRUE(trainer.TrainGuarded(policy.get(), nullptr, ckpt).ok());
  }
  // Tear the newest frame and resume — still bit-identical, still on the
  // 4-thread pool.
  ASSERT_TRUE(
      FlipFileBytes(dir + "/" + CheckpointStore::FileName(4), 1, 5).ok());
  {
    auto system = std::move(FairMoveSystem::Create(cfg)).value();
    auto policy = MakeSmallCma2c(system->sim());
    Trainer trainer = system->MakeTrainer();
    std::vector<Trainer::EpisodeStats> stats;
    ASSERT_TRUE(trainer.TrainGuarded(policy.get(), &stats, ckpt).ok());
    EXPECT_EQ(StateBytes(*policy), want_state);
  }
  SetGlobalThreads(1);
}

}  // namespace
}  // namespace fairmove
