// Tests of model persistence: the FMLP1 network codec and the policy
// SaveModel/LoadModel round trips, with the model-file bytes pinned.

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "fairmove/core/fairmove.h"
#include "fairmove/io/atomic_file.h"
#include "fairmove/io/binary.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/resilience/chaos.h"
#include "fairmove/rl/cma2c_policy.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/dqn_policy.h"
#include "fairmove/rl/tql_policy.h"

namespace fairmove {
namespace {

std::string NetBytes(const Mlp& net) {
  BinaryWriter out;
  net.Save(&out);
  return out.Release();
}

StatusOr<Mlp> LoadNet(const std::string& bytes) {
  BinaryReader in(bytes);
  return Mlp::Load(&in);
}

TEST(MlpSerializationTest, StreamRoundTripPreservesOutputs) {
  Mlp original({7, 16, 3}, Activation::kTanh, 42);
  auto loaded_or = LoadNet(NetBytes(original));
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status();
  const Mlp& loaded = loaded_or.value();
  EXPECT_EQ(loaded.input_dim(), 7);
  EXPECT_EQ(loaded.output_dim(), 3);
  const std::vector<float> x{0.1f, -0.4f, 0.9f, 0.0f, 0.3f, -1.0f, 0.5f};
  const auto ya = original.Forward1(x);
  const auto yb = loaded.Forward1(x);
  for (size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(MlpSerializationTest, MultipleNetworksInOneStream) {
  Mlp a({3, 4, 2}, Activation::kRelu, 1);
  Mlp b({5, 6, 1}, Activation::kLinear, 2);
  BinaryWriter out;
  a.Save(&out);
  b.Save(&out);
  BinaryReader in(out.str());
  auto first = Mlp::Load(&in);
  auto second = Mlp::Load(&in);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->input_dim(), 3);
  EXPECT_EQ(second->input_dim(), 5);
  EXPECT_TRUE(in.AtEnd());
}

/// An FMLP1 header declaring the given layer sizes, with no parameters.
std::string HeaderOnly(const std::vector<int32_t>& sizes) {
  BinaryWriter out;
  out.WriteBytes("FMLP1", 5);
  out.WriteI32(static_cast<int32_t>(Activation::kRelu));
  out.WriteI32(static_cast<int32_t>(sizes.size()));
  for (int32_t s : sizes) out.WriteI32(s);
  return out.Release();
}

TEST(MlpSerializationTest, RejectsGarbage) {
  EXPECT_FALSE(LoadNet("").ok());
  EXPECT_FALSE(LoadNet("this is not a network").ok());
  // Truncated blob.
  std::string blob = NetBytes(Mlp({3, 2}, Activation::kRelu, 1));
  blob.resize(blob.size() / 2);
  EXPECT_FALSE(LoadNet(blob).ok());
  // Headers that declare far more parameters than the blob holds must be
  // refused before anything is allocated: 2^40 parameters (21 bytes) and
  // 268M parameters.
  const std::string huge = HeaderOnly({1 << 20, 1 << 20});
  ASSERT_EQ(huge.size(), 21u);
  const StatusOr<Mlp> huge_net = LoadNet(huge);
  ASSERT_FALSE(huge_net.ok());
  EXPECT_EQ(huge_net.status().code(), StatusCode::kInvalidArgument);
  const StatusOr<Mlp> wide_net =
      LoadNet(HeaderOnly({1 << 14, 1 << 14}) + std::string(64, '\0'));
  ASSERT_FALSE(wide_net.ok());
  EXPECT_EQ(wide_net.status().code(), StatusCode::kInvalidArgument);
}

TEST(MlpSerializationTest, EveryTruncatedPrefixIsRejected) {
  Mlp net({3, 4, 2}, Activation::kTanh, 7);
  const std::string blob = NetBytes(net);
  // A loader fed any strict prefix must fail with a Status — never crash,
  // never hand back a half-initialised network.
  for (size_t keep = 0; keep < blob.size(); keep += 3) {
    EXPECT_FALSE(LoadNet(blob.substr(0, keep)).ok())
        << "prefix of " << keep << " byte(s)";
  }
}

TEST(MlpSerializationTest, NonFiniteWeightsRejectedAtLoad) {
  // A NaN that slipped into a saved model (cosmic ray, torn write past the
  // length fields, buggy producer) must be rejected at load, not silently
  // poison every later forward pass.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    Mlp net({3, 4, 2}, Activation::kTanh, 7);
    net.weights()[0].At(1, 1) = bad;
    auto loaded = LoadNet(NetBytes(net));
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("non-finite"),
              std::string::npos)
        << loaded.status();
  }
  // Same for a poisoned bias.
  Mlp net({3, 4, 2}, Activation::kTanh, 7);
  net.biases()[1][0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(LoadNet(NetBytes(net)).ok());
}

TEST(MlpSerializationTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fairmove_net_test.bin";
  Mlp original({4, 8, 2}, Activation::kRelu, 9);
  ASSERT_TRUE(AtomicWriteFile(path, NetBytes(original)).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  auto loaded = LoadNet(*bytes);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_parameters(), original.num_parameters());
  std::remove(path.c_str());
  EXPECT_EQ(ReadFileToString(path).status().code(), StatusCode::kNotFound);
}

class PolicyPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
    system_ = std::move(FairMoveSystem::Create(cfg)).value();
  }

  /// One 24-slot training episode, so learned state differs from init.
  void TrainBriefly(DisplacementPolicy* policy) {
    TrainerConfig config;
    config.episodes = 1;
    config.slots_per_episode = 24;
    Trainer(&system_->sim(), config).Train(policy);
  }

  std::unique_ptr<FairMoveSystem> system_;
};

/// The bytes `policy.SaveModel` writes, read back from `path`.
template <typename Policy>
std::string ModelBytes(const Policy& policy, const std::string& path) {
  const Status saved = policy.SaveModel(path);
  EXPECT_TRUE(saved.ok()) << saved;
  StatusOr<std::string> bytes = ReadFileToString(path);
  EXPECT_TRUE(bytes.ok()) << bytes.status();
  return bytes.ok() ? *bytes : std::string();
}

// The size and Crc32 pins below fix each model-file format byte for byte.
// Model files are what a deployment ships, so moving a pin breaks every
// saved model. They hold on the portable (non-FAIRMOVE_NATIVE) build.

TEST_F(PolicyPersistenceTest, Cma2cSaveLoadPreservesBehaviour) {
  const std::string path = ::testing::TempDir() + "/fairmove_cma2c.bin";
  Cma2cPolicy::Options options;
  options.seed = 11;
  Cma2cPolicy trained(system_->sim(), options);
  // Advance the policy's sampling stream before saving; SaveModel must
  // carry the weights only.
  trained.SetTraining(true);
  trained.BeginEpisode(system_->sim());
  system_->sim().RunSlots(&trained, 40);
  const std::string bytes = ModelBytes(trained, path);
  EXPECT_EQ(bytes.size(), 58230u);  // two FMLP1 blobs
  EXPECT_EQ(Crc32(bytes), 0x2D2F5E76u);

  Cma2cPolicy restored(system_->sim(), options);
  ASSERT_TRUE(restored.LoadModel(path).ok());
  // Identical critic values on an arbitrary state.
  std::vector<float> state(
      static_cast<size_t>(FeatureExtractor(&system_->sim()).dim()), 0.1f);
  EXPECT_NEAR(restored.Value(state), trained.Value(state), 1e-6);
  std::remove(path.c_str());
}

TEST_F(PolicyPersistenceTest, DqnSaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fairmove_dqn.bin";
  DqnPolicy::Options options;
  options.seed = 12;
  DqnPolicy policy(system_->sim(), options);
  const std::string bytes = ModelBytes(policy, path);
  EXPECT_EQ(bytes.size(), 30805u);  // one bare FMLP1 blob
  EXPECT_EQ(Crc32(bytes), 0x5C63483Du);
  DqnPolicy restored(system_->sim(), options);
  ASSERT_TRUE(restored.LoadModel(path).ok());
  EXPECT_EQ(ModelBytes(restored, path), bytes);
  std::remove(path.c_str());
}

TEST_F(PolicyPersistenceTest, TqlSaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/fairmove_tql.bin";
  TqlPolicy trained(system_->sim());
  TrainBriefly(&trained);
  const std::string bytes = ModelBytes(trained, path);
  EXPECT_EQ(bytes.size(), 149197u);  // FMTQ1
  EXPECT_EQ(Crc32(bytes), 0x706E685Eu);
  TqlPolicy restored(system_->sim());
  ASSERT_TRUE(restored.LoadModel(path).ok());
  EXPECT_EQ(ModelBytes(restored, path), bytes);
  std::remove(path.c_str());
}

TEST_F(PolicyPersistenceTest, TqlFailedLoadLeavesTableUnchanged) {
  // A torn model file must be refused without touching the Q-table it was
  // meant to replace.
  const std::string path = ::testing::TempDir() + "/fairmove_tql_torn.bin";
  const std::string scratch = ::testing::TempDir() + "/fairmove_tql_fresh.bin";
  TqlPolicy trained(system_->sim());
  TrainBriefly(&trained);
  const std::string bytes = ModelBytes(trained, path);
  ASSERT_TRUE(TruncateFileBytes(path, bytes.size() / 2).ok());

  TqlPolicy fresh(system_->sim());
  const std::string before = ModelBytes(fresh, scratch);
  ASSERT_NE(before, bytes);
  const Status st = fresh.LoadModel(path);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  EXPECT_EQ(ModelBytes(fresh, scratch), before);
  std::remove(path.c_str());
  std::remove(scratch.c_str());
}

TEST_F(PolicyPersistenceTest, MissingModelFileIsNotFound) {
  const std::string path = ::testing::TempDir() + "/fairmove_no_model.bin";
  std::remove(path.c_str());
  EXPECT_EQ(Cma2cPolicy(system_->sim()).LoadModel(path).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(DqnPolicy(system_->sim()).LoadModel(path).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(TqlPolicy(system_->sim()).LoadModel(path).code(),
            StatusCode::kNotFound);
}

TEST_F(PolicyPersistenceTest, Cma2cLoadRejectsDqnShapedBlob) {
  // Regression: LoadModel used to check only the outer dims, so a blob of
  // two DQN-shaped nets (right input/output widths, ReLU everywhere, no
  // 1-dim critic head) loaded "successfully" into a CMA2C policy.
  const std::string path = ::testing::TempDir() + "/fairmove_dqn_shaped.bin";
  Cma2cPolicy policy(system_->sim());
  const int in = FeatureExtractor(&system_->sim()).dim();
  const int out = system_->sim().action_space().size();
  // Same outer dims as the actor but DQN's ReLU activation, and a "critic"
  // that is another Q-head instead of a 1-output value net.
  BinaryWriter file;
  Mlp({in, 64, 64, out}, Activation::kRelu, 1).Save(&file);
  Mlp({in, 64, 64, out}, Activation::kRelu, 2).Save(&file);
  ASSERT_TRUE(AtomicWriteFile(path, file.str()).ok());
  const Status st = policy.LoadModel(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  std::remove(path.c_str());
}

TEST_F(PolicyPersistenceTest, Cma2cLoadRejectsMismatchedHiddenSizes) {
  const std::string path = ::testing::TempDir() + "/fairmove_thin.bin";
  Cma2cPolicy policy(system_->sim());
  const int in = FeatureExtractor(&system_->sim()).dim();
  const int out = system_->sim().action_space().size();
  // Correct activations and outer dims, but thinner hidden layers.
  BinaryWriter file;
  Mlp({in, 32, out}, Activation::kTanh, 1).Save(&file);
  Mlp({in, 32, 1}, Activation::kRelu, 2).Save(&file);
  ASSERT_TRUE(AtomicWriteFile(path, file.str()).ok());
  const Status st = policy.LoadModel(path);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st;
  std::remove(path.c_str());
}

TEST_F(PolicyPersistenceTest, Cma2cRoundTripStillLoadsAfterValidation) {
  // The stricter check must not reject a genuine save/load round trip.
  const std::string path = ::testing::TempDir() + "/fairmove_roundtrip.bin";
  Cma2cPolicy policy(system_->sim());
  ASSERT_TRUE(policy.SaveModel(path).ok());
  Cma2cPolicy restored(system_->sim());
  EXPECT_TRUE(restored.LoadModel(path).ok());
  std::remove(path.c_str());
}

TEST_F(PolicyPersistenceTest, LoadRejectsWrongArchitecture) {
  const std::string path = ::testing::TempDir() + "/fairmove_wrong.bin";
  ASSERT_TRUE(
      AtomicWriteFile(path, NetBytes(Mlp({2, 2}, Activation::kRelu, 1))).ok());
  DqnPolicy policy(system_->sim());
  EXPECT_FALSE(policy.LoadModel(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fairmove
