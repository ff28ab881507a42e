#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "fairmove/nn/adam.h"
#include "fairmove/nn/matrix.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/nn/simd.h"

namespace fairmove {
namespace {

// ---------------------------------------------------------------- Matrix --

TEST(MatrixTest, ResizeAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  m.At(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
}

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 2), b(2, 2), out;
  a.At(0, 0) = 1; a.At(0, 1) = 2; a.At(1, 0) = 3; a.At(1, 1) = 4;
  b.At(0, 0) = 5; b.At(0, 1) = 6; b.At(1, 0) = 7; b.At(1, 1) = 8;
  MatMul(a, b, &out);
  EXPECT_FLOAT_EQ(out.At(0, 0), 19);
  EXPECT_FLOAT_EQ(out.At(0, 1), 22);
  EXPECT_FLOAT_EQ(out.At(1, 0), 43);
  EXPECT_FLOAT_EQ(out.At(1, 1), 50);
}

TEST(MatrixTest, MatMulRectangular) {
  Matrix a(1, 3), b(3, 2), out;
  for (int j = 0; j < 3; ++j) a.At(0, j) = static_cast<float>(j + 1);
  for (int i = 0; i < 3; ++i) {
    b.At(i, 0) = 1.0f;
    b.At(i, 1) = static_cast<float>(i);
  }
  MatMul(a, b, &out);
  EXPECT_EQ(out.rows(), 1);
  EXPECT_EQ(out.cols(), 2);
  EXPECT_FLOAT_EQ(out.At(0, 0), 6.0f);   // 1+2+3
  EXPECT_FLOAT_EQ(out.At(0, 1), 8.0f);   // 0+2+6
}

TEST(MatrixTest, TransposedProductsAgreeWithExplicitTranspose) {
  Rng rng(3);
  Matrix a(4, 3), b(4, 5);
  a.RandomGaussian(rng, 1.0);
  b.RandomGaussian(rng, 1.0);
  // a^T * b via MatMulTransA vs building a^T by hand.
  Matrix at(3, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) at.At(j, i) = a.At(i, j);
  }
  Matrix expected, got;
  MatMul(at, b, &expected);
  MatMulTransA(a, b, &got);
  ASSERT_EQ(got.rows(), expected.rows());
  ASSERT_EQ(got.cols(), expected.cols());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-5);
  }
  // Transpose builds the same a^T, exactly.
  Matrix at2;
  Transpose(a, &at2);
  ASSERT_EQ(at2.rows(), 3);
  ASSERT_EQ(at2.cols(), 4);
  for (size_t i = 0; i < at.size(); ++i) {
    EXPECT_EQ(at2.data()[i], at.data()[i]);
  }
}

// Regression: the kernels used to skip a(i, p) == 0 entries, which silently
// dropped 0 * NaN contributions from a diverged weight matrix — a network
// whose weights went NaN could still emit finite-looking outputs and slip
// past output-side NaN screening (DivergenceGuard). 0 * NaN must be NaN.
TEST(MatrixTest, MatMulPropagatesNanThroughZeroInput) {
  Matrix a(1, 2), b(2, 3), out;
  a.At(0, 0) = 0.0f;  // the zero "input feature"
  a.At(0, 1) = 1.0f;
  b.At(0, 0) = std::nanf("");  // NaN weight reached only via the zero entry
  b.At(0, 1) = 2.0f;
  b.At(1, 2) = 3.0f;
  MatMul(a, b, &out);
  EXPECT_TRUE(std::isnan(out.At(0, 0)));
  EXPECT_FALSE(std::isnan(out.At(0, 2)));
}

TEST(MatrixTest, MatMulTransAPropagatesNanThroughZeroInput) {
  Matrix a(2, 2), b(2, 3), out;
  a.At(0, 0) = 0.0f;  // column 0 of a^T row 0 is zero
  a.At(1, 0) = 1.0f;
  b.At(0, 0) = std::nanf("");
  b.At(1, 1) = 2.0f;
  MatMulTransA(a, b, &out);
  EXPECT_TRUE(std::isnan(out.At(0, 0)));
  EXPECT_FALSE(std::isnan(out.At(1, 1)));
}

TEST(MatrixTest, MatMulInfTimesZeroIsNan) {
  Matrix a(1, 1), b(1, 1), out;
  a.At(0, 0) = 0.0f;
  b.At(0, 0) = std::numeric_limits<float>::infinity();
  MatMul(a, b, &out);
  EXPECT_TRUE(std::isnan(out.At(0, 0)));
}

// ------------------------------------------------------------------- Mlp --

TEST(MlpTest, ShapesAndParamCount) {
  Mlp net({4, 8, 3}, Activation::kRelu, 1);
  EXPECT_EQ(net.input_dim(), 4);
  EXPECT_EQ(net.output_dim(), 3);
  EXPECT_EQ(net.num_layers(), 2);
  EXPECT_EQ(net.num_parameters(), 4u * 8 + 8 + 8 * 3 + 3);
}

TEST(MlpTest, ForwardMatchesManualLinearNetwork) {
  // A 2->2 linear (no hidden) network is just Wx + b.
  Mlp net({2, 2}, Activation::kRelu, 1);
  auto& w = net.weights()[0];
  w.At(0, 0) = 1.0f; w.At(0, 1) = 2.0f;
  w.At(1, 0) = 3.0f; w.At(1, 1) = 4.0f;
  net.biases()[0] = {0.5f, -0.5f};
  const auto y = net.Forward1({1.0f, 1.0f});
  EXPECT_FLOAT_EQ(y[0], 4.5f);   // 1+3+0.5
  EXPECT_FLOAT_EQ(y[1], 5.5f);   // 2+4-0.5
}

TEST(MlpTest, ReluZeroesNegativePreactivations) {
  Mlp net({1, 1, 1}, Activation::kRelu, 1);
  net.weights()[0].At(0, 0) = -1.0f;
  net.biases()[0] = {0.0f};
  net.weights()[1].At(0, 0) = 1.0f;
  net.biases()[1] = {0.25f};
  // Positive input -> hidden pre-activation negative -> ReLU 0 -> bias only.
  EXPECT_FLOAT_EQ(net.Forward1({3.0f})[0], 0.25f);
}

TEST(MlpTest, BatchedForwardMatchesSingle) {
  Mlp net({5, 16, 4}, Activation::kTanh, 7);
  Rng rng(9);
  Matrix x(6, 5);
  x.RandomGaussian(rng, 1.0);
  Matrix y;
  net.Forward(x, &y);
  for (int i = 0; i < 6; ++i) {
    std::vector<float> row(x.Row(i), x.Row(i) + 5);
    const auto single = net.Forward1(row);
    for (int j = 0; j < 4; ++j) {
      EXPECT_NEAR(y.At(i, j), single[static_cast<size_t>(j)], 1e-5);
    }
  }
}

// The hard invariant behind the batched decision path: batched Forward must
// be BIT-IDENTICAL (exact float equality, not NEAR) to per-row Forward1 —
// per-row accumulation order is pinned regardless of batch size, which is
// what lets DecideActions batch without perturbing seed-reproducible runs.
class BatchedBitExactness : public ::testing::TestWithParam<Activation> {};

TEST_P(BatchedBitExactness, ForwardMatchesForward1Exactly) {
  Mlp net({17, 32, 24, 9}, GetParam(), 23);
  Rng rng(29);
  Mlp::Workspace ws;
  // Varying batch sizes through one reused workspace also proves no stale
  // state leaks between calls.
  for (int batch : {1, 3, 20, 7}) {
    Matrix x(batch, 17);
    x.RandomGaussian(rng, 1.5);
    Matrix y;
    net.Forward(x, &y, &ws);
    ASSERT_EQ(y.rows(), batch);
    ASSERT_EQ(y.cols(), 9);
    for (int i = 0; i < batch; ++i) {
      const std::vector<float> row(x.Row(i), x.Row(i) + 17);
      const std::vector<float> single = net.Forward1(row);
      for (int j = 0; j < 9; ++j) {
        // Exact bitwise equality, deliberately not EXPECT_NEAR.
        EXPECT_EQ(y.At(i, j), single[static_cast<size_t>(j)])
            << "batch " << batch << " row " << i << " col " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, BatchedBitExactness,
                         ::testing::Values(Activation::kRelu,
                                           Activation::kTanh,
                                           Activation::kLinear));

TEST(MlpTest, WorkspaceForwardMatchesPlainForward) {
  Mlp net({6, 12, 12, 4}, Activation::kTanh, 3);
  Rng rng(5);
  Matrix x(8, 6);
  x.RandomGaussian(rng, 1.0);
  Matrix plain, reused;
  net.Forward(x, &plain);
  Mlp::Workspace ws;
  net.Forward(x, &reused, &ws);
  net.Forward(x, &reused, &ws);  // second pass through warm buffers
  ASSERT_EQ(plain.size(), reused.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain.data()[i], reused.data()[i]);
  }
}

TEST(MlpTest, WorkspaceBackwardMatchesPlainBackward) {
  Mlp net({5, 10, 3}, Activation::kRelu, 7);
  Rng rng(13);
  Matrix x(6, 5), grad_out(6, 3);
  x.RandomGaussian(rng, 1.0);
  grad_out.RandomGaussian(rng, 0.1);
  Mlp::Tape tape;
  net.ForwardTape(x, &tape);
  Mlp::Gradients plain = net.MakeGradients();
  net.Backward(tape, grad_out, &plain);
  Mlp::Gradients reused = net.MakeGradients();
  Mlp::Workspace ws;
  net.Backward(tape, grad_out, &reused, &ws);
  net.ForwardTape(x, &tape);  // tape buffer reuse must not change results
  Mlp::Gradients again = net.MakeGradients();
  net.Backward(tape, grad_out, &again, &ws);
  for (size_t l = 0; l < plain.dw.size(); ++l) {
    for (size_t i = 0; i < plain.dw[l].size(); ++i) {
      EXPECT_EQ(plain.dw[l].data()[i], reused.dw[l].data()[i]);
      EXPECT_EQ(plain.dw[l].data()[i], again.dw[l].data()[i]);
    }
    for (size_t i = 0; i < plain.db[l].size(); ++i) {
      EXPECT_EQ(plain.db[l][i], reused.db[l][i]);
      EXPECT_EQ(plain.db[l][i], again.db[l][i]);
    }
  }
}

TEST(MlpTest, NanWeightsReachTheOutputOnZeroFeatures) {
  // End-to-end version of the MatMul regression: a network whose first
  // layer holds a NaN weight must emit NaN even when the matching input
  // feature is 0 (e.g. a one-hot miss).
  Mlp net({2, 2}, Activation::kLinear, 1);
  net.weights()[0].At(0, 0) = std::nanf("");
  const auto y = net.Forward1({0.0f, 1.0f});
  EXPECT_TRUE(std::isnan(y[0]));
}

TEST(MlpTest, TapeOutputMatchesForward) {
  Mlp net({3, 8, 2}, Activation::kRelu, 5);
  Rng rng(11);
  Matrix x(4, 3);
  x.RandomGaussian(rng, 1.0);
  Matrix y;
  net.Forward(x, &y);
  Mlp::Tape tape;
  net.ForwardTape(x, &tape);
  const Matrix& taped = net.Output(tape);
  for (size_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(taped.data()[i], y.data()[i]);
  }
}

// The load-bearing test: backprop gradients must match finite differences.
class GradientCheck : public ::testing::TestWithParam<Activation> {};

TEST_P(GradientCheck, BackwardMatchesFiniteDifferences) {
  const Activation act = GetParam();
  Mlp net({3, 6, 2}, act, 13);
  Rng rng(17);
  Matrix x(5, 3);
  x.RandomGaussian(rng, 1.0);
  Matrix target(5, 2);
  target.RandomGaussian(rng, 1.0);

  auto loss = [&]() {
    Matrix y;
    net.Forward(x, &y);
    double total = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
      const double d = y.data()[i] - target.data()[i];
      total += d * d;
    }
    return total;
  };

  // Analytic gradients: dL/dy = 2(y - t).
  Mlp::Tape tape;
  net.ForwardTape(x, &tape);
  Matrix grad_out(5, 2);
  const Matrix& y = net.Output(tape);
  for (size_t i = 0; i < y.size(); ++i) {
    grad_out.data()[i] = 2.0f * (y.data()[i] - target.data()[i]);
  }
  Mlp::Gradients grads = net.MakeGradients();
  net.Backward(tape, grad_out, &grads);

  const float eps = 1e-3f;
  // Spot-check a spread of weights and every bias of each layer.
  for (int layer = 0; layer < net.num_layers(); ++layer) {
    Matrix& w = net.weights()[static_cast<size_t>(layer)];
    for (size_t i = 0; i < w.size(); i += 5) {
      const float orig = w.data()[i];
      w.data()[i] = orig + eps;
      const double up = loss();
      w.data()[i] = orig - eps;
      const double down = loss();
      w.data()[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads.dw[static_cast<size_t>(layer)].data()[i], numeric,
                  2e-2 + 2e-2 * std::abs(numeric))
          << "layer " << layer << " w[" << i << "]";
    }
    auto& b = net.biases()[static_cast<size_t>(layer)];
    for (size_t i = 0; i < b.size(); ++i) {
      const float orig = b[i];
      b[i] = orig + eps;
      const double up = loss();
      b[i] = orig - eps;
      const double down = loss();
      b[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(grads.db[static_cast<size_t>(layer)][i], numeric,
                  2e-2 + 2e-2 * std::abs(numeric))
          << "layer " << layer << " b[" << i << "]";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Activations, GradientCheck,
                         ::testing::Values(Activation::kRelu,
                                           Activation::kTanh,
                                           Activation::kLinear));

TEST(MlpTest, CopyParametersMakesNetworksIdentical) {
  Mlp a({4, 8, 2}, Activation::kRelu, 1);
  Mlp b({4, 8, 2}, Activation::kRelu, 2);
  b.CopyParametersFrom(a);
  const std::vector<float> x{0.3f, -0.2f, 0.8f, 0.0f};
  const auto ya = a.Forward1(x);
  const auto yb = b.Forward1(x);
  EXPECT_FLOAT_EQ(ya[0], yb[0]);
  EXPECT_FLOAT_EQ(ya[1], yb[1]);
}

TEST(MlpTest, SoftUpdateInterpolates) {
  Mlp a({2, 2}, Activation::kLinear, 1);
  Mlp b({2, 2}, Activation::kLinear, 2);
  a.weights()[0].At(0, 0) = 0.0f;
  b.weights()[0].At(0, 0) = 10.0f;
  a.SoftUpdateFrom(b, 0.1);
  EXPECT_NEAR(a.weights()[0].At(0, 0), 1.0f, 1e-6);
  a.SoftUpdateFrom(b, 1.0);
  EXPECT_NEAR(a.weights()[0].At(0, 0), 10.0f, 1e-6);
}

// --------------------------------------------------------- MaskedSoftmax --

TEST(FastTanhTest, MatchesStdTanhWithinDocumentedBound) {
  // The kTanh hidden activation runs FastTanh instead of libm; the header
  // documents < 4e-7 absolute error over the full range.
  float max_err = 0.0f;
  for (int i = -12000; i <= 12000; ++i) {
    const float x = static_cast<float>(i) * 1e-3f;
    max_err = std::max(max_err,
                       std::abs(FastTanh(x) - std::tanh(x)));
  }
  EXPECT_LT(max_err, 4e-7f);
}

TEST(FastTanhTest, ExactAtZeroAndSaturatesToOne) {
  EXPECT_EQ(FastTanh(0.0f), 0.0f);
  EXPECT_EQ(FastTanh(25.0f), 1.0f);
  EXPECT_EQ(FastTanh(-25.0f), -1.0f);
  EXPECT_EQ(FastTanh(std::numeric_limits<float>::infinity()), 1.0f);
  EXPECT_EQ(FastTanh(-std::numeric_limits<float>::infinity()), -1.0f);
}

TEST(FastTanhTest, PropagatesNan) {
  // A diverged pre-activation must stay visible to NaN screening; the
  // saturation clamp is written so NaN falls through it.
  EXPECT_TRUE(std::isnan(FastTanh(std::numeric_limits<float>::quiet_NaN())));
}

TEST(MaskedSoftmaxTest, NormalisesOverValidEntries) {
  std::vector<float> logits{1.0f, 2.0f, 3.0f};
  MaskedSoftmax({true, true, true}, &logits);
  float total = 0.0f;
  for (float v : logits) total += v;
  EXPECT_NEAR(total, 1.0f, 1e-6);
  EXPECT_GT(logits[2], logits[1]);
  EXPECT_GT(logits[1], logits[0]);
}

TEST(MaskedSoftmaxTest, MaskedEntriesGetZero) {
  std::vector<float> logits{5.0f, 100.0f, 5.0f};
  MaskedSoftmax({true, false, true}, &logits);
  EXPECT_FLOAT_EQ(logits[1], 0.0f);
  EXPECT_NEAR(logits[0], 0.5f, 1e-6);
  EXPECT_NEAR(logits[2], 0.5f, 1e-6);
}

TEST(MaskedSoftmaxTest, RawBufferOverloadMatchesVectorOverload) {
  std::vector<float> as_vector{1.5f, -0.5f, 3.0f, 0.0f};
  float raw[4] = {1.5f, -0.5f, 3.0f, 0.0f};
  const std::vector<bool> valid{true, false, true, true};
  MaskedSoftmax(valid, &as_vector);
  MaskedSoftmax(valid, raw, 4);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(raw[i], as_vector[i]);
}

TEST(MaskedSoftmaxTest, NumericallyStableWithHugeLogits) {
  std::vector<float> logits{1000.0f, 999.0f};
  MaskedSoftmax({true, true}, &logits);
  EXPECT_NEAR(logits[0] + logits[1], 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(logits[0]));
}

// ------------------------------------------------------------------ Adam --

TEST(AdamTest, MinimisesAQuadratic) {
  // Fit y = 2x with a linear 1->1 network from random init.
  Mlp net({1, 1}, Activation::kLinear, 3);
  Adam adam(&net, Adam::Options{.learning_rate = 0.05});
  Rng rng(4);
  for (int step = 0; step < 500; ++step) {
    Matrix x(8, 1), grad(8, 1);
    x.RandomGaussian(rng, 1.0);
    Mlp::Tape tape;
    net.ForwardTape(x, &tape);
    const Matrix& y = net.Output(tape);
    for (int i = 0; i < 8; ++i) {
      grad.At(i, 0) = 2.0f * (y.At(i, 0) - 2.0f * x.At(i, 0)) / 8.0f;
    }
    Mlp::Gradients grads = net.MakeGradients();
    net.Backward(tape, grad, &grads);
    adam.Step(grads);
  }
  EXPECT_NEAR(net.weights()[0].At(0, 0), 2.0f, 0.05);
  EXPECT_NEAR(net.biases()[0][0], 0.0f, 0.05);
}

TEST(AdamTest, GradNormAndClipping) {
  Mlp net({2, 1}, Activation::kLinear, 1);
  Mlp::Gradients grads = net.MakeGradients();
  grads.dw[0].At(0, 0) = 3.0f;
  grads.dw[0].At(1, 0) = 4.0f;
  EXPECT_NEAR(Adam::GradNorm(grads), 5.0, 1e-6);
}

TEST(AdamTest, StepCountsUpdates) {
  Mlp net({1, 1}, Activation::kLinear, 1);
  Adam adam(&net, Adam::Options{});
  Mlp::Gradients grads = net.MakeGradients();
  adam.Step(grads);
  adam.Step(grads);
  EXPECT_EQ(adam.steps(), 2);
}

}  // namespace
}  // namespace fairmove
