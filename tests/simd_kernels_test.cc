// Kernel-equivalence suite for the NN kernel tables (nn/simd.h). The
// library's documented contract is that the ISA changes throughput, never
// bits: every output element accumulates its k contributions in ascending-p
// order, one unfused IEEE op per contribution, and NaN/Inf propagate
// exactly as in the scalar loops. Each test runs under every kernel table
// the host supports (pinned through the test-only hook) and compares the
// kernels bit-for-bit (memcmp of float bits, so -0.0f vs 0.0f and differing
// NaN payloads fail) against a naive scalar triple loop written here, across
// shapes chosen to exercise every code path: p-remainders (k % 4 != 0),
// j-lane tails (n % lane width != 0), the kColBlock=256 column tiling
// (n > 256), and non-finite inputs. The threaded tests pin the same
// property through Mlp::Forward at 1 and 4 threads, and through the
// row-sharded training passes (ForwardTape, Backward) at 1 to 4 lanes
// against a naive reference of the whole taped pass and its gradients.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "fairmove/common/parallel.h"
#include "fairmove/nn/matrix.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/nn/simd.h"

namespace fairmove {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Runs `body` once under every kernel table this host supports, each
/// pinned through the test-only hook. A compiled table the host cannot run
/// (AVX2 on an older x86-64) is skipped with a message, and
/// SimdKernelTables.ActiveTableIsTheWidestTheHostRuns reports itself
/// skipped.
template <typename Body>
void UnderEveryTable(const Body& body) {
  for (const simd::KernelTable* table : simd::CompiledTables()) {
    if (!simd::HostSupports(*table)) {
      std::printf("[  SKIPPED ] %s kernel table: this host cannot run it\n",
                  table->name);
      continue;
    }
    simd::ScopedKernelTableForTesting pin(*table);
    SCOPED_TRACE(std::string("kernel table ") + table->name);
    body();
  }
}

bool BitEqual(float x, float y) {
  uint32_t xb, yb;
  std::memcpy(&xb, &x, 4);
  std::memcpy(&yb, &y, 4);
  return xb == yb;
}

void ExpectBitEqual(const Matrix& got, const Matrix& want,
                    const char* label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  for (int i = 0; i < got.rows(); ++i) {
    for (int j = 0; j < got.cols(); ++j) {
      ASSERT_TRUE(BitEqual(got.At(i, j), want.At(i, j)))
          << label << " mismatch at (" << i << ", " << j
          << "): " << got.At(i, j) << " vs " << want.At(i, j);
    }
  }
}

/// Deterministic fill mixing magnitudes and signs (plus exact zeros, which
/// matter for the no-zero-skip x NaN contract).
void Fill(Matrix* m, uint64_t salt) {
  uint64_t state = 0x9E3779B97F4A7C15ULL ^ salt;
  for (size_t i = 0; i < m->size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const int bucket = static_cast<int>(state >> 61);
    const double u =
        static_cast<double>(state >> 11) / 9007199254740992.0;  // [0, 1)
    float v;
    if (bucket == 0) {
      v = 0.0f;
    } else if (bucket == 1) {
      v = static_cast<float>((u - 0.5) * 1e-6);
    } else if (bucket == 2) {
      v = static_cast<float>((u - 0.5) * 1e6);
    } else {
      v = static_cast<float>(u * 4.0 - 2.0);
    }
    m->data()[i] = v;
  }
}

// --- Naive ascending-p references (the documented element order) ---------

void RefMatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Resize(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < a.cols(); ++p) acc += a.At(i, p) * b.At(p, j);
      out->Row(i)[j] = acc;
    }
  }
}

void RefMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  out->Resize(a.cols(), b.cols());
  for (int i = 0; i < a.cols(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < a.rows(); ++p) acc += a.At(p, i) * b.At(p, j);
      out->Row(i)[j] = acc;
    }
  }
}

struct Shape {
  int m, k, n;
};

/// Shapes covering: lane tails (n % 4 and n % 8 nonzero), p-remainders
/// (k % 4 != 0), single rows/columns, and the kColBlock=256 column tile
/// boundary (n = 256, 257, 300).
const Shape kShapes[] = {
    {1, 1, 1},   {1, 4, 8},    {3, 7, 5},    {5, 13, 65}, {2, 5, 3},
    {4, 16, 32}, {3, 9, 256},  {2, 11, 257}, {2, 6, 300}, {7, 31, 33},
};

TEST(SimdKernelEquivalence, MatMulMatchesNaiveReferenceBitForBit) {
  UnderEveryTable([&] {
    for (const Shape& s : kShapes) {
      Matrix a(s.m, s.k), b(s.k, s.n);
      Fill(&a, 1);
      Fill(&b, 2);
      Matrix got, want;
      MatMul(a, b, &got);
      RefMatMul(a, b, &want);
      ExpectBitEqual(got, want, "MatMul");
    }
  });
}

TEST(SimdKernelEquivalence, MatMulTransAMatchesNaiveReferenceBitForBit) {
  UnderEveryTable([&] {
    for (const Shape& s : kShapes) {
      Matrix a(s.k, s.m), b(s.k, s.n);  // a is [k x m]: out = a^T b
      Fill(&a, 3);
      Fill(&b, 4);
      Matrix got, want;
      MatMulTransA(a, b, &got);
      RefMatMulTransA(a, b, &want);
      ExpectBitEqual(got, want, "MatMulTransA");
      // The same product as three ragged row blocks over stale contents: each
      // block starts from zero and touches only its own rows.
      Matrix blocks(s.m, s.n);
      Fill(&blocks, 5);
      const int cut1 = s.m / 3, cut2 = (2 * s.m) / 3 + 1;
      const int cuts[] = {0, cut1, std::min(cut2, s.m), s.m};
      for (int c = 0; c < 3; ++c) {
        simd::Kernels().matmul_trans_a_rows(a.data(), s.m, b.data(), s.n, s.k,
                                            cuts[c], cuts[c + 1],
                                            blocks.data());
      }
      ExpectBitEqual(blocks, want, "matmul_trans_a_rows");
    }
  });
}

// Non-finite coverage is split into a NaN pass and an Inf pass on purpose.
// When two DIFFERENT NaN bit patterns meet in one add (e.g. the x86
// indefinite 0xFFC00000 from 0 * Inf against a propagated quiet NaN
// 0x7FC00000), the surviving payload is chosen by instruction operand
// order, which neither IEEE 754 nor the compiler pins — the same source
// expression can legally resolve either way under register allocation. The
// kernels' contract covers contribution ORDER and propagation, not payload
// arbitration between distinct NaNs, so each pass plants non-finites such
// that every NaN reaching a given output element carries one well-defined
// bit pattern; within that, the comparison is still bit-for-bit.

TEST(SimdKernelEquivalence, NaNInputsPropagateBitForBit) {
  UnderEveryTable([&] {
    // Quiet NaNs in both operands, placed to hit vector lanes and scalar
    // tails, plus an exact zero against a NaN (the documented no-zero-skip
    // case: 0 * NaN must poison the output, not be dropped). Every planted
    // NaN is the default quiet NaN, and x86 mul/add preserve a lone NaN
    // operand's payload, so all collisions are same-bits and harmless.
    const Shape shapes[] = {{3, 7, 5}, {2, 9, 300}, {4, 13, 31}};
    for (const Shape& s : shapes) {
      Matrix a(s.m, s.k), b(s.k, s.n);
      Fill(&a, 7);
      Fill(&b, 8);
      a.Row(0)[s.k - 1] = kNaN;      // poisons output row 0
      b.Row(s.k - 1)[s.n - 1] = kNaN;  // poisons output column n-1
      // 0 * NaN: zero on the a side, NaN on the b side of the same p.
      a.Row(0)[0] = 0.0f;
      b.Row(0)[0] = kNaN;  // poisons output column 0 — including (0, 0)
      Matrix got, want;
      MatMul(a, b, &got);
      RefMatMul(a, b, &want);
      ExpectBitEqual(got, want, "MatMul NaN");
      EXPECT_TRUE(std::isnan(got.At(0, 0))) << "0 * NaN was zero-skipped";
    }
  });
}

TEST(SimdKernelEquivalence, InfInputsPropagateBitForBit) {
  UnderEveryTable([&] {
    // Infinities only: products saturate to +/-Inf, and the invalid forms
    // (0 * Inf from the Fill's exact zeros, Inf - Inf from opposite-signed
    // contributions) all generate the one x86 indefinite QNaN — so every NaN
    // that can arise shares a single bit pattern and the bitwise comparison
    // stays well-defined.
    const Shape shapes[] = {{3, 7, 5}, {2, 9, 300}, {4, 13, 31}};
    for (const Shape& s : shapes) {
      Matrix a(s.m, s.k), b(s.k, s.n);
      Fill(&a, 7);
      Fill(&b, 8);
      a.Row(s.m - 1)[0] = kInf;
      a.Row(s.m / 2)[s.k / 2] = -kInf;
      b.Row(0)[s.n / 2] = kInf;
      Matrix got, want;
      MatMul(a, b, &got);
      RefMatMul(a, b, &want);
      ExpectBitEqual(got, want, "MatMul Inf");
    }
  });
}

TEST(SimdKernelEquivalence, FastTanhNMatchesScalarFastTanhBitForBit) {
  UnderEveryTable([&] {
    // Odd length so the vector loop leaves a scalar tail; values cover both
    // clamp branches, the saturation region, tiny inputs, zeros and NaN/Inf
    // in vector-lane positions.
    std::vector<float> values;
    for (int i = 0; i < 1003; ++i) {
      values.push_back(static_cast<float>(i - 501) * 0.031f);
    }
    values[8] = kNaN;
    values[9] = -kNaN;
    values[16] = kInf;
    values[17] = -kInf;
    values[24] = 0.0f;
    values[25] = -0.0f;
    values[32] = 11.0f;    // above the +10 clamp
    values[33] = -11.0f;   // below the -10 clamp
    values[40] = 1e-20f;   // subnormal-adjacent
    std::vector<float> got = values;
    simd::Kernels().tanh(got.data(), got.size());
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_TRUE(BitEqual(got[i], FastTanh(values[i])))
          << "tanh kernel mismatch at " << i << " for input " << values[i]
          << ": " << got[i] << " vs " << FastTanh(values[i]);
    }
  });
}

TEST(SimdKernelEquivalence, ThreadedForwardBitIdenticalAcrossThreadCounts) {
  UnderEveryTable([&] {
    // 200 rows forces multiple shards at 4 threads (kMinRowsPerShard = 64).
    // Every (pool, shard count) must reproduce the serial result bit-for-bit
    // because each row runs the identical per-row kernel.
    Mlp net({19, 32, 32, 7}, Activation::kTanh, /*seed=*/99);
    Matrix x(200, 19);
    Fill(&x, 11);
    x.Row(3)[5] = kNaN;  // a poisoned row must poison identically everywhere

    Matrix serial;
    net.Forward(x, &serial);
    for (int threads : {1, 4}) {
      ThreadPool pool(threads);
      Mlp::ShardedWorkspace ws;
      Matrix threaded;
      net.Forward(x, &threaded, &pool, &ws);
      ExpectBitEqual(threaded, serial, "threaded Forward");
    }
  });
}

// --- Row-sharded training passes against a naive reference -------------

/// The taped pass and its gradients, computed with plain ascending-index
/// loops in the documented per-element order: pre = (0 + sum_p in*W) + b,
/// post = f(pre); the gradients start from zero (as MakeGradients leaves
/// them) and each adds one from-zero sum over the batch rows; the delta
/// below a layer is the from-zero sum_q delta*W (ascending q), then f'.
struct RefPass {
  std::vector<Matrix> pre, post, dw;
  std::vector<std::vector<float>> db;
};

RefPass RefTrainingPass(const Mlp& net, const Matrix& x, const Matrix& grad) {
  const int layers = net.num_layers();
  const int rows = x.rows();
  const auto activate = [&net](float v) {
    switch (net.hidden_activation()) {
      case Activation::kRelu:
        return 0.0f < v ? v : 0.0f;
      case Activation::kTanh:
        return FastTanh(v);
      case Activation::kLinear:
        break;
    }
    return v;
  };
  RefPass ref;
  ref.pre.resize(static_cast<size_t>(layers));
  ref.post.resize(static_cast<size_t>(layers));
  ref.dw.resize(static_cast<size_t>(layers));
  ref.db.resize(static_cast<size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    const Matrix& in = l == 0 ? x : ref.post[static_cast<size_t>(l - 1)];
    const Matrix& w = net.weights()[static_cast<size_t>(l)];
    const std::vector<float>& b = net.biases()[static_cast<size_t>(l)];
    Matrix& pre = ref.pre[static_cast<size_t>(l)];
    Matrix& post = ref.post[static_cast<size_t>(l)];
    pre.Resize(rows, w.cols());
    post.Resize(rows, w.cols());
    for (int r = 0; r < rows; ++r) {
      for (int j = 0; j < w.cols(); ++j) {
        float acc = 0.0f;
        for (int p = 0; p < w.rows(); ++p) acc += in.At(r, p) * w.At(p, j);
        acc += b[static_cast<size_t>(j)];
        pre.At(r, j) = acc;
        post.At(r, j) = l + 1 == layers ? acc : activate(acc);
      }
    }
  }
  Matrix delta = grad;
  for (int l = layers - 1; l >= 0; --l) {
    const Matrix& in = l == 0 ? x : ref.post[static_cast<size_t>(l - 1)];
    const Matrix& w = net.weights()[static_cast<size_t>(l)];
    Matrix& dw = ref.dw[static_cast<size_t>(l)];
    std::vector<float>& db = ref.db[static_cast<size_t>(l)];
    dw.Resize(w.rows(), w.cols());
    db.assign(static_cast<size_t>(w.cols()), 0.0f);
    for (int i = 0; i < w.rows(); ++i) {
      for (int j = 0; j < w.cols(); ++j) {
        float acc = 0.0f;
        for (int p = 0; p < rows; ++p) acc += in.At(p, i) * delta.At(p, j);
        dw.At(i, j) += acc;
      }
    }
    for (int j = 0; j < w.cols(); ++j) {
      float acc = 0.0f;
      for (int p = 0; p < rows; ++p) acc += delta.At(p, j);
      db[static_cast<size_t>(j)] += acc;
    }
    if (l == 0) break;
    const Matrix& post = ref.post[static_cast<size_t>(l - 1)];
    Matrix prev(rows, w.rows());
    for (int p = 0; p < rows; ++p) {
      for (int i = 0; i < w.rows(); ++i) {
        float acc = 0.0f;
        for (int q = 0; q < w.cols(); ++q) acc += delta.At(p, q) * w.At(i, q);
        const float t = post.At(p, i);
        if (net.hidden_activation() == Activation::kRelu) {
          if (t <= 0.0f) acc = 0.0f;
        } else if (net.hidden_activation() == Activation::kTanh) {
          acc *= 1.0f - t * t;
        }
        prev.At(p, i) = acc;
      }
    }
    delta = std::move(prev);
  }
  return ref;
}

/// Byte-compares the sharded ForwardTape and Backward of `net` on pools of
/// 1 to 4 lanes with the reference. One tape, workspace and gradient set
/// serve every lane count, so stale contents from a differently sharded
/// pass must not leak into the next.
void ExpectTrainingPassesMatchReference(const Mlp& net, const Matrix& x,
                                        const Matrix& grad,
                                        const std::string& label) {
  const RefPass ref = RefTrainingPass(net, x, grad);
  Mlp::Tape tape;
  Mlp::Workspace ws;
  Mlp::Gradients grads = net.MakeGradients();
  for (int lanes = 1; lanes <= 4; ++lanes) {
    ThreadPool pool(lanes);
    const std::string where = label + " at " + std::to_string(lanes) +
                              " lanes, " + std::to_string(x.rows()) + " rows";
    net.ForwardTape(x, &tape, &pool);
    grads.Zero();
    net.Backward(tape, grad, &grads, &ws, &pool);
    for (size_t l = 0; l < ref.pre.size(); ++l) {
      const std::string layer = where + ", layer " + std::to_string(l);
      ExpectBitEqual(tape.pre[l], ref.pre[l], (layer + " pre").c_str());
      ExpectBitEqual(tape.post[l], ref.post[l], (layer + " post").c_str());
      ExpectBitEqual(grads.dw[l], ref.dw[l], (layer + " dw").c_str());
      ASSERT_EQ(grads.db[l].size(), ref.db[l].size()) << layer;
      for (size_t j = 0; j < ref.db[l].size(); ++j) {
        ASSERT_TRUE(BitEqual(grads.db[l][j], ref.db[l][j]))
            << layer << " db mismatch at " << j << ": " << grads.db[l][j]
            << " vs " << ref.db[l][j];
      }
    }
  }
}

/// The paper's network shapes: 40 features, two 64-wide hidden layers, a
/// 1-wide (critic) or 14-wide (actor) linear head.
Mlp PolicyShapedNet(Activation activation, int out) {
  return Mlp({40, 64, 64, out}, activation, /*seed=*/7 + out);
}

// Row counts straddle the 64-rows-per-shard threshold (1 and 63 stay one
// shard, 129 is the first two-shard batch), and 3,500 is the paper's batch,
// split raggedly at 3 lanes.
TEST(SimdKernelEquivalence, ShardedTrainingPassesMatchNaiveReference) {
  UnderEveryTable([&] {
    for (Activation activation : {Activation::kRelu, Activation::kTanh}) {
      for (int out : {1, 14}) {
        const Mlp net = PolicyShapedNet(activation, out);
        for (int rows : {1, 63, 64, 65, 129, 3500}) {
          Matrix x(rows, 40), grad(rows, out);
          Fill(&x, 20 + static_cast<uint64_t>(rows));
          Fill(&grad, 30 + static_cast<uint64_t>(rows));
          ExpectTrainingPassesMatchReference(
              net, x, grad,
              std::string(activation == Activation::kRelu ? "relu" : "tanh") +
                  " out=" + std::to_string(out));
        }
      }
    }
  });
}

// Non-finite weights in the output layer: the forward pass poisons only
// that head column, and the hidden layers' gradients see them only through
// the propagated delta (delta * W^T). As in the kernel tests above, NaN and
// Inf run separately so every NaN in one pass shares one bit pattern.
TEST(SimdKernelEquivalence, NaNWeightsPropagateThroughShardedBackward) {
  UnderEveryTable([&] {
    for (Activation activation : {Activation::kRelu, Activation::kTanh}) {
      for (int out : {1, 14}) {
        Mlp net = PolicyShapedNet(activation, out);
        Matrix& head = net.weights().back();
        head.At(3, out - 1) = kNaN;
        head.At(40, 0) = kNaN;
        for (int rows : {65, 200}) {
          Matrix x(rows, 40), grad(rows, out);
          Fill(&x, 40 + static_cast<uint64_t>(rows));
          Fill(&grad, 50 + static_cast<uint64_t>(rows));
          ExpectTrainingPassesMatchReference(net, x, grad, "NaN head");
        }
      }
    }
  });
}

TEST(SimdKernelEquivalence, InfWeightsPropagateThroughShardedBackward) {
  UnderEveryTable([&] {
    for (Activation activation : {Activation::kRelu, Activation::kTanh}) {
      for (int out : {1, 14}) {
        Mlp net = PolicyShapedNet(activation, out);
        Matrix& head = net.weights().back();
        head.At(3, out - 1) = kInf;
        head.At(40, 0) = -kInf;
        for (int rows : {65, 200}) {
          Matrix x(rows, 40), grad(rows, out);
          Fill(&x, 60 + static_cast<uint64_t>(rows));
          Fill(&grad, 70 + static_cast<uint64_t>(rows));
          ExpectTrainingPassesMatchReference(net, x, grad, "Inf head");
        }
      }
    }
  });
}

// The elementwise kernels of the training passes against their scalar
// loops, on odd lengths (lane tails) with -0, NaN and Inf planted in vector
// lanes. Each NaN input meets no other NaN, so every result has one
// well-defined bit pattern.
TEST(SimdKernelEquivalence, ElementwiseKernelsMatchScalarLoopsBitForBit) {
  const size_t n = 77;
  std::vector<float> post(n), delta(n), x(n);
  Matrix noise(3, static_cast<int>(n));
  Fill(&noise, 90);
  for (size_t i = 0; i < n; ++i) {
    post[i] = noise.At(0, static_cast<int>(i));
    delta[i] = noise.At(1, static_cast<int>(i));
    x[i] = noise.At(2, static_cast<int>(i));
  }
  post[1] = -0.0f;
  post[2] = kNaN;
  post[9] = kInf;
  delta[3] = kNaN;
  delta[10] = -kInf;
  x[4] = -0.0f;
  x[5] = kNaN;
  x[11] = kInf;
  UnderEveryTable([&] {
    const simd::KernelTable& k = simd::Kernels();
    std::vector<float> got = x;
    k.relu(got.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEqual(got[i], std::max(0.0f, x[i]))) << "relu at " << i;
    }
    got = delta;
    k.relu_grad(post.data(), got.data(), n);
    for (size_t i = 0; i < n; ++i) {
      const float want = post[i] <= 0.0f ? 0.0f : delta[i];
      ASSERT_TRUE(BitEqual(got[i], want)) << "relu_grad at " << i;
    }
    got = delta;
    k.tanh_grad(post.data(), got.data(), n);
    for (size_t i = 0; i < n; ++i) {
      const float want = delta[i] * (1.0f - post[i] * post[i]);
      ASSERT_TRUE(BitEqual(got[i], want)) << "tanh_grad at " << i;
    }
    got = delta;
    k.add(got.data(), x.data(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(BitEqual(got[i], delta[i] + x[i])) << "add at " << i;
    }
    // Seven rows of 11: add_bias_rows adds x's first 11 values to each row,
    // column_sums sums columns [2, 10) from zero.
    const int rows = 7, cols = 11;
    got = delta;
    k.add_bias_rows(got.data(), rows, cols, x.data());
    for (int r = 0; r < rows; ++r) {
      for (int j = 0; j < cols; ++j) {
        const size_t i = static_cast<size_t>(r * cols + j);
        ASSERT_TRUE(BitEqual(got[i], delta[i] + x[static_cast<size_t>(j)]))
            << "add_bias_rows at (" << r << ", " << j << ")";
      }
    }
    std::vector<float> sums(static_cast<size_t>(cols), 123.0f);
    k.column_sums(delta.data(), rows, cols, 2, 10, sums.data());
    for (int j = 0; j < cols; ++j) {
      float want = 123.0f;  // outside the column range: untouched
      if (j >= 2 && j < 10) {
        want = 0.0f;
        for (int r = 0; r < rows; ++r) {
          want += delta[static_cast<size_t>(r * cols + j)];
        }
      }
      ASSERT_TRUE(BitEqual(sums[static_cast<size_t>(j)], want))
          << "column_sums at " << j;
    }
  });
}

TEST(SimdKernelEquivalence, ReportsActiveBackend) {
  // Not an assertion — makes the table the library picked visible in the
  // test log, so a CI run shows which ISA the default path runs.
  RecordProperty("simd_backend", simd::kIsaName);
  RecordProperty("float_lanes", simd::Kernels().float_lanes);
  SUCCEED() << "simd backend: " << simd::kIsaName
            << " (lanes=" << simd::Kernels().float_lanes << ")";
}

// The library runs the widest table the host supports, kIsaName names the
// table in place, and the test hook swaps it and restores it. Skips, with a
// message, when the build holds a table this host cannot run, whose cases
// every test above then skipped.
TEST(SimdKernelTables, ActiveTableIsTheWidestTheHostRuns) {
  const simd::KernelTable* widest = nullptr;
  std::string unsupported;
  for (const simd::KernelTable* table : simd::CompiledTables()) {
    if (simd::HostSupports(*table)) {
      widest = table;
    } else {
      unsupported += std::string(" ") + table->name;
    }
  }
  ASSERT_NE(widest, nullptr);
  EXPECT_STREQ(simd::kIsaName, widest->name);
  EXPECT_EQ(simd::Kernels().matmul_rows_accumulate,
            widest->matmul_rows_accumulate);
  {
    simd::ScopedKernelTableForTesting pin(simd::scalar::kTable);
    EXPECT_STREQ(simd::kIsaName, "scalar");
    EXPECT_EQ(simd::Kernels().float_lanes, 1);
  }
  EXPECT_STREQ(simd::kIsaName, widest->name);
  if (!unsupported.empty()) {
    GTEST_SKIP() << "this host cannot run the" << unsupported
                 << " kernel table; its equivalence cases were skipped";
  }
}

}  // namespace
}  // namespace fairmove
