#include "fairmove/nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "fairmove/io/binary.h"
#include "fairmove/nn/simd.h"

namespace fairmove {

namespace {

// Below this many rows per shard the fork/join overhead beats the win on
// these small policy networks. The one threshold of every sharded pass.
constexpr int kMinRowsPerShard = 64;

/// Shards of a `rows`-row pass: one on a null or one-lane pool and for
/// small batches, else up to one per lane.
int ShardCount(int rows, const ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1) return 1;
  return std::clamp(rows / kMinRowsPerShard, 1, pool->num_threads());
}

/// Shard `s` of `n` items split into `shards` balanced contiguous ranges.
struct ShardRange {
  ShardRange(int n, int shards, int s)
      : begin(s * (n / shards) + std::min(s, n % shards)),
        end(begin + n / shards + (s < n % shards ? 1 : 0)) {}
  int begin, end;
};

/// Runs body(s) for every shard: on the caller when there is one (the pool
/// may then be null), else as one region on `pool`. Shards write disjoint
/// ranges only, so the result does not depend on which lane runs which.
template <typename Body>
void ForEachShard(ThreadPool* pool, int shards, const Body& body) {
  if (shards == 1) {
    body(0);
    return;
  }
  pool->ParallelFor(shards, [&body](int64_t s) { body(static_cast<int>(s)); });
}

}  // namespace

Mlp::Mlp(const std::vector<int>& sizes, Activation hidden_activation,
         uint64_t seed)
    : sizes_(sizes), hidden_activation_(hidden_activation) {
  FM_CHECK(sizes.size() >= 2) << "need at least input and output sizes";
  for (int s : sizes) FM_CHECK(s > 0) << "layer size " << s;
  Rng rng(seed);
  weights_.reserve(sizes.size() - 1);
  biases_.reserve(sizes.size() - 1);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    Matrix w(sizes[i], sizes[i + 1]);
    const bool last = i + 2 == sizes.size();
    if (!last && hidden_activation == Activation::kRelu) {
      w.HeInit(rng);
    } else {
      w.XavierInit(rng);
    }
    weights_.push_back(std::move(w));
    biases_.emplace_back(static_cast<size_t>(sizes[i + 1]), 0.0f);
  }
}

void Mlp::AffineRows(int layer, const Matrix& in, int in_begin, int count,
                     Matrix* out, int out_begin) const {
  if (count == 0) return;
  const size_t li = static_cast<size_t>(layer);
  const Matrix& w = weights_[li];
  float* first = out->Row(out_begin);
  std::fill(first, first + static_cast<size_t>(count) * w.cols(), 0.0f);
  const simd::KernelTable& kernels = simd::Kernels();
  kernels.matmul_rows_accumulate(in.Row(in_begin), count, w.data(), w.rows(),
                                 w.cols(), first);
  kernels.add_bias_rows(first, count, w.cols(), biases_[li].data());
}

void Mlp::ActivateRows(float* data, size_t n) const {
  switch (hidden_activation_) {
    case Activation::kLinear:
      return;
    case Activation::kRelu:
      simd::Kernels().relu(data, n);
      return;
    case Activation::kTanh:
      simd::Kernels().tanh(data, n);
      return;
  }
}

void Mlp::ActivationGrad(const float* post, float* delta, size_t n) const {
  switch (hidden_activation_) {
    case Activation::kLinear:
      return;
    case Activation::kRelu:
      simd::Kernels().relu_grad(post, delta, n);
      return;
    case Activation::kTanh:
      simd::Kernels().tanh_grad(post, delta, n);
      return;
  }
}

void Mlp::Forward(const Matrix& x, Matrix* y) const {
  Workspace ws;
  Forward(x, y, &ws);
}

void Mlp::Forward(const Matrix& x, Matrix* y, Workspace* ws) const {
  FM_CHECK(x.cols() == input_dim())
      << "input dim " << x.cols() << " != " << input_dim();
  FM_CHECK(y != &x) << "Forward output must not alias the input";
  y->ResizeForOverwrite(x.rows(), output_dim());
  ForwardRows(x, 0, x.rows(), y, ws);
}

void Mlp::ForwardRows(const Matrix& x, int row_begin, int row_end, Matrix* y,
                      Workspace* ws) const {
  const int len = row_end - row_begin;
  const Matrix* current = &x;
  int base = row_begin;
  for (int layer = 0; layer < num_layers(); ++layer) {
    const size_t li = static_cast<size_t>(layer);
    const bool last = layer + 1 == num_layers();
    const int out_cols = sizes_[li + 1];
    // The last layer writes straight into `y` at the shard's row offset;
    // hidden layers ping-pong between the two shard-local workspace buffers
    // (the alternation guarantees the input of a layer is never its output).
    Matrix* dst = last ? y : &ws->act[li % 2];
    int out_base = row_begin;
    if (!last) {
      dst->ResizeForOverwrite(len, out_cols);
      out_base = 0;
    }
    AffineRows(layer, *current, base, len, dst, out_base);
    if (!last && len > 0) ActivateRows(dst->Row(out_base), len * out_cols);
    current = dst;
    base = 0;
  }
}

void Mlp::Forward(const Matrix& x, Matrix* y, ThreadPool* pool,
                  ShardedWorkspace* ws) const {
  FM_CHECK(x.cols() == input_dim())
      << "input dim " << x.cols() << " != " << input_dim();
  FM_CHECK(y != &x) << "Forward output must not alias the input";
  const int rows = x.rows();
  y->ResizeForOverwrite(rows, output_dim());
  const int shards = ShardCount(rows, pool);
  if (static_cast<int>(ws->shards.size()) < shards) {
    ws->shards.resize(static_cast<size_t>(shards));
  }
  // Shard s writes only its own rows of `y`, with its own workspace.
  ForEachShard(pool, shards, [&](int s) {
    const ShardRange r(rows, shards, s);
    ForwardRows(x, r.begin, r.end, y, &ws->shards[static_cast<size_t>(s)]);
  });
}

std::vector<float> Mlp::Forward1(const std::vector<float>& x) const {
  FM_CHECK(static_cast<int>(x.size()) == input_dim());
  Matrix in(1, input_dim());
  std::copy(x.begin(), x.end(), in.Row(0));
  Matrix out;
  Forward(in, &out);
  return std::vector<float>(out.Row(0), out.Row(0) + out.cols());
}

void Mlp::ForwardTape(const Matrix& x, Tape* tape, ThreadPool* pool) const {
  FM_CHECK(x.cols() == input_dim());
  FM_CHECK(&x != &tape->input) << "ForwardTape input must not be the tape's";
  const int rows = x.rows();
  const size_t layers = static_cast<size_t>(num_layers());
  // Each shard writes every element of its rows before anything reads it,
  // so no buffer is zero-filled first. resize (not assign) keeps existing
  // per-layer matrices alive so their buffers are reused on every pass.
  tape->input.ResizeForOverwrite(rows, input_dim());
  tape->pre.resize(layers);
  tape->post.resize(layers);
  for (size_t li = 0; li < layers; ++li) {
    tape->pre[li].ResizeForOverwrite(rows, sizes_[li + 1]);
    tape->post[li].ResizeForOverwrite(rows, sizes_[li + 1]);
  }
  const int shards = ShardCount(rows, pool);
  ForEachShard(pool, shards, [&](int s) {
    const ShardRange r(rows, shards, s);
    const size_t in = static_cast<size_t>(input_dim());
    std::copy(x.data() + r.begin * in, x.data() + r.end * in,
              tape->input.data() + r.begin * in);
    for (size_t li = 0; li < layers; ++li) {
      const Matrix& input = li == 0 ? tape->input : tape->post[li - 1];
      Matrix& pre = tape->pre[li];
      Matrix& post = tape->post[li];
      const int n = sizes_[li + 1];
      const bool last = li + 1 == layers;
      AffineRows(static_cast<int>(li), input, r.begin, r.end - r.begin, &pre,
                 r.begin);
      const size_t first = static_cast<size_t>(r.begin) * n;
      const size_t end = static_cast<size_t>(r.end) * n;
      std::copy(pre.data() + first, pre.data() + end, post.data() + first);
      if (!last) ActivateRows(post.data() + first, end - first);
    }
  });
}

Mlp::Gradients Mlp::MakeGradients() const {
  Gradients g;
  g.dw.reserve(weights_.size());
  g.db.reserve(biases_.size());
  for (size_t i = 0; i < weights_.size(); ++i) {
    g.dw.emplace_back(weights_[i].rows(), weights_[i].cols());
    g.db.emplace_back(biases_[i].size(), 0.0f);
  }
  return g;
}

void Mlp::Gradients::Zero() {
  for (Matrix& m : dw) m.Zero();
  for (auto& b : db) std::fill(b.begin(), b.end(), 0.0f);
}

void Mlp::Backward(const Tape& tape, const Matrix& grad_output,
                   Gradients* grads) const {
  Workspace ws;
  Backward(tape, grad_output, grads, &ws);
}

void Mlp::Backward(const Tape& tape, const Matrix& grad_output,
                   Gradients* grads, Workspace* ws, ThreadPool* pool) const {
  FM_CHECK(grad_output.cols() == output_dim());
  FM_CHECK(grad_output.rows() == tape.input.rows());
  FM_CHECK(grads->dw.size() == weights_.size());
  const int rows = grad_output.rows();
  const int shards = ShardCount(rows, pool);
  // The propagation runs the forward row kernel against W^T, so it reads
  // contiguous rows instead of gathering one column of W per element.
  ws->wt.resize(weights_.size());
  for (size_t li = 1; li < weights_.size(); ++li) {
    Transpose(weights_[li], &ws->wt[li]);
  }
  const Matrix* delta = &grad_output;  // dL/d(pre) of the current layer
  for (int layer = num_layers() - 1; layer >= 0; --layer) {
    const size_t li = static_cast<size_t>(layer);
    const Matrix& input = layer == 0 ? tape.input : tape.post[li - 1];
    const int in = sizes_[li], out = sizes_[li + 1];
    Matrix& acc_w = grads->dw[li];
    std::vector<float>& acc_b = grads->db[li];
    FM_CHECK(acc_w.rows() == in && acc_w.cols() == out &&
             static_cast<int>(acc_b.size()) == out);
    ws->dw.ResizeForOverwrite(in, out);
    ws->db.resize(static_cast<size_t>(out));
    // The layer below's delta; the two buffers alternate, so it never
    // aliases the current one.
    Matrix* prev = layer > 0 ? &ws->delta[li % 2] : nullptr;
    if (prev != nullptr) prev->ResizeForOverwrite(rows, in);
    const simd::KernelTable& kernels = simd::Kernels();
    ForEachShard(pool, shards, [&](int s) {
      // dW += input^T * delta over this shard's block of dW rows.
      const ShardRange w(in, shards, s);
      if (w.begin < w.end) {
        kernels.matmul_trans_a_rows(input.data(), in, delta->data(), out, rows,
                                    w.begin, w.end, ws->dw.data());
        const size_t first = static_cast<size_t>(w.begin) * out;
        kernels.add(acc_w.data() + first, ws->dw.data() + first,
                    static_cast<size_t>(w.end - w.begin) * out);
      }
      // db += column sums of delta, all in the last shard (the one with
      // the fewest rows): shards summing neighbouring columns would write
      // one cache line of the accumulator from every lane for every row.
      if (s == shards - 1) {
        kernels.column_sums(delta->data(), rows, out, 0, out, ws->db.data());
        kernels.add(acc_b.data(), ws->db.data(), static_cast<size_t>(out));
      }
      if (prev == nullptr) return;
      // delta_prev = (delta * W^T) . f'(post) over this shard's batch rows.
      const ShardRange r(rows, shards, s);
      if (r.begin == r.end) return;
      const size_t first = static_cast<size_t>(r.begin) * in;
      const size_t end = static_cast<size_t>(r.end) * in;
      std::fill(prev->data() + first, prev->data() + end, 0.0f);
      kernels.matmul_rows_accumulate(delta->Row(r.begin), r.end - r.begin,
                                     ws->wt[li].data(), out, in,
                                     prev->data() + first);
      ActivationGrad(tape.post[li - 1].data() + first, prev->data() + first,
                     end - first);
    });
    if (prev != nullptr) delta = prev;
  }
}

void Mlp::CopyParametersFrom(const Mlp& other) {
  FM_CHECK(sizes_ == other.sizes_) << "network shape mismatch";
  weights_ = other.weights_;
  biases_ = other.biases_;
}

void Mlp::SoftUpdateFrom(const Mlp& other, double tau) {
  FM_CHECK(sizes_ == other.sizes_) << "network shape mismatch";
  FM_CHECK(tau >= 0.0 && tau <= 1.0);
  const float t = static_cast<float>(tau);
  for (size_t l = 0; l < weights_.size(); ++l) {
    for (size_t i = 0; i < weights_[l].size(); ++i) {
      weights_[l].data()[i] = (1.0f - t) * weights_[l].data()[i] +
                              t * other.weights_[l].data()[i];
    }
    for (size_t i = 0; i < biases_[l].size(); ++i) {
      biases_[l][i] = (1.0f - t) * biases_[l][i] + t * other.biases_[l][i];
    }
  }
}

size_t Mlp::num_parameters() const {
  size_t n = 0;
  for (const Matrix& w : weights_) n += w.size();
  for (const auto& b : biases_) n += b.size();
  return n;
}

namespace {
constexpr char kMlpMagic[5] = {'F', 'M', 'L', 'P', '1'};
}  // namespace

void Mlp::Save(BinaryWriter* out) const {
  out->WriteBytes(kMlpMagic, sizeof(kMlpMagic));
  out->WriteI32(static_cast<int32_t>(hidden_activation_));
  out->WriteI32(static_cast<int32_t>(sizes_.size()));
  for (int s : sizes_) out->WriteI32(s);
  for (size_t l = 0; l < weights_.size(); ++l) {
    for (size_t i = 0; i < weights_[l].size(); ++i) {
      out->WriteF32(weights_[l].data()[i]);
    }
    for (float b : biases_[l]) out->WriteF32(b);
  }
}

StatusOr<Mlp> Mlp::Load(BinaryReader* in) {
  char magic[sizeof(kMlpMagic)];
  if (!in->ReadBytes(magic, sizeof(magic)).ok() ||
      std::memcmp(magic, kMlpMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not an FMLP1 network blob");
  }
  int32_t activation = 0, num_sizes = 0;
  FM_RETURN_IF_ERROR(in->ReadI32(&activation));
  FM_RETURN_IF_ERROR(in->ReadI32(&num_sizes));
  if (activation < 0 || activation > 2 || num_sizes < 2 ||
      num_sizes > 64) {
    return Status::InvalidArgument("corrupt MLP header");
  }
  std::vector<int> sizes;
  uint64_t declared = 0;  // parameters; <= 63 * (2^20 + 1) * 2^20, no overflow
  for (int i = 0; i < num_sizes; ++i) {
    int32_t s = 0;
    FM_RETURN_IF_ERROR(in->ReadI32(&s));
    if (s <= 0 || s > 1 << 20) {
      return Status::InvalidArgument("corrupt MLP layer size");
    }
    if (i > 0) {
      declared += static_cast<uint64_t>(sizes.back() + 1) *
                  static_cast<uint64_t>(s);
    }
    sizes.push_back(s);
  }
  // The header is untrusted: a corrupt one could declare terabytes of
  // parameters, so nothing is allocated until the bytes are known to exist.
  if (declared > in->remaining() / sizeof(float)) {
    return Status::InvalidArgument(
        "truncated MLP parameters: header declares " +
        std::to_string(declared) + ", blob holds " +
        std::to_string(in->remaining() / sizeof(float)));
  }
  // Mirror of the Adam non-finite-gradient skip, applied at load time: a
  // NaN/Inf parameter would poison every later forward pass silently, so a
  // blob carrying one is rejected here instead of trusted.
  const auto read_finite = [in](float* v, size_t layer) {
    FM_RETURN_IF_ERROR(in->ReadF32(v));
    if (std::isfinite(*v)) return Status::OK();
    return Status::InvalidArgument("non-finite parameter in MLP blob (layer " +
                                   std::to_string(layer) + ")");
  };
  Mlp net(sizes, static_cast<Activation>(activation), /*seed=*/0);
  for (size_t l = 0; l < net.weights_.size(); ++l) {
    for (size_t i = 0; i < net.weights_[l].size(); ++i) {
      FM_RETURN_IF_ERROR(read_finite(&net.weights_[l].data()[i], l));
    }
    for (float& b : net.biases_[l]) FM_RETURN_IF_ERROR(read_finite(&b, l));
  }
  return net;
}

StatusOr<Mlp> LoadNetLike(BinaryReader* in, const Mlp& like,
                          std::string_view what) {
  FM_ASSIGN_OR_RETURN(Mlp net, Mlp::Load(in));
  // The full architecture, not just the outer dims: a net with the right
  // input/output widths but foreign hidden layers or activation (e.g. a
  // DQN-shaped net offered as an actor) would load and behave arbitrarily.
  if (net.layer_sizes() != like.layer_sizes() ||
      net.hidden_activation() != like.hidden_activation()) {
    return Status::InvalidArgument(
        std::string(what) +
        " does not match this policy's architecture (layer sizes or "
        "hidden activation)");
  }
  return net;
}

void WriteNet(const Mlp& net, BinaryWriter* out) {
  BinaryWriter blob;
  net.Save(&blob);
  out->WriteString(blob.str());
}

StatusOr<Mlp> ReadNetLike(BinaryReader* in, const Mlp& like,
                          std::string_view what) {
  std::string blob;
  FM_RETURN_IF_ERROR(in->ReadString(&blob));
  BinaryReader blob_in(blob);
  return LoadNetLike(&blob_in, like, what);
}

void MaskedSoftmax(const std::vector<bool>& valid,
                   std::vector<float>* logits) {
  FM_CHECK(valid.size() == logits->size());
  MaskedSoftmax(valid, logits->data(), logits->size());
}

void MaskedSoftmax(const std::vector<bool>& valid, float* logits, size_t n) {
  FM_CHECK(valid.size() == n);
  float max_logit = -1e30f;
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    if (valid[i]) {
      max_logit = std::max(max_logit, logits[i]);
      any = true;
    }
  }
  FM_CHECK(any) << "masked softmax with no valid action";
  float total = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    if (valid[i]) {
      logits[i] = std::exp(logits[i] - max_logit);
      total += logits[i];
    } else {
      logits[i] = 0.0f;
    }
  }
  for (size_t i = 0; i < n; ++i) logits[i] /= total;
}

}  // namespace fairmove
