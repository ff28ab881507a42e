#ifndef FAIRMOVE_NN_MLP_H_
#define FAIRMOVE_NN_MLP_H_

#include <string_view>
#include <vector>

#include "fairmove/common/parallel.h"
#include "fairmove/common/status.h"
#include "fairmove/nn/matrix.h"

namespace fairmove {

class BinaryReader;
class BinaryWriter;

enum class Activation : uint8_t { kLinear = 0, kRelu = 1, kTanh = 2 };

/// Fully connected feed-forward network with a linear output layer.
/// Supports batched forward passes and tape-based backprop; parameters are
/// updated externally (see Adam). This is the function approximator behind
/// CMA2C's actor/critic and the DQN baseline.
class Mlp {
 public:
  /// `sizes` = {input, hidden..., output}; at least {in, out}. All hidden
  /// layers use `hidden_activation`.
  Mlp(const std::vector<int>& sizes, Activation hidden_activation,
      uint64_t seed);

  int input_dim() const { return sizes_.front(); }
  int output_dim() const { return sizes_.back(); }
  int num_layers() const { return static_cast<int>(weights_.size()); }
  /// Full architecture: {input, hidden..., output}.
  const std::vector<int>& layer_sizes() const { return sizes_; }
  Activation hidden_activation() const { return hidden_activation_; }

  /// Reusable scratch buffers for Forward/Backward. Matrices keep their
  /// capacity across calls, so once shapes have stabilised (same batch
  /// size), every pass through the same workspace is allocation-free.
  struct Workspace {
    Matrix act[2];         // ping-pong hidden activations (Forward)
    Matrix delta[2];       // ping-pong propagated dL/d(pre) (Backward)
    Matrix dw;             // per-layer weight gradient (Backward)
    std::vector<float> db;
    std::vector<Matrix> wt;  // W^T per layer, the propagation operand
  };

  /// Inference for a single input vector.
  std::vector<float> Forward1(const std::vector<float>& x) const;

  /// Batched inference: `x` is [batch x input_dim], `y` [batch x out_dim].
  /// `y` must not alias `x`. Bit-exactness invariant: row i of `y` is
  /// bit-identical to Forward1 of row i — per-row accumulation order is
  /// independent of the batch size (see MatMul), which is what keeps
  /// batched decision paths on the seed's deterministic trajectory.
  void Forward(const Matrix& x, Matrix* y) const;
  /// Same, reusing `ws` so the steady-state pass does zero heap allocation.
  void Forward(const Matrix& x, Matrix* y, Workspace* ws) const;

  /// One Workspace per row shard, so concurrent shards never share scratch.
  /// Shard count stabilises after the first call (same batch size and pool
  /// → same shards → warm, allocation-free buffers).
  struct ShardedWorkspace {
    std::vector<Workspace> shards;
  };

  /// Row-sharded batched inference: contiguous row ranges of `x` are
  /// processed concurrently on `pool`, each shard running the same
  /// order-pinned per-row kernel (matmul_rows_accumulate) into its own rows
  /// of `y` with its own Workspace. Because every output row is computed by
  /// the identical per-row instruction sequence, the result is bit-identical
  /// to the serial Forward for every pool size and shard count. Falls back
  /// to one shard below 64 rows per shard (sharding overhead would
  /// dominate) or on a one-lane/null pool; ForwardTape and Backward shard
  /// by the same rule.
  void Forward(const Matrix& x, Matrix* y, ThreadPool* pool,
               ShardedWorkspace* ws) const;

  /// Cached activations of one batched forward pass, consumed by Backward.
  /// Buffers are reused across calls (same shapes -> no allocation).
  struct Tape {
    Matrix input;
    std::vector<Matrix> pre;   // pre-activation of each layer
    std::vector<Matrix> post;  // post-activation of each layer
  };
  /// Taped batched forward pass. With a `pool`, contiguous row shards run
  /// concurrently, one region for every layer: each shard takes its rows
  /// through the affine step (ascending-p accumulation from zero, then the
  /// bias), the copy into `post` and the activation. Every element gets the
  /// serial pass's op sequence, so the tape is bit-identical at any lane
  /// count. `x` must not be `tape->input`.
  void ForwardTape(const Matrix& x, Tape* tape,
                   ThreadPool* pool = nullptr) const;
  /// The network output of a taped pass.
  const Matrix& Output(const Tape& tape) const { return tape.post.back(); }

  /// Per-parameter gradient accumulators (same shapes as the parameters).
  struct Gradients {
    std::vector<Matrix> dw;
    std::vector<std::vector<float>> db;
    void Zero();
  };
  Gradients MakeGradients() const;

  /// Backprop of dL/d(output) through the taped pass; accumulates into
  /// `grads` (call grads->Zero() between batches unless accumulating).
  void Backward(const Tape& tape, const Matrix& grad_output,
                Gradients* grads) const;
  /// Same, reusing `ws` scratch so steady-state backprop does zero heap
  /// allocation. With a `pool`, each layer is one region of disjoint
  /// shards: a block of dW rows (input^T * delta, every element summing the
  /// batch rows in ascending order from zero) and a block of batch rows of
  /// the propagated delta (delta * W^T through the forward row kernel
  /// against a transposed copy of W, with the activation derivative applied
  /// in the same pass); the last shard also sums db. The gradients are
  /// bit-identical at any lane count.
  void Backward(const Tape& tape, const Matrix& grad_output, Gradients* grads,
                Workspace* ws, ThreadPool* pool = nullptr) const;

  // --- Parameter access (optimizer / target-network support) -------------
  std::vector<Matrix>& weights() { return weights_; }
  const std::vector<Matrix>& weights() const { return weights_; }
  std::vector<std::vector<float>>& biases() { return biases_; }
  const std::vector<std::vector<float>>& biases() const { return biases_; }

  /// Copies parameters from another identically shaped network (target-
  /// network sync). CHECK-fails on shape mismatch.
  void CopyParametersFrom(const Mlp& other);

  /// Polyak soft update: params <- (1 - tau) * params + tau * other.
  void SoftUpdateFrom(const Mlp& other, double tau);

  size_t num_parameters() const;

  // --- Serialization (FMLP1, via io/binary) -----------------------------
  /// Appends the FMLP1 encoding: magic "FMLP1", i32 hidden activation, i32
  /// layer count, one i32 per layer size, then each layer's weights followed
  /// by its biases as f32. Several networks may follow one another in one
  /// writer (the CMA2C model file holds the actor, then the critic).
  void Save(BinaryWriter* out) const;
  /// Mirror of Save. Rejects a bad magic, a corrupt header, a header that
  /// declares more parameters than the bytes left (checked before anything
  /// is allocated), and any non-finite parameter.
  static StatusOr<Mlp> Load(BinaryReader* in);

 private:
  /// Rows [out_begin, out_begin + count) of `out` = the `count` rows of
  /// `in` from `in_begin`, times W plus b of `layer`: per element,
  /// ascending-p accumulation from zero (matmul_rows_accumulate), then the
  /// bias add. The one affine step of every forward pass.
  void AffineRows(int layer, const Matrix& in, int in_begin, int count,
                  Matrix* out, int out_begin) const;
  /// In-place hidden activation of `n` consecutive values.
  void ActivateRows(float* data, size_t n) const;
  /// delta[i] *= the hidden activation's derivative at post[i], i < n.
  void ActivationGrad(const float* post, float* delta, size_t n) const;

  /// Runs rows [row_begin, row_end) of `x` through the network into the
  /// same rows of `y` (which must already be sized [x.rows() x output_dim]).
  /// Each layer runs AffineRows then ActivateRows, the same per-element op
  /// sequence as ForwardTape, which is what makes sharded and serial passes
  /// bit-identical.
  void ForwardRows(const Matrix& x, int row_begin, int row_end, Matrix* y,
                   Workspace* ws) const;

  std::vector<int> sizes_;
  Activation hidden_activation_;
  std::vector<Matrix> weights_;             // [in x out] per layer
  std::vector<std::vector<float>> biases_;  // [out] per layer
};

/// Mlp::Load, then checks that the network has `like`'s layer sizes and
/// hidden activation; `what` names it in the error ("actor", "Q-network").
StatusOr<Mlp> LoadNetLike(BinaryReader* in, const Mlp& like,
                          std::string_view what);

/// Writes `net` as one length-prefixed FMLP1 blob: how a network nests
/// inside the CA21/DQN1/TBA1 state records.
void WriteNet(const Mlp& net, BinaryWriter* out);
/// Mirror of WriteNet, with LoadNetLike's architecture check.
StatusOr<Mlp> ReadNetLike(BinaryReader* in, const Mlp& like,
                          std::string_view what);

/// In-place masked softmax over `logits`: invalid entries get probability 0.
/// At least one entry must be valid. Numerically stabilised.
void MaskedSoftmax(const std::vector<bool>& valid, std::vector<float>* logits);
/// Raw-buffer variant for batched decision paths (operates on one row of an
/// output matrix in place, no per-agent vector allocation).
void MaskedSoftmax(const std::vector<bool>& valid, float* logits, size_t n);

}  // namespace fairmove

#endif  // FAIRMOVE_NN_MLP_H_
