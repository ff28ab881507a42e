#include "fairmove/nn/adam.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

namespace fairmove {

Adam::Adam(Mlp* net, Options options) : net_(net), options_(options) {
  FM_CHECK(net != nullptr);
  FM_CHECK(options.learning_rate > 0.0);
  FM_CHECK(options.beta1 >= 0.0 && options.beta1 < 1.0);
  FM_CHECK(options.beta2 >= 0.0 && options.beta2 < 1.0);
  FM_CHECK(options.epsilon > 0.0);
  FM_CHECK(options.max_grad_norm >= 0.0);
  m_ = net->MakeGradients();
  v_ = net->MakeGradients();
}

double Adam::GradNorm(const Mlp::Gradients& grads) {
  double sq = 0.0;
  for (const Matrix& g : grads.dw) {
    for (size_t i = 0; i < g.size(); ++i) {
      sq += static_cast<double>(g.data()[i]) * g.data()[i];
    }
  }
  for (const auto& b : grads.db) {
    for (float v : b) sq += static_cast<double>(v) * v;
  }
  return std::sqrt(sq);
}

void Adam::set_learning_rate(double lr) {
  FM_CHECK(lr > 0.0) << "learning rate must be > 0, got " << lr;
  options_.learning_rate = lr;
}

namespace {

// Tag of the Adam state record inside a checkpoint payload.
constexpr uint32_t kAdamStateTag = 0x314D4441;  // "ADM1"

void WriteGradients(const Mlp::Gradients& g, BinaryWriter* out) {
  out->WriteU64(g.dw.size());
  for (size_t l = 0; l < g.dw.size(); ++l) {
    out->WriteFloats(g.dw[l].data(), g.dw[l].size());
    out->WriteFloatVec(g.db[l]);
  }
}

Status ReadGradientsInto(BinaryReader* in, Mlp::Gradients* g,
                         const char* what) {
  uint64_t layers = 0;
  FM_RETURN_IF_ERROR(in->ReadU64(&layers));
  if (layers != g->dw.size()) {
    return Status::InvalidArgument(
        std::string("Adam ") + what + " layer count mismatch: blob has " +
        std::to_string(layers) + ", optimizer has " +
        std::to_string(g->dw.size()));
  }
  for (size_t l = 0; l < g->dw.size(); ++l) {
    std::vector<float> dw;
    FM_RETURN_IF_ERROR(in->ReadFloatVec(&dw));
    if (dw.size() != g->dw[l].size()) {
      return Status::InvalidArgument(
          std::string("Adam ") + what + " weight-moment size mismatch at "
          "layer " + std::to_string(l));
    }
    std::vector<float> db;
    FM_RETURN_IF_ERROR(in->ReadFloatVec(&db));
    if (db.size() != g->db[l].size()) {
      return Status::InvalidArgument(
          std::string("Adam ") + what + " bias-moment size mismatch at "
          "layer " + std::to_string(l));
    }
    std::copy(dw.begin(), dw.end(), g->dw[l].data());
    g->db[l] = std::move(db);
  }
  return Status::OK();
}

}  // namespace

Status Adam::SaveState(BinaryWriter* out) const {
  out->WriteU32(kAdamStateTag);
  out->WriteF64(options_.learning_rate);
  out->WriteI64(t_);
  out->WriteI64(skipped_);
  WriteGradients(m_, out);
  WriteGradients(v_, out);
  return Status::OK();
}

Status Adam::RestoreState(BinaryReader* in) {
  FM_RETURN_IF_ERROR(ReadRecordTag(in, kAdamStateTag, "Adam state"));
  double lr = 0.0;
  int64_t t = 0, skipped = 0;
  FM_RETURN_IF_ERROR(in->ReadF64(&lr));
  FM_RETURN_IF_ERROR(in->ReadI64(&t));
  FM_RETURN_IF_ERROR(in->ReadI64(&skipped));
  if (!std::isfinite(lr) || lr <= 0.0) {
    return Status::InvalidArgument("Adam state carries invalid learning "
                                   "rate " + std::to_string(lr));
  }
  if (t < 0 || skipped < 0) {
    return Status::InvalidArgument("Adam state carries negative counters");
  }
  // Parse both moment sets into fresh shape-checked buffers before
  // committing anything, so a truncated/mismatched blob leaves the
  // optimizer exactly as it was.
  Mlp::Gradients m = net_->MakeGradients();
  Mlp::Gradients v = net_->MakeGradients();
  FM_RETURN_IF_ERROR(ReadGradientsInto(in, &m, "first-moment"));
  FM_RETURN_IF_ERROR(ReadGradientsInto(in, &v, "second-moment"));
  options_.learning_rate = lr;
  t_ = t;
  skipped_ = skipped;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

void Adam::Step(const Mlp::Gradients& grads) {
  FM_CHECK(grads.dw.size() == m_.dw.size()) << "gradient shape mismatch";
  const double norm = GradNorm(grads);
  if (!std::isfinite(norm)) {
    ++skipped_;
    return;
  }
  ++t_;
  double clip = 1.0;
  if (options_.max_grad_norm > 0.0 && norm > options_.max_grad_norm) {
    clip = options_.max_grad_norm / norm;
  }
  const double b1 = options_.beta1, b2 = options_.beta2;
  const double bias1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  const double lr = options_.learning_rate;

  auto update = [&](float* param, float* m, float* v, float grad) {
    const double g = grad * clip;
    *m = static_cast<float>(b1 * *m + (1.0 - b1) * g);
    *v = static_cast<float>(b2 * *v + (1.0 - b2) * g * g);
    const double mhat = *m / bias1;
    const double vhat = *v / bias2;
    *param -= static_cast<float>(lr * mhat /
                                 (std::sqrt(vhat) + options_.epsilon));
  };

  auto& weights = net_->weights();
  auto& biases = net_->biases();
  for (size_t l = 0; l < weights.size(); ++l) {
    Matrix& w = weights[l];
    const Matrix& gw = grads.dw[l];
    FM_CHECK(gw.size() == w.size());
    for (size_t i = 0; i < w.size(); ++i) {
      update(&w.data()[i], &m_.dw[l].data()[i], &v_.dw[l].data()[i],
             gw.data()[i]);
    }
    auto& b = biases[l];
    const auto& gb = grads.db[l];
    FM_CHECK(gb.size() == b.size());
    for (size_t i = 0; i < b.size(); ++i) {
      update(&b[i], &m_.db[l][i], &v_.db[l][i], gb[i]);
    }
  }
}

}  // namespace fairmove
