#include "fairmove/resilience/divergence_guard.h"

#include <cmath>
#include <utility>

#include "fairmove/io/binary.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/obs/metrics.h"

namespace fairmove {

namespace {
constexpr uint32_t kGuardStateTag = 0x31445247;  // "GRD1"
}  // namespace

DivergenceGuard::DivergenceGuard() : DivergenceGuard(Options()) {}

DivergenceGuard::DivergenceGuard(Options options) : options_(options) {
  FM_CHECK(options.max_consecutive_rollbacks > 0);
  FM_CHECK(options.lr_decay > 0.0 && options.lr_decay <= 1.0);
}

void DivergenceGuard::Register(Mlp* net) {
  FM_CHECK(net != nullptr);
  nets_.push_back(net);
  snapshots_.clear();  // stale: snapshot set no longer covers all nets
}

Status DivergenceGuard::Checkpoint() {
  std::vector<std::string> fresh;
  fresh.reserve(nets_.size());
  for (const Mlp* net : nets_) {
    BinaryWriter out;
    net->Save(&out);
    fresh.push_back(out.Release());
  }
  snapshots_ = std::move(fresh);
  return Status::OK();
}

bool DivergenceGuard::ParametersFinite() const {
  for (const Mlp* net : nets_) {
    for (const Matrix& w : net->weights()) {
      for (size_t i = 0; i < w.size(); ++i) {
        if (!std::isfinite(w.data()[i])) return false;
      }
    }
    for (const auto& b : net->biases()) {
      for (float v : b) {
        if (!std::isfinite(v)) return false;
      }
    }
  }
  return true;
}

Status DivergenceGuard::OnDivergence(const std::string& why) {
  if (snapshots_.size() != nets_.size()) {
    return Status::FailedPrecondition(
        "DivergenceGuard::OnDivergence without a checkpoint covering all "
        "registered networks");
  }
  for (size_t i = 0; i < nets_.size(); ++i) {
    BinaryReader in(snapshots_[i]);
    FM_ASSIGN_OR_RETURN(Mlp restored, Mlp::Load(&in));
    *nets_[i] = std::move(restored);
  }
  ++consecutive_rollbacks_;
  ++total_rollbacks_;
  lr_scale_ *= options_.lr_decay;
  Metrics().Count("resilience/divergence_rollbacks");
  if (consecutive_rollbacks_ >= options_.max_consecutive_rollbacks) {
    status_ = Status::Internal(
        "training diverged " + std::to_string(consecutive_rollbacks_) +
        " consecutive times (last cause: " + why +
        "); rolled back to last-good checkpoint and giving up");
  }
  return Status::OK();
}

Status DivergenceGuard::NoteHealthyUpdate() {
  consecutive_rollbacks_ = 0;
  return Checkpoint();
}

Status DivergenceGuard::SaveState(BinaryWriter* out) const {
  out->WriteU32(kGuardStateTag);
  out->WriteF64(lr_scale_);
  out->WriteI32(consecutive_rollbacks_);
  out->WriteI64(total_rollbacks_);
  out->WriteI32(static_cast<int32_t>(status_.code()));
  out->WriteString(status_.message());
  out->WriteU64(snapshots_.size());
  for (const std::string& s : snapshots_) out->WriteString(s);
  return Status::OK();
}

Status DivergenceGuard::RestoreState(BinaryReader* in) {
  FM_RETURN_IF_ERROR(
      ReadRecordTag(in, kGuardStateTag, "DivergenceGuard state"));
  double lr_scale = 0.0;
  int32_t consecutive = 0, code = 0;
  int64_t total = 0;
  std::string message;
  FM_RETURN_IF_ERROR(in->ReadF64(&lr_scale));
  FM_RETURN_IF_ERROR(in->ReadI32(&consecutive));
  FM_RETURN_IF_ERROR(in->ReadI64(&total));
  FM_RETURN_IF_ERROR(in->ReadI32(&code));
  FM_RETURN_IF_ERROR(in->ReadString(&message));
  if (!std::isfinite(lr_scale) || lr_scale <= 0.0 || lr_scale > 1.0) {
    return Status::InvalidArgument(
        "DivergenceGuard state carries invalid lr_scale " +
        std::to_string(lr_scale));
  }
  if (consecutive < 0 || total < 0 || total < consecutive) {
    return Status::InvalidArgument(
        "DivergenceGuard state carries inconsistent rollback counters");
  }
  if (code < 0 || code > static_cast<int32_t>(StatusCode::kUnimplemented)) {
    return Status::InvalidArgument(
        "DivergenceGuard state carries unknown status code " +
        std::to_string(code));
  }
  uint64_t num_snapshots = 0;
  FM_RETURN_IF_ERROR(in->ReadU64(&num_snapshots));
  if (num_snapshots != nets_.size()) {
    return Status::InvalidArgument(
        "DivergenceGuard snapshot count mismatch: blob has " +
        std::to_string(num_snapshots) + ", guard registers " +
        std::to_string(nets_.size()) + " net(s)");
  }
  std::vector<std::string> snapshots;
  snapshots.reserve(num_snapshots);
  for (uint64_t i = 0; i < num_snapshots; ++i) {
    std::string blob;
    FM_RETURN_IF_ERROR(in->ReadString(&blob));
    // Snapshots must be valid networks now, not at the next rollback.
    BinaryReader check(blob);
    FM_RETURN_IF_ERROR(Mlp::Load(&check).status());
    snapshots.push_back(std::move(blob));
  }
  lr_scale_ = lr_scale;
  consecutive_rollbacks_ = consecutive;
  total_rollbacks_ = total;
  status_ = Status(static_cast<StatusCode>(code), std::move(message));
  snapshots_ = std::move(snapshots);
  return Status::OK();
}

}  // namespace fairmove
