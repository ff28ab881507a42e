#include "fairmove/common/config.h"

#include <cerrno>
#include <cstdlib>

namespace fairmove {

StatusOr<double> ParseDouble(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("not a number: '" + text + "'");
  }
  return v;
}

StatusOr<int64_t> ParseInt(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty integer");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("not an integer: '" + text + "'");
  }
  return static_cast<int64_t>(v);
}

Status EnvOverrides::LoadFromEnv() {
  if (const char* v = std::getenv("FAIRMOVE_SCALE")) {
    FM_ASSIGN_OR_RETURN(scale, ParseDouble(v));
    if (scale <= 0.0 || scale > 1.0) {
      return Status::InvalidArgument("FAIRMOVE_SCALE must be in (0, 1]");
    }
  }
  if (const char* v = std::getenv("FAIRMOVE_EPISODES")) {
    FM_ASSIGN_OR_RETURN(int64_t e, ParseInt(v));
    if (e < 0) return Status::InvalidArgument("FAIRMOVE_EPISODES must be >= 0");
    episodes = static_cast<int>(e);
  }
  if (const char* v = std::getenv("FAIRMOVE_SEED")) {
    FM_ASSIGN_OR_RETURN(int64_t s, ParseInt(v));
    if (s < 0) return Status::InvalidArgument("FAIRMOVE_SEED must be >= 0");
    seed = static_cast<uint64_t>(s);
  }
  if (const char* v = std::getenv("FAIRMOVE_DAYS")) {
    FM_ASSIGN_OR_RETURN(int64_t d, ParseInt(v));
    if (d <= 0) return Status::InvalidArgument("FAIRMOVE_DAYS must be > 0");
    days = static_cast<int>(d);
  }
  if (const char* v = std::getenv("FAIRMOVE_CHECKPOINT_DIR")) {
    if (v[0] == '\0') {
      return Status::InvalidArgument(
          "FAIRMOVE_CHECKPOINT_DIR must be a non-empty directory path "
          "(unset it to disable checkpointing)");
    }
    checkpoint_dir = v;
  }
  if (const char* v = std::getenv("FAIRMOVE_CHECKPOINT_EVERY")) {
    FM_ASSIGN_OR_RETURN(int64_t e, ParseInt(v));
    if (e < 1) {
      return Status::InvalidArgument("FAIRMOVE_CHECKPOINT_EVERY must be >= 1");
    }
    checkpoint_every = static_cast<int>(e);
  }
  if (const char* v = std::getenv("FAIRMOVE_CHECKPOINT_RETAIN")) {
    FM_ASSIGN_OR_RETURN(int64_t r, ParseInt(v));
    if (r < 1) {
      return Status::InvalidArgument("FAIRMOVE_CHECKPOINT_RETAIN must be >= 1");
    }
    checkpoint_retain = static_cast<int>(r);
  }
  return Status::OK();
}

}  // namespace fairmove
