#ifndef FAIRMOVE_OBS_JSONL_H_
#define FAIRMOVE_OBS_JSONL_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fairmove/common/status.h"

namespace fairmove {

/// RFC 8259 string escaping (quotes, backslash, control characters).
std::string JsonEscape(const std::string& text);

/// Renders a double as a JSON number: %.17g (round-trips exactly), with
/// non-finite values (which JSON cannot carry) mapped to null.
std::string JsonNumber(double value);

/// Insertion-ordered builder for one compact single-line JSON object —
/// the row type of every telemetry stream. Values render immediately, so a
/// built object is just string assembly; there is no DOM.
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& value);
  JsonObject& Set(const std::string& key, const char* value);
  JsonObject& Set(const std::string& key, double value);
  JsonObject& Set(const std::string& key, int64_t value);
  JsonObject& Set(const std::string& key, uint64_t value);
  JsonObject& Set(const std::string& key, int value) {
    return Set(key, static_cast<int64_t>(value));
  }
  JsonObject& Set(const std::string& key, bool value);
  /// `json` must be a pre-rendered JSON value (object, array, ...).
  JsonObject& SetRaw(const std::string& key, const std::string& json);

  bool empty() const { return fields_.empty(); }
  /// `{"k":v,...}` in insertion order.
  std::string Str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Companion array builder (`[v,...]`).
class JsonArray {
 public:
  JsonArray& Push(const std::string& value);
  JsonArray& Push(double value);
  JsonArray& Push(int64_t value);
  JsonArray& PushRaw(const std::string& json);

  bool empty() const { return items_.empty(); }
  std::string Str() const;

 private:
  std::vector<std::string> items_;
};

/// Append-only JSONL stream: one JsonObject per line. Write() is
/// thread-safe: whole lines are appended under a mutex, and each row is
/// flushed as it is written, so nothing is left buffered between Writes and
/// an abort, exit or SIGKILL loses at most the in-flight row. Concurrently
/// written rows are each intact but their file order is whatever the
/// threads raced to, which is why every telemetry row carries its own
/// identifying keys.
class JsonlWriter {
 public:
  JsonlWriter() = default;
  ~JsonlWriter();
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  /// Opens (truncates) `path` for writing.
  Status Open(const std::string& path);
  bool is_open() const;
  void Close();

  void Write(const JsonObject& row);
  /// Pre-rendered variant (must be one complete JSON value, no newline).
  void WriteLine(const std::string& json);

  int64_t rows_written() const;
  const std::string& path() const { return path_; }

 private:
  mutable std::mutex mu_;
  std::ofstream out_;
  std::string path_;
  int64_t rows_ = 0;
};

/// Parses `text` with ParseJson (json_parse.h), requires a JSON object and
/// returns its top-level keys, unescaped, in document order.
StatusOr<std::vector<std::string>> JsonObjectKeys(const std::string& text);

/// Validates every line of a JSONL file as a JSON object containing at
/// least `required_keys`; returns the number of rows. Empty trailing lines
/// are ignored; a zero-row file is OK (callers decide whether that is an
/// error).
StatusOr<int64_t> ValidateJsonlFile(const std::string& path,
                                    const std::vector<std::string>&
                                        required_keys);

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_JSONL_H_
