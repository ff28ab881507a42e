#ifndef FAIRMOVE_OBS_JSON_PARSE_H_
#define FAIRMOVE_OBS_JSON_PARSE_H_

#include <string>
#include <utility>
#include <vector>

#include "fairmove/common/status.h"

namespace fairmove {

/// A parsed JSON value. ParseJson is the repo's one JSON grammar: the
/// artefact checks in jsonl.h (JsonObjectKeys, ValidateJsonlFile) and
/// tools/obs_check are built on it, and the perf-gate tooling compares two
/// BENCH_*.json documents field by field through it. The shape is the
/// minimal tree for those jobs: every number is a double (the builders emit
/// %.17g, which round-trips), object members keep document order, and there
/// is no mutation API.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// First member named `key`, or nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const;

  /// Find(key)->number_value with a fallback for absent/non-number members.
  double NumberOr(const std::string& key, double fallback) const;

  /// Find(key)->string_value, or `fallback` for absent/non-string members.
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
};

/// Parses exactly one JSON value (RFC 8259: objects, arrays, strings,
/// numbers, true/false/null) with nothing but whitespace around it.
/// `ParseJson(text).ok()` is the validity check for any artefact. Returns
/// InvalidArgument with a byte offset on the first syntax error. Nesting
/// deeper than 64 levels is rejected (the recursive parser must not let a
/// hostile document overflow the stack).
StatusOr<JsonValue> ParseJson(const std::string& text);

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_JSON_PARSE_H_
