#include "fairmove/obs/jsonl.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "fairmove/obs/json_parse.h"

namespace fairmove {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

JsonObject& JsonObject::Set(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, '"' + JsonEscape(value) + '"');
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, const char* value) {
  return Set(key, std::string(value));
}

JsonObject& JsonObject::Set(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::SetRaw(const std::string& key,
                               const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonObject::Str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + JsonEscape(fields_[i].first) + "\":" + fields_[i].second;
  }
  out += '}';
  return out;
}

JsonArray& JsonArray::Push(const std::string& value) {
  items_.push_back('"' + JsonEscape(value) + '"');
  return *this;
}

JsonArray& JsonArray::Push(double value) {
  items_.push_back(JsonNumber(value));
  return *this;
}

JsonArray& JsonArray::Push(int64_t value) {
  items_.push_back(std::to_string(value));
  return *this;
}

JsonArray& JsonArray::PushRaw(const std::string& json) {
  items_.push_back(json);
  return *this;
}

std::string JsonArray::Str() const {
  std::string out = "[";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ',';
    out += items_[i];
  }
  out += ']';
  return out;
}

JsonlWriter::~JsonlWriter() { Close(); }

Status JsonlWriter::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  out_.open(path, std::ios::out | std::ios::trunc);
  if (!out_) return Status::IOError("cannot open for write: " + path);
  path_ = path;
  return Status::OK();
}

bool JsonlWriter::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return out_.is_open();
}

void JsonlWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (out_.is_open()) out_.close();
  path_.clear();
  rows_ = 0;
}

void JsonlWriter::Write(const JsonObject& row) { WriteLine(row.Str()); }

void JsonlWriter::WriteLine(const std::string& json) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!out_.is_open()) return;
  out_ << json << '\n';
  out_.flush();
  ++rows_;
}

int64_t JsonlWriter::rows_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_;
}

StatusOr<std::vector<std::string>> JsonObjectKeys(const std::string& text) {
  FM_ASSIGN_OR_RETURN(const JsonValue doc, ParseJson(text));
  if (!doc.is_object()) return Status::InvalidArgument("not a JSON object");
  std::vector<std::string> keys;
  keys.reserve(doc.members.size());
  for (const auto& [key, value] : doc.members) keys.push_back(key);
  return keys;
}

StatusOr<int64_t> ValidateJsonlFile(
    const std::string& path, const std::vector<std::string>& required_keys) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open: " + path);
  int64_t rows = 0;
  std::string line;
  int64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto keys_or = JsonObjectKeys(line);
    if (!keys_or.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                     ": " + keys_or.status().message());
    }
    for (const std::string& want : required_keys) {
      if (std::find(keys_or->begin(), keys_or->end(), want) ==
          keys_or->end()) {
        return Status::InvalidArgument(path + ":" + std::to_string(lineno) +
                                       ": missing required key '" + want +
                                       "'");
      }
    }
    ++rows;
  }
  return rows;
}

}  // namespace fairmove
