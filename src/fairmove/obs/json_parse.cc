#include "fairmove/obs/json_parse.h"

#include <cstdlib>
#include <utility>

namespace fairmove {

namespace {

constexpr int kMaxDepth = 64;

/// Single-pass recursive-descent parser over the input bytes.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWs();
    JsonValue root;
    Status s = ParseValue(&root, 0);
    if (!s.ok()) return s;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON value");
    }
    return root;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at byte " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  Status Expect(char c) {
    if (AtEnd() || text_[pos_] != c) {
      return Error(std::string("expected '") + c + "'");
    }
    ++pos_;
    return Status::OK();
  }

  Status ParseLiteral(const char* word, JsonValue* out) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (AtEnd() || text_[pos_] != *p) {
        return Error(std::string("bad literal (expected ") + word + ")");
      }
    }
    if (word[0] == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = true;
    } else if (word[0] == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->bool_value = false;
    } else {
      out->kind = JsonValue::Kind::kNull;
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    Status s = Expect('"');
    if (!s.ok()) return s;
    out->clear();
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c < 0x20) return Error("raw control character in string");
      if (c != '\\') {
        out->push_back(static_cast<char>(c));
        ++pos_;
        continue;
      }
      ++pos_;  // consume the backslash
      if (AtEnd()) return Error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (AtEnd()) return Error("truncated \\u escape");
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the code point. Surrogate pairs are passed through
          // as two 3-byte sequences (CESU-8): the telemetry builders only
          // ever \u-escape control characters, so this path is for
          // robustness, not fidelity of astral-plane text.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    if (AtEnd() || !(Peek() >= '0' && Peek() <= '9')) {
      return Error("bad number");
    }
    if (Peek() == '0') {
      ++pos_;
    } else {
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && Peek() == '.') {
      ++pos_;
      if (AtEnd() || !(Peek() >= '0' && Peek() <= '9')) {
        return Error("bad fraction");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      ++pos_;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos_;
      if (AtEnd() || !(Peek() >= '0' && Peek() <= '9')) {
        return Error("bad exponent");
      }
      while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    }
    out->kind = JsonValue::Kind::kNumber;
    // The token was just grammar-checked, so strtod cannot fail; it may
    // round a huge literal to +/-Inf, which is the standard behaviour.
    out->number_value = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                    nullptr);
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (AtEnd()) return Error("unexpected end of input");
    switch (Peek()) {
      case '{': {
        ++pos_;
        out->kind = JsonValue::Kind::kObject;
        SkipWs();
        if (!AtEnd() && Peek() == '}') {
          ++pos_;
          return Status::OK();
        }
        while (true) {
          SkipWs();
          std::string key;
          Status s = ParseString(&key);
          if (!s.ok()) return s;
          SkipWs();
          s = Expect(':');
          if (!s.ok()) return s;
          SkipWs();
          JsonValue child;
          s = ParseValue(&child, depth + 1);
          if (!s.ok()) return s;
          out->members.emplace_back(std::move(key), std::move(child));
          SkipWs();
          if (!AtEnd() && Peek() == ',') {
            ++pos_;
            continue;
          }
          return Expect('}');
        }
      }
      case '[': {
        ++pos_;
        out->kind = JsonValue::Kind::kArray;
        SkipWs();
        if (!AtEnd() && Peek() == ']') {
          ++pos_;
          return Status::OK();
        }
        while (true) {
          SkipWs();
          JsonValue child;
          Status s = ParseValue(&child, depth + 1);
          if (!s.ok()) return s;
          out->items.push_back(std::move(child));
          SkipWs();
          if (!AtEnd() && Peek() == ',') {
            ++pos_;
            continue;
          }
          return Expect(']');
        }
      }
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        return ParseLiteral("true", out);
      case 'f':
        return ParseLiteral("false", out);
      case 'n':
        return ParseLiteral("null", out);
      default:
        return ParseNumber(out);
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value : fallback;
}

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace fairmove
