#include "obs/json.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sparse/types.hpp"

namespace ordo::obs {
namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    require(pos_ == text_.size(), "json: trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    require(pos_ < text_.size(), "json: unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    require(peek() == c, std::string("json: expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't':
      case 'f': return boolean();
      case 'n': return null_value();
      default: return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    for (;;) {
      skip_ws();
      JsonValue key = string_value();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key.text), value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    for (;;) {
      require(pos_ < text_.size(), "json: unterminated string");
      char c = text_[pos_++];
      if (c == '"') return v;
      if (c == '\\') {
        require(pos_ < text_.size(), "json: bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"': v.text += '"'; break;
          case '\\': v.text += '\\'; break;
          case '/': v.text += '/'; break;
          case 'n': v.text += '\n'; break;
          case 't': v.text += '\t'; break;
          case 'r': v.text += '\r'; break;
          case 'u': v.text += ascii_escape(); break;
          default:
            throw invalid_argument_error("json: unsupported escape");
        }
        continue;
      }
      v.text += c;
    }
  }

  // The four hex digits of a \uXXXX escape. Only ASCII code points: ordo
  // writes \u00XX for control characters and nothing else.
  char ascii_escape() {
    require(pos_ + 4 <= text_.size(), "json: bad escape");
    const std::string hex = text_.substr(pos_, 4);
    char* end = nullptr;
    const unsigned long code = std::strtoul(hex.c_str(), &end, 16);
    require(end == hex.c_str() + 4 && code < 0x80,
            "json: unsupported escape");
    pos_ += 4;
    return static_cast<char>(code);
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      throw invalid_argument_error("json: bad literal");
    }
    return v;
  }

  JsonValue null_value() {
    require(text_.compare(pos_, 4, "null") == 0, "json: bad literal");
    pos_ += 4;
    return {};
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::strchr("+-.eE0123456789", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    require(pos_ > start, "json: expected number");
    v.text = text_.substr(start, pos_ - start);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue& JsonValue::at(const std::string& key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return v;
  }
  throw invalid_argument_error("json: missing key " + key);
}

const JsonValue* JsonValue::find(const std::string& key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::int64_t JsonValue::as_int() const {
  require(kind == Kind::kNumber, "json: expected number");
  return std::strtoll(text.c_str(), nullptr, 10);
}

double JsonValue::as_double() const {
  require(kind == Kind::kNumber, "json: expected number");
  return std::strtod(text.c_str(), nullptr);
}

const std::string& JsonValue::as_string() const {
  require(kind == Kind::kString, "json: expected string");
  return text;
}

JsonValue parse_json(const std::string& text) {
  return JsonParser(text).parse();
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // The other control characters have no short escape.
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);  // round-trip exact
  out += buf;
}

}  // namespace ordo::obs
