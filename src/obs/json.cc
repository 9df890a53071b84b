#include "obs/json.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace msplog {
namespace obs {

namespace {

/// Recursion bound: the repo's dumps nest a handful of levels; a hostile
/// file must not overflow the stack.
constexpr int kMaxDepth = 64;

/// UTF-8 for one \u escape. Each UTF-16 unit is encoded on its own: the
/// repo's writers only escape control bytes, so no surrogate pair occurs.
void AppendUtf8(uint32_t cp, std::string* out) {
  static constexpr unsigned char kLead[] = {0, 0, 0xc0, 0xe0};
  const int n = cp < 0x80 ? 1 : cp < 0x800 ? 2 : 3;
  out->push_back(static_cast<char>(kLead[n] | (cp >> (6 * (n - 1)))));
  for (int i = n - 2; i >= 0; --i) {
    out->push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f)));
  }
}

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  Status Parse(JsonValue* out) {
    if (!Value(out, 0)) return Error();
    SkipWs();
    if (pos_ != s_.size()) {
      expected_ = "end of input";
      return Error();
    }
    return Status::OK();
  }

 private:
  Status Error() const {
    return Status::InvalidArgument("json: expected " + expected_ +
                                   " at offset " + std::to_string(pos_));
  }
  bool Fail(const char* what) {
    expected_ = what;
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    const bool hit = pos_ < s_.size() && s_[pos_] == c;
    pos_ += hit;
    return hit;
  }
  bool Literal(const char* lit, size_t n) {
    if (s_.compare(pos_, n, lit) != 0) return Fail(lit);
    pos_ += n;
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    SkipWs();
    if (pos_ >= s_.size()) return Fail("a value");
    if ((s_[pos_] == '{' || s_[pos_] == '[') && depth == kMaxDepth) {
      return Fail("shallower nesting");
    }
    switch (s_[pos_]) {
      case '{':
        return Object(out, depth + 1);
      case '[':
        return Array(out, depth + 1);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return String(&out->str);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true", 4);
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        return Literal("false", 5);
      case 'n':
        return Literal("null", 4);
      default:
        return Number(out);
    }
  }

  /// -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)? — nothing else, so
  /// nan, inf, +1, 01 and 1. all fail here.
  bool Number(JsonValue* out) {
    const size_t start = pos_;
    Eat('-');
    if (Eat('0') ? Digits() : !Digits()) return Fail("a number");
    if (Eat('.') && !Digits()) return Fail("a fraction digit");
    if (Eat('e') || Eat('E')) {
      if (!Eat('+')) Eat('-');
      if (!Digits()) return Fail("an exponent digit");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number =
        std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }
  bool Digits() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Hex4(uint32_t* cp) {
    const std::string hex = s_.substr(pos_, 4);
    if (hex.size() < 4 || !std::all_of(hex.begin(), hex.end(), [](char c) {
          return std::isxdigit(static_cast<unsigned char>(c));
        })) {
      return Fail("four hex digits");
    }
    *cp = static_cast<uint32_t>(std::strtoul(hex.c_str(), nullptr, 16));
    pos_ += 4;
    return true;
  }

  bool String(std::string* out) {
    if (!Eat('"')) return Fail("a string");
    out->clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Fail("an escaped control character");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      static constexpr char kEscapes[] = "\"\\/bfnrt";
      static constexpr char kDecoded[] = "\"\\/\b\f\n\r\t";
      const char e = s_[pos_++];  // '\0' past the end: a bad escape
      if (const char* hit = e ? std::strchr(kEscapes, e) : nullptr) {
        out->push_back(kDecoded[hit - kEscapes]);
        continue;
      }
      uint32_t cp;
      if (e != 'u') {
        --pos_;
        return Fail("a valid escape");
      }
      if (!Hex4(&cp)) return false;
      AppendUtf8(cp, out);
    }
    return Fail("a closing quote");
  }

  bool Object(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!String(&key)) return false;
      SkipWs();
      if (!Eat(':')) return Fail("':'");
      JsonValue v;
      if (!Value(&v, depth)) return false;
      if (!out->object.emplace(std::move(key), std::move(v)).second) {
        return Fail("a unique key");
      }
      SkipWs();
      if (Eat('}')) return true;
      if (!Eat(',')) return Fail("',' or '}'");
    }
  }

  bool Array(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      out->array.emplace_back();
      if (!Value(&out->array.back(), depth)) return false;
      SkipWs();
      if (Eat(']')) return true;
      if (!Eat(',')) return Fail("',' or ']'");
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
  std::string expected_;
};

}  // namespace

const JsonValue* JsonValue::Get(const std::string& key) const {
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

Status ParseJson(const std::string& text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).Parse(out);
}

}  // namespace obs
}  // namespace msplog
