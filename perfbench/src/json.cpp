#include "json.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace xtb {

const JsonValue* JsonValue::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue* JsonValue::path(std::string_view dotted) const {
  const JsonValue* cur = this;
  while (cur != nullptr && !dotted.empty()) {
    const std::size_t dot = dotted.find('.');
    cur = cur->get(dotted.substr(0, dot));
    dotted = dot == std::string_view::npos ? std::string_view{}
                                           : dotted.substr(dot + 1);
  }
  return cur;
}

std::optional<double> JsonValue::num(std::string_view dotted) const {
  const JsonValue* v = path(dotted);
  if (v == nullptr || v->kind != Kind::kNumber) return std::nullopt;
  return v->number;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool document(JsonValue* out) {
    if (!value(out, 0)) return false;
    ws();
    if (i_ != s_.size()) return fail("trailing bytes");
    return true;
  }

  std::string error;

 private:
  bool fail(const char* why) {
    error = std::string(why) + " at byte " + std::to_string(i_);
    return false;
  }
  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])))
      ++i_;
  }
  bool lit(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return fail("bad literal");
    i_ += word.size();
    return true;
  }
  bool str(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return fail("expected string");
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) return fail("truncated escape");
        const char e = s_[i_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            // The server escapes only control bytes this way; keep the
            // code unit's low byte.
            if (i_ + 4 > s_.size()) return fail("truncated \\u escape");
            c = static_cast<char>(
                std::strtol(std::string(s_.substr(i_, 4)).c_str(), nullptr, 16));
            i_ += 4;
            break;
          default: c = e; break;
        }
      }
      out->push_back(c);
    }
    if (i_ >= s_.size()) return fail("unterminated string");
    ++i_;
    return true;
  }
  bool number(double* out) {
    const char* begin = s_.data() + i_;
    const char* end = s_.data() + s_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, *out);
    if (ec != std::errc()) return fail("bad number");
    i_ += static_cast<std::size_t>(ptr - begin);
    return true;
  }
  bool value(JsonValue* out, int depth) {
    if (depth > 64) return fail("nesting too deep");
    ws();
    if (i_ >= s_.size()) return fail("unexpected end");
    const char c = s_[i_];
    if (c == '{') {
      out->kind = JsonValue::Kind::kObject;
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == '}') { ++i_; return true; }
      for (;;) {
        ws();
        std::string key;
        if (!str(&key)) return false;
        ws();
        if (i_ >= s_.size() || s_[i_] != ':') return fail("expected ':'");
        ++i_;
        JsonValue v;
        if (!value(&v, depth + 1)) return false;
        out->object.emplace_back(std::move(key), std::move(v));
        ws();
        if (i_ < s_.size() && s_[i_] == ',') { ++i_; continue; }
        if (i_ < s_.size() && s_[i_] == '}') { ++i_; return true; }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      out->kind = JsonValue::Kind::kArray;
      ++i_;
      ws();
      if (i_ < s_.size() && s_[i_] == ']') { ++i_; return true; }
      for (;;) {
        JsonValue v;
        if (!value(&v, depth + 1)) return false;
        out->array.push_back(std::move(v));
        ws();
        if (i_ < s_.size() && s_[i_] == ',') { ++i_; continue; }
        if (i_ < s_.size() && s_[i_] == ']') { ++i_; return true; }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return str(&out->string);
    }
    if (c == 't') { out->kind = JsonValue::Kind::kBool; out->boolean = true; return lit("true"); }
    if (c == 'f') { out->kind = JsonValue::Kind::kBool; return lit("false"); }
    if (c == 'n') { out->kind = JsonValue::Kind::kNull; return lit("null"); }
    out->kind = JsonValue::Kind::kNumber;
    return number(&out->number);
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

/// Offset just past `"key": ` (first occurrence), or npos.
std::size_t after_key(std::string_view body, std::string_view key) {
  std::string needle;
  needle.reserve(key.size() + 4);
  needle += '"';
  needle += key;
  needle += "\": ";
  const std::size_t pos = body.find(needle);
  return pos == std::string_view::npos ? pos : pos + needle.size();
}

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  Parser p(text);
  JsonValue v;
  if (!p.document(&v)) {
    if (error != nullptr) *error = p.error;
    return std::nullopt;
  }
  return v;
}

std::optional<long long> json_int_field(std::string_view body,
                                        std::string_view key) {
  const std::size_t at = after_key(body, key);
  if (at == std::string_view::npos) return std::nullopt;
  long long v = 0;
  const auto [ptr, ec] =
      std::from_chars(body.data() + at, body.data() + body.size(), v);
  if (ec != std::errc()) return std::nullopt;
  return v;
}

std::optional<std::string> json_string_field(std::string_view body,
                                             std::string_view key) {
  const std::size_t at = after_key(body, key);
  if (at == std::string_view::npos || at >= body.size() || body[at] != '"')
    return std::nullopt;
  const std::size_t end = body.find('"', at + 1);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(body.substr(at + 1, end - at - 1));
}

std::optional<bool> json_bool_field(std::string_view body, std::string_view key) {
  const std::size_t at = after_key(body, key);
  if (at == std::string_view::npos) return std::nullopt;
  if (body.substr(at, 4) == "true") return true;
  if (body.substr(at, 5) == "false") return false;
  return std::nullopt;
}

bool json_int_array(std::string_view body, std::string_view key,
                    std::vector<long long>* out) {
  out->clear();
  std::size_t i = after_key(body, key);
  if (i == std::string_view::npos || i >= body.size() || body[i] != '[')
    return false;
  ++i;
  const char* end = body.data() + body.size();
  while (i < body.size()) {
    while (i < body.size() && (body[i] == ' ' || body[i] == ',')) ++i;
    if (i < body.size() && body[i] == ']') return true;
    long long v = 0;
    const auto [ptr, ec] = std::from_chars(body.data() + i, end, v);
    if (ec != std::errc()) return false;
    out->push_back(v);
    i = static_cast<std::size_t>(ptr - body.data());
  }
  return false;
}

}  // namespace xtb
