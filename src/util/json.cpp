#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/assert.hpp"

namespace rdse {

namespace {

[[noreturn]] void kind_error(const char* expected, JsonValue::Kind got) {
  static constexpr const char* kNames[] = {"null", "bool", "number",
                                           "string", "array", "object"};
  throw Error(std::string("json: expected ") + expected + ", value is " +
              kNames[static_cast<std::size_t>(got)]);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  // Shortest representation that round-trips the exact double.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, res.ptr);
}

}  // namespace

JsonValue JsonValue::array() {
  JsonValue v;
  v.data_ = std::vector<JsonValue>{};
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.data_ = std::vector<Member>{};
  return v;
}

JsonValue::Kind JsonValue::kind() const {
  return static_cast<Kind>(data_.index());
}

bool JsonValue::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  kind_error("bool", kind());
}

double JsonValue::as_number() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  kind_error("number", kind());
}

std::int64_t JsonValue::as_int() const {
  const double d = as_number();
  // Reject values the cast cannot represent (the cast itself would be UB).
  if (!(d >= -9.2e18 && d <= 9.2e18)) {
    throw Error("json: number out of integer range");
  }
  return static_cast<std::int64_t>(d);
}

const std::string& JsonValue::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  kind_error("string", kind());
}

void JsonValue::push_back(JsonValue value) {
  if (auto* a = std::get_if<std::vector<JsonValue>>(&data_)) {
    a->push_back(std::move(value));
    return;
  }
  kind_error("array", kind());
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (const auto* a = std::get_if<std::vector<JsonValue>>(&data_)) return *a;
  kind_error("array", kind());
}

std::vector<JsonValue>& JsonValue::items() {
  if (auto* a = std::get_if<std::vector<JsonValue>>(&data_)) return *a;
  kind_error("array", kind());
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  if (auto* o = std::get_if<std::vector<Member>>(&data_)) {
    for (Member& m : *o) {
      if (m.first == key) {
        m.second = std::move(value);
        return *this;
      }
    }
    o->emplace_back(std::move(key), std::move(value));
    return *this;
  }
  kind_error("object", kind());
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (const auto* o = std::get_if<std::vector<Member>>(&data_)) {
    for (const Member& m : *o) {
      if (m.first == key) return &m.second;
    }
    return nullptr;
  }
  kind_error("object", kind());
}

JsonValue* JsonValue::find(std::string_view key) {
  if (auto* o = std::get_if<std::vector<Member>>(&data_)) {
    for (Member& m : *o) {
      if (m.first == key) return &m.second;
    }
    return nullptr;
  }
  kind_error("object", kind());
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (const JsonValue* v = find(key)) return *v;
  throw Error("json: missing key '" + std::string(key) + "'");
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (const auto* o = std::get_if<std::vector<Member>>(&data_)) return *o;
  kind_error("object", kind());
}

std::size_t JsonValue::size() const {
  if (const auto* a = std::get_if<std::vector<JsonValue>>(&data_)) {
    return a->size();
  }
  if (const auto* o = std::get_if<std::vector<Member>>(&data_)) {
    return o->size();
  }
  kind_error("array or object", kind());
}

// ---------------------------------------------------------------------- dump

namespace {

void dump_value(const JsonValue& v, std::string& out, int indent, int depth);

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

void dump_value(const JsonValue& v, std::string& out, int indent, int depth) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: append_number(out, v.as_number()); break;
    case JsonValue::Kind::kString: append_escaped(out, v.as_string()); break;
    case JsonValue::Kind::kArray: {
      const auto& items = v.items();
      if (items.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out += indent > 0 ? "," : ", ";
        newline_indent(out, indent, depth + 1);
        dump_value(items[i], out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      const auto& members = v.members();
      if (members.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i) out += indent > 0 ? "," : ", ";
        newline_indent(out, indent, depth + 1);
        append_escaped(out, members[i].first);
        out += ": ";
        dump_value(members[i].second, out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_value(*this, out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

// --------------------------------------------------------------------- parse

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  /// Containers recurse through parse_value; a hostile document of nested
  /// brackets must become an Error, not a stack overflow.
  static constexpr int kMaxDepth = 256;

  struct DepthGuard {
    explicit DepthGuard(Parser* parser) : parser_(parser) {
      if (++parser_->depth_ > kMaxDepth) parser_->fail("nesting too deep");
    }
    ~DepthGuard() { --parser_->depth_; }
    Parser* parser_;
  };

  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("unknown token");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("unknown token");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("unknown token");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    const DepthGuard guard(this);
    expect('{');
    JsonValue obj = JsonValue::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      obj.set(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    const DepthGuard guard(this);
    expect('[');
    JsonValue arr = JsonValue::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  /// Read the 4 hex digits of a \u escape at pos_ and advance past them.
  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    const auto res = std::from_chars(text_.data() + pos_,
                                     text_.data() + pos_ + 4, code, 16);
    if (res.ptr != text_.data() + pos_ + 4) fail("bad \\u escape");
    pos_ += 4;
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parse_hex4();
          // UTF-16 surrogate halves: a high surrogate must be followed by
          // "\uDC00".."\uDFFF" and the pair decodes to one astral-plane
          // code point; encoding a half as-is would emit invalid UTF-8.
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("unpaired high surrogate in \\u escape");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("invalid low surrogate in \\u escape");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape sequence");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double d = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_ ||
        start == pos_) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace rdse
