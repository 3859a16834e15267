#pragma once
/// \file json.hpp
/// \brief Minimal JSON document model for machine-readable sweep artifacts.
///
/// One value type covers both directions: sweep reports *build* a JsonValue
/// tree and dump() it for the CI artifact stage, and the `rdse report`
/// subcommand (plus the test suites) parse() an artifact back to validate
/// and re-render it. Only what the artifacts need is implemented — objects,
/// arrays, strings, doubles, bools, null — with shortest-round-trip number
/// formatting so numeric fields survive a dump/parse cycle bit-exactly.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rdse {

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  /// Object members keep insertion order (artifacts stay diffable).
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : data_(nullptr) {}
  JsonValue(bool b) : data_(b) {}  // NOLINT(google-explicit-constructor)
  JsonValue(double d) : data_(d) {}  // NOLINT(google-explicit-constructor)
  JsonValue(int i)  // NOLINT(google-explicit-constructor)
      : data_(static_cast<double>(i)) {}
  JsonValue(std::int64_t i)  // NOLINT(google-explicit-constructor)
      : data_(static_cast<double>(i)) {}
  JsonValue(std::string s)  // NOLINT(google-explicit-constructor)
      : data_(std::move(s)) {}
  JsonValue(const char* s)  // NOLINT(google-explicit-constructor)
      : data_(std::string(s)) {}

  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue object();

  [[nodiscard]] Kind kind() const;
  [[nodiscard]] bool is_null() const { return kind() == Kind::kNull; }

  /// Typed accessors; throw Error when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// A whole number in [min, max], else Error "<what> in [min, max], got
  /// <value>": a field read through it is never narrowed or wrapped.
  [[nodiscard]] std::int64_t as_int_in(std::int64_t min, std::int64_t max,
                                       const std::string& what) const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array access. push_back() throws unless this is an array. The mutable
  /// items() overload supports in-place rewriting of nested documents.
  void push_back(JsonValue value);
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] std::vector<JsonValue>& items();

  /// Object access. set() replaces an existing key in place; find() returns
  /// nullptr when absent; at() throws Error when absent.
  JsonValue& set(std::string key, JsonValue value);
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  [[nodiscard]] JsonValue* find(std::string_view key);
  [[nodiscard]] const JsonValue& at(std::string_view key) const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Element count of an array or object; throws Error otherwise.
  [[nodiscard]] std::size_t size() const;

  /// Serialize. `indent` == 0 renders compactly on one line; > 0 pretty-
  /// prints with that many spaces per nesting level. Non-finite numbers
  /// (which JSON cannot represent) are emitted as null.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Parse a complete JSON document; trailing non-whitespace, unterminated
  /// constructs and unknown tokens throw Error with a byte offset.
  [[nodiscard]] static JsonValue parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string,
               std::vector<JsonValue>, std::vector<Member>>
      data_;
};

}  // namespace rdse
