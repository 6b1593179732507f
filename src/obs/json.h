#ifndef SPARDL_OBS_JSON_H_
#define SPARDL_OBS_JSON_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spardl {

/// Escapes `text` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view text);

/// A parsed JSON value — the minimal DOM `spardl-analyze` needs to read
/// the exporters' artifacts back. Object members keep document order
/// (duplicate keys: `Find` returns the first).
struct JsonValue {
  enum class Type : uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array_items;
  std::vector<std::pair<std::string, JsonValue>> object_items;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Member lookup on an object; null for other types or missing keys.
  const JsonValue* Find(std::string_view key) const;

  /// `Find(key)->number_value` with a default for missing/non-number.
  double NumberOr(std::string_view key, double fallback) const;

  /// `Find(key)->string_value` with a default for missing/non-string.
  std::string StringOr(std::string_view key, std::string fallback) const;
};

/// Parses one complete JSON document (trailing garbage rejected).
/// `\uXXXX` escapes decode to UTF-8; surrogate pairs are combined, and a
/// lone surrogate is an error. Returns nullopt on any syntax error.
std::optional<JsonValue> JsonParse(std::string_view text);

}  // namespace spardl

#endif  // SPARDL_OBS_JSON_H_
