// A minimal JSON reader for the benchmark's correctness gate: the
// server's /stats document, session snapshots and embed responses are
// checked by value, not by substring.  Numbers are kept as doubles
// (every counter the gate compares stays far below 2^53).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xtb {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Member lookup on an object; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* get(std::string_view key) const;
  /// Dotted path lookup ("service.completed").
  [[nodiscard]] const JsonValue* path(std::string_view dotted) const;
  /// Number at a dotted path, or nullopt.
  [[nodiscard]] std::optional<double> num(std::string_view dotted) const;
};

/// Parses one JSON document; nullopt (with *error set) on malformed
/// input or trailing garbage.
[[nodiscard]] std::optional<JsonValue> parse_json(std::string_view text,
                                                  std::string* error);

/// Reads the integer after the first `"key": ` in `body`; nullopt when
/// absent.  The embed response puts its scalar claims before the
/// embedding array, so the first occurrence is the claim.
[[nodiscard]] std::optional<long long> json_int_field(std::string_view body,
                                                      std::string_view key);

/// Reads the string value after the first `"key": "`.
[[nodiscard]] std::optional<std::string> json_string_field(
    std::string_view body, std::string_view key);

/// Reads the boolean after the first `"key": `.
[[nodiscard]] std::optional<bool> json_bool_field(std::string_view body,
                                                  std::string_view key);

/// Parses the integer array after the first `"key": [` (fast path for
/// embedding / host arrays of up to a few hundred thousand entries).
[[nodiscard]] bool json_int_array(std::string_view body, std::string_view key,
                                  std::vector<long long>* out);

}  // namespace xtb
