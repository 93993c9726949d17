// Minimal strict JSON parser for campaign-spec documents (ecnprobed's
// POST bodies and persisted specs). Same philosophy as the CLI's option
// parsing and the wire decoders: malformed input is rejected as a value
// (Expected), never coerced -- trailing garbage, duplicate keys,
// unterminated strings, and bad number syntax all fail with a positioned
// message instead of yielding a half-parsed spec.
//
// Deliberately small: objects, arrays, strings (with the common escapes;
// \uXXXX is rejected rather than mis-decoded), numbers (kept as both
// double and raw text so integer fields round-trip exactly), booleans,
// null. This is an input validator for a trusted-ish local API, not a
// general JSON library.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ecnprobe/util/expected.hpp"

namespace ecnprobe::util {

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Object, Array };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string raw_number;  ///< verbatim token, for exact integer extraction
  std::string string;
  /// Insertion order is irrelevant to spec validation; a map keeps lookup
  /// simple and makes duplicate keys a parse-time error.
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;

  bool is(Kind k) const { return kind == k; }
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
};

/// Parses one complete JSON document. The whole input must be consumed
/// (trailing non-whitespace fails), and object keys must be unique.
Expected<JsonValue> parse_json(const std::string& text);

/// Escapes a string for embedding in a JSON document (quotes included).
std::string json_quote(const std::string& s);

}  // namespace ecnprobe::util
