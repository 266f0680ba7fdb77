// Minimal JSON subset shared by the observability exports and the pipeline
// journal: exactly what ordo's own files emit (objects, arrays, strings,
// numbers, booleans, null), and nothing more.
//
// Numbers keep their raw text so int64 fields round-trip without a detour
// through double (the journal's %.17g doubles stay byte-exact). A parse
// failure anywhere throws invalid_argument_error — callers that tolerate
// corruption (the journal's torn-tail loader) catch it.
//
// This parser reads back files ordo wrote (BENCH_*.json round-trips,
// study_journal.jsonl replay); it is not a general-purpose JSON library and
// deliberately rejects what ordo never writes (\uXXXX escapes beyond
// ASCII, exotic whitespace).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ordo::obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< raw number text, or decoded string value
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;

  /// Object member lookup; throws invalid_argument_error when missing.
  const JsonValue& at(const std::string& key) const;
  /// Object member lookup; nullptr when missing (or not an object).
  const JsonValue* find(const std::string& key) const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;
};

/// Parses one complete JSON document (trailing characters are an error).
JsonValue parse_json(const std::string& text);

/// Appends `s` as a quoted, escaped JSON string literal: \" \\ \n \t \r,
/// and \u00XX for the other control characters.
void append_json_string(std::string& out, const std::string& s);

/// Appends `v` with 17 significant digits (round-trip exact).
void append_json_double(std::string& out, double v);

}  // namespace ordo::obs
