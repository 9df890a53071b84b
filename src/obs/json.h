// The repo's one JSON reader: a strict RFC 8259 parser for the documents the
// obs layer itself emits (flight bundles, outage reports, statusz, telemetry,
// scraper dumps). It accepts exactly one value with optional surrounding
// whitespace and rejects everything a lenient writer could leak: trailing
// commas, NaN/inf or other non-JSON numbers (leading '+', leading zeros,
// bare '.'), raw control bytes in strings, duplicate object keys and
// trailing garbage. Tests use it to prove every dump stays machine-readable;
// the msplog tool uses it to lift crash facts out of a bundle.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace msplog {
namespace obs {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Member `key` of an object; nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const;
};

/// Parse `text` as exactly one JSON value. On failure returns
/// InvalidArgument naming the byte offset and what was expected there.
Status ParseJson(const std::string& text, JsonValue* out);

}  // namespace obs
}  // namespace msplog
