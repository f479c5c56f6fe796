// Minimal JSON support without a third-party dependency:
//   * JsonWriter -- streaming writer for the benchmark drivers' --json output and the
//     serializable partition plans (numbers emitted with %.17g round-trip exactly);
//   * JsonValue / ParseJson -- a small recursive-descent parser producing an owned value
//     tree, used to reload saved plans (--load-plan) and baseline files.
//
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("model").String("WResNet-152");
//   w.Key("seconds").Number(8.3);
//   w.Key("steps").BeginArray();
//   w.Number(1).Number(2);
//   w.EndArray();
//   w.EndObject();
//   WriteTextFile(path, w.str());
//
//   Result<JsonValue> doc = ParseJson(w.str());
//   double s = doc->NumberAt("seconds").value();
//
// The writer tracks nesting and inserts commas; it does not validate that keys are only
// used inside objects -- callers are the bench drivers and plan serializer in this repo.
#ifndef TOFU_UTIL_JSON_H_
#define TOFU_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tofu/util/status.h"

namespace tofu {

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  JsonWriter& Key(std::string_view name);
  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);   // %.17g round-trippable
  JsonWriter& Int(std::int64_t value);  // %lld digits, written in place
  JsonWriter& Bool(bool value);
  // Appends `json` verbatim as one value (comma handling included). The caller owns its
  // well-formedness -- used to embed an already-serialized document, e.g. a plan from
  // PlanToJson inside a serving response line, without reparsing it.
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const& { return out_; }
  // Moves the document out of a writer that is done (`return std::move(w).str();`),
  // so returning a large document does not copy it.
  std::string str() && { return std::move(out_); }

 private:
  void BeforeValue();
  void EmitString(std::string_view value);

  std::string out_;
  std::vector<bool> needs_comma_;  // per open scope
  bool after_key_ = false;
};

// Owned JSON value tree. Objects preserve insertion order; duplicate keys keep the last
// occurrence (Find returns it).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  // Kind-checked accessors; abort on kind mismatch (use the *At helpers to recover).
  bool AsBool() const;
  double AsNumber() const;
  std::int64_t AsInt() const;  // number, checked to be integral within int64 range
  const std::string& AsString() const;
  const std::vector<JsonValue>& AsArray() const;
  const std::vector<std::pair<std::string, JsonValue>>& AsObject() const;
  std::vector<JsonValue>& MutableArray();
  std::vector<std::pair<std::string, JsonValue>>& MutableObject();

  // Object member lookup; nullptr when this is not an object or the key is absent.
  const JsonValue* Find(const std::string& key) const;

  // Recoverable typed lookups on objects: kInvalidArgument when the key is missing or
  // holds the wrong kind.
  Result<bool> BoolAt(const std::string& key) const;
  Result<double> NumberAt(const std::string& key) const;
  Result<std::int64_t> IntAt(const std::string& key) const;
  Result<std::string> StringAt(const std::string& key) const;
  Result<const JsonValue*> ArrayAt(const std::string& key) const;
  Result<const JsonValue*> ObjectAt(const std::string& key) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

// True when `n` is an exactly-representable int64, stored into *out. The check behind
// JsonValue::AsInt and IntAt, for callers that read integers out of arrays.
bool IsExactInt64(double n, std::int64_t* out);

// Compact re-serialization of a parsed value (numbers in %.17g, so a parse ->
// serialize round trip is byte-stable for JsonWriter-produced documents). Lets a
// consumer cut one subtree out of a larger document -- e.g. the "plan" member of a
// tofu-pland response line -- and feed it to a text-based loader like PlanFromJson.
std::string JsonToString(const JsonValue& value);

// Parses a complete JSON document (one value plus optional surrounding whitespace).
// Returns kInvalidArgument with a byte offset on malformed input. Supports the full
// scalar grammar (nulls, bools, %.17g numbers, \uXXXX escapes incl. surrogate pairs);
// nesting depth is capped at 128.
Result<JsonValue> ParseJson(const std::string& text);

// Writes `content` to `path`; returns false (and logs) on failure.
bool WriteTextFile(const std::string& path, const std::string& content);

// Reads the whole file; kNotFound when it cannot be opened.
Result<std::string> ReadTextFile(const std::string& path);

}  // namespace tofu

#endif  // TOFU_UTIL_JSON_H_
