#include "tofu/util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

#include "tofu/util/logging.h"
#include "tofu/util/strings.h"

namespace tofu {

void JsonWriter::BeforeValue() {
  if (after_key_) {
    after_key_ = false;
    return;  // value follows its key; comma was handled by Key()
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) {
      out_ += ',';
    }
    needs_comma_.back() = true;
  }
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  needs_comma_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_ += ']';
  needs_comma_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view name) {
  BeforeValue();
  EmitString(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  BeforeValue();
  EmitString(value);
  return *this;
}

void JsonWriter::EmitString(std::string_view value) {
  out_ += '"';
  for (char c : value) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\t':
        out_ += "\\t";
        break;
      case '\r':
        out_ += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out_ += StrFormat("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  BeforeValue();
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  BeforeValue();
  // JSON has no inf/nan; writing one would succeed here and fail at every reload.
  TOFU_CHECK(std::isfinite(value)) << "JsonWriter::Number on non-finite " << value;
  // Locale-independent %.17g equivalent: snprintf would emit "0,25" under a
  // comma-decimal LC_NUMERIC, producing files no JSON parser accepts.
  char buffer[64];
  const auto [end, ec] =
      std::to_chars(buffer, buffer + sizeof(buffer), value, std::chars_format::general, 17);
  TOFU_CHECK(ec == std::errc()) << "to_chars failed";
  out_.append(buffer, static_cast<size_t>(end - buffer));
  return *this;
}

JsonWriter& JsonWriter::Int(std::int64_t value) {
  BeforeValue();
  // Straight into out_, like Number: plan arrays write one Int per tensor and op, so a
  // temporary string per element would dominate a plan render.
  char buffer[24];  // "-9223372036854775808" is 20 characters
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  TOFU_CHECK(ec == std::errc()) << "to_chars failed";
  out_.append(buffer, static_cast<size_t>(end - buffer));
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
  return *this;
}

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::MakeObject() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::AsBool() const {
  TOFU_CHECK(kind_ == Kind::kBool) << "JsonValue::AsBool on non-bool";
  return bool_;
}

double JsonValue::AsNumber() const {
  TOFU_CHECK(kind_ == Kind::kNumber) << "JsonValue::AsNumber on non-number";
  return number_;
}

bool IsExactInt64(double n, std::int64_t* out) {
  // The cast itself is UB for out-of-range values, so the range check comes first;
  // 2^63 is representable.
  if (!(n >= -9223372036854775808.0 && n < 9223372036854775808.0)) {
    return false;
  }
  const auto i = static_cast<std::int64_t>(n);
  if (static_cast<double>(i) != n) {
    return false;
  }
  *out = i;
  return true;
}

std::int64_t JsonValue::AsInt() const {
  const double n = AsNumber();
  std::int64_t i = 0;
  TOFU_CHECK(IsExactInt64(n, &i)) << "JsonValue::AsInt on non-integral " << n;
  return i;
}

const std::string& JsonValue::AsString() const {
  TOFU_CHECK(kind_ == Kind::kString) << "JsonValue::AsString on non-string";
  return string_;
}

const std::vector<JsonValue>& JsonValue::AsArray() const {
  TOFU_CHECK(kind_ == Kind::kArray) << "JsonValue::AsArray on non-array";
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::AsObject() const {
  TOFU_CHECK(kind_ == Kind::kObject) << "JsonValue::AsObject on non-object";
  return object_;
}

std::vector<JsonValue>& JsonValue::MutableArray() {
  TOFU_CHECK(kind_ == Kind::kArray) << "JsonValue::MutableArray on non-array";
  return array_;
}

std::vector<std::pair<std::string, JsonValue>>& JsonValue::MutableObject() {
  TOFU_CHECK(kind_ == Kind::kObject) << "JsonValue::MutableObject on non-object";
  return object_;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  const JsonValue* found = nullptr;  // last occurrence wins, matching common parsers
  for (const auto& [k, v] : object_) {
    if (k == key) {
      found = &v;
    }
  }
  return found;
}

namespace {

Status MissingOrWrongKind(const std::string& key, const char* want) {
  return Status(StatusCode::kInvalidArgument,
                StrFormat("JSON key '%s': missing or not a %s", key.c_str(), want));
}

}  // namespace

Result<bool> JsonValue::BoolAt(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind() != Kind::kBool) {
    return MissingOrWrongKind(key, "bool");
  }
  return v->AsBool();
}

Result<double> JsonValue::NumberAt(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind() != Kind::kNumber) {
    return MissingOrWrongKind(key, "number");
  }
  return v->AsNumber();
}

Result<std::int64_t> JsonValue::IntAt(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind() != Kind::kNumber) {
    return MissingOrWrongKind(key, "number");
  }
  const double n = v->AsNumber();
  std::int64_t i = 0;
  if (!IsExactInt64(n, &i)) {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("JSON key '%s': %g is not an int64", key.c_str(), n));
  }
  return i;
}

Result<std::string> JsonValue::StringAt(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind() != Kind::kString) {
    return MissingOrWrongKind(key, "string");
  }
  return v->AsString();
}

Result<const JsonValue*> JsonValue::ArrayAt(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind() != Kind::kArray) {
    return MissingOrWrongKind(key, "array");
  }
  return v;
}

Result<const JsonValue*> JsonValue::ObjectAt(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || v->kind() != Kind::kObject) {
    return MissingOrWrongKind(key, "object");
  }
  return v;
}

namespace {

// Recursive-descent parser over the raw byte string. Positions are byte offsets used in
// error messages; depth guards against stack exhaustion on adversarial nesting.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    TOFU_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 128;

  Status Error(const std::string& what) const {
    return Status(StatusCode::kInvalidArgument,
                  StrFormat("JSON parse error at byte %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        TOFU_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::MakeString(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) {
          return JsonValue::MakeBool(true);
        }
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          return JsonValue::MakeBool(false);
        }
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          return JsonValue();
        }
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) {
      return obj;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      TOFU_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      TOFU_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      obj.MutableObject().emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return obj;
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue arr = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) {
      return arr;
    }
    while (true) {
      TOFU_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      arr.MutableArray().push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return arr;
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        return Error("unterminated string");
      }
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) {
        return Error("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          TOFU_ASSIGN_OR_RETURN(unsigned code, ParseHex4());
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must pair with a following \uDC00..\uDFFF.
            if (!ConsumeLiteral("\\u")) {
              return Error("unpaired surrogate");
            }
            TOFU_ASSIGN_OR_RETURN(unsigned low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            AppendUtf8(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00), &out);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired surrogate");
          } else {
            AppendUtf8(code, &out);
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Result<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_ + static_cast<size_t>(i)];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    return code;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    Consume('-');
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Error("invalid number");
    }
    // Integer part: a single 0, or a nonzero digit followed by digits.
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("expected digits after decimal point");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Error("expected digits in exponent");
      }
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    // std::from_chars is locale-independent (strtod would misparse "3.5" under a
    // comma-decimal LC_NUMERIC, silently breaking saved plans in embedding apps).
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::result_out_of_range) {
      // Overflow (1e999 -> inf) must be an error, not a silent infinity: the writer
      // would re-emit it as "inf", which no JSON parser (including this one) accepts.
      return Error("number out of double range");
    }
    if (ec != std::errc() || end != last || !std::isfinite(value)) {
      return Error("invalid number");
    }
    return JsonValue::MakeNumber(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) { return JsonParser(text).Parse(); }

namespace {

void WriteJsonValue(const JsonValue& value, JsonWriter* writer) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      writer->Raw("null");
      break;
    case JsonValue::Kind::kBool:
      writer->Bool(value.AsBool());
      break;
    case JsonValue::Kind::kNumber:
      writer->Number(value.AsNumber());
      break;
    case JsonValue::Kind::kString:
      writer->String(value.AsString());
      break;
    case JsonValue::Kind::kArray:
      writer->BeginArray();
      for (const JsonValue& element : value.AsArray()) {
        WriteJsonValue(element, writer);
      }
      writer->EndArray();
      break;
    case JsonValue::Kind::kObject:
      writer->BeginObject();
      for (const auto& [key, member] : value.AsObject()) {
        writer->Key(key);
        WriteJsonValue(member, writer);
      }
      writer->EndObject();
      break;
  }
}

}  // namespace

std::string JsonToString(const JsonValue& value) {
  JsonWriter writer;
  WriteJsonValue(value, &writer);
  return std::move(writer).str();
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    TOFU_LOG(Warning) << "cannot open " << path << " for writing";
    return false;
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    TOFU_LOG(Warning) << "short write to " << path;
    return false;
  }
  return true;
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(StatusCode::kNotFound, StrFormat("cannot open %s", path.c_str()));
  }
  std::string content;
  char buffer[1 << 14];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status(StatusCode::kInternal, StrFormat("error reading %s", path.c_str()));
  }
  return content;
}

}  // namespace tofu
