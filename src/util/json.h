// Minimal self-contained JSON value, parser and serializer.
//
// The forensics layer treats every scenario as a value: a ScenarioSpec or a
// repro bundle must survive a round trip through a file byte-exactly enough
// to replay deterministically. That rules out doubles-only number handling —
// RNG seeds are full-width uint64 — so Json keeps integers exact (int64 or
// uint64) and only falls back to double for genuine fractions. Object member
// order is preserved (vector of pairs, not a map), which keeps serialized
// specs diffable and Dump() deterministic.
//
// Scope: strict-enough RFC 8259 subset. UTF-8 passes through untouched;
// \uXXXX escapes decode to UTF-8 (surrogate pairs included). No comments, no
// trailing commas, no NaN/Inf.

#ifndef JUGGLER_SRC_UTIL_JSON_H_
#define JUGGLER_SRC_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace juggler {

class Json {
 public:
  enum class Kind : uint8_t { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Json() = default;  // null
  static Json Null() { return Json(); }
  static Json Bool(bool v);
  static Json Int(int64_t v);
  static Json Uint(uint64_t v);
  static Json Double(double v);
  static Json Str(std::string v);
  static Json Array();
  static Json Object();

  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_string() const { return kind_ == Kind::kString; }

  // Loose accessors: return `fallback` on kind mismatch. Numeric accessors
  // convert between the three numeric kinds (with the usual narrowing).
  bool AsBool(bool fallback = false) const;
  int64_t AsInt(int64_t fallback = 0) const;
  uint64_t AsUint(uint64_t fallback = 0) const;
  double AsDouble(double fallback = 0.0) const;
  const std::string& AsString() const;  // empty string on mismatch

  // Object access. Find returns nullptr when absent (or not an object).
  const Json* Find(const std::string& key) const;
  // Appends or replaces; turns a null value into an object first.
  Json& Set(std::string key, Json value);
  const std::vector<std::pair<std::string, Json>>& members() const { return members_; }

  // Array access. Push turns a null value into an array first.
  Json& Push(Json value);
  const std::vector<Json>& items() const { return items_; }
  size_t size() const { return kind_ == Kind::kArray ? items_.size() : members_.size(); }

  // Typed object-field helpers for FromJson-style code: fetch `key` and
  // store it into *out; absent keys leave *out unchanged and return true,
  // present-but-wrong-kind keys return false (a malformed document).
  bool GetBool(const std::string& key, bool* out) const;
  bool GetInt(const std::string& key, int64_t* out) const;
  bool GetUint(const std::string& key, uint64_t* out) const;
  bool GetDouble(const std::string& key, double* out) const;
  bool GetString(const std::string& key, std::string* out) const;

  // Serialize. indent < 0: compact one-liner. indent >= 0: pretty-printed
  // with that many spaces per level.
  std::string Dump(int indent = -1) const;

  // Parse `text` into *out. On failure returns false and describes the
  // problem (with byte offset) in *error when non-null.
  static bool Parse(std::string_view text, Json* out, std::string* error = nullptr);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace juggler

#endif  // JUGGLER_SRC_UTIL_JSON_H_
