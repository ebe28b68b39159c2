// Machine-readable bench output (ISSUE 4 satellite): every experiment
// binary can mirror its printed tables into a JSON document so the perf
// trajectory is diffable across commits. The writer is deliberately tiny —
// objects, arrays, strings, integers, doubles — and emits keys in
// insertion order so output is byte-stable for identical inputs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/common/table.h"
#include "common/json.h"

namespace heus::bench {

class JsonValue {
 public:
  static JsonValue str(std::string s) {
    JsonValue v;
    v.kind_ = Kind::string;
    v.str_ = std::move(s);
    return v;
  }
  static JsonValue integer(std::uint64_t n) {
    JsonValue v;
    v.kind_ = Kind::integer;
    v.int_ = n;
    return v;
  }
  static JsonValue number(double d) {
    JsonValue v;
    v.kind_ = Kind::number;
    v.num_ = d;
    return v;
  }
  static JsonValue boolean(bool b) {
    JsonValue v;
    v.kind_ = Kind::boolean;
    v.bool_ = b;
    return v;
  }
  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::array;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::object;
    return v;
  }

  JsonValue& push(JsonValue v) {
    items_.push_back(std::move(v));
    return *this;
  }
  JsonValue& set(const std::string& key, JsonValue v) {
    keys_.push_back(key);
    items_.push_back(std::move(v));
    return *this;
  }

  void dump(std::string& out, int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string pad1(static_cast<std::size_t>(indent + 1) * 2, ' ');
    switch (kind_) {
      case Kind::string:
        out += quote(str_);
        break;
      case Kind::integer:
        out += std::to_string(int_);
        break;
      case Kind::number: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.9g", num_);
        out += buf;
        break;
      }
      case Kind::boolean:
        out += bool_ ? "true" : "false";
        break;
      case Kind::array:
        if (items_.empty()) {
          out += "[]";
          break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < items_.size(); ++i) {
          out += pad1;
          items_[i].dump(out, indent + 1);
          out += (i + 1 < items_.size()) ? ",\n" : "\n";
        }
        out += pad + "]";
        break;
      case Kind::object:
        if (items_.empty()) {
          out += "{}";
          break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < items_.size(); ++i) {
          out += pad1 + quote(keys_[i]) + ": ";
          items_[i].dump(out, indent + 1);
          out += (i + 1 < items_.size()) ? ",\n" : "\n";
        }
        out += pad + "}";
        break;
    }
  }

  [[nodiscard]] std::string dump() const {
    std::string out;
    dump(out, 0);
    out += "\n";
    return out;
  }

 private:
  enum class Kind { string, integer, number, boolean, array, object };

  static std::string quote(const std::string& s) {
    return "\"" + common::json_escape(s) + "\"";
  }

  Kind kind_ = Kind::object;
  std::string str_;
  std::uint64_t int_ = 0;
  double num_ = 0;
  bool bool_ = false;
  std::vector<std::string> keys_;   // objects only, parallel to items_
  std::vector<JsonValue> items_;    // array elements or object values
};

/// Mirror a printed Table as {"headers": [...], "rows": [[...], ...]}.
inline JsonValue table_to_json(const Table& t) {
  JsonValue obj = JsonValue::object();
  JsonValue headers = JsonValue::array();
  for (const auto& h : t.headers()) headers.push(JsonValue::str(h));
  obj.set("headers", std::move(headers));
  JsonValue rows = JsonValue::array();
  for (const auto& row : t.rows()) {
    JsonValue r = JsonValue::array();
    for (const auto& cell : row) r.push(JsonValue::str(cell));
    rows.push(std::move(r));
  }
  obj.set("rows", std::move(rows));
  return obj;
}

/// Process-wide document the bench's sections append to; written by main
/// when --json was requested.
class JsonReport {
 public:
  static JsonReport& instance() {
    static JsonReport r;
    return r;
  }
  void set(const std::string& key, JsonValue v) {
    doc_.set(key, std::move(v));
  }
  void add_table(const std::string& name, const Table& t) {
    doc_.set(name, table_to_json(t));
  }
  /// Write to `path`; returns false (with a message) on I/O failure.
  bool write(const std::string& experiment, const std::string& path) {
    JsonValue root = JsonValue::object();
    root.set("experiment", JsonValue::str(experiment));
    root.set("results", std::move(doc_));
    doc_ = JsonValue::object();
    const std::string text = root.dump();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
    return true;
  }

 private:
  JsonValue doc_ = JsonValue::object();
};

/// `--json` / `--json=PATH` CLI convention shared by all benches. Returns
/// the output path (the default when the flag has no value), or nullopt
/// when JSON output was not requested.
inline std::optional<std::string> json_output_path(
    int argc, char** argv, const std::string& default_path) {
  common::JsonSink sink;
  for (int i = 1; i < argc; ++i) {
    if (sink.parse(argv[i])) {
      return sink.to_stdout() ? default_path : sink.path();
    }
  }
  return std::nullopt;
}

inline bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

}  // namespace heus::bench
