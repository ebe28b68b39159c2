#include "common/json.h"

#include <cstdio>
#include <fstream>

#include "common/strings.h"

namespace heus::common {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool JsonSink::parse(std::string_view arg) {
  if (arg == "--json") {
    enabled_ = true;
    path_.clear();
    return true;
  }
  if (arg.starts_with("--json=")) {
    enabled_ = true;
    path_ = arg.substr(7);
    return true;
  }
  return false;
}

bool JsonSink::write(const std::string& json) const {
  if (!enabled_) return true;
  if (path_.empty()) {
    std::fputs(json.c_str(), stdout);
    if (!json.empty() && json.back() != '\n') std::fputc('\n', stdout);
    return true;
  }
  std::ofstream out(path_);
  if (!out) return false;
  out << json;
  if (!json.empty() && json.back() != '\n') out << '\n';
  return out.good();
}

}  // namespace heus::common
