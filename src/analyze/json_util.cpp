#include "analyze/json_util.h"

namespace heus::analyze {

std::string json_string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + json_escape(items[i]) + "\"";
  }
  return out + "]";
}

}  // namespace heus::analyze
