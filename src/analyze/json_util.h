// JSON rendering primitives shared by the report emitters (report.cpp,
// ingest/site_report.cpp). Escaping lives in exactly one place,
// common/json.h, so the golden-file + real-parser tests in tests/ guard
// every JSON document the analyzer family and the benches produce.
#pragma once

#include <string>
#include <vector>

#include "common/json.h"

namespace heus::analyze {

// The shared escaper and `--json` sink, under the names the analyzer
// family's emitters and heus-lint use.
using common::json_escape;
using common::JsonSink;

/// Render `items` as a JSON array of strings.
[[nodiscard]] std::string json_string_array(
    const std::vector<std::string>& items);

}  // namespace heus::analyze
