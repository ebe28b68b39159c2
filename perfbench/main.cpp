// heus_perfbench: the wall-clock benchmark binary.
//
//   heus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans PATH]
//   heus_perfbench --list-metrics
//
// Prints notes and one "name value unit" line per metric, then, as the
// last line, the JSON result: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 they are the per-layer ones from a traced run, and the spans
// go to --spans.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: heus_perfbench --workload tenant_day|policy_sweep"
               " --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n"
               "       heus_perfbench --list-metrics\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions opts;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::fputs(metric_listing_json().c_str(), stdout);
      return 0;
    }
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed" && parse_u64(v, n)) {
      opts.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(v, n) && n > 0 && n <= 600) {
      opts.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(v, n) && n <= 1) {
      opts.trace = n == 1;
      have_trace = true;
    } else if (arg == "--spans") {
      opts.spans_path = v;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage();
    return 2;
  }

  Result r;
  if (workload == "tenant_day") {
    r = run_tenant_day(opts);
  } else if (workload == "policy_sweep") {
    r = run_policy_sweep(opts);
  } else {
    usage();
    return 2;
  }
  const MetricKind kind =
      opts.trace ? MetricKind::per_layer : MetricKind::end_to_end;
  for (const std::string& line : r.notes()) {
    std::printf("# %s\n", line.c_str());
  }
  std::printf("# ops attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  std::fputs(r.metric_lines(kind).c_str(), stdout);
  std::printf("%s\n", r.json_line(kind).c_str());
  return 0;
}
