// Per-layer metric helpers shared by the workloads' traced runs.
#include <string>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The layers a self-time share is reported for (metric "<layer>.self_pct").
constexpr const char* kLayers[] = {"core",  "simos",  "vfs",
                                   "net",   "sched",  "gpu",
                                   "portal", "container", "obs",
                                   "analyze"};

}  // namespace

double span_quantile_us(const char* name, double q) {
  return tracer().stats(span_name(name)).durations_ns.quantile(q) / 1e3;
}

void set_self_shares(Result& r, std::int64_t wall_ns) {
  if (wall_ns <= 0) wall_ns = 1;
  for (const char* layer : kLayers) r.set(std::string(layer) + ".self_pct", 0);
  std::int64_t attributed = 0;
  for (const std::string& layer : tracer().layers()) {
    if (layer == "bench") continue;  // the harness's own root spans
    const std::int64_t self = tracer().layer_self_ns(layer, true);
    attributed += self;
    const double pct =
        100.0 * static_cast<double>(self) / static_cast<double>(wall_ns);
    const std::string name = layer + ".self_pct";
    if (find_metric(name) != nullptr) {
      r.set(name, pct);
    } else {
      r.note(name + " " + std::to_string(pct));
    }
  }
  r.set("trace.unattributed_pct",
        100.0 * static_cast<double>(wall_ns - attributed) /
            static_cast<double>(wall_ns));
}

void zero_unset_layer_metrics(Result& r) {
  for (const MetricSpec& m : metric_specs()) {
    if (m.kind == MetricKind::per_layer && !r.get(m.name)) r.set(m.name, 0);
  }
}

}  // namespace perfbench
