#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {
namespace {

constexpr MetricKind E2E = MetricKind::end_to_end;
constexpr MetricKind LAYER = MetricKind::per_layer;

// Workload sets: the timed workloads BENCHMARK.json lists. A per-layer
// metric on a workload outside its set reads 0: the benchmark makes no
// call of that kind there.
constexpr const char* kAll = "tenant_day,policy_sweep";
constexpr const char* kTenant = "tenant_day";
constexpr const char* kSweep = "policy_sweep";

// "metric@workload" pairs: the end-to-end metric a layer metric should
// move, on the workload where it should move it.
constexpr const char* kTenantCheap =
    "latency_p50_ms@tenant_day,throughput_per_s@tenant_day";
constexpr const char* kTenantTail = "latency_tail_ms@tenant_day";
constexpr const char* kSweepMain =
    "throughput_per_s@policy_sweep,latency_p50_ms@policy_sweep";
constexpr const char* kSweepSmall = "latency_p50_ms@policy_sweep";

const std::vector<MetricSpec> kSpecs = {
    // ---- end to end: every workload, each in its own unit of work ------
    {"setup_s", "s", "lower", E2E, "bench", "", kAll,
     "wall time to build one repetition's state — a tenant day's cluster, "
     "or the lint pass's seeded policy corpus; median of a run's set-ups"},
    {"peak_rss_mb", "MB", "lower", E2E, "bench", "", kAll,
     "peak resident set of the benchmark process"},
    {"throughput_per_s", "1/s", "higher", E2E, "bench", "", kAll,
     "tenant bursts of 16 actions per second, each burst at its fastest "
     "replay; or lattice policies per second, 73,728 / the "
     "lattice-sweeping calls of a pass, each at its fastest in the run"},
    {"latency_p50_ms", "ms", "lower", E2E, "bench", "", kAll,
     "median burst, each burst at its fastest replay; or one lint pass, each "
     "of its calls at its fastest in the run"},
    {"latency_tail_ms", "ms", "lower", E2E, "bench", "", kAll,
     "p99 burst, each burst at its fastest replay; or p75 of every lint pass "
     "of the run"},

    // ---- per layer: connection admission and scheduling (tenant_day) ----
    {"net.connect_allow_p50_us", "us", "lower", LAYER, "net", kTenantCheap,
     kTenant, "Network::connect that the UBF (or same-user rule) admits, p50"},
    {"net.connect_allow_p99_us", "us", "lower", LAYER, "net", kTenantCheap,
     kTenant, "admitted connect, p99"},
    {"net.connect_deny_p50_us", "us", "lower", LAYER, "net", kTenantCheap,
     kTenant, "connect the UBF drops, p50"},
    {"net.connect_deny_p99_us", "us", "lower", LAYER, "net", kTenantCheap,
     kTenant, "dropped connect, p99"},
    {"net.ubf.cache_hit_ratio", "ratio", "higher", LAYER, "net",
     kTenantCheap, kTenant,
     "UbfStats cache_hits / (cache_hits + cache_misses)"},
    {"net.ubf.invalidations_per_kunit", "1/kunit", "lower", LAYER, "net",
     kTenantCheap, kTenant, "UbfStats cache_invalidations per 1000 bursts"},
    {"obs.decisions_per_unit", "count", "lower", LAYER, "obs", kTenantCheap,
     kTenant, "DecisionTrace::total() growth per burst"},
    {"sched.submit_us", "us", "lower", LAYER, "sched", kTenantTail, kTenant,
     "Cluster::submit, p50"},
    {"sched.step_us", "us", "lower", LAYER, "sched", kTenantTail, kTenant,
     "clock advance plus Scheduler::step with completions, epilogs and "
     "GPU scrub, p50"},
    {"sched.nodes_examined_per_attempt", "count", "lower", LAYER, "sched",
     kTenantTail, kTenant, "SchedStats nodes_examined / placement_attempts"},

    // ---- per layer: tenant_day, frequent cheap verdicts -----------------
    {"simos.procfs.list_us", "us", "lower", LAYER, "simos", kTenantCheap,
     kTenant, "ProcFs::list of the login node under hidepid=2, p50"},
    {"simos.procfs.read_us", "us", "lower", LAYER, "simos", kTenantCheap,
     kTenant, "ProcFs::read_details of an own or foreign pid, p50"},
    {"vfs.read_us", "us", "lower", LAYER, "vfs", kTenantCheap, kTenant,
     "FileSystem::read_file on home, proj or /tmp, p50"},
    {"vfs.write_us", "us", "lower", LAYER, "vfs", kTenantCheap, kTenant,
     "FileSystem::write_file, p50"},
    {"vfs.chmod_us", "us", "lower", LAYER, "vfs", kTenantCheap, kTenant,
     "FileSystem::chmod with the smask clamp, p50"},
    {"vfs.acl_set_us", "us", "lower", LAYER, "vfs", kTenantCheap, kTenant,
     "FileSystem::acl_set under restrict_acl, p50"},

    // ---- per layer: tenant_day, heavy rare actions (predicted p99) ------
    {"core.ssh_us", "us", "lower", LAYER, "core", kTenantTail, kTenant,
     "Cluster::ssh through pam_slurm, p50"},
    {"sched.list_jobs_us", "us", "lower", LAYER, "sched", kTenantTail,
     kTenant, "Scheduler::list_jobs (squeue) under PrivateData, p50"},
    {"sched.accounting_us", "us", "lower", LAYER, "sched", kTenantTail,
     kTenant, "Scheduler::accounting (sacct) under PrivateData, p50"},
    {"portal.request_us", "us", "lower", LAYER, "portal", kTenantTail,
     kTenant, "Gateway::request, own or foreign app, p50"},
    {"container.exec_us", "us", "lower", LAYER, "container", kTenantTail,
     kTenant, "Runtime::exec, granted or refused, p50"},
    {"simos.user_db.churn_us", "us", "lower", LAYER, "simos", kTenantTail,
     kTenant, "project membership change plus the member's re-login, p50"},
    {"bench.tail_heavy_pct", "%", "higher", LAYER, "bench", kTenantTail,
     kTenant,
     "share of the slowest 1% of actions that are of a kind predicted "
     "heavy (ssh, sched, portal, container, churn)"},

    // ---- per layer: policy_sweep analyzer stages ------------------------
    {"analyze.reach_ms", "ms", "lower", LAYER, "analyze", kSweepMain, kSweep,
     "ReachabilityChecker::check of the six shipped lifecycle tables, per "
     "pass"},
    {"analyze.paths_sweep_ms", "ms", "lower", LAYER, "analyze", kSweepMain,
     kSweep, "PathAnalyzer::sweep, per pass"},
    {"analyze.mutation_ms", "ms", "lower", LAYER, "analyze", kSweepSmall,
     kSweep, "PathAnalyzer::mutation_sweep, per pass"},
    {"analyze.min_cut_ms", "ms", "lower", LAYER, "analyze", kSweepSmall,
     kSweep, "baseline graph, path enumeration and minimal_cut, per pass"},
    {"analyze.knob_lint_ms", "ms", "lower", LAYER, "analyze", kSweepSmall,
     kSweep, "knob_lint, per pass"},
    {"analyze.oracle_ms", "ms", "lower", LAYER, "analyze", kSweepSmall,
     kSweep, "run_standard_oracle, per pass"},
    {"core.audit_ms", "ms", "lower", LAYER, "core", kSweepSmall, kSweep,
     "64 policies: build a live Cluster, LeakageAuditor::audit_pair, "
     "compare with StaticAnalyzer, per pass"},
    {"analyze.paths.behaviour_classes", "count", "lower", LAYER, "analyze",
     "", kSweep, "LatticeSweep behaviour_classes (1,920)"},
    {"analyze.reach.fired_triples", "count", "lower", LAYER, "analyze", "",
     kSweep, "ReachReport triples_total (2,764,800)"},
    {"analyze.oracle.agreed", "count", "higher", LAYER, "analyze", "",
     kSweep, "oracle trials agreed in the hardened/hardened run (29 of 29)"},
    {"core.audit.probes", "count", "lower", LAYER, "core", "", kSweep,
     "channel probes compared per pass (64 x 18)"},

    // ---- per layer: self time of each layer, every workload -------------
    {"core.self_pct", "%", "lower", LAYER, "core", "", kAll,
     "share of traced wall time inside calls into core"},
    {"simos.self_pct", "%", "lower", LAYER, "simos", "", kAll,
     "share of traced wall time inside calls into simos"},
    {"vfs.self_pct", "%", "lower", LAYER, "vfs", "", kAll,
     "share of traced wall time inside calls into vfs"},
    {"net.self_pct", "%", "lower", LAYER, "net", "", kAll,
     "share of traced wall time inside calls into net"},
    {"sched.self_pct", "%", "lower", LAYER, "sched", "", kAll,
     "share of traced wall time inside calls into sched"},
    {"gpu.self_pct", "%", "lower", LAYER, "gpu", "", kAll,
     "share of traced wall time inside calls into gpu"},
    {"portal.self_pct", "%", "lower", LAYER, "portal", "", kAll,
     "share of traced wall time inside calls into portal"},
    {"container.self_pct", "%", "lower", LAYER, "container", "", kAll,
     "share of traced wall time inside calls into container"},
    {"obs.self_pct", "%", "lower", LAYER, "obs", "", kAll,
     "share of traced wall time inside calls into obs"},
    {"analyze.self_pct", "%", "lower", LAYER, "analyze", "", kAll,
     "share of traced wall time inside calls into analyze"},
    {"trace.unattributed_pct", "%", "lower", LAYER, "bench", "", kAll,
     "traced wall time in no layer call: the harness's own code"},
    {"trace.overhead_pct", "%", "lower", LAYER, "bench", "", kAll,
     "untraced over traced throughput, minus one, in the same process"},
};

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace

const std::vector<MetricSpec>& metric_specs() { return kSpecs; }

const MetricSpec* find_metric(std::string_view name) {
  for (const MetricSpec& m : kSpecs) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

std::string metric_listing_json() {
  std::string out = "[\n";
  for (std::size_t i = 0; i < kSpecs.size(); ++i) {
    const MetricSpec& m = kSpecs[i];
    out += "  {\"name\": ";
    append_json_string(out, m.name);
    out += ", \"unit\": ";
    append_json_string(out, m.unit);
    out += ", \"better\": ";
    append_json_string(out, m.better);
    out += ", \"kind\": ";
    append_json_string(out, m.kind == MetricKind::end_to_end ? "end_to_end"
                                                             : "per_layer");
    out += ", \"layer\": ";
    append_json_string(out, m.layer);
    out += ", \"moves\": ";
    append_json_string(out, m.moves);
    out += ", \"workloads\": ";
    append_json_string(out, m.workloads);
    out += ", \"meaning\": ";
    append_json_string(out, m.meaning);
    out += i + 1 < kSpecs.size() ? "},\n" : "}\n";
  }
  out += "]\n";
  return out;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  if (q <= 0) return sorted.front();
  if (q >= 1) return sorted.back();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  // The q-quantile sits at rank ceil(q * n); everything ranked above it
  // lies beyond. The epsilon keeps 0.99 * 1000 from rounding up to 991.
  const double at = std::ceil(q * static_cast<double>(n) - 1e-9);
  const auto rank = static_cast<std::size_t>(std::max(0.0, at));
  return rank >= n ? 0 : n - rank;
}

std::optional<double> reportable_quantile(const std::vector<double>& sorted,
                                          double q, std::size_t min_beyond) {
  if (samples_beyond(sorted.size(), q) < min_beyond) return std::nullopt;
  return quantile_sorted(sorted, q);
}

std::vector<double> sorted_copy(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values;
}

double median(std::vector<double> values) {
  return quantile_sorted(sorted_copy(std::move(values)), 0.5);
}

void FastestTimes::add(std::size_t unit, double ns) {
  if (unit >= fastest_.size()) {
    fastest_.resize(unit + 1, std::numeric_limits<double>::infinity());
  }
  fastest_[unit] = std::min(fastest_[unit], ns);
}

std::vector<double> FastestTimes::sorted() const {
  std::vector<double> out;
  for (const double ns : fastest_) {
    if (ns != std::numeric_limits<double>::infinity()) out.push_back(ns);
  }
  return sorted_copy(std::move(out));
}

namespace {
constexpr double kHistMin = 10.0;
constexpr double kHistRatio = 1.005;
constexpr std::size_t kHistBuckets = 4800;  // 10 ns * 1.005^4800 > 100 s
}  // namespace

std::size_t LogHistogram::bucket_of(double ns) {
  if (!(ns > kHistMin)) return 0;
  const double b = std::log(ns / kHistMin) / std::log(kHistRatio);
  return std::min(kHistBuckets - 1, 1 + static_cast<std::size_t>(b));
}

double LogHistogram::bucket_low(std::size_t b) {
  // Bucket b > 0 holds (10 * r^(b-1), 10 * r^b]; bucket 0 everything
  // up to 10 ns.
  if (b == 0) return 0;
  return kHistMin * std::pow(kHistRatio, static_cast<double>(b) - 1);
}

void LogHistogram::add(double ns) {
  if (buckets_.empty()) buckets_.assign(kHistBuckets, 0);
  ++buckets_[bucket_of(ns)];
  ++count_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (buckets_.empty()) buckets_.assign(kHistBuckets, 0);
  for (std::size_t b = 0; b < kHistBuckets; ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (static_cast<double>(seen + buckets_[b]) > rank) {
      // Spread the bucket's samples evenly across it, as ranks.
      const double frac = (rank - static_cast<double>(seen) + 0.5) /
                          static_cast<double>(buckets_[b]);
      const double lo = bucket_low(b);
      const double hi = bucket_low(b + 1);
      return lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
    }
    seen += buckets_[b];
  }
  return bucket_low(buckets_.size());
}

std::uint64_t LogHistogram::count_above(double ns) const {
  std::uint64_t n = 0;
  for (std::size_t b = bucket_of(ns) + 1; b < buckets_.size(); ++b) {
    n += buckets_[b];
  }
  return n;
}

void Result::set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

std::optional<double> Result::get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  return std::nullopt;
}

std::string Result::metric_lines(MetricKind kind) const {
  std::string out;
  for (const MetricSpec& m : kSpecs) {
    if (m.kind != kind) continue;
    const auto v = get(m.name);
    if (!v) continue;
    out += m.name;
    out += ' ';
    out += format_number(*v);
    out += ' ';
    out += m.unit;
    out += '\n';
  }
  return out;
}

std::string Result::json_line(MetricKind kind) const {
  bool complete = true;
  for (const auto& [n, v] : values_) {
    if (find_metric(n) == nullptr) complete = false;
  }
  std::string metrics;
  for (const MetricSpec& m : kSpecs) {
    if (m.kind != kind) continue;
    const auto v = get(m.name);
    if (!v) {
      complete = false;
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    append_json_string(metrics, m.name);
    metrics += ": {\"value\": " + format_number(*v) + ", \"unit\": ";
    append_json_string(metrics, m.unit);
    metrics += '}';
  }
  const bool correct = complete && failed_ == 0 && attempted_ > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {" + metrics + "}}";
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
