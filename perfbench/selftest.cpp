// Self-test of the benchmark: statistics, span arithmetic, the metric
// registry, tiny smoke runs of every workload, a deliberately wrong
// expectation, and fleet_tick's worker-count invariance. run.py --selftest
// builds and runs this, then checks --list-metrics against BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <thread>

#include "spans.h"
#include "workloads.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void spin_ns(std::int64_t ns) {
  const std::int64_t until = perfbench::now_ns() + ns;
  while (perfbench::now_ns() < until) {
  }
}

void test_quantiles() {
  using namespace perfbench;
  check(quantile_sorted({1, 2, 3, 4}, 0.5) == 2.5, "median interpolates");
  check(quantile_sorted({10}, 0.99) == 10, "single sample");
  check(quantile_sorted({}, 0.5) == 0, "empty sample reads 0");
  check(quantile_sorted({0, 10, 20, 30, 40}, 0.75) == 30, "p75 on a rank");
  check(median({5, 1, 3, 2, 4}) == 3 && median({4, 1, 3, 2}) == 2.5,
        "median sorts and interpolates");
  FastestTimes fastest;
  for (int replay = 0; replay < 3; ++replay) {
    fastest.add(0, 30.0 - replay);
    fastest.add(2, 10.0 + replay);
  }
  fastest.add(5, 7);
  check(fastest.sorted() == std::vector<double>{7, 10, 28},
        "fastest replay per unit; units never replayed are left out");
  check(FastestTimes{}.sorted().empty(), "no replays, no units");
}

void test_histogram() {
  using namespace perfbench;
  LogHistogram h;
  std::vector<double> v;
  for (int i = 1; i <= 5000; ++i) {
    const double x = 100.0 + 37.0 * i + (i % 7) * 1000.0;
    h.add(x);
    v.push_back(x);
  }
  v = sorted_copy(v);
  bool close = true;
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact = quantile_sorted(v, q);
    close = close && std::abs(h.quantile(q) - exact) <= 0.005 * exact;
  }
  check(close, "histogram quantiles within 0.5% of exact");
  check(h.count() == 5000, "histogram counts samples");
  check(h.count_above(v[4949]) <= 51 && h.count_above(v[4949]) >= 40,
        "histogram count_above at the p99 rank");
  check(LogHistogram{}.quantile(0.5) == 0, "empty histogram reads 0");
  LogHistogram lo, hi;
  for (std::size_t k = 0; k < v.size(); ++k) (k % 2 ? hi : lo).add(v[k]);
  lo.merge(hi);
  lo.merge(LogHistogram{});
  check(lo.count() == h.count() && lo.quantile(0.5) == h.quantile(0.5) &&
            lo.quantile(0.99) == h.quantile(0.99),
        "merged histograms equal one histogram of every sample");
}

void test_tail_rule() {
  using namespace perfbench;
  check(samples_beyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond");
  check(samples_beyond(999, 0.99) == 9, "p99 of 999 has 9 beyond");
  check(samples_beyond(100, 0.9) == 10, "p90 of 100 has 10 beyond");
  check(samples_beyond(40, 0.75) == 10, "p75 of 40 has 10 beyond");
  check(samples_beyond(20, 0.5) == 10, "p50 of 20 has 10 beyond");
  std::vector<double> v(999);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  check(!reportable_quantile(v, 0.99), "p99 of 999 is not reported");
  v.push_back(999);
  check(reportable_quantile(v, 0.99).has_value(), "p99 of 1000 is reported");
}

void test_span_self_time() {
  using namespace perfbench;
  const NameId outer = span_name("selftest.outer");
  const NameId inner = span_name("selftest_inner.call");
  tracer().reset(true);
  {
    Span a(outer, 7);
    spin_ns(200'000);
    {
      Span b(inner);
      spin_ns(300'000);
    }
    {
      Span b(inner);
      spin_ns(100'000);
    }
  }
  tracer().set_enabled(false);
  {
    Span ignored(outer);  // stopped: records nothing
  }
  const NameStats o = tracer().stats(outer);
  const NameStats i = tracer().stats(inner);
  check(o.count == 1 && i.count == 2, "span counts");
  check(o.self_ns == o.total_ns - i.total_ns,
        "outer self = outer - covered children");
  check(i.self_ns == i.total_ns, "leaf self = duration");
  check(i.durations_ns.count() == 2 &&
            i.durations_ns.quantile(1.0) >= 0.995 * 300'000,
        "span durations kept per name");
  check(tracer().layer_self_ns("selftest", true) +
                tracer().layer_self_ns("selftest_inner", true) ==
            o.total_ns,
        "self times add up to the root duration");
  check(o.self_ns >= 200'000 && i.total_ns >= 400'000, "durations measured");

  // Spans from another thread land on another track, not the main one.
  std::thread worker([&] {
    Span w(span_name("selftest_worker.call"));
  });
  worker.join();
  check(tracer().layer_self_ns("selftest_worker", true) == 0,
        "worker spans stay off the main track");
}

void test_registry() {
  using namespace perfbench;
  std::set<std::string> names;
  bool all_valid = true;
  bool e2e_setup = false;
  for (const MetricSpec& m : metric_specs()) {
    all_valid = all_valid && valid_metric_name(m.name) && valid_unit(m.unit);
    all_valid = all_valid && (std::string(m.better) == "lower" ||
                              std::string(m.better) == "higher");
    names.insert(m.name);
    e2e_setup = e2e_setup || (std::string(m.name) == "setup_s" &&
                              m.kind == MetricKind::end_to_end);
  }
  check(all_valid, "every metric name and unit is in the character set");
  check(names.size() == metric_specs().size(), "metric names are unique");
  check(e2e_setup, "setup_s is an end-to-end metric");
  check(!valid_metric_name("_leading"), "name must start alphanumeric");
  check(!valid_metric_name("has space"), "name rejects spaces");
  check(!valid_metric_name(std::string(65, 'a')), "name at most 64");
  check(valid_metric_name("net.ubf.cache_hit_ratio"), "dotted name ok");
  check(!valid_unit("milliseconds-long"), "unit at most 16");
}

void smoke(const char* name, perfbench::Result (*run)(
                                 const perfbench::RunOptions&)) {
  using namespace perfbench;
  for (const bool trace : {false, true}) {
    RunOptions opts;
    opts.seed = 3;
    opts.seconds = 1;
    opts.trace = trace;
    opts.size = Size::tiny;
    const Result r = run(opts);
    const std::string what = std::string(name) + (trace ? " traced" : "");
    check(r.attempted() > 0 && r.failed() == 0,
          what + " smoke: ops_failed = 0 (attempted " +
              std::to_string(r.attempted()) + ", failed " +
              std::to_string(r.failed()) + ")");
    const MetricKind kind =
        trace ? MetricKind::per_layer : MetricKind::end_to_end;
    check(r.json_line(kind).find("\"correct\": true") != std::string::npos,
          what + " smoke: every metric reported");
  }
}

void test_wrong_expectation() {
  using namespace perfbench;
  RunOptions opts;
  opts.seed = 3;
  opts.seconds = 1;
  opts.size = Size::tiny;
  opts.wrong_expectation = true;
  const Result r = run_tenant_day(opts);
  check(r.failed() > 0, "a wrong expectation is counted as a failed op");
  check(r.json_line(MetricKind::end_to_end).find("\"correct\": false") !=
            std::string::npos,
        "a failed op makes the result incorrect");
}

void test_worker_invariance() {
  using namespace perfbench;
  for (const std::uint64_t seed : {1ULL, 99ULL}) {
    const std::uint64_t one = fleet_digest(seed, 1, 30);
    const std::uint64_t two = fleet_digest(seed, 2, 30);
    check(one == two, "fleet_tick network digest at 2 workers equals 1 "
                      "worker, seed " + std::to_string(seed));
  }
}

}  // namespace

int main() {
  test_quantiles();
  test_histogram();
  test_tail_rule();
  test_span_self_time();
  test_registry();
  smoke("tenant_day", perfbench::run_tenant_day);
  smoke("policy_sweep", perfbench::run_policy_sweep);
  test_wrong_expectation();
  test_worker_invariance();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
