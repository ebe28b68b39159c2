// Metric registry, sample statistics and the result line of one run.
//
// Every metric the benchmark can print is declared once, in
// metric_specs(): its unit, its direction, the layer it belongs to and,
// for a per-layer metric, the end-to-end metric it should move on which
// workload. `--list-metrics` prints this table as JSON and the self-test
// checks it against BENCHMARK.json, so the two cannot drift apart.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

enum class MetricKind { end_to_end, per_layer };

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;     ///< "lower" or "higher"
  MetricKind kind;
  const char* layer;      ///< heus module, or "bench" for the harness
  const char* moves;      ///< end-to-end metric(s) it should move ("" = none)
  const char* workloads;  ///< workloads on which it is measured
  const char* meaning;
};

[[nodiscard]] const std::vector<MetricSpec>& metric_specs();
[[nodiscard]] const MetricSpec* find_metric(std::string_view name);

/// The listing `--list-metrics` prints: one JSON object per metric.
[[nodiscard]] std::string metric_listing_json();

/// Metric names: start with a letter or digit; at most 64 of letters,
/// digits, '_', '.' and '-'.
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// Units: at most 16 of letters, digits, '_', '/', '%', '.' and '-'.
[[nodiscard]] bool valid_unit(std::string_view unit);

// ---- sample statistics ----------------------------------------------------

/// Quantile `q` in [0, 1] of `sorted` (ascending), linear interpolation
/// between closest ranks. 0 for an empty sample.
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted,
                                     double q);

/// Samples ranked strictly above the q-quantile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The q-quantile, or nothing when fewer than `min_beyond` samples lie
/// beyond it — a percentile with too thin a tail is not reported.
[[nodiscard]] std::optional<double> reportable_quantile(
    const std::vector<double>& sorted, double q,
    std::size_t min_beyond = 10);

[[nodiscard]] std::vector<double> sorted_copy(std::vector<double> values);
/// The median of a set of per-repetition figures.
[[nodiscard]] double median(std::vector<double> values);
/// Each unit of identical work at its fastest. A run replays the same
/// units many times (the bursts of a tenant day); every replay does the
/// same work, and neighbours on a shared machine only ever slow one
/// down, so a unit's fastest replay is its cost on an undisturbed
/// machine (README.md, "Steadiness record").
class FastestTimes {
 public:
  /// One replay of unit `unit` took `ns`.
  void add(std::size_t unit, double ns);
  /// The fastest replay of every unit replayed at least once, ascending.
  [[nodiscard]] std::vector<double> sorted() const;

 private:
  std::vector<double> fastest_;  ///< per unit; infinity until replayed
};

/// Latency histogram with logarithmic buckets 0.5% wide, from 10 ns to
/// about 100 s. Its memory is fixed however many samples a run records,
/// so the sample store does not move the peak RSS the run reports.
class LogHistogram {
 public:
  void add(double ns);
  /// Add every sample of `other`.
  void merge(const LogHistogram& other);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// The q-quantile, interpolated within its bucket (within 0.5%).
  [[nodiscard]] double quantile(double q) const;
  /// Samples in buckets wholly above the bucket holding `ns`.
  [[nodiscard]] std::uint64_t count_above(double ns) const;

 private:
  [[nodiscard]] static std::size_t bucket_of(double ns);
  [[nodiscard]] static double bucket_low(std::size_t b);

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

// ---- one run's result -----------------------------------------------------

class Result {
 public:
  /// Record a metric; the name must be registered.
  void set(const std::string& name, double value);
  [[nodiscard]] std::optional<double> get(const std::string& name) const;

  void add_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Human-readable lines printed before the result line.
  void note(std::string line) { notes_.push_back(std::move(line)); }
  [[nodiscard]] const std::vector<std::string>& notes() const {
    return notes_;
  }

  /// Every metric of `kind` that was set, "name value unit" per line.
  [[nodiscard]] std::string metric_lines(MetricKind kind) const;

  /// The last line of stdout: {"correct", "attempted", "failed",
  /// "metrics"} with every registered metric of `kind`. A metric of that
  /// kind that was never set makes the result incorrect.
  [[nodiscard]] std::string json_line(MetricKind kind) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
