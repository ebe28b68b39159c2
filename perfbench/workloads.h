// The timed workloads. Each is a closed loop driven from one process:
// the benchmark generates every input from the seed, hands the heus
// libraries only those inputs, checks every verdict and result against
// what the hardened policy requires, and times the work.
#pragma once

#include <cstdint>
#include <string>

#include "metrics.h"

namespace perfbench {

enum class Size {
  full,  ///< the sizes the benchmark reports
  tiny,  ///< self-test smoke sizes: same code paths, seconds of work
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: every other repetition traced; reports the per-layer
  /// metrics and the tracing overhead between the two kinds.
  bool trace = false;
  Size size = Size::full;
  /// Where the traced run writes its spans (CSV); empty = nowhere.
  std::string spans_path;
  /// Test seam: make tenant_day expect the wrong verdict for foreign
  /// home reads, so the self-test can prove a mismatch is counted.
  bool wrong_expectation = false;
};

[[nodiscard]] Result run_tenant_day(const RunOptions& opts);
[[nodiscard]] Result run_policy_sweep(const RunOptions& opts);

/// A small core::ShardedEngine fleet (fleet_tick.cpp) at a fixed seed
/// for a fixed number of ticks: the network digest (core::network_digest)
/// after the run. Worker-count invariance is a self-test, not a timed run.
[[nodiscard]] std::uint64_t fleet_digest(std::uint64_t seed, unsigned workers,
                                         int ticks);

/// Counts checks; a check that does not hold is a failed op.
class OpCounter {
 public:
  void check(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void merge(const OpCounter& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Per-layer metric helpers shared by the workloads' traced runs.
/// p50 (or p99) in microseconds of one span name; 0 when never called.
[[nodiscard]] double span_quantile_us(const char* name, double q);
/// Sets "<layer>.self_pct" for every layer and "trace.unattributed_pct",
/// decomposing `wall_ns` of the main track.
void set_self_shares(Result& r, std::int64_t wall_ns);
/// Sets every registered per-layer metric not yet set to 0: the workload
/// makes no call of that kind.
void zero_unset_layer_metrics(Result& r);

}  // namespace perfbench
