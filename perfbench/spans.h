// In-memory span tracer for the traced run.
//
// A span is one call from the benchmark into a heus layer: a name of the
// form "<layer>.<call>", a start and an end (steady_clock), the span that
// encloses it, and the id of the action, tick or pass it belongs to.
// Spans nest per thread. A span's self time is its duration minus the
// time its child spans cover, so the self times of all spans on a thread
// add up to the duration of that thread's outermost spans. Layer "bench"
// marks the harness's own root spans; their self time is the part of the
// wall time no layer call accounts for.
//
// Disabled (the untraced run), a Span is one branch on a bool. Enabled,
// each thread records into its own track without locking; the tracks are
// read only after the threads that wrote them have been joined.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "metrics.h"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

using NameId = std::uint16_t;

/// Intern a span name (process-wide, never reset). Call sites keep the
/// id in a function-local static.
[[nodiscard]] NameId span_name(std::string_view name);
[[nodiscard]] const std::string& span_name_text(NameId id);
/// "net" for "net.connect": the text before the first '.'.
[[nodiscard]] std::string_view span_layer(std::string_view name);

struct NameStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  LogHistogram durations_ns;
};

class Tracer {
 public:
  /// Drop everything recorded and start again. The calling thread's
  /// track becomes the main track (the one wall time is decomposed on).
  /// `raw_cap` bounds the spans kept per track for write_csv(); the
  /// aggregates always cover every span.
  void reset(bool enabled, std::size_t raw_cap = 100'000);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Pause or resume recording; what was recorded stays readable. Only
  /// between units of work, while no span is open.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void begin(NameId name, std::uint64_t root_id);
  void end();
  /// Rename the innermost open span (e.g. once a verdict is known).
  void rename_top(NameId name);

  /// Aggregate of one name over every track.
  [[nodiscard]] NameStats stats(NameId name) const;
  /// Summed self time of every span whose layer is `layer`, on the main
  /// track only or on every other track.
  [[nodiscard]] std::int64_t layer_self_ns(std::string_view layer,
                                           bool main_track) const;
  /// Every layer seen, in first-seen name order.
  [[nodiscard]] std::vector<std::string> layers() const;

  /// Write the kept spans as CSV: track,index,parent,root,name,start,end.
  bool write_csv(const std::string& path) const;

 private:
  struct Open {
    NameId name;
    std::int64_t start;
    std::int64_t child_ns;
    std::int32_t raw_index;
  };
  struct Raw {
    NameId name;
    std::int32_t parent;
    std::uint64_t root;
    std::int64_t start;
    std::int64_t end;
  };
  struct Track {
    std::vector<Open> stack;
    std::vector<NameStats> by_name;
    std::vector<Raw> raw;
    std::uint64_t root = 0;
  };

  Track& track();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> epoch_{0};
  std::size_t raw_cap_ = 0;
  mutable std::mutex mu_;  ///< guards tracks_ (registration only)
  std::vector<std::unique_ptr<Track>> tracks_;
};

[[nodiscard]] Tracer& tracer();

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(NameId name, std::uint64_t root_id = 0)
      : active_(tracer().enabled()) {
    if (active_) tracer().begin(name, root_id);
  }
  ~Span() {
    if (active_) tracer().end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void rename(NameId name) {
    if (active_) tracer().rename_top(name);
  }

 private:
  bool active_;
};

}  // namespace perfbench
