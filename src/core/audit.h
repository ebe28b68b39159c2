// LeakageAuditor: active probing of cross-user channels (paper §V).
//
// The paper's Results section is a qualitative census: which accidental
// data-leakage paths between users are closed by the configuration, and
// which residual paths remain (file names in world-writable directories,
// abstract-namespace unix sockets, native-CM InfiniBand). The auditor
// turns that census into a measurement: for an ordered pair of users
// (victim, observer) it actively exercises every channel the paper
// discusses and reports open/closed, so experiments can count open
// channels under baseline vs hardened policies and verify the residual
// set matches the paper's list exactly.
#pragma once

#include <string>
#include <vector>

#include "core/cluster.h"
#include "obs/taxonomy.h"

namespace heus::core {

// The channel taxonomy moved to obs/taxonomy.h so the decision spine,
// the static analyzer and this auditor share one vocabulary. Re-exported
// here so existing core::ChannelKind users compile unchanged.
using obs::ChannelKind;
using obs::channel_section;
using obs::is_documented_residual;
using obs::kAllChannels;
using obs::to_string;

struct ChannelReport {
  ChannelKind kind;
  bool open = false;   ///< observer succeeded in crossing the boundary
  std::string detail;  ///< what the probe saw
};

/// Result of the misbehaving-code containment probe ("blast radius", §V).
struct BlastRadius {
  std::size_t victims_total = 0;
  std::size_t services_reached = 0;   ///< foreign TCP services connected to
  std::size_t files_read = 0;         ///< foreign home/tmp files read
  std::size_t processes_observed = 0; ///< foreign processes visible
  std::size_t jobs_observed = 0;      ///< foreign queue entries visible
  std::size_t port_collisions_won = 0;///< foreign ports squatted + crosstalk

  [[nodiscard]] std::size_t total_effects() const {
    return services_reached + files_read + processes_observed +
           jobs_observed + port_collisions_won;
  }
};

class LeakageAuditor {
 public:
  explicit LeakageAuditor(Cluster* cluster) : cluster_(cluster) {}

  /// Probe every channel from `victim` toward `observer`: run each
  /// core::channel_probes() entry from fresh login shells on the login
  /// node. Probes create and remove their own artifacts (files,
  /// listeners, jobs) and leave the cluster state as they found it,
  /// modulo accounting records; the shells are logged out again even
  /// when one of the two logins fails.
  [[nodiscard]] std::vector<ChannelReport> audit_pair(Uid victim,
                                                      Uid observer);

  [[nodiscard]] static std::size_t open_count(
      const std::vector<ChannelReport>& reports);

  /// Channels open that the paper does NOT list as residual — i.e. policy
  /// failures. Zero under hardened() is the headline reproduction claim.
  [[nodiscard]] static std::size_t unexpected_open_count(
      const std::vector<ChannelReport>& reports);

  /// Render a channel census as a markdown report (for security-review
  /// artifacts; EXPERIMENTS.md embeds the same table).
  [[nodiscard]] static std::string to_markdown(
      const std::vector<ChannelReport>& reports);

  /// Misbehaving-code containment: run a chaos routine as `attacker`
  /// against a population of victims that each own a service, files, and
  /// a running job; count the attacker's cross-user effects.
  [[nodiscard]] BlastRadius blast_radius(Uid attacker,
                                         const std::vector<Uid>& victims);

 private:
  Cluster* cluster_;
};

}  // namespace heus::core
