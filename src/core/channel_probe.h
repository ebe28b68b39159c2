// The channel-probe table: one live probe per cross-user channel of the
// paper's census (§IV-A–F, obs::ChannelKind).
//
// Each entry stages a victim artifact (a process, a job, a file, a
// listener, a notebook, GPU memory), lets the observer try to reach it,
// takes the artifact down again, and names the knob a deny on that
// channel should attribute. The LeakageAuditor runs every entry for one
// (victim, observer) pair; the differential path oracle runs the entry
// behind each channel edge of an attack path. One table means the §V
// census and the multi-hop oracle cannot drift apart on what "probing a
// channel" does.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "core/cluster.h"
#include "core/policy.h"
#include "obs/taxonomy.h"

namespace heus::core {

/// The two principals of one probe, both logged in by the caller.
///
/// The victim's session fixes the vantage: node-local channels (procfs,
/// /tmp, /dev/shm, abstract sockets) are staged and attempted on the
/// victim's node — the login node, or a compute node once a foothold
/// has put the adversary beside the victim. Network attempts leave from
/// the observer's node.
struct ProbeParties {
  Cluster& cluster;
  const Session& victim;
  const Session& observer;
};

/// What one attempt achieved.
struct ProbeOutcome {
  bool open = false;   ///< the observer crossed the boundary
  std::string detail;  ///< what the probe saw
};

struct ChannelProbe {
  obs::ChannelKind kind;
  /// Victim set-up, the observer's attempt from the vantage, and
  /// teardown of everything the set-up created.
  ProbeOutcome (*run)(const ProbeParties& parties);
  /// Knob a deny on this channel attributes under `policy`; nullptr for
  /// the documented residuals, which nothing denies.
  const char* (*deny_knob)(const SeparationPolicy& policy);
};

/// One entry per obs::ChannelKind, in obs::kAllChannels order.
[[nodiscard]] std::span<const ChannelProbe> channel_probes();

[[nodiscard]] const ChannelProbe& channel_probe(obs::ChannelKind kind);

/// The victim's Jupyter notebook, served from an interactive job
/// through the portal: the table's portal set-up, shared with the path
/// oracle's portal foothold and federated portal hops. Stages the app
/// for `victim` on `cluster`, runs `fetch` (the observer's request for
/// it), and takes the app and job down again. Open when the response
/// carries the notebook's content.
[[nodiscard]] ProbeOutcome with_victim_notebook(
    Cluster& cluster, const Session& victim,
    const std::function<Result<std::string>(portal::AppId)>& fetch);

}  // namespace heus::core
