// Differential path oracle (ISSUE 8 tentpole, the dynamic half).
//
// The PathAnalyzer claims, statically, which multi-hop escalation paths
// a deployment admits. This oracle holds that claim to step-by-step
// agreement with the real stack: it stands up a live 2-cluster
// `fed::Federation`, walks every potential attack path of the
// ChannelGraph hop by hop as a real adversary account ("mallory"), and
// checks per hop that
//
//  (a) the hop crosses dynamically if and only if the graph says the
//      edge is present (under partition, fed-layer edges are expected
//      severed regardless of the static graph — availability is a
//      dynamic fact the graph does not model); and
//  (b) when a hop is blocked, a Decision naming the *predicted*
//      severing knob landed on one of the clusters' traces during that
//      hop's trace window.
//
// Every channel hop is played through its core::channel_probes() entry —
// the same probe the LeakageAuditor runs — from the login node or from
// the victim's node. Only the hops that carry state into the next one
// have executors here: the ssh/co-scheduling/portal footholds and the
// federation hops.
//
// The standard run matrix covers hardened/hardened, baseline/baseline,
// both asymmetric pairs (the enforcing side's verdict must win in both
// directions), one single-knob ablation, and a partitioned WAN — which
// together execute 64+ multi-hop path trials and the cross-cluster
// paths through src/fed both healthy and partitioned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/path_analyzer.h"
#include "core/policy.h"

namespace heus::analyze {

/// One executed hop of one path trial.
struct HopTrial {
  std::string mechanism;
  std::uint32_t edge_index = 0;  ///< into ChannelGraph::edges()
  bool static_present = false;
  bool expected_cross = false;  ///< presence, minus partitioned fed hops
  bool crossed = false;
  std::string predicted_knob;  ///< expected on a blocked hop ("" = none)
  bool knob_observed = false;
  bool agree = false;
  std::string detail;
};

/// One path executed hop-by-hop (stops at the first blocked hop).
struct PathTrial {
  std::string label;
  std::size_t hops_total = 0;  ///< static length of the path
  bool multi_hop = false;
  bool cross_cluster = false;
  std::vector<HopTrial> hops;  ///< the executed prefix
  bool agree = false;
};

/// One federation instantiation: a pair of policies, optionally a
/// partitioned WAN, and every path trial executed against it.
struct OracleRun {
  std::string label;
  std::string policy_a;
  std::string policy_b;
  bool partitioned = false;
  std::vector<PathTrial> trials;
  std::size_t agree_count = 0;
  std::size_t multi_hop_count = 0;
  std::size_t cross_cluster_count = 0;
};

struct OracleReport {
  std::vector<OracleRun> runs;
  std::size_t trials = 0;
  std::size_t agreed = 0;
  std::size_t multi_hop = 0;      ///< trials with >= 2 static hops
  std::size_t cross_cluster = 0;  ///< trials crossing the WAN
  bool all_agree = false;
  std::vector<std::string> disagreements;
};

struct OracleOptions {
  core::SeparationPolicy policy_a;  ///< adversary's home cluster
  core::SeparationPolicy policy_b;  ///< federated peer
  bool partition_link = false;
  std::string label;
};

/// True when the oracle plays `spec` through core::channel_probes():
/// every channel edge except the fed-layer hops and the ssh_gate /
/// portal_forward footholds.
[[nodiscard]] bool runs_channel_probe(const EdgeSpec& spec);

/// Execute every potential path of the (policy_a, policy_b) graph
/// against a live federation (partitioned runs execute the
/// cross-cluster paths, repeated until the breaker trips).
[[nodiscard]] OracleRun run_path_oracle(const OracleOptions& opts);

/// The standard 6-run matrix (see file comment); the CI-facing entry.
[[nodiscard]] OracleReport run_standard_oracle();

[[nodiscard]] std::string oracle_to_markdown(const OracleReport& report);

}  // namespace heus::analyze
