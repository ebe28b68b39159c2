#include "analyze/path_oracle.h"

#include <cstring>
#include <functional>
#include <optional>
#include <utility>

#include "analyze/channel_graph.h"
#include "analyze/policy_space.h"
#include "common/clock.h"
#include "common/strings.h"
#include "core/channel_probe.h"
#include "core/cluster.h"
#include "fed/federation.h"
#include "obs/decision.h"
#include "obs/taxonomy.h"
#include "portal/gateway.h"
#include "simos/credentials.h"

namespace heus::analyze {

using common::strformat;
using core::ProbeOutcome;
using core::SeparationPolicy;

namespace {

class AlwaysPartitioned final : public fed::LinkFaultModel {
 public:
  [[nodiscard]] bool partitioned(fed::ClusterIdx,
                                 fed::ClusterIdx) const override {
    return true;
  }
  [[nodiscard]] std::int64_t extra_ns(fed::ClusterIdx,
                                      fed::ClusterIdx) const override {
    return 0;
  }
  bool drop_message(fed::ClusterIdx, fed::ClusterIdx) override {
    return true;
  }
};

core::ClusterConfig oracle_config(const SeparationPolicy& policy) {
  core::ClusterConfig cfg;
  cfg.compute_nodes = 1;  // placement refusals attribute `sharing`
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 8;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 1024;
  cfg.policy = policy;
  return cfg;
}

/// Mutable adversary state threaded through the hops of one path trial.
struct Ctx {
  core::Cluster* a = nullptr;  ///< mallory's home cluster
  core::Cluster* b = nullptr;  ///< federated peer
  fed::Federation* fed = nullptr;
  Uid victim_a{};
  Uid victim_b{};
  Uid mallory{};
  std::optional<core::Session> adv;  ///< mallory's login shell on a
  std::optional<NodeId> vantage_node;  ///< victim's node, once won
  std::optional<SessionId> portal_token;
  /// Cross-hop resources (anchor jobs, shells, tokens), reverse-run at
  /// the end of the trial; single-hop resources tear down inline.
  std::vector<std::function<void()>> cleanup;
};

std::optional<NodeId> running_node(core::Cluster& c, JobId id) {
  const sched::Job* j = c.scheduler().find_job(id);
  if (j == nullptr || j->state != sched::JobState::running ||
      j->allocations.empty()) {
    return std::nullopt;
  }
  return j->allocations.front().node;
}

// ---------------------------------------------------------------------------
// Foothold hops
// ---------------------------------------------------------------------------

/// Start a long victim job on cluster a, kept until the end of the
/// trial. Returns the node it runs on, or nullopt if it is not running.
std::optional<NodeId> start_victim_job(Ctx& ctx) {
  core::Cluster* a = ctx.a;
  auto vs = a->login(ctx.victim_a);
  if (!vs) return std::nullopt;
  sched::JobSpec spec;
  spec.name = "oracle-victim-job";
  spec.duration_ns = 3600 * common::kSecond;
  auto job = a->submit(*vs, spec);
  ctx.cleanup.push_back([a, vs = *vs, job]() mutable {
    if (job) (void)a->scheduler().cancel(vs.cred, *job);
    a->logout(vs);
  });
  if (!job) return std::nullopt;
  a->scheduler().step();
  return running_node(*a, *job);
}

ProbeOutcome exec_ssh_gate(Ctx& ctx) {
  core::Cluster* a = ctx.a;
  const auto node = start_victim_job(ctx);
  if (!node) return {false, "victim job not running"};
  auto shell = a->ssh(*ctx.adv, *node);
  if (!shell) return {false, "ssh into victim's node denied"};
  ctx.vantage_node = *node;
  ctx.cleanup.push_back(
      [a, shell = *shell]() mutable { a->logout(shell); });
  return {true, "ssh into victim's node admitted"};
}

ProbeOutcome exec_colocation(Ctx& ctx) {
  core::Cluster* a = ctx.a;
  const auto vnode = start_victim_job(ctx);
  if (!vnode) return {false, "victim job not running"};
  sched::JobSpec aspec;
  aspec.name = "oracle-coloc-adversary";
  aspec.duration_ns = 3600 * common::kSecond;
  auto ajob = a->submit(*ctx.adv, aspec);
  const simos::Credentials adv_cred = ctx.adv->cred;
  ctx.cleanup.push_back([a, adv_cred, ajob]() {
    if (ajob) (void)a->scheduler().cancel(adv_cred, *ajob);
  });
  if (!ajob) return {false, "adversary job submit failed"};
  a->scheduler().step();
  const auto anode = running_node(*a, *ajob);
  if (!anode || *anode != *vnode) {
    return {false, "co-scheduling refused (adversary job held pending)"};
  }
  ctx.vantage_node = *anode;
  return {true, "co-scheduled beside the victim's job"};
}

// ---------------------------------------------------------------------------
// Portal hops
// ---------------------------------------------------------------------------

ProbeOutcome exec_portal_auth(Ctx& ctx) {
  auto token = ctx.a->portal().login(ctx.adv->cred);
  if (!token) return {false, "portal login rejected"};
  ctx.portal_token = *token;
  core::Cluster* a = ctx.a;
  ctx.cleanup.push_back(
      [a, t = *token]() { (void)a->portal().logout(t); });
  return {true, "portal session established"};
}

ProbeOutcome exec_portal_forward(Ctx& ctx) {
  if (!ctx.portal_token) return {false, "no portal session"};
  core::Cluster& a = *ctx.a;
  auto vs = a.login(ctx.victim_a);
  if (!vs) return {false, "victim login failed"};
  const auto fetch = [&](portal::AppId app) {
    return a.portal().request(*ctx.portal_token, app, "GET / HTTP/1.1");
  };
  ProbeOutcome out = core::with_victim_notebook(a, *vs, fetch);
  a.logout(*vs);
  return out;
}

// ---------------------------------------------------------------------------
// Channel hops: the shared probe table
// ---------------------------------------------------------------------------

/// Play a channel edge through its core::channel_probes() entry. The
/// victim's shell sits where the hop starts: on the login node, or on
/// the victim's compute node once ssh_gate or colocation has put the
/// adversary there (the multi-hop payoff: that node's procfs, /tmp,
/// /dev/shm and abstract sockets are only reachable from it).
ProbeOutcome exec_channel(Ctx& ctx, const EdgeSpec& spec) {
  core::Cluster& a = *ctx.a;
  std::optional<core::Session> vs;
  if (spec.from == Vantage::victim_node) {
    if (!ctx.vantage_node) return {false, "no node vantage"};
    auto cred = simos::login(a.users(), ctx.victim_a);
    if (!cred) return {false, "victim login failed"};
    core::Node& nd = a.node(*ctx.vantage_node);
    vs = core::Session{*cred, *ctx.vantage_node,
                       nd.procs().spawn(*cred, "-bash")};
  } else {
    auto login = a.login(ctx.victim_a);
    if (!login) return {false, "victim login failed"};
    vs = *login;
  }
  ProbeOutcome out =
      core::channel_probe(*spec.channel).run({a, *vs, *ctx.adv});
  a.logout(*vs);
  return out;
}

// ---------------------------------------------------------------------------
// Federation hops
// ---------------------------------------------------------------------------

ProbeOutcome exec_fed_gateway(Ctx& ctx) {
  // The WAN hop every federated operation starts with: the enforcing
  // peer verifies mallory's claimed identity with their home cluster.
  auto ident = ctx.fed->remote_ident(1, 0, ctx.mallory);
  if (!ident) {
    return {false, "peer could not verify identity (failed closed)"};
  }
  return {true, "peer verified mallory with the home cluster"};
}

ProbeOutcome exec_fed_connect(Ctx& ctx) {
  core::Cluster& b = *ctx.b;
  auto vs = b.login(ctx.victim_b);
  if (!vs) return {false, "victim login failed on peer"};
  net::Network& nw = b.network();
  const HostId vhost = b.node(vs->node).host();
  const std::uint16_t port = 23456;
  (void)nw.listen(vhost, vs->cred, vs->shell, net::Proto::tcp, port);
  auto flow =
      ctx.fed->connect(0, ctx.adv->cred, 1, vhost, net::Proto::tcp, port);
  ProbeOutcome r{false, "federated connect denied"};
  if (flow) {
    r = {true, "federated flow to the victim's service established"};
    (void)nw.close(*flow);
  }
  (void)nw.close_listener(vhost, net::Proto::tcp, port);
  b.logout(*vs);
  return r;
}

ProbeOutcome exec_fed_portal(Ctx& ctx) {
  core::Cluster& b = *ctx.b;
  auto vs = b.login(ctx.victim_b);
  if (!vs) return {false, "victim login failed on peer"};
  const auto fetch = [&](portal::AppId app) {
    return ctx.fed->portal_request(0, ctx.adv->cred, 1, app, "GET / HTTP/1.1");
  };
  ProbeOutcome out = core::with_victim_notebook(b, *vs, fetch);
  b.logout(*vs);
  return out;
}

ProbeOutcome execute_edge(Ctx& ctx, const EdgeSpec& spec) {
  if (runs_channel_probe(spec)) return exec_channel(ctx, spec);
  switch (spec.id) {
    case EdgeId::ssh_gate: return exec_ssh_gate(ctx);
    case EdgeId::colocation: return exec_colocation(ctx);
    case EdgeId::portal_auth: return exec_portal_auth(ctx);
    case EdgeId::portal_forward: return exec_portal_forward(ctx);
    case EdgeId::fed_gateway: return exec_fed_gateway(ctx);
    case EdgeId::fed_connect: return exec_fed_connect(ctx);
    case EdgeId::fed_portal: return exec_fed_portal(ctx);
    default: return {false, "no executor"};
  }
}

/// The knob a Decision should attribute when this (statically absent)
/// edge fails to cross. "" = the block is silent by design (residual
/// channels never block; fs read denials carry no knob, so fs hops are
/// attributed through the victim-side chmod/acl denial inside the same
/// trace window).
std::string blocked_knob(const SeparationPolicy& p, const EdgeSpec& spec) {
  if (spec.channel) {
    const char* knob = core::channel_probe(*spec.channel).deny_knob(p);
    return knob != nullptr ? knob : "";
  }
  // The placement refusal is only attributed when the victim's
  // whole-node binding is what exhausts the cluster.
  if (spec.id == EdgeId::colocation &&
      p.sharing == sched::SharingPolicy::user_whole_node) {
    return obs::knob::sharing;
  }
  return "";
}

bool knob_in_window(core::Cluster& c, std::uint64_t start,
                    const std::string& knob) {
  for (const obs::Decision& d : c.trace().snapshot()) {
    if (d.seq >= start && d.knob != nullptr && knob == d.knob) {
      return true;
    }
  }
  return false;
}

PathTrial execute_path(const ChannelGraph& graph, const AttackPath& path,
                       Ctx ctx, bool partitioned) {
  PathTrial trial;
  trial.label = path_label(graph, path);
  trial.hops_total = path.edges.size();
  trial.multi_hop = path.edges.size() >= 2;
  trial.cross_cluster = path.cross_cluster;

  auto adv = ctx.a->login(ctx.mallory);
  if (!adv) {
    trial.agree = false;
    return trial;
  }
  ctx.adv = *adv;

  bool all_agree = true;
  for (const std::uint32_t ei : path.edges) {
    const GraphEdge& e = graph.edges().at(ei);
    HopTrial hop;
    hop.mechanism = e.spec->mechanism;
    hop.edge_index = ei;
    hop.static_present = e.present;
    const bool fed_layer = std::strcmp(e.spec->layer, "fed") == 0;
    // Partition is a dynamic fact the static graph does not model: any
    // fed-layer hop is expected severed while the WAN is down.
    hop.expected_cross = e.present && !(partitioned && fed_layer);
    if (e.spec->id == EdgeId::fed_gateway) {
      if (partitioned) {
        hop.predicted_knob =
            ctx.fed->breaker_state(1, 0) == fed::BreakerState::open
                ? obs::knob::fed_breaker
                : obs::knob::fed_fail_closed;
      }
    } else if (!hop.expected_cross) {
      hop.predicted_knob = blocked_knob(
          graph.clusters().at(e.enforcing_cluster).policy, *e.spec);
    }
    const std::uint64_t start_a = ctx.a->trace().total();
    const std::uint64_t start_b = ctx.b->trace().total();
    const ProbeOutcome res = execute_edge(ctx, *e.spec);
    hop.crossed = res.open;
    hop.detail = res.detail;
    if (!hop.crossed && !hop.predicted_knob.empty()) {
      hop.knob_observed =
          knob_in_window(*ctx.a, start_a, hop.predicted_knob) ||
          knob_in_window(*ctx.b, start_b, hop.predicted_knob);
    }
    hop.agree =
        hop.crossed == hop.expected_cross &&
        (hop.crossed || hop.predicted_knob.empty() || hop.knob_observed);
    all_agree = all_agree && hop.agree;
    const bool stop = !hop.crossed;
    trial.hops.push_back(std::move(hop));
    if (stop) break;
  }
  for (auto it = ctx.cleanup.rbegin(); it != ctx.cleanup.rend(); ++it) {
    (*it)();
  }
  ctx.a->logout(*ctx.adv);
  trial.agree = all_agree;
  return trial;
}

}  // namespace

bool runs_channel_probe(const EdgeSpec& spec) {
  // The footholds hand their shell or portal session to the next hop,
  // and the fed hops stage on the peer cluster.
  return spec.channel && std::strcmp(spec.layer, "fed") != 0 &&
         spec.id != EdgeId::ssh_gate && spec.id != EdgeId::portal_forward;
}

OracleRun run_path_oracle(const OracleOptions& opts) {
  OracleRun run;
  run.label = opts.label;
  run.policy_a = describe_policy(opts.policy_a);
  run.policy_b = describe_policy(opts.policy_b);
  run.partitioned = opts.partition_link;

  const std::vector<ClusterSpec> specs = {{"a", opts.policy_a},
                                          {"b", opts.policy_b}};
  const ChannelGraph graph = ChannelGraph::build(
      specs, PrincipalClass::unprivileged, TopologyFacts{}, false);
  const std::vector<AttackPath> universe =
      PathAnalyzer::enumerate(graph, /*include_absent=*/true);

  core::Cluster a(oracle_config(opts.policy_a));
  core::Cluster b(oracle_config(opts.policy_b));
  for (core::Cluster* c : {&a, &b}) {
    c->trace().set_capacity(65536);
    c->trace().set_enabled(true);
  }
  const Uid victim_a = *a.add_user("victim");
  const Uid mallory = *a.add_user("mallory");
  const Uid victim_b = *b.add_user("victim");
  (void)b.add_user("mallory");  // federated mapping is by account name

  fed::Federation fed;
  (void)fed.add_cluster("a", &a);
  (void)fed.add_cluster("b", &b);
  AlwaysPartitioned wan;
  if (opts.partition_link) fed.set_link_faults(&wan);

  const auto run_one = [&](const AttackPath& path) {
    Ctx ctx;
    ctx.a = &a;
    ctx.b = &b;
    ctx.fed = &fed;
    ctx.victim_a = victim_a;
    ctx.victim_b = victim_b;
    ctx.mallory = mallory;
    PathTrial trial =
        execute_path(graph, path, std::move(ctx), opts.partition_link);
    run.agree_count += trial.agree ? 1 : 0;
    run.multi_hop_count += trial.multi_hop ? 1 : 0;
    run.cross_cluster_count += trial.cross_cluster ? 1 : 0;
    run.trials.push_back(std::move(trial));
  };

  if (opts.partition_link) {
    // Repeat the WAN paths until the breaker arc is fully exercised:
    // the first trips record fed.fail_closed, the later fast-fails
    // record fed.breaker — the per-trial prediction tracks the state.
    for (int rep = 0; rep < 5; ++rep) {
      for (const AttackPath& p : universe) {
        if (p.cross_cluster) run_one(p);
      }
    }
  } else {
    for (const AttackPath& p : universe) run_one(p);
  }
  return run;
}

OracleReport run_standard_oracle() {
  const SeparationPolicy hard = SeparationPolicy::hardened();
  const SeparationPolicy base{};
  SeparationPolicy no_pam = hard;
  no_pam.pam_slurm = false;

  const OracleOptions matrix[] = {
      {hard, hard, false, "hardened/hardened"},
      {base, base, false, "baseline/baseline"},
      {hard, base, false, "hardened/baseline"},
      {base, hard, false, "baseline/hardened"},
      {no_pam, no_pam, false, "hardened minus pam_slurm"},
      {hard, hard, true, "hardened/hardened, WAN partitioned"},
  };

  OracleReport report;
  for (const OracleOptions& opts : matrix) {
    OracleRun run = run_path_oracle(opts);
    report.trials += run.trials.size();
    report.agreed += run.agree_count;
    report.multi_hop += run.multi_hop_count;
    report.cross_cluster += run.cross_cluster_count;
    for (const PathTrial& t : run.trials) {
      if (t.agree) continue;
      for (const HopTrial& h : t.hops) {
        if (h.agree) continue;
        std::string msg = strformat(
            "[%s] %s — hop '%s': expected %s, got %s", run.label.c_str(),
            t.label.c_str(), h.mechanism.c_str(),
            h.expected_cross ? "cross" : "block",
            h.crossed ? "cross" : "block");
        if (!h.crossed && !h.predicted_knob.empty() && !h.knob_observed) {
          msg += strformat("; knob '%s' not attributed",
                           h.predicted_knob.c_str());
        }
        msg += " (" + h.detail + ")";
        report.disagreements.push_back(std::move(msg));
        break;
      }
    }
    report.runs.push_back(std::move(run));
  }
  report.all_agree =
      report.trials > 0 && report.agreed == report.trials;
  return report;
}

std::string oracle_to_markdown(const OracleReport& report) {
  std::string out = "## differential path oracle\n\n";
  out += "| run | trials | agree | multi-hop | cross-cluster |\n";
  out += "|-----|--------|-------|-----------|---------------|\n";
  for (const OracleRun& run : report.runs) {
    out += strformat("| %s%s | %zu | %zu | %zu | %zu |\n",
                     run.label.c_str(),
                     run.partitioned ? " (partitioned)" : "",
                     run.trials.size(), run.agree_count,
                     run.multi_hop_count, run.cross_cluster_count);
  }
  out += strformat(
      "\ntotal: %zu trials, %zu agree, %zu multi-hop, %zu "
      "cross-cluster — %s\n",
      report.trials, report.agreed, report.multi_hop,
      report.cross_cluster,
      report.all_agree ? "static and dynamic agree on every hop"
                       : "DISAGREEMENT");
  for (const std::string& d : report.disagreements) {
    out += "- " + d + "\n";
  }
  return out;
}

}  // namespace heus::analyze
