// policy_sweep: one pass of the heus-lint pipeline as library calls —
// the lifecycle reachability check over the 73,728-policy lattice, the
// escalation-path lattice sweep, the mutation sweep, a minimal cut, the
// dead-knob lint, the path oracle, and a 64-policy static-versus-dynamic
// differential that builds one small live Cluster per policy.
//
// Why: almost all of its time goes to the two lattice sweeps, and no net
// or sched hot loop runs, so a change to one lattice-sweep loop shows here
// and nowhere else. The seed draws the differential's random policies.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/channel_graph.h"
#include "analyze/knob_lint.h"
#include "analyze/path_analyzer.h"
#include "analyze/path_oracle.h"
#include "analyze/policy_space.h"
#include "analyze/reachability.h"
#include "common/strings.h"
#include "core/audit.h"
#include "core/cluster.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace analyze = heus::analyze;
namespace core = heus::core;

constexpr std::size_t kCorpusSize = 64;
constexpr std::size_t kPassesForTail = 40;  ///< p75 needs ten beyond it
constexpr std::size_t kOracleHardenedTrials = 29;

struct Expected {
  std::size_t behaviour_classes = 1920;
  std::uint64_t fired_triples = 2'764'800;
};

/// What one pass produced; every pass must reproduce the first exactly.
struct PassOutput {
  std::size_t reach_findings = 0;
  std::uint64_t triples = 0;
  std::size_t policies = 0;
  std::size_t behaviour_classes = 0;
  std::size_t hardened_paths = 0;
  std::size_t mutations = 0;
  std::vector<std::string> cut;
  bool lint_clean = false;
  std::size_t oracle_trials = 0;
  std::size_t oracle_agreed = 0;
  bool oracle_all_agree = false;
  std::size_t oracle_hardened_trials = 0;  ///< the hardened/hardened run
  std::size_t oracle_hardened_agreed = 0;
  std::size_t probes = 0;
  std::size_t probe_agreements = 0;

  bool operator==(const PassOutput&) const = default;
};

/// Wall time of every library call of one pass, in ns — or, combined
/// over passes, their sum or each call's fastest.
struct StageTimes {
  std::vector<std::int64_t> reach;  ///< one check per lifecycle machine
  std::int64_t paths = 0, mutation = 0, min_cut = 0, lint = 0, oracle = 0,
               audit = 0;

  [[nodiscard]] std::int64_t reach_ns() const {
    std::int64_t ns = 0;
    for (const std::int64_t x : reach) ns += x;
    return ns;
  }
  /// The calls that sweep the policy lattice.
  [[nodiscard]] std::int64_t lattice_ns() const { return reach_ns() + paths; }
  [[nodiscard]] std::int64_t pass_ns() const {
    return lattice_ns() + mutation + min_cut + lint + oracle + audit;
  }
  /// Combine `o` into this call by call with `f` (sum or fastest).
  template <typename F>
  void combine(const StageTimes& o, F f) {
    if (reach.empty()) {
      *this = o;
      return;
    }
    for (std::size_t m = 0; m < reach.size(); ++m) {
      reach[m] = f(reach[m], o.reach[m]);
    }
    paths = f(paths, o.paths);
    mutation = f(mutation, o.mutation);
    min_cut = f(min_cut, o.min_cut);
    lint = f(lint, o.lint);
    oracle = f(oracle, o.oracle);
    audit = f(audit, o.audit);
  }
};

class Timed {
 public:
  Timed(const char* name, std::int64_t& sink)
      : span_(span_name(name)), sink_(sink), t0_(now_ns()) {}
  ~Timed() { sink_ += now_ns() - t0_; }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span span_;
  std::int64_t& sink_;
  std::int64_t t0_;
};

core::ClusterConfig audit_config(const core::SeparationPolicy& policy) {
  core::ClusterConfig cfg;
  cfg.compute_nodes = 2;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 8;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 1024;
  cfg.policy = policy;
  return cfg;
}

PassOutput run_pass(const std::vector<analyze::NamedPolicy>& corpus,
                    std::uint64_t id, StageTimes& t) {
  static const NameId kPass = span_name("bench.pass");
  Span pass(kPass, id);
  PassOutput out;
  const analyze::TopologyFacts facts;
  {
    // The six shipped tables, one lattice sweep each: the same work as
    // check_shipped(), in calls of 15-70 ms rather than one of 250 ms.
    static const NameId kReach = span_name("analyze.reach");
    Span reach(kReach);
    const analyze::ReachabilityChecker checker(facts);
    for (const heus::lifecycle::MachineDef* def :
         analyze::lifecycle_machines()) {
      const std::int64_t t0 = now_ns();
      const analyze::ReachReport rep = checker.check(*def);
      t.reach.push_back(now_ns() - t0);
      out.reach_findings += rep.findings.size();
      out.triples += rep.triples_total();
    }
  }
  const analyze::PathAnalyzer paths(facts);
  {
    Timed s("analyze.paths_sweep", t.paths);
    const analyze::LatticeSweep sweep = paths.sweep();
    out.policies = sweep.policies;
    out.behaviour_classes = sweep.behaviour_classes;
    out.hardened_paths = sweep.hardened_escalation_paths;
  }
  {
    Timed s("analyze.mutation", t.mutation);
    out.mutations = paths.mutation_sweep().size();
  }
  {
    Timed s("analyze.min_cut", t.min_cut);
    const core::SeparationPolicy base = core::SeparationPolicy::baseline();
    const std::vector<analyze::ClusterSpec> pair = {{"c0", base},
                                                    {"c1", base}};
    const analyze::ChannelGraph graph = analyze::ChannelGraph::build(
        pair, paths.principal(), facts);
    std::vector<analyze::AttackPath> escalation;
    for (analyze::AttackPath& p : analyze::PathAnalyzer::enumerate(graph)) {
      if (p.has_open_hop) escalation.push_back(std::move(p));
    }
    out.cut = paths.minimal_cut(pair, escalation, graph);
  }
  {
    Timed s("analyze.knob_lint", t.lint);
    out.lint_clean = analyze::knob_lint().clean();
  }
  {
    Timed s("analyze.oracle", t.oracle);
    const analyze::OracleReport rep = analyze::run_standard_oracle();
    out.oracle_trials = rep.trials;
    out.oracle_agreed = rep.agreed;
    out.oracle_all_agree = rep.all_agree;
    out.oracle_hardened_trials =
        rep.runs.empty() ? 0 : rep.runs.front().trials.size();
    out.oracle_hardened_agreed =
        rep.runs.empty() ? 0 : rep.runs.front().agree_count;
  }
  {
    Timed s("core.audit", t.audit);
    const analyze::StaticAnalyzer analyzer(facts);
    for (const analyze::NamedPolicy& np : corpus) {
      core::Cluster cluster(audit_config(np.policy));
      const heus::Uid victim = *cluster.add_user("victim");
      const heus::Uid observer = *cluster.add_user("observer");
      core::LeakageAuditor auditor(&cluster);
      for (const core::ChannelReport& r :
           auditor.audit_pair(victim, observer)) {
        ++out.probes;
        const bool crossable =
            analyze::is_crossable(analyzer.verdict(np.policy, r.kind));
        if (crossable == r.open) ++out.probe_agreements;
      }
    }
  }
  return out;
}

std::vector<analyze::NamedPolicy> make_corpus(std::uint64_t seed) {
  const std::size_t fixed = 2 + 2 * analyze::knobs().size();
  const std::size_t random = kCorpusSize > fixed ? kCorpusSize - fixed : 0;
  return analyze::differential_sweep(random, seed);
}

/// The pass's verdicts against what the shipped tables and the hardened
/// policy require.
void check_pass(const PassOutput& out, const PassOutput& first,
                OpCounter& ops) {
  const Expected want;
  auto expect = [&](bool ok, const char* what) {
    ops.check(ok);
    if (!ok) std::fprintf(stderr, "policy_sweep: check failed: %s\n", what);
  };
  expect(out.reach_findings == 0, "no reach findings");
  expect(out.triples == want.fired_triples, "fired triples");
  expect(out.behaviour_classes == want.behaviour_classes,
         "behaviour classes");
  expect(out.hardened_paths == 0, "hardened admits no escalation path");
  expect(out.mutations == analyze::knobs().size(), "one mutation per knob");
  expect(!out.cut.empty(), "baseline has a minimal cut");
  expect(out.lint_clean, "knob lint clean");
  expect(out.oracle_all_agree && out.oracle_agreed == out.oracle_trials &&
             out.oracle_hardened_trials == kOracleHardenedTrials &&
             out.oracle_hardened_agreed == kOracleHardenedTrials,
         "oracle agrees on every trial (29 of 29 under hardened)");
  expect(out.probes == kCorpusSize * core::kAllChannels.size() &&
             out.probe_agreements == out.probes,
         "differential is exact");
  expect(out == first, "pass repeats the first pass");
}

}  // namespace

Result run_policy_sweep(const RunOptions& opts) {
  Result r;
  OpCounter ops;
  const std::uint64_t seed = opts.seed * 0x100000001b3ULL + 0x5eeb;

  // Set-up: the seeded corpus the differential audits. Every pass builds
  // it afresh, like a tenant day its cluster, so setup_s is the median of
  // set-ups spread over the whole run, each after the caches were last
  // used by a pass. An untimed warm-up pass comes first; every timed pass
  // must reproduce its output.
  tracer().reset(false);
  std::vector<double> setup_s;
  std::vector<analyze::NamedPolicy> corpus;
  auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    corpus = make_corpus(seed);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    ops.check(corpus.size() == kCorpusSize);
  };
  set_up();
  StageTimes warm;
  const PassOutput first = run_pass(corpus, 0, warm);

  // Passes until `seconds` have passed and there are enough of them. A
  // traced run traces every other pass, so the traced and untraced passes
  // see the same stretches of the machine's load.
  const bool tiny = opts.size == Size::tiny;
  const std::size_t min_passes =
      tiny ? (opts.trace ? 2 : 1) : (opts.trace ? 10 : kPassesForTail);
  std::vector<double> passes;
  std::vector<double> traced;
  StageTimes fastest;  ///< each call's fastest over the untraced passes
  StageTimes st;       ///< summed over the traced passes
  std::int64_t traced_ns = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opts.seconds * 1e9);
  for (std::size_t i = 0;
       passes.size() + traced.size() < min_passes ||
       (!tiny && now_ns() < deadline);
       ++i) {
    set_up();
    const bool trace_pass = opts.trace && i % 2 == 1;
    tracer().set_enabled(trace_pass);
    StageTimes stages;
    const std::int64_t t0 = now_ns();
    const PassOutput out = run_pass(corpus, i + 1, stages);
    const std::int64_t dt = now_ns() - t0;
    tracer().set_enabled(false);
    if (trace_pass) {
      traced.push_back(static_cast<double>(dt));
      traced_ns += dt;
      st.combine(stages, std::plus<>());
    } else {
      passes.push_back(static_cast<double>(dt));
      fastest.combine(stages, [](std::int64_t a, std::int64_t b) {
        return std::min(a, b);
      });
    }
    check_pass(out, first, ops);
  }

  // Every pass makes identical calls, so a call slower than its fastest
  // was slowed by the machine's neighbours, not by the code, and their
  // load comes and goes within a pass (README.md, "Steadiness record").
  // The pass latency is therefore each call at its fastest over the run,
  // summed in pipeline order; the throughput is the lattice policies per
  // second of the calls that sweep the lattice, at their fastest. The
  // tail is the p75 over every whole pass: one pass has no tail of its
  // own.
  const double policies_per_pass = static_cast<double>(first.policies);
  auto mean_rate = [&](const std::vector<double>& p) {
    double ns = 0;
    for (const double x : p) ns += x;
    return policies_per_pass * static_cast<double>(p.size()) / (ns / 1e9);
  };
  const std::vector<double> sorted = sorted_copy(passes);
  const auto tail = reportable_quantile(sorted, 0.75);
  r.note(heus::common::strformat(
      "passes=%zu policies_per_pass=%zu "
      "pass_ms[min,p10,p50,p75]=[%.1f,%.1f,%.1f,%.1f] samples_beyond_p75=%zu",
      passes.size(), first.policies, sorted.front() / 1e6,
      quantile_sorted(sorted, 0.1) / 1e6, quantile_sorted(sorted, 0.5) / 1e6,
      quantile_sorted(sorted, 0.75) / 1e6,
      samples_beyond(sorted.size(), 0.75)));
  std::string calls = "fastest call ms: reach";
  for (const std::int64_t ns : fastest.reach) {
    calls += heus::common::strformat(" %.2f", static_cast<double>(ns) / 1e6);
  }
  calls += heus::common::strformat(
      " paths %.2f rest %.2f sum %.2f",
      static_cast<double>(fastest.paths) / 1e6,
      static_cast<double>(fastest.pass_ns() - fastest.lattice_ns()) / 1e6,
      static_cast<double>(fastest.pass_ns()) / 1e6);
  r.note(calls);

  if (!opts.trace) {
    r.set("setup_s", median(setup_s));
    const double lattice_s = static_cast<double>(fastest.lattice_ns()) / 1e9;
    r.set("throughput_per_s", policies_per_pass / lattice_s);
    r.set("latency_p50_ms", static_cast<double>(fastest.pass_ns()) / 1e6);
    r.set("latency_tail_ms", tail ? *tail / 1e6 : 0);
    r.set("peak_rss_mb", peak_rss_mb());
    r.add_ops(ops.attempted(), ops.failed());
    return r;
  }

  const double n = static_cast<double>(traced.size());
  r.set("analyze.reach_ms", static_cast<double>(st.reach_ns()) / n / 1e6);
  r.set("analyze.paths_sweep_ms", static_cast<double>(st.paths) / n / 1e6);
  r.set("analyze.mutation_ms", static_cast<double>(st.mutation) / n / 1e6);
  r.set("analyze.min_cut_ms", static_cast<double>(st.min_cut) / n / 1e6);
  r.set("analyze.knob_lint_ms", static_cast<double>(st.lint) / n / 1e6);
  r.set("analyze.oracle_ms", static_cast<double>(st.oracle) / n / 1e6);
  r.set("core.audit_ms", static_cast<double>(st.audit) / n / 1e6);
  r.set("analyze.paths.behaviour_classes",
        static_cast<double>(first.behaviour_classes));
  r.set("analyze.reach.fired_triples", static_cast<double>(first.triples));
  r.set("analyze.oracle.agreed",
        static_cast<double>(first.oracle_hardened_agreed));
  r.set("core.audit.probes", static_cast<double>(first.probes));
  set_self_shares(r, traced_ns);
  r.set("trace.overhead_pct",
        100.0 * (mean_rate(passes) / mean_rate(traced) - 1.0));
  zero_unset_layer_metrics(r);
  if (!opts.spans_path.empty() && !tracer().write_csv(opts.spans_path)) {
    r.note("could not write spans to " + opts.spans_path);
  }
  r.add_ops(ops.attempted(), ops.failed());
  return r;
}

}  // namespace perfbench
