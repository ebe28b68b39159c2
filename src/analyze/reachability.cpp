#include "analyze/reachability.h"

#include <algorithm>
#include <set>

#include "analyze/json_util.h"
#include "analyze/policy_space.h"
#include "common/strings.h"
#include "container/entry_lifecycle.h"
#include "fed/breaker_lifecycle.h"
#include "net/flow_lifecycle.h"
#include "portal/session_lifecycle.h"
#include "sched/job_lifecycle.h"
#include "xfer/transfer_lifecycle.h"

namespace heus::analyze {

using common::strformat;
using lifecycle::Guard;
using lifecycle::GuardKind;
using lifecycle::kNoGuard;
using lifecycle::MachineDef;
using lifecycle::Transition;

lifecycle::PolicyView view_of(const core::SeparationPolicy& p) {
  lifecycle::PolicyView v;
  v.hidepid = static_cast<std::uint8_t>(p.hidepid);
  v.hidepid_gid_exemption = p.hidepid_gid_exemption;
  v.private_data_jobs = p.private_data.jobs;
  v.private_data_accounting = p.private_data.accounting;
  v.private_data_usage = p.private_data.usage;
  v.sharing = static_cast<std::uint8_t>(p.sharing);
  v.pam_slurm = p.pam_slurm;
  v.fs_enforce_smask = p.fs.enforce_smask;
  v.fs_honor_smask = p.fs.honor_smask;
  v.fs_restrict_acl = p.fs.restrict_acl;
  v.root_owned_homes = p.root_owned_homes;
  v.ubf = p.ubf;
  v.ubf_group_peers = p.ubf_group_peers;
  v.gpu_dev_binding = p.gpu_dev_binding;
  v.gpu_epilog_scrub = p.gpu_epilog_scrub;
  return v;
}

std::span<const MachineDef* const> lifecycle_machines() {
  static const MachineDef* const kMachines[] = {
      &net::flow_machine(),        &sched::job_machine(),
      &xfer::transfer_machine(),   &portal::session_machine(),
      &container::entry_machine(), &fed::breaker_machine(),
  };
  return kMachines;
}

const char* to_string(ReachFindingKind kind) {
  switch (kind) {
    case ReachFindingKind::bad_guard: return "bad-guard";
    case ReachFindingKind::unknown_knob: return "unknown-knob";
    case ReachFindingKind::guard_knob_mismatch: return "guard-knob-mismatch";
    case ReachFindingKind::shadowed_transition: return "shadowed-transition";
    case ReachFindingKind::unreachable_state: return "unreachable-state";
    case ReachFindingKind::dead_transition: return "dead-transition";
    case ReachFindingKind::separation_opening: return "separation-opening";
  }
  return "?";
}

namespace {

/// Per-machine working set for one check_all() sweep.
struct MachineScan {
  const MachineDef* def = nullptr;
  std::vector<std::size_t> policy_guards;  ///< guard indices, kind==policy
  std::vector<std::size_t> env_guards;     ///< guard indices, kind==env
  std::vector<std::size_t> env_slot;       ///< guard index -> env bit (or ~0)
  std::vector<obs::ChannelKind> annotated; ///< distinct opened channels
  /// Guards the structural pass disqualified; skipped by the agreement
  /// rule so one malformed guard yields one finding, not thousands.
  std::vector<bool> guard_bad;

  // Sweep accumulators.
  std::vector<bool> fired;    ///< row ever selected, any policy/env
  std::vector<bool> reached;  ///< state ever reached, any policy/env
  std::uint64_t triples = 0;
  std::set<std::uint64_t> signatures;

  // Guard/knob agreement: per policy guard, its declared knob and the
  // outcome seen per value index of that knob (-1 unset).
  std::vector<const KnobSpec*> guard_knob;
  std::vector<std::vector<int>> outcome_by_value;
  std::vector<bool> mismatch_reported;

  // separation_opening dedup: (row index << 8) | channel.
  std::set<std::uint64_t> openings_reported;
};

void structural_pass(MachineScan& scan, std::vector<ReachFinding>& findings) {
  const MachineDef& def = *scan.def;
  scan.guard_bad.assign(def.guards.size(), false);
  scan.guard_knob.assign(def.guards.size(), nullptr);
  scan.outcome_by_value.resize(def.guards.size());
  for (std::size_t g = 0; g < def.guards.size(); ++g) {
    const Guard& guard = def.guards[g];
    if (guard.kind == GuardKind::policy) {
      if (guard.eval == nullptr || guard.knob == nullptr) {
        scan.guard_bad[g] = true;
        findings.push_back(
            {ReachFindingKind::bad_guard, def.name,
             strformat("policy guard `%s` lacks %s", guard.name,
                       guard.eval == nullptr ? "a predicate" : "a knob"),
             guard.knob != nullptr ? guard.knob : "", "", -1, -1});
      } else if (find_knob(guard.knob) == nullptr) {
        scan.guard_bad[g] = true;
        findings.push_back(
            {ReachFindingKind::unknown_knob, def.name,
             strformat("policy guard `%s` names unknown knob `%s`",
                       guard.name, guard.knob),
             guard.knob, "", -1, -1});
      } else {
        scan.policy_guards.push_back(g);
        scan.guard_knob[g] = find_knob(guard.knob);
        scan.outcome_by_value[g].assign(scan.guard_knob[g]->radix(), -1);
      }
    } else {
      if (guard.eval != nullptr || guard.knob != nullptr) {
        scan.guard_bad[g] = true;
        findings.push_back(
            {ReachFindingKind::bad_guard, def.name,
             strformat("environment guard `%s` carries %s", guard.name,
                       guard.eval != nullptr ? "a policy predicate"
                                             : "a knob"),
             guard.knob != nullptr ? guard.knob : "", "", -1, -1});
      }
      scan.env_slot.resize(def.guards.size(), ~std::size_t{0});
      scan.env_slot[g] = scan.env_guards.size();
      scan.env_guards.push_back(g);
    }
  }
  scan.env_slot.resize(def.guards.size(), ~std::size_t{0});

  // Shadowing: group rows by (from, event); for every guard-outcome
  // assignment over the guards the group consults, find the first match.
  // A row no assignment selects can never fire, whatever the policy.
  for (std::size_t i = 0; i < def.transitions.size(); ++i) {
    const Transition& row = def.transitions[i];
    std::vector<std::size_t> group;  // row indices, table order
    std::vector<std::size_t> consulted;
    for (std::size_t j = 0; j < def.transitions.size(); ++j) {
      const Transition& t = def.transitions[j];
      if (t.from != row.from || t.event != row.event) continue;
      group.push_back(j);
      if (t.guard != kNoGuard &&
          std::find(consulted.begin(), consulted.end(),
                    static_cast<std::size_t>(t.guard)) == consulted.end()) {
        consulted.push_back(t.guard);
      }
    }
    if (group.front() == i) continue;  // report once, at later rows only
    bool selectable = false;
    for (std::uint32_t bits = 0; bits < (1u << consulted.size()); ++bits) {
      auto outcome = [&](const Guard& g) {
        const std::size_t gi = static_cast<std::size_t>(&g - def.guards.data());
        for (std::size_t k = 0; k < consulted.size(); ++k) {
          if (consulted[k] == gi) return ((bits >> k) & 1u) != 0;
        }
        return false;
      };
      const Transition* hit =
          lifecycle::resolve(def, row.from, row.event, outcome);
      if (hit == &row) {
        selectable = true;
        break;
      }
    }
    if (!selectable) {
      findings.push_back(
          {ReachFindingKind::shadowed_transition, def.name,
           strformat("row %zu (%s) is shadowed by an earlier row for the "
                     "same (state, event)",
                     i, lifecycle::describe(def, row).c_str()),
           "", "", static_cast<int>(i), -1});
    }
  }

  for (const Transition& t : def.transitions) {
    for (std::uint8_t c = 0; c < t.opens_channels.count; ++c) {
      const obs::ChannelKind ch = t.opens_channels.channel[c];
      if (std::find(scan.annotated.begin(), scan.annotated.end(), ch) ==
          scan.annotated.end()) {
        scan.annotated.push_back(ch);
      }
    }
  }

  scan.fired.assign(def.transitions.size(), false);
  scan.reached.assign(def.states.size(), false);
  scan.mismatch_reported.assign(def.guards.size(), false);
}

void sweep_policy(MachineScan& scan, const core::SeparationPolicy& policy,
                  const lifecycle::PolicyView& view,
                  const StaticAnalyzer& analyzer,
                  std::vector<ReachFinding>& findings) {
  const MachineDef& def = *scan.def;

  // Pin the policy guards; check each against its declared knob.
  std::vector<bool> pinned(def.guards.size(), false);
  for (const std::size_t g : scan.policy_guards) {
    const Guard& guard = def.guards[g];
    const bool outcome = guard.eval(view);
    pinned[g] = outcome;
    if (scan.mismatch_reported[g]) continue;
    const KnobSpec& spec = *scan.guard_knob[g];
    const std::size_t value = spec.get(policy);
    int& seen = scan.outcome_by_value[g][value];
    if (seen < 0) {
      seen = outcome ? 1 : 0;
    } else if (seen != (outcome ? 1 : 0)) {
      scan.mismatch_reported[g] = true;
      findings.push_back(
          {ReachFindingKind::guard_knob_mismatch, def.name,
           strformat("policy guard `%s` changes outcome while `%s=%s` is "
                     "fixed — it depends on some other knob",
                     guard.name, guard.knob, spec.tokens[value]),
           guard.knob, describe_policy(policy), -1, -1});
    }
  }

  // Exhaustive walk: BFS over states; per state × event, try every
  // environment-guard assignment (policy guards stay pinned).
  const std::size_t env_count = scan.env_guards.size();
  std::vector<bool> fired_here(def.transitions.size(), false);
  std::vector<bool> seen(def.states.size(), false);
  std::vector<lifecycle::StateId> frontier{def.initial};
  seen[def.initial] = true;
  std::uint64_t signature = 0;
  for (std::size_t k = 0; k < scan.policy_guards.size(); ++k) {
    signature |= static_cast<std::uint64_t>(pinned[scan.policy_guards[k]])
                 << k;
  }
  while (!frontier.empty()) {
    const lifecycle::StateId s = frontier.back();
    frontier.pop_back();
    scan.reached[s] = true;
    for (std::size_t e = 0; e < def.events.size(); ++e) {
      for (std::uint32_t env = 0; env < (1u << env_count); ++env) {
        auto outcome = [&](const Guard& g) {
          const std::size_t gi =
              static_cast<std::size_t>(&g - def.guards.data());
          if (def.guards[gi].kind == GuardKind::policy) {
            return static_cast<bool>(pinned[gi]);
          }
          return ((env >> scan.env_slot[gi]) & 1u) != 0;
        };
        const Transition* t = lifecycle::resolve(
            def, s, static_cast<lifecycle::EventId>(e), outcome);
        if (t == nullptr) continue;
        const std::size_t idx =
            static_cast<std::size_t>(t - def.transitions.data());
        scan.fired[idx] = true;
        if (!fired_here[idx]) {
          fired_here[idx] = true;
          ++scan.triples;
        }
        if (!seen[t->to]) {
          seen[t->to] = true;
          frontier.push_back(t->to);
        }
        for (std::uint8_t c = 0; c < t->opens_channels.count; ++c) {
          const obs::ChannelKind ch = t->opens_channels.channel[c];
          if (analyzer.verdict(policy, ch) != Verdict::closed) continue;
          const std::uint64_t key =
              (static_cast<std::uint64_t>(idx) << 8) |
              static_cast<std::uint64_t>(ch);
          if (!scan.openings_reported.insert(key).second) continue;
          std::string knob =
              t->guard != kNoGuard && def.guards[t->guard].knob != nullptr
                  ? def.guards[t->guard].knob
                  : "";
          if (knob.empty()) {
            const AnalysisReport rep = analyzer.analyze(policy);
            const auto& resp = rep.finding(ch).responsible_knobs;
            if (!resp.empty()) knob = common::join(resp, ", ");
          }
          findings.push_back(
              {ReachFindingKind::separation_opening, def.name,
               strformat("reachable transition %s opens `%s` while the "
                         "analyzer holds it closed",
                         lifecycle::describe(def, *t).c_str(),
                         obs::to_string(ch)),
               knob, describe_policy(policy), static_cast<int>(idx), -1});
        }
      }
    }
  }
  for (std::size_t k = 0; k < scan.annotated.size(); ++k) {
    signature |= static_cast<std::uint64_t>(
                     analyzer.verdict(policy, scan.annotated[k]))
                 << (scan.policy_guards.size() + 2 * k);
  }
  scan.signatures.insert(signature);
}

void finish_machine(MachineScan& scan, std::vector<ReachFinding>& findings) {
  const MachineDef& def = *scan.def;
  for (const std::size_t g : scan.policy_guards) {
    if (scan.mismatch_reported[g]) continue;
    // No mismatch: each value index holds the guard's only outcome there,
    // so the guard varies iff both outcomes were recorded.
    const std::vector<int>& seen = scan.outcome_by_value[g];
    if (std::count(seen.begin(), seen.end(), 0) == 0 ||
        std::count(seen.begin(), seen.end(), 1) == 0) {
      findings.push_back(
          {ReachFindingKind::guard_knob_mismatch, def.name,
           strformat("policy guard `%s` never varies with its declared "
                     "knob `%s` over the whole lattice",
                     def.guards[g].name, def.guards[g].knob),
           def.guards[g].knob, "", -1, -1});
    }
  }
  for (std::size_t s = 0; s < def.states.size(); ++s) {
    if (scan.reached[s]) continue;
    findings.push_back({ReachFindingKind::unreachable_state, def.name,
                        strformat("state `%s` is unreachable from `%s` "
                                  "under every policy and environment",
                                  def.state_name(
                                      static_cast<lifecycle::StateId>(s)),
                                  def.state_name(def.initial)),
                        "", "", -1, static_cast<int>(s)});
  }
  for (std::size_t i = 0; i < def.transitions.size(); ++i) {
    if (scan.fired[i]) continue;
    // Shadowed rows are already reported with the sharper diagnosis.
    bool already = false;
    for (const ReachFinding& f : findings) {
      if (f.kind == ReachFindingKind::shadowed_transition &&
          f.machine == def.name && f.transition_index == static_cast<int>(i)) {
        already = true;
        break;
      }
    }
    if (already) continue;
    findings.push_back(
        {ReachFindingKind::dead_transition, def.name,
         strformat("row %zu (%s) never fires under any policy or "
                   "environment",
                   i, lifecycle::describe(def, def.transitions[i]).c_str()),
         "", "", static_cast<int>(i), -1});
  }
}

}  // namespace

ReachReport ReachabilityChecker::check_all(
    std::span<const MachineDef* const> machines) const {
  ReachReport report;
  report.policies = policy_space_size();
  std::vector<MachineScan> scans(machines.size());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    scans[m].def = machines[m];
    structural_pass(scans[m], report.findings);
  }
  for (std::size_t i = 0; i < report.policies; ++i) {
    const core::SeparationPolicy policy = policy_at(i);
    const lifecycle::PolicyView view = view_of(policy);
    for (MachineScan& scan : scans) {
      sweep_policy(scan, policy, view, analyzer_, report.findings);
    }
  }
  for (MachineScan& scan : scans) {
    finish_machine(scan, report.findings);
    report.machines.push_back({scan.def->name, scan.def->states.size(),
                               scan.def->transitions.size(), scan.triples,
                               scan.signatures.size()});
  }
  return report;
}

ReachReport ReachabilityChecker::check(const MachineDef& def) const {
  const MachineDef* const one[] = {&def};
  return check_all(one);
}

std::string reach_to_markdown(const ReachReport& report) {
  std::string out = "# Lifecycle reachability analysis\n\n";
  out += strformat(
      "Exhaustive sweep: %zu machines x %zu policies (full knob "
      "lattice), environment guards explored both ways.\n\n",
      report.machines.size(), report.policies);
  out +=
      "| machine | states | transitions | fired triples | signature "
      "classes |\n|---|---|---|---|---|\n";
  for (const MachineStats& m : report.machines) {
    out += strformat("| %s | %zu | %zu | %llu | %zu |\n", m.machine.c_str(),
                     m.states, m.transitions,
                     static_cast<unsigned long long>(m.triples),
                     m.signature_classes);
  }
  if (report.findings.empty()) {
    out +=
        "\nNo findings: every state is reachable, every row can fire, "
        "every policy guard agrees with its declared knob, and no "
        "reachable transition opens a channel the analyzer holds "
        "closed.\n";
    return out;
  }
  out += strformat("\n## Findings (%zu)\n\n", report.findings.size());
  for (const ReachFinding& f : report.findings) {
    out += strformat("- **%s** `%s`: %s", to_string(f.kind),
                     f.machine.c_str(), f.detail.c_str());
    if (!f.knob.empty()) {
      out += strformat(" [knob: %s]", f.knob.c_str());
    }
    if (!f.example_policy.empty()) {
      out += strformat("\n  - witness: `%s`", f.example_policy.c_str());
    }
    out += "\n";
  }
  return out;
}

std::string reach_to_json(const ReachReport& report) {
  std::string out = "{\n";
  out += strformat("  \"policies\": %zu,\n", report.policies);
  out += strformat("  \"clean\": %s,\n", report.clean() ? "true" : "false");
  out += "  \"machines\": [\n";
  for (std::size_t i = 0; i < report.machines.size(); ++i) {
    const MachineStats& m = report.machines[i];
    out += strformat(
        "    {\"name\": \"%s\", \"states\": %zu, \"transitions\": %zu, "
        "\"triples\": %llu, \"signature_classes\": %zu}%s\n",
        json_escape(m.machine).c_str(), m.states, m.transitions,
        static_cast<unsigned long long>(m.triples), m.signature_classes,
        i + 1 < report.machines.size() ? "," : "");
  }
  out += "  ],\n";
  out += "  \"findings\": [\n";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const ReachFinding& f = report.findings[i];
    out += strformat(
        "    {\"kind\": \"%s\", \"machine\": \"%s\", \"detail\": \"%s\", "
        "\"knob\": \"%s\", \"witness\": \"%s\", \"transition\": %d, "
        "\"state\": %d}%s\n",
        to_string(f.kind), json_escape(f.machine).c_str(),
        json_escape(f.detail).c_str(), json_escape(f.knob).c_str(),
        json_escape(f.example_policy).c_str(), f.transition_index, f.state,
        i + 1 < report.findings.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace heus::analyze
