#include "analyze/policy_space.h"

#include <cassert>
#include <string>

#include "obs/taxonomy.h"

namespace heus::analyze {

using core::SeparationPolicy;
namespace knob = obs::knob;

namespace {

// Shorthand for the registry table below.
using P = SeparationPolicy;

constexpr const char* kBool[] = {"0", "1"};
constexpr const char* kHidepid[] = {"off", "restrict", "invisible"};
constexpr const char* kHidepidDigits[] = {"0", "1", "2"};
constexpr const char* kSharing[] = {"shared", "exclusive", "user-whole-node"};

const std::vector<KnobSpec>& registry() {
  static const std::vector<KnobSpec> specs = {
      // §IV-A processes
      {knob::hidepid, "mount /proc with hidepid=2 (foreign pids invisible)",
       kHidepid, 2,
       [](const P& p) { return static_cast<std::size_t>(p.hidepid); },
       [](P& p, std::size_t v) {
         p.hidepid = static_cast<simos::HidepidMode>(v);
       },
       kHidepidDigits},
      {knob::hidepid_gid_exemption,
       "gid= mount flag: seepid staff group exempt from hidepid", kBool, 1,
       [](const P& p) { return std::size_t{p.hidepid_gid_exemption}; },
       [](P& p, std::size_t v) { p.hidepid_gid_exemption = v != 0; }},
      // §IV-B scheduler
      {knob::private_data_jobs, "squeue shows only the caller's jobs", kBool,
       1, [](const P& p) { return std::size_t{p.private_data.jobs}; },
       [](P& p, std::size_t v) { p.private_data.jobs = v != 0; }},
      {knob::private_data_accounting, "sacct shows only the caller's records",
       kBool, 1,
       [](const P& p) { return std::size_t{p.private_data.accounting}; },
       [](P& p, std::size_t v) { p.private_data.accounting = v != 0; }},
      {knob::private_data_usage, "sreport shows only the caller's usage",
       kBool, 1, [](const P& p) { return std::size_t{p.private_data.usage}; },
       [](P& p, std::size_t v) { p.private_data.usage = v != 0; }},
      {knob::sharing, "user-based whole-node scheduling", kSharing, 2,
       [](const P& p) { return static_cast<std::size_t>(p.sharing); },
       [](P& p, std::size_t v) {
         p.sharing = static_cast<sched::SharingPolicy>(v);
       }},
      {knob::pam_slurm, "ssh only to nodes where the user has a running job",
       kBool, 1, [](const P& p) { return std::size_t{p.pam_slurm}; },
       [](P& p, std::size_t v) { p.pam_slurm = v != 0; }},
      // §IV-C filesystems
      {knob::fs_enforce_smask, "kernel smask patch installed", kBool, 1,
       [](const P& p) { return std::size_t{p.fs.enforce_smask}; },
       [](P& p, std::size_t v) { p.fs.enforce_smask = v != 0; }},
      {knob::fs_honor_smask, "Lustre LU-4746 patch: filesystem honors smask",
       kBool, 1, [](const P& p) { return std::size_t{p.fs.honor_smask}; },
       [](P& p, std::size_t v) { p.fs.honor_smask = v != 0; }},
      {knob::fs_restrict_acl,
       "setfacl restricted to member groups, no named-user grants", kBool, 1,
       [](const P& p) { return std::size_t{p.fs.restrict_acl}; },
       [](P& p, std::size_t v) { p.fs.restrict_acl = v != 0; }},
      {knob::root_owned_homes, "homes root-owned, group = UPG, mode 0770",
       kBool, 1, [](const P& p) { return std::size_t{p.root_owned_homes}; },
       [](P& p, std::size_t v) { p.root_owned_homes = v != 0; }},
      // §IV-D network
      {knob::ubf, "user-based firewall attached to the nfqueue hook", kBool,
       1, [](const P& p) { return std::size_t{p.ubf}; },
       [](P& p, std::size_t v) { p.ubf = v != 0; }},
      {knob::ubf_group_peers, "UBF rule (b): egid project-group peers allowed",
       kBool, 1, [](const P& p) { return std::size_t{p.ubf_group_peers}; },
       [](P& p, std::size_t v) { p.ubf_group_peers = v != 0; }},
      // §IV-F accelerators
      {knob::gpu_dev_binding, "/dev/nvidiaN chgrp'ed to the user's UPG on alloc",
       kBool, 1, [](const P& p) { return std::size_t{p.gpu_dev_binding}; },
       [](P& p, std::size_t v) { p.gpu_dev_binding = v != 0; }},
      {knob::gpu_epilog_scrub, "vendor memory scrub in the job epilog", kBool,
       1, [](const P& p) { return std::size_t{p.gpu_epilog_scrub}; },
       [](P& p, std::size_t v) { p.gpu_epilog_scrub = v != 0; }},
  };
  return specs;
}

/// The lattice's mixed-radix digits, least significant first: the
/// multi-valued knobs, then the booleans, each in registry order. Built
/// once; policy_at() decodes through it on every call.
const std::vector<const KnobSpec*>& decode_order() {
  static const std::vector<const KnobSpec*> order = [] {
    std::vector<const KnobSpec*> out;
    for (const bool multi : {true, false}) {
      for (const KnobSpec& k : registry()) {
        if ((k.radix() > 2) == multi) out.push_back(&k);
      }
    }
    return out;
  }();
  return order;
}

}  // namespace

const std::vector<KnobSpec>& knobs() { return registry(); }

const KnobSpec* find_knob(const std::string& name) {
  for (const KnobSpec& k : registry()) {
    if (name == k.name) return &k;
  }
  return nullptr;
}

SeparationPolicy flip_knob(SeparationPolicy p, const KnobSpec& knob) {
  knob.set(p, !knob.is_hardened(p));
  return p;
}

std::vector<NamedPolicy> single_knob_ablations(
    const std::string& base_name, const SeparationPolicy& base) {
  std::vector<NamedPolicy> out;
  out.reserve(registry().size());
  for (const KnobSpec& k : registry()) {
    out.push_back({base_name + "~" + k.name, flip_knob(base, k)});
  }
  return out;
}

SeparationPolicy random_policy(common::Rng& rng) {
  SeparationPolicy p;
  for (const KnobSpec& k : registry()) {
    k.put(p, k.radix() == 2 ? std::size_t{rng.chance(0.5)}
                            : static_cast<std::size_t>(rng.bounded(k.radix())));
  }
  return p;
}

std::vector<NamedPolicy> differential_sweep(std::size_t random_count,
                                            std::uint64_t seed) {
  std::vector<NamedPolicy> out;
  out.reserve(2 + 2 * registry().size() + random_count);
  out.push_back({"baseline", SeparationPolicy::baseline()});
  out.push_back({"hardened", SeparationPolicy::hardened()});
  for (auto& np :
       single_knob_ablations("baseline", SeparationPolicy::baseline())) {
    out.push_back(std::move(np));
  }
  for (auto& np :
       single_knob_ablations("hardened", SeparationPolicy::hardened())) {
    out.push_back(std::move(np));
  }
  common::Rng rng(seed);
  for (std::size_t i = 0; i < random_count; ++i) {
    out.push_back({"random-" + std::to_string(i), random_policy(rng)});
  }
  return out;
}

std::string knob_value(const SeparationPolicy& p, const KnobSpec& knob) {
  return knob.tokens[knob.get(p)];
}

std::vector<std::pair<std::string, std::string>> knob_assignments(
    const SeparationPolicy& p) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(registry().size());
  for (const KnobSpec& k : registry()) {
    out.emplace_back(k.name, knob_value(p, k));
  }
  return out;
}

std::size_t policy_space_size() {
  static const std::size_t size = [] {
    std::size_t n = 1;
    for (const KnobSpec& k : registry()) n *= k.radix();
    return n;
  }();
  return size;
}

SeparationPolicy policy_at(std::size_t index) {
  assert(index < policy_space_size());
  SeparationPolicy p;
  for (const KnobSpec* k : decode_order()) {
    if (k->radix() == 2) {  // most digits; a shift is far cheaper than div
      k->put(p, index & 1);
      index >>= 1;
    } else {
      k->put(p, index % k->radix());
      index /= k->radix();
    }
  }
  return p;
}

bool set_knob_from_string(SeparationPolicy& p, const std::string& name,
                          const std::string& value) {
  const KnobSpec* knob = find_knob(name);
  if (knob == nullptr) return false;
  for (std::size_t v = 0; v < knob->radix(); ++v) {
    if (value == knob->tokens[v] || value == knob->label(v)) {
      knob->put(p, v);
      return true;
    }
  }
  if (knob->radix() == 2) {
    const bool yes = value == "true" || value == "on";
    if (yes || value == "false" || value == "off") {
      knob->put(p, yes ? 1 : 0);
      return true;
    }
  }
  return false;
}

std::string describe_policy(const SeparationPolicy& p) {
  std::string out;
  for (const KnobSpec& k : registry()) {
    if (!out.empty()) out += ' ';
    out += k.name;
    out += '=';
    out += k.label(k.get(p));
  }
  return out;
}

}  // namespace heus::analyze
