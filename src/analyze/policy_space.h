// The knob lattice of core::SeparationPolicy, reified.
//
// Every analysis the static analyzer performs — naming the knob(s)
// responsible for a verdict, computing a minimal hardening set, sweeping
// policy space for the differential cross-check — needs a uniform way to
// enumerate, read, flip and parse the policy's knobs. This header is that
// registry: one KnobSpec per independent knob, in a stable documented
// order, plus the sweep generators built on top of it.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/policy.h"

namespace heus::analyze {

/// One independently-settable knob of a SeparationPolicy, declared once:
/// its values, their spellings and its position in the lattice. Every
/// generic operation below (enumeration, random draws, parsing, rendering)
/// is a loop over these rows, so a new knob is one new row.
struct KnobSpec {
  const char* name;  ///< stable identifier, e.g. "fs.enforce_smask"
  const char* description;
  /// Value tokens in lattice order; index 0 is the baseline endpoint.
  /// knob_value() emits them and set_knob_from_string() accepts them.
  std::span<const char* const> tokens;
  /// Index of the hardened endpoint within `tokens`.
  std::size_t hardened_index;
  /// The knob's current value index / store a value index.
  std::size_t (*get)(const core::SeparationPolicy&);
  void (*put)(core::SeparationPolicy&, std::size_t);
  /// describe_policy() spellings, where they differ from `tokens`
  /// (hidepid prints as its mount-option digit); empty means `tokens`.
  std::span<const char* const> labels = {};

  /// Number of values (2 for booleans).
  [[nodiscard]] std::size_t radix() const { return tokens.size(); }
  [[nodiscard]] const char* label(std::size_t value) const {
    return labels.empty() ? tokens[value] : labels[value];
  }
  /// True iff the knob sits at its hardened value.
  [[nodiscard]] bool is_hardened(const core::SeparationPolicy& p) const {
    return get(p) == hardened_index;
  }
  /// Set the knob to its hardened (true) or baseline (false) endpoint.
  void set(core::SeparationPolicy& p, bool hardened) const {
    put(p, hardened ? hardened_index : 0);
  }
};

/// The full registry, in paper-section order (§IV-A … §IV-F).
[[nodiscard]] const std::vector<KnobSpec>& knobs();

/// Registry lookup by name; nullptr when unknown.
[[nodiscard]] const KnobSpec* find_knob(const std::string& name);

/// Toggle one knob between its baseline and hardened endpoint: a knob at
/// its hardened value goes to baseline, anything else goes to hardened.
[[nodiscard]] core::SeparationPolicy flip_knob(core::SeparationPolicy p,
                                               const KnobSpec& knob);

/// A policy with a human-readable label, for sweeps and reports.
struct NamedPolicy {
  std::string name;
  core::SeparationPolicy policy;
};

/// Every single-knob ablation of `base`: one policy per registry knob,
/// with that knob flipped (baseline<->hardened endpoint).
[[nodiscard]] std::vector<NamedPolicy> single_knob_ablations(
    const std::string& base_name, const core::SeparationPolicy& base);

/// A uniformly random point of the knob lattice, drawn knob by knob in
/// registry order: rng.chance(0.5) for booleans, rng.bounded(radix) for
/// multi-valued knobs, so sweeps exercise the intermediate settings
/// (hidepid=restrict, sharing=exclusive) too.
[[nodiscard]] core::SeparationPolicy random_policy(common::Rng& rng);

/// The standard differential-sweep corpus: baseline, hardened, every
/// single-knob ablation of each, plus `random_count` seeded random
/// policies. This is the corpus both the cross-check test and the
/// explanation-soundness property test iterate.
[[nodiscard]] std::vector<NamedPolicy> differential_sweep(
    std::size_t random_count, std::uint64_t seed);

/// The value of one registry knob as its token (KnobSpec::tokens). Every
/// token is accepted back by set_knob_from_string, which is what lets the
/// intent-policy emitter and the drift reporter speak the same vocabulary.
[[nodiscard]] std::string knob_value(const core::SeparationPolicy& p,
                                     const KnobSpec& knob);

/// All `name -> value` assignments of `p`, registry order. The uniform
/// view drift analysis diffs node-by-node.
[[nodiscard]] std::vector<std::pair<std::string, std::string>>
knob_assignments(const core::SeparationPolicy& p);

/// Size of the full knob lattice (the product of every knob's radix): the
/// domain of the exhaustive round-trip oracle.
[[nodiscard]] std::size_t policy_space_size();

/// The `index`-th point of the lattice. `index` is a mixed-radix number
/// whose digits, least significant first, are the multi-valued knobs and
/// then the booleans, each group in registry order. policy_at(i) for i in
/// [0, policy_space_size()) enumerates every policy exactly once. Asserts
/// on out-of-range indices.
[[nodiscard]] core::SeparationPolicy policy_at(std::size_t index);

/// Set one knob from a CLI-style string: any of the knob's tokens or
/// labels (hidepid takes off/restrict/invisible or 0/1/2), and for
/// booleans also true/false/on/off. Returns false (policy untouched) for
/// an unknown knob or value.
[[nodiscard]] bool set_knob_from_string(core::SeparationPolicy& p,
                                        const std::string& name,
                                        const std::string& value);

/// Render the full knob assignment of `p` as `name=label` pairs in
/// registry order ("hidepid=2 … ubf=1 …"), for report headers and
/// test-failure diagnostics.
[[nodiscard]] std::string describe_policy(const core::SeparationPolicy& p);

}  // namespace heus::analyze
