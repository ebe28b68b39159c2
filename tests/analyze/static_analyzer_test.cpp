// Unit tests of the static analyzer: verdicts at the two named policies,
// attribution/minimal-hardening contents, topology-fact handling, the
// knob registry, and report rendering.
#include <gtest/gtest.h>

#include "analyze/analyzer.h"
#include "analyze/policy_space.h"
#include "analyze/report.h"
#include "common/strings.h"

namespace heus::analyze {
namespace {

using core::ChannelKind;
using core::SeparationPolicy;

TEST(StaticAnalyzer, BaselineLeavesEveryChannelCrossable) {
  const StaticAnalyzer analyzer;
  const AnalysisReport report =
      analyzer.analyze(SeparationPolicy::baseline());
  EXPECT_EQ(report.crossable_count(), core::kAllChannels.size());
  EXPECT_EQ(report.unexpected_open_count(),
            core::kAllChannels.size() - 3);  // minus the 3 residuals
}

TEST(StaticAnalyzer, HardenedClosesEverythingButTheResiduals) {
  const StaticAnalyzer analyzer;
  const AnalysisReport report =
      analyzer.analyze(SeparationPolicy::hardened());
  EXPECT_EQ(report.unexpected_open_count(), 0u);
  EXPECT_EQ(report.crossable_count(), 3u);
  for (const ChannelFinding& f : report.findings) {
    if (core::is_documented_residual(f.kind)) {
      EXPECT_EQ(f.verdict, Verdict::residual) << core::to_string(f.kind);
    } else {
      EXPECT_EQ(f.verdict, Verdict::closed) << core::to_string(f.kind);
    }
  }
}

TEST(StaticAnalyzer, MinimalHardeningSuggestions) {
  const StaticAnalyzer analyzer;
  const AnalysisReport report =
      analyzer.analyze(SeparationPolicy::baseline());

  // A single knob suffices for the network channels...
  EXPECT_EQ(report.finding(ChannelKind::tcp_cross_user).minimal_hardening,
            std::vector<std::string>{"ubf"});
  EXPECT_EQ(
      report.finding(ChannelKind::portal_foreign_app).minimal_hardening,
      std::vector<std::string>{"ubf"});
  // ...and for the home leak (root-owned homes beats the 2-knob smask).
  EXPECT_EQ(report.finding(ChannelKind::fs_home_read).minimal_hardening,
            std::vector<std::string>{"root_owned_homes"});
  // /tmp content is only closable by the smask pair: kernel patch AND the
  // filesystem honoring it (the LU-4746 interplay).
  EXPECT_EQ(
      report.finding(ChannelKind::fs_tmp_content).minimal_hardening,
      (std::vector<std::string>{"fs.enforce_smask", "fs.honor_smask"}));
  EXPECT_EQ(report.finding(ChannelKind::gpu_residue).minimal_hardening,
            std::vector<std::string>{"gpu_epilog_scrub"});
}

TEST(StaticAnalyzer, ResponsibleKnobsAtTheEndpoints) {
  const StaticAnalyzer analyzer;
  const AnalysisReport hardened =
      analyzer.analyze(SeparationPolicy::hardened());
  // Under hardened(), each closed channel names the knob(s) holding it
  // closed — unless two mechanisms hold it at once (fs_home_read and
  // fs_acl_user_grant are doubly protected, so no single flip reopens).
  EXPECT_EQ(hardened.finding(ChannelKind::ssh_foreign_node)
                .responsible_knobs,
            std::vector<std::string>{"pam_slurm"});
  EXPECT_EQ(hardened.finding(ChannelKind::gpu_residue).responsible_knobs,
            std::vector<std::string>{"gpu_epilog_scrub"});
  EXPECT_TRUE(
      hardened.finding(ChannelKind::fs_home_read).responsible_knobs.empty());
  EXPECT_TRUE(hardened.finding(ChannelKind::fs_acl_user_grant)
                  .responsible_knobs.empty());
  // /tmp content: losing either smask flag reopens it.
  EXPECT_EQ(
      hardened.finding(ChannelKind::fs_tmp_content).responsible_knobs,
      (std::vector<std::string>{"fs.enforce_smask", "fs.honor_smask"}));
}

TEST(StaticAnalyzer, HidepidModeOneSplitsTheProcfsChannels) {
  SeparationPolicy p = SeparationPolicy::baseline();
  p.hidepid = simos::HidepidMode::restrict_contents;
  const StaticAnalyzer analyzer;
  EXPECT_EQ(analyzer.verdict(p, ChannelKind::procfs_process_list),
            Verdict::open);
  EXPECT_EQ(analyzer.verdict(p, ChannelKind::procfs_cmdline),
            Verdict::closed);
}

TEST(StaticAnalyzer, TopologyFactsChangeTheVerdicts) {
  const SeparationPolicy hardened = SeparationPolicy::hardened();

  TopologyFacts staff;
  staff.observer_support_staff = true;
  EXPECT_EQ(StaticAnalyzer(staff).verdict(
                hardened, ChannelKind::procfs_process_list),
            Verdict::open);
  // Staff membership only helps while the gid= exemption is mounted.
  SeparationPolicy no_exemption = hardened;
  no_exemption.hidepid_gid_exemption = false;
  EXPECT_EQ(StaticAnalyzer(staff).verdict(
                no_exemption, ChannelKind::procfs_process_list),
            Verdict::closed);

  TopologyFacts op;
  op.observer_operator = true;
  EXPECT_EQ(
      StaticAnalyzer(op).verdict(hardened, ChannelKind::scheduler_queue),
      Verdict::open);

  TopologyFacts peers;
  peers.shared_service_group = true;
  EXPECT_EQ(
      StaticAnalyzer(peers).verdict(hardened, ChannelKind::tcp_cross_user),
      Verdict::open);  // UBF rule (b): intentional opt-in
  SeparationPolicy no_rule_b = hardened;
  no_rule_b.ubf_group_peers = false;
  EXPECT_EQ(StaticAnalyzer(peers).verdict(no_rule_b,
                                          ChannelKind::tcp_cross_user),
            Verdict::closed);

  TopologyFacts no_gpus;
  no_gpus.has_gpus = false;
  SeparationPolicy unscrubbed = SeparationPolicy::baseline();
  EXPECT_EQ(StaticAnalyzer(no_gpus).verdict(unscrubbed,
                                            ChannelKind::gpu_residue),
            Verdict::closed);

  TopologyFacts low_port;
  low_port.service_port = 443;
  EXPECT_EQ(StaticAnalyzer(low_port).verdict(hardened,
                                             ChannelKind::tcp_cross_user),
            Verdict::open);  // below the UBF's inspected range
}

TEST(PolicySpace, KnobRegistryRoundTrips) {
  EXPECT_EQ(knobs().size(), 15u);
  const SeparationPolicy baseline = SeparationPolicy::baseline();
  const SeparationPolicy hardened = SeparationPolicy::hardened();
  for (const KnobSpec& k : knobs()) {
    EXPECT_TRUE(k.is_hardened(hardened)) << k.name;
    // Double flip returns to the starting assignment for bool knobs and
    // for enum knobs sitting at an endpoint.
    const SeparationPolicy once = flip_knob(baseline, k);
    const SeparationPolicy twice = flip_knob(once, k);
    EXPECT_EQ(k.is_hardened(twice), k.is_hardened(baseline)) << k.name;
    EXPECT_NE(k.is_hardened(once), k.is_hardened(baseline)) << k.name;
  }
  EXPECT_NE(find_knob("ubf"), nullptr);
  EXPECT_EQ(find_knob("no-such-knob"), nullptr);
}

TEST(PolicySpace, SetKnobFromString) {
  SeparationPolicy p = SeparationPolicy::baseline();
  EXPECT_TRUE(set_knob_from_string(p, "ubf", "1"));
  EXPECT_TRUE(p.ubf);
  EXPECT_TRUE(set_knob_from_string(p, "ubf", "off"));
  EXPECT_FALSE(p.ubf);
  EXPECT_TRUE(set_knob_from_string(p, "hidepid", "restrict"));
  EXPECT_EQ(p.hidepid, simos::HidepidMode::restrict_contents);
  EXPECT_TRUE(set_knob_from_string(p, "hidepid", "2"));
  EXPECT_EQ(p.hidepid, simos::HidepidMode::invisible);
  EXPECT_TRUE(set_knob_from_string(p, "sharing", "user-whole-node"));
  EXPECT_EQ(p.sharing, sched::SharingPolicy::user_whole_node);
  EXPECT_FALSE(set_knob_from_string(p, "sharing", "sometimes"));
  EXPECT_FALSE(set_knob_from_string(p, "sharing", "1"));
  EXPECT_FALSE(set_knob_from_string(p, "hidepid", "on"));
  EXPECT_FALSE(set_knob_from_string(p, "pam_slurm", "yes"));
  EXPECT_FALSE(set_knob_from_string(p, "no-such-knob", "1"));
  EXPECT_FALSE(set_knob_from_string(p, "ubf", "maybe"));
}

TEST(PolicySpace, EveryKnobValueRoundTripsThroughItsSpellings) {
  for (const KnobSpec& k : knobs()) {
    ASSERT_GE(k.radix(), 2u) << k.name;
    ASSERT_LT(k.hardened_index, k.radix()) << k.name;
    for (std::size_t v = 0; v < k.radix(); ++v) {
      SeparationPolicy p = SeparationPolicy::baseline();
      k.put(p, v);
      ASSERT_EQ(k.get(p), v) << k.name;
      for (const std::string& spelling : {knob_value(p, k),
                                         std::string(k.label(v))}) {
        SeparationPolicy q = p;
        k.put(q, (v + 1) % k.radix());
        EXPECT_TRUE(set_knob_from_string(q, k.name, spelling))
            << k.name << "=" << spelling;
        EXPECT_EQ(q, p) << k.name << "=" << spelling;
      }
    }
  }
}

TEST(PolicySpace, LatticeOrderAndRandomDrawsArePinned) {
  // Sweep reports and seeded corpora name policies by lattice index and
  // draw order; both must stay put when the table changes shape.
  EXPECT_EQ(describe_policy(policy_at(12345)),
            "hidepid=0 hidepid_gid_exemption=1 private_data.jobs=1 "
            "private_data.accounting=0 private_data.usage=1 "
            "sharing=user-whole-node pam_slurm=1 fs.enforce_smask=0 "
            "fs.honor_smask=1 fs.restrict_acl=0 root_owned_homes=1 ubf=0 "
            "ubf_group_peers=1 gpu_dev_binding=0 gpu_epilog_scrub=0");
  EXPECT_EQ(policy_at(policy_space_size() - 1),
            SeparationPolicy::hardened());
  const auto sweep = differential_sweep(2, 7);
  EXPECT_EQ(describe_policy(sweep[sweep.size() - 2].policy),
            "hidepid=2 hidepid_gid_exemption=1 private_data.jobs=0 "
            "private_data.accounting=0 private_data.usage=0 "
            "sharing=user-whole-node pam_slurm=1 fs.enforce_smask=1 "
            "fs.honor_smask=1 fs.restrict_acl=1 root_owned_homes=0 ubf=0 "
            "ubf_group_peers=0 gpu_dev_binding=0 gpu_epilog_scrub=1");
  EXPECT_EQ(describe_policy(sweep.back().policy),
            "hidepid=1 hidepid_gid_exemption=1 private_data.jobs=1 "
            "private_data.accounting=1 private_data.usage=1 sharing=shared "
            "pam_slurm=0 fs.enforce_smask=0 fs.honor_smask=1 "
            "fs.restrict_acl=0 root_owned_homes=1 ubf=1 ubf_group_peers=0 "
            "gpu_dev_binding=1 gpu_epilog_scrub=1");
}

TEST(PolicySpace, DescribePolicyParsesBackAtEveryLatticePoint) {
  for (std::size_t i = 0; i < policy_space_size(); ++i) {
    const SeparationPolicy p = policy_at(i);
    // Start from a policy that differs from `p` in every knob, so each
    // knob must be restored by its own `name=label` pair.
    SeparationPolicy q = p;
    for (const KnobSpec& k : knobs()) k.put(q, (k.get(p) + 1) % k.radix());
    const std::string text = describe_policy(p);
    const std::vector<std::string> pairs = common::split(text, ' ');
    ASSERT_EQ(pairs.size(), knobs().size()) << text;
    for (const std::string& pair : pairs) {
      const std::size_t eq = pair.find('=');
      ASSERT_NE(eq, std::string::npos) << text;
      ASSERT_TRUE(set_knob_from_string(q, pair.substr(0, eq),
                                       pair.substr(eq + 1)))
          << pair;
    }
    ASSERT_EQ(q, p) << "lattice point " << i << ": " << text;
  }
}

TEST(PolicySpace, DifferentialSweepShape) {
  const auto sweep = differential_sweep(8, 7);
  EXPECT_EQ(sweep.size(), 2 + 2 * knobs().size() + 8);
  EXPECT_EQ(sweep[0].name, "baseline");
  EXPECT_EQ(sweep[1].name, "hardened");
  // Seeded: the same seed reproduces the same random tail.
  const auto again = differential_sweep(8, 7);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    EXPECT_EQ(describe_policy(sweep[i].policy),
              describe_policy(again[i].policy))
        << i;
  }
}

TEST(Report, MarkdownAndJsonCarryTheCensus) {
  const StaticAnalyzer analyzer;
  const AnalysisReport hardened =
      analyzer.analyze(SeparationPolicy::hardened());
  const std::string md = to_markdown(hardened);
  EXPECT_NE(md.find("| channel |"), std::string::npos);
  EXPECT_NE(md.find("unexpected open: 0"), std::string::npos);
  EXPECT_NE(md.find("abstract-uds"), std::string::npos);
  EXPECT_EQ(md.find("## Minimal hardening"), std::string::npos);

  const AnalysisReport baseline =
      analyzer.analyze(SeparationPolicy::baseline());
  const std::string md2 = to_markdown(baseline);
  EXPECT_NE(md2.find("## Minimal hardening"), std::string::npos);
  EXPECT_NE(md2.find("harden ubf"), std::string::npos);

  const std::string json = to_json(baseline);
  EXPECT_NE(json.find("\"channels\": ["), std::string::npos);
  EXPECT_NE(json.find("\"verdict\": \"open\""), std::string::npos);
  EXPECT_NE(json.find("\"minimal_hardening\""), std::string::npos);
  EXPECT_NE(json.find("\"unexpected_open\": 15"), std::string::npos);
}

}  // namespace
}  // namespace heus::analyze
