// LeakageAuditor: the §V census, measured.
#include "core/audit.h"

#include <gtest/gtest.h>

namespace heus::core {
namespace {

ClusterConfig audit_config(SeparationPolicy policy) {
  ClusterConfig cfg;
  cfg.compute_nodes = 4;
  cfg.login_nodes = 1;
  cfg.cpus_per_node = 16;
  cfg.gpus_per_node = 2;
  cfg.gpu_mem_bytes = 4096;
  cfg.policy = policy;
  return cfg;
}

class AuditTest : public ::testing::Test {
 protected:
  std::vector<ChannelReport> run(SeparationPolicy policy) {
    cluster = std::make_unique<Cluster>(audit_config(policy));
    victim = *cluster->add_user("victim");
    observer = *cluster->add_user("observer");
    LeakageAuditor auditor(cluster.get());
    return auditor.audit_pair(victim, observer);
  }

  static const ChannelReport& find(const std::vector<ChannelReport>& reps,
                                   ChannelKind kind) {
    for (const auto& r : reps) {
      if (r.kind == kind) return r;
    }
    static ChannelReport missing{};
    ADD_FAILURE() << "channel not probed: " << to_string(kind);
    return missing;
  }

  std::unique_ptr<Cluster> cluster;
  Uid victim, observer;
};

TEST_F(AuditTest, BaselineLeaksBroadly) {
  auto reports = run(SeparationPolicy::baseline());
  // On a stock cluster, essentially every channel is open.
  EXPECT_TRUE(find(reports, ChannelKind::procfs_process_list).open);
  EXPECT_TRUE(find(reports, ChannelKind::procfs_cmdline).open);
  EXPECT_TRUE(find(reports, ChannelKind::scheduler_queue).open);
  EXPECT_TRUE(find(reports, ChannelKind::scheduler_accounting).open);
  EXPECT_TRUE(find(reports, ChannelKind::fs_home_read).open);
  EXPECT_TRUE(find(reports, ChannelKind::fs_tmp_content).open);
  EXPECT_TRUE(find(reports, ChannelKind::tcp_cross_user).open);
  EXPECT_TRUE(find(reports, ChannelKind::udp_cross_user).open);
  EXPECT_TRUE(find(reports, ChannelKind::gpu_residue).open);
  EXPECT_TRUE(find(reports, ChannelKind::portal_foreign_app).open);
  EXPECT_TRUE(find(reports, ChannelKind::ssh_foreign_node).open);
  EXPECT_TRUE(find(reports, ChannelKind::fs_acl_user_grant).open);
  EXPECT_GE(LeakageAuditor::open_count(reports), 14u);
}

TEST_F(AuditTest, HardenedClosesEverythingButDocumentedResiduals) {
  auto reports = run(SeparationPolicy::hardened());
  for (const auto& r : reports) {
    if (is_documented_residual(r.kind)) {
      // §V says these remain — the reproduction should agree.
      EXPECT_TRUE(r.open) << to_string(r.kind) << " should remain open: "
                          << r.detail;
    } else {
      EXPECT_FALSE(r.open)
          << to_string(r.kind) << " should be closed: " << r.detail;
    }
  }
  // The headline number: zero unexpected open channels.
  EXPECT_EQ(LeakageAuditor::unexpected_open_count(reports), 0u);
  EXPECT_EQ(LeakageAuditor::open_count(reports), 3u);
}

TEST_F(AuditTest, ResidualSetMatchesPaperExactly) {
  auto reports = run(SeparationPolicy::hardened());
  std::set<ChannelKind> open;
  for (const auto& r : reports) {
    if (r.open) open.insert(r.kind);
  }
  const std::set<ChannelKind> expected{ChannelKind::fs_tmp_names,
                                       ChannelKind::abstract_uds,
                                       ChannelKind::rdma_native_cm};
  EXPECT_EQ(open, expected);
}

TEST_F(AuditTest, ProbesAreRepeatable) {
  cluster = std::make_unique<Cluster>(
      audit_config(SeparationPolicy::hardened()));
  victim = *cluster->add_user("victim");
  observer = *cluster->add_user("observer");
  LeakageAuditor auditor(cluster.get());
  auto first = auditor.audit_pair(victim, observer);
  auto second = auditor.audit_pair(victim, observer);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].open, second[i].open)
        << to_string(first[i].kind) << ": probe not idempotent";
  }
}

TEST_F(AuditTest, FailedLoginLeavesNoSessionBehind) {
  // An observer with no account: every probe's observer login fails,
  // and the victim's shell each probe did log in must be logged out.
  cluster = std::make_unique<Cluster>(
      audit_config(SeparationPolicy::hardened()));
  victim = *cluster->add_user("victim");
  const simos::ProcessTable& login_procs =
      cluster->node(cluster->login_nodes().front()).procs();
  const std::size_t procs_before = login_procs.count();
  const std::vector<Pid> victim_pids_before = login_procs.pids_of(victim);

  LeakageAuditor auditor(cluster.get());
  const auto reports = auditor.audit_pair(victim, Uid{4242});

  ASSERT_EQ(reports.size(), kAllChannels.size());
  for (const auto& r : reports) {
    EXPECT_FALSE(r.open) << to_string(r.kind) << ": " << r.detail;
  }
  EXPECT_EQ(login_procs.count(), procs_before);
  EXPECT_EQ(login_procs.pids_of(victim), victim_pids_before);
}

TEST_F(AuditTest, BlastRadiusContainedUnderHardening) {
  cluster = std::make_unique<Cluster>(
      audit_config(SeparationPolicy::hardened()));
  const Uid attacker = *cluster->add_user("mallory");
  std::vector<Uid> victims;
  for (int i = 0; i < 4; ++i) {
    victims.push_back(
        *cluster->add_user("victim" + std::to_string(i)));
  }
  LeakageAuditor auditor(cluster.get());
  auto blast = auditor.blast_radius(attacker, victims);
  EXPECT_EQ(blast.victims_total, 4u);
  EXPECT_EQ(blast.total_effects(), 0u)
      << "services=" << blast.services_reached
      << " files=" << blast.files_read
      << " procs=" << blast.processes_observed
      << " jobs=" << blast.jobs_observed
      << " collisions=" << blast.port_collisions_won;
}

TEST_F(AuditTest, BlastRadiusWideOpenOnBaseline) {
  cluster = std::make_unique<Cluster>(
      audit_config(SeparationPolicy::baseline()));
  const Uid attacker = *cluster->add_user("mallory");
  std::vector<Uid> victims;
  for (int i = 0; i < 4; ++i) {
    victims.push_back(
        *cluster->add_user("victim" + std::to_string(i)));
  }
  LeakageAuditor auditor(cluster.get());
  auto blast = auditor.blast_radius(attacker, victims);
  EXPECT_GT(blast.services_reached, 0u);
  EXPECT_GT(blast.files_read, 0u);
  EXPECT_GT(blast.processes_observed, 0u);
  EXPECT_GT(blast.jobs_observed, 0u);
  EXPECT_GT(blast.port_collisions_won, 0u);
}

TEST_F(AuditTest, MarkdownReportRendersCensus) {
  auto reports = run(SeparationPolicy::hardened());
  const std::string md = LeakageAuditor::to_markdown(reports);
  EXPECT_NE(md.find("| channel | status |"), std::string::npos);
  EXPECT_NE(md.find("| fs-tmp-names | **OPEN** | yes |"),
            std::string::npos);
  EXPECT_NE(md.find("| gpu-residue | closed | no |"), std::string::npos);
  EXPECT_NE(md.find("(unexpected: 0)"), std::string::npos);
}

TEST_F(AuditTest, ChannelNamesAreStable) {
  // The bench output keys on these strings; keep them meaningful.
  EXPECT_STREQ(to_string(ChannelKind::gpu_residue), "gpu-residue");
  EXPECT_STREQ(to_string(ChannelKind::abstract_uds), "abstract-uds");
  EXPECT_STREQ(to_string(ChannelKind::fs_tmp_names), "fs-tmp-names");
}

}  // namespace
}  // namespace heus::core
