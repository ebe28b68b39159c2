// The channel-probe table: one probe per census channel, shared by the
// LeakageAuditor and the differential path oracle.
#include "core/channel_probe.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "analyze/channel_graph.h"
#include "analyze/path_oracle.h"

namespace heus::core {
namespace {

TEST(ChannelProbeTest, OneEntryPerChannelInCensusOrder) {
  const auto probes = channel_probes();
  ASSERT_EQ(probes.size(), obs::kAllChannels.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(probes[i].kind, obs::kAllChannels[i]) << "entry " << i;
    EXPECT_EQ(&channel_probe(obs::kAllChannels[i]), &probes[i]);
    EXPECT_NE(probes[i].run, nullptr);
    EXPECT_NE(probes[i].deny_knob, nullptr);
  }
}

TEST(ChannelProbeTest, OnlyDocumentedResidualsDenyWithoutAKnob) {
  for (const SeparationPolicy& policy :
       {SeparationPolicy::baseline(), SeparationPolicy::hardened()}) {
    for (const ChannelProbe& probe : channel_probes()) {
      const char* knob = probe.deny_knob(policy);
      EXPECT_EQ(knob == nullptr, obs::is_documented_residual(probe.kind))
          << obs::to_string(probe.kind);
    }
  }
}

TEST(ChannelProbeTest, OracleRunsEverySameClusterChannelEdgeThroughTable) {
  // The footholds keep their own executors: each hands a shell or a
  // portal session on to the next hop of the path.
  const std::set<analyze::EdgeId> footholds = {
      analyze::EdgeId::ssh_gate, analyze::EdgeId::portal_forward};
  std::size_t through_table = 0;
  for (const analyze::EdgeSpec& spec : analyze::edge_catalog()) {
    const bool fed = std::strcmp(spec.layer, "fed") == 0;
    const bool expected =
        spec.channel.has_value() && !fed && !footholds.contains(spec.id);
    EXPECT_EQ(analyze::runs_channel_probe(spec), expected) << spec.mechanism;
    through_table += expected ? 1 : 0;
  }
  EXPECT_GT(through_table, 0u);
}

}  // namespace
}  // namespace heus::core
