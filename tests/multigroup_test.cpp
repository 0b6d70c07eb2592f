// Multiple consensus groups in parallel on one switch (§IV-A: "the control
// plane still listens for new ConnectRequest packets to create new parallel
// connections, as P4CE supports multiple consensus groups in parallel").
// Two (and three) independent replication domains share the programmable
// switch; each gets its own BCast/Aggr queue pairs, multicast group and
// registers, and neither leaks traffic into the other.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "obs/context.hpp"

namespace p4ce {
namespace {

using core::Cluster;
using core::ClusterOptions;

std::unique_ptr<Cluster> make(u32 domains, u32 machines = 3,
                              consensus::Mode mode = consensus::Mode::kP4ce) {
  ClusterOptions options;
  options.machines = machines;
  options.domains = domains;
  options.mode = mode;
  auto cluster = Cluster::create(options);
  EXPECT_TRUE(cluster->start());
  return cluster;
}

TEST(MultiGroup, EachDomainElectsItsOwnLeader) {
  auto cluster = make(2);
  ASSERT_NE(cluster->leader(0), nullptr);
  ASSERT_NE(cluster->leader(1), nullptr);
  EXPECT_EQ(cluster->leader(0)->id(), 0u);
  EXPECT_EQ(cluster->leader(1)->id(), 3u);  // lowest id of domain 1
  EXPECT_TRUE(cluster->leader(0)->accelerated());
  EXPECT_TRUE(cluster->leader(1)->accelerated());
  EXPECT_EQ(cluster->control_plane().active_groups(), 2u);
}

TEST(MultiGroup, GroupsGetDisjointSwitchResources) {
  auto cluster = make(2);
  const p4::GroupSpec* g0 = cluster->dataplane().group_spec(0);
  const p4::GroupSpec* g1 = cluster->dataplane().group_spec(1);
  ASSERT_NE(g0, nullptr);
  ASSERT_NE(g1, nullptr);
  EXPECT_NE(g0->bcast_qpn, g1->bcast_qpn);
  EXPECT_NE(g0->aggr_qpn, g1->aggr_qpn);
  EXPECT_NE(g0->mcast_group_id, g1->mcast_group_id);
  for (const auto& r0 : g0->replicas) {
    for (const auto& r1 : g1->replicas) EXPECT_NE(r0.ip, r1.ip);
  }
}

TEST(MultiGroup, DomainsReplicateIndependently) {
  auto cluster = make(2);
  std::vector<u64> delivered(6, 0);
  for (u32 i = 0; i < 6; ++i) {
    cluster->node(i).set_deliver([&delivered, i](const consensus::LogEntry&) {
      ++delivered[i];
    });
  }
  int ok0 = 0, ok1 = 0;
  for (int k = 0; k < 40; ++k) {
    std::ignore = cluster->leader(0)->propose(Bytes(64, 0xA0),
                                              [&](Status st, u64) { ok0 += st.is_ok(); });
  }
  for (int k = 0; k < 25; ++k) {
    std::ignore = cluster->leader(1)->propose(Bytes(64, 0xB1),
                                              [&](Status st, u64) { ok1 += st.is_ok(); });
  }
  cluster->run_for(milliseconds(3));
  EXPECT_EQ(ok0, 40);
  EXPECT_EQ(ok1, 25);
  // Domain 0 machines saw exactly domain 0's entries; same for domain 1.
  for (u32 i = 0; i < 3; ++i) EXPECT_EQ(delivered[i], 40u) << "node " << i;
  for (u32 i = 3; i < 6; ++i) EXPECT_EQ(delivered[i], 25u) << "node " << i;
  // Per-group switch counters are similarly disjoint.
  EXPECT_EQ(cluster->dataplane().group_stats(0).requests_scattered, 40u);
  EXPECT_EQ(cluster->dataplane().group_stats(1).requests_scattered, 25u);
}

TEST(MultiGroup, FailuresAreContainedToTheirDomain) {
  auto cluster = make(2);
  // Kill domain 1's leader; domain 0 must not notice.
  cluster->crash_node(3);
  const SimTime deadline = cluster->now() + milliseconds(500);
  while (cluster->leader(1) == nullptr && cluster->now() < deadline) {
    cluster->run_for(milliseconds(1));
  }
  ASSERT_NE(cluster->leader(1), nullptr);
  EXPECT_EQ(cluster->leader(1)->id(), 4u);
  ASSERT_NE(cluster->leader(0), nullptr);
  EXPECT_EQ(cluster->leader(0)->id(), 0u);
  EXPECT_EQ(cluster->leader(0)->term(), 1u);  // domain 0 undisturbed

  int ok = 0;
  std::ignore = cluster->leader(0)->propose(Bytes(8, 1),
                                            [&](Status st, u64) { ok += st.is_ok(); });
  std::ignore = cluster->leader(1)->propose(Bytes(8, 1),
                                            [&](Status st, u64) { ok += st.is_ok(); });
  cluster->run_for(milliseconds(2));
  EXPECT_EQ(ok, 2);
}

TEST(MultiGroup, ThreeDomainsOnOneSwitch) {
  auto cluster = make(3);
  EXPECT_EQ(cluster->control_plane().active_groups(), 3u);
  int ok = 0;
  for (u32 d = 0; d < 3; ++d) {
    for (int k = 0; k < 10; ++k) {
      std::ignore = cluster->leader(d)->propose(Bytes(64, static_cast<u8>(d)),
                                                [&](Status st, u64) { ok += st.is_ok(); });
    }
  }
  cluster->run_for(milliseconds(3));
  EXPECT_EQ(ok, 30);
}

TEST(MultiGroup, TracedRoundsAreNamespacedByDomain) {
  // Regression: both leaders' operation counters start at 1, so un-namespaced
  // trace keys collided across domains and merged unrelated rounds into one
  // Chrome track (and one wire mapping).
  ClusterOptions options;
  options.domains = 2;
  auto cluster = Cluster::create(options);
  auto& tracer = cluster->sim().obs().tracer;
  tracer.enable();
  ASSERT_TRUE(cluster->start());
  int ok = 0;
  std::ignore = cluster->leader(0)->propose(Bytes(64, 0xA0),
                                            [&](Status st, u64) { ok += st.is_ok(); });
  std::ignore = cluster->leader(1)->propose(Bytes(64, 0xB1),
                                            [&](Status st, u64) { ok += st.is_ok(); });
  cluster->run_for(milliseconds(3));
  EXPECT_EQ(ok, 2);

  const std::string json = tracer.to_chrome_json();
  // Domain 0 keeps the legacy track name; domain 1 gets its own namespace.
  EXPECT_NE(json.find("\"instance 1\""), std::string::npos);
  EXPECT_NE(json.find("\"domain 1 instance 1\""), std::string::npos);
}

TEST(MultiGroup, MuDomainsShareTheSwitchAsPlainFabric) {
  auto cluster = make(2, 3, consensus::Mode::kMu);
  EXPECT_EQ(cluster->control_plane().active_groups(), 0u);
  int ok = 0;
  std::ignore = cluster->leader(0)->propose(Bytes(8, 1),
                                            [&](Status st, u64) { ok += st.is_ok(); });
  std::ignore = cluster->leader(1)->propose(Bytes(8, 1),
                                            [&](Status st, u64) { ok += st.is_ok(); });
  cluster->run_for(milliseconds(2));
  EXPECT_EQ(ok, 2);
}

TEST(MultiCluster, TwoClustersInOneProcessKeepIndependentInstruments) {
  // A P4CE and a Mu cluster, each with every pillar armed on its own
  // context, stepped in interleaved slices.
  const auto armed = [](consensus::Mode mode) {
    ClusterOptions options;
    options.mode = mode;
    options.cal = consensus::Calibration::failover();
    auto cluster = Cluster::create(options);
    obs::Context& obs = cluster->sim().obs();
    obs.tracer.enable_attribution();
    obs.sampler.enable(/*period=*/microseconds(100));
    obs.recorder.enable();
    EXPECT_TRUE(cluster->start(seconds(2)));
    return cluster;
  };
  auto p4 = armed(consensus::Mode::kP4ce);
  auto mu = armed(consensus::Mode::kMu);
  const obs::Context& p4_obs = p4->sim().obs();
  const obs::Context& mu_obs = mu->sim().obs();
  ASSERT_NE(&p4_obs, &mu_obs);
  auto commits = [](const obs::Context& obs) {
    return obs.metrics.snapshot().find("consensus.commits")->count;
  };

  int p4_ok = 0;
  int mu_ok = 0;
  for (int slice = 0; slice < 4; ++slice) {
    for (int k = 0; k < 10; ++k) {
      std::ignore = p4->leader()->propose(Bytes(64, 0x11),
                                          [&](Status st, u64) { p4_ok += st.is_ok(); });
    }
    for (int k = 0; k < 5; ++k) {
      std::ignore = mu->leader()->propose(Bytes(64, 0x22),
                                          [&](Status st, u64) { mu_ok += st.is_ok(); });
    }
    p4->run_for(milliseconds(1));
    mu->run_for(milliseconds(1));
  }
  ASSERT_EQ(p4_ok, 40);
  ASSERT_EQ(mu_ok, 20);
  // Each cluster counts only its own commits and attribution rounds.
  EXPECT_EQ(commits(p4_obs), 40u);
  EXPECT_EQ(commits(mu_obs), 20u);
  EXPECT_EQ(p4_obs.attribution.rounds(), 40u);
  EXPECT_EQ(mu_obs.attribution.rounds(), 20u);
  EXPECT_GT(p4_obs.attribution.stage(obs::LatencyAttribution::kSwitchScatter).count(), 0u);
  EXPECT_EQ(mu_obs.attribution.stage(obs::LatencyAttribution::kSwitchScatter).count(), 0u);

  // A fault in one cluster is captured by that cluster's recorder only.
  const std::size_t p4_captures = p4_obs.recorder.capture_count();
  mu->crash_node(2);  // a replica: the Mu leader excludes it
  mu->run_for(milliseconds(5));
  EXPECT_GT(mu_obs.recorder.capture_count(), 0u);
  EXPECT_EQ(p4_obs.recorder.capture_count(), p4_captures);
  for (const auto& cap : mu_obs.recorder.captures()) EXPECT_FALSE(cap.frames.empty());

  // The context outlives its cluster; once the cluster is gone nothing
  // records into it, while the other cluster keeps counting.
  const std::shared_ptr<obs::Context> kept = mu->sim().obs_handle();
  const u64 mu_commits = commits(*kept);
  const std::size_t mu_frames = kept->sampler.frame_count();
  const std::size_t mu_captures = kept->recorder.capture_count();
  mu.reset();
  for (int k = 0; k < 10; ++k) {
    std::ignore = p4->leader()->propose(Bytes(64, 0x33), [&](Status st, u64) {
      p4_ok += st.is_ok();
    });
  }
  p4->run_for(milliseconds(2));
  EXPECT_EQ(p4_ok, 50);
  EXPECT_EQ(commits(p4_obs), 50u);
  EXPECT_EQ(commits(*kept), mu_commits);
  EXPECT_EQ(kept->sampler.frame_count(), mu_frames);
  EXPECT_EQ(kept->recorder.capture_count(), mu_captures);
  EXPECT_EQ(kept->attribution.rounds(), 20u);
}

}  // namespace
}  // namespace p4ce
