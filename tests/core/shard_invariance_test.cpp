// Shard-invariance proof for the BSP engine (ISSUE 9 acceptance).
//
// Two properties are pinned here:
//
//  Mode A — golden replay. The nine E3 schedule digests from
//  tests/sched/sched_digest_test.cpp are reproduced *through the engine*
//  (global scheduler stepped from the serial phase) at 1, 2, 4 and 8
//  workers. The expected values are the very same goldens captured from
//  the serial pre-engine implementation: the engine adds zero behaviour.
//
//  Mode B — sharded workload invariance. A 4-group workload that uses
//  every parallel surface at once — per-group connect/send/close/gc
//  streams under ShardScope, the UBF (per-shard caches + decision trace),
//  per-group Scheduler instances stepped inside group ticks, and
//  cross-group connects drained through post_cross() — produces
//  bit-identical digests of the network, the decision trace, the UBF
//  counters and every group's schedule at 1, 2, 4 and 8 workers, and
//  across repeat runs at the same worker count.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "bench/common/workloads.h"
#include "common/clock.h"
#include "common/fnv.h"
#include "common/strings.h"
#include "core/engine.h"
#include "net/network.h"
#include "net/ubf.h"
#include "obs/decision.h"
#include "sched/scheduler.h"
#include "simos/user_db.h"

namespace heus::core {
namespace {

/// Canonical schedule digest — field-for-field the fold used by
/// tests/sched/sched_digest_test.cpp, so mode A can compare against the
/// goldens captured there.
std::uint64_t schedule_digest(const sched::Scheduler& sched) {
  auto records = sched.accounting(simos::root_credentials());
  std::sort(records.begin(), records.end(),
            [](const sched::AccountingRecord& x,
               const sched::AccountingRecord& y) { return x.id < y.id; });
  common::Fnv d;
  d.fold(records.size());
  for (const auto& rec : records) {
    d.fold(rec.id.value());
    d.fold(rec.user.value());
    d.fold(static_cast<std::uint64_t>(rec.final_state));
    d.fold(static_cast<std::uint64_t>(rec.submit_time.ns));
    d.fold(static_cast<std::uint64_t>(rec.start_time.ns));
    d.fold(static_cast<std::uint64_t>(rec.end_time.ns));
    d.fold(rec.cpus);
    d.fold(rec.cpu_ns);
  }
  d.fold(sched.cross_user_coresidency_events());
  d.fold(static_cast<std::uint64_t>(sched.last_completion().ns));
  return d.value();
}

// ---- mode A: golden schedule replay through the engine --------------------

std::uint64_t run_engine_digest(bench::WorkloadFactory make,
                                sched::SharingPolicy policy, bool backfill,
                                sched::PriorityPolicy priority,
                                unsigned nodes, unsigned workers) {
  bench::WorkloadParams params;
  params.users = 8;
  params.jobs = 150;
  params.mean_interarrival_ns = common::kSecond / 4;
  const auto jobs = make(params);

  common::SimClock clock;
  simos::UserDb db;
  std::vector<simos::Credentials> users;
  for (std::size_t u = 0; u < 8; ++u) {
    users.push_back(
        *simos::login(db, *db.create_user("user" + std::to_string(u))));
  }
  sched::SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.backfill = backfill;
  cfg.priority = priority;
  sched::Scheduler sched(&clock, cfg);
  for (unsigned i = 0; i < nodes; ++i) {
    sched::NodeInfo info;
    info.hostname = common::strformat("c%u", i);
    info.cpus = 16;
    info.mem_mb = 16 * 4096ULL;
    sched.add_node(info);
  }

  // The engine drives the event loop: each tick's serial phase performs
  // one iteration of the reference harness (advance, submit, step). The
  // group ticks are empty — all four groups spin through the pool so the
  // barrier/scope machinery is exercised at every worker count.
  net::Network nw(&clock);
  EngineConfig ec;
  ec.workers = workers;
  ShardedEngine engine(&nw, &clock, ShardMap::blocks(0, 4), ec);
  engine.set_group_tick([](std::uint32_t, common::Rng&) {});

  std::size_t next = 0;
  bool done = false;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  engine.set_serial_tick([&] {
    const std::int64_t t_submit =
        next < jobs.size() ? jobs[next].submit_offset_ns : kInf;
    const auto event = sched.next_event_time();
    const std::int64_t t_event = event ? event->ns : kInf;
    const std::int64_t t = std::min(t_submit, t_event);
    if (t == kInf) {
      done = true;
      return;
    }
    clock.advance_to(common::SimTime{t});
    while (next < jobs.size() && jobs[next].submit_offset_ns <= t) {
      (void)sched.submit(users[jobs[next].user_index], jobs[next].spec);
      ++next;
    }
    sched.step();
  });
  while (!done) engine.tick();
  return schedule_digest(sched);
}

struct GoldenCase {
  const char* name;
  bench::WorkloadFactory make;
  sched::SharingPolicy policy;
  bool backfill;
  sched::PriorityPolicy priority;
  unsigned nodes;
  std::uint64_t golden;
};

// The identical goldens pinned by sched_digest_test.cpp (captured from
// the serial scan-based scheduler): the engine must add zero behaviour.
constexpr std::uint64_t kBspShared = 0x9eb24e8127d9b947ULL;
constexpr std::uint64_t kMixedUwn = 0x5b3b853272fc9ef4ULL;
constexpr std::uint64_t kMixedFair = 0xc4f447962e665b36ULL;
constexpr std::uint64_t kCapShared = 0xd8d4010b0b56eb65ULL;

TEST(ShardInvariance, ModeAGoldenSchedulesReproduceAtEveryWorkerCount) {
  const GoldenCase cases[] = {
      {"bsp/shared", bench::make_bsp_sweep, sched::SharingPolicy::shared,
       true, sched::PriorityPolicy::fcfs, 8, kBspShared},
      {"bsp/exclusive", bench::make_bsp_sweep,
       sched::SharingPolicy::exclusive_job, true,
       sched::PriorityPolicy::fcfs, 8, 0x889161ef9b81484fULL},
      {"bsp/user-whole-node", bench::make_bsp_sweep,
       sched::SharingPolicy::user_whole_node, true,
       sched::PriorityPolicy::fcfs, 8, 0xb85e634362d8d816ULL},
      {"mixed/shared", bench::make_mixed, sched::SharingPolicy::shared,
       true, sched::PriorityPolicy::fcfs, 8, 0x98b2ff6164f1b4bdULL},
      {"mixed/user-whole-node", bench::make_mixed,
       sched::SharingPolicy::user_whole_node, true,
       sched::PriorityPolicy::fcfs, 8, kMixedUwn},
      {"mixed/uwn/no-backfill", bench::make_mixed,
       sched::SharingPolicy::user_whole_node, false,
       sched::PriorityPolicy::fcfs, 8, 0xf0fbe5bc48526de1ULL},
      {"mixed/uwn/fairshare", bench::make_mixed,
       sched::SharingPolicy::user_whole_node, true,
       sched::PriorityPolicy::fairshare, 8, kMixedFair},
      {"capability/shared", bench::make_capability,
       sched::SharingPolicy::shared, true, sched::PriorityPolicy::fcfs, 8,
       kCapShared},
      {"bsp/uwn/64-nodes", bench::make_bsp_sweep,
       sched::SharingPolicy::user_whole_node, true,
       sched::PriorityPolicy::fcfs, 64, 0x2268741af7840a9ULL},
  };
  // Every case at 1 worker (the serial reference through the engine)...
  for (const GoldenCase& c : cases) {
    EXPECT_EQ(run_engine_digest(c.make, c.policy, c.backfill, c.priority,
                                c.nodes, 1),
              c.golden)
        << c.name << " drifted at 1 worker";
  }
  // ...and a policy-diverse subset swept across 2/4/8 workers.
  const GoldenCase sweep[] = {
      {"bsp/shared", bench::make_bsp_sweep, sched::SharingPolicy::shared,
       true, sched::PriorityPolicy::fcfs, 8, kBspShared},
      {"mixed/uwn/fairshare", bench::make_mixed,
       sched::SharingPolicy::user_whole_node, true,
       sched::PriorityPolicy::fairshare, 8, kMixedFair},
      {"capability/shared", bench::make_capability,
       sched::SharingPolicy::shared, true, sched::PriorityPolicy::fcfs, 8,
       kCapShared},
  };
  for (const GoldenCase& c : sweep) {
    for (const unsigned workers : {2u, 4u, 8u}) {
      EXPECT_EQ(run_engine_digest(c.make, c.policy, c.backfill, c.priority,
                                  c.nodes, workers),
                c.golden)
          << c.name << " drifted at " << workers << " workers";
    }
  }
}

// ---- mode B: sharded workload, everything parallel at once ----------------

struct RunResult {
  std::uint64_t net = 0;
  std::uint64_t decisions = 0;
  std::uint64_t ubf = 0;
  std::vector<std::uint64_t> sched;
  std::int64_t final_ns = 0;
  std::uint64_t lc_fired = 0;
  std::uint64_t lc_illegal = 0;
  // Raw counters kept alongside the digests so the sanity checks can
  // assert the workload actually exercised each surface.
  std::uint64_t established = 0;
  std::uint64_t denied = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cross_ops = 0;
  std::uint64_t jobs_accounted = 0;
  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult run_mode_b(unsigned workers) {
  constexpr std::uint32_t kGroups = 4;
  constexpr std::size_t kHostsPerGroup = 4;
  constexpr std::size_t kHosts = kGroups * kHostsPerGroup;

  common::SimClock clock;
  net::Network nw(&clock);
  nw.set_flow_ttl(3 * common::kSecond);
  std::vector<HostId> hosts;
  for (std::size_t h = 0; h < kHosts; ++h) {
    hosts.push_back(nw.add_host(common::strformat("node%zu", h)));
  }

  simos::UserDb db;
  std::vector<simos::Credentials> owner;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    owner.push_back(
        *simos::login(db, *db.create_user("owner" + std::to_string(g))));
  }
  // One global user with a listener on every host: the only principal
  // whose cross-group connects pass the UBF, giving the cross bucket
  // established flows (not just denials).
  const simos::Credentials wanderer =
      *simos::login(db, *db.create_user("wanderer"));

  obs::DecisionTrace trace;
  trace.set_clock(&clock);
  trace.set_capacity(1 << 16);  // must exceed the decision count: a ring
                                // overwrite would be arrival-order-dependent
  trace.set_enabled(true);

  const ShardMap map = ShardMap::blocks(kHosts, kGroups);
  EngineConfig ec;
  ec.workers = workers;
  ec.seed = 1234;
  ShardedEngine engine(&nw, &clock, map, ec);

  // Attach the UBF *after* the engine sharded the network, so its
  // per-shard state is sized to the bucket count (see engine.h NOTE).
  net::Ubf ubf(&db, &nw);
  ubf.set_clock(&clock);
  ubf.set_trace(&trace);
  ubf.attach();
  nw.set_trace(&trace);

  std::vector<std::vector<HostId>> group_hosts(kGroups);
  for (std::size_t h = 0; h < kHosts; ++h) {
    group_hosts[map.host_group[h]].push_back(hosts[h]);
  }
  for (std::size_t h = 0; h < kHosts; ++h) {
    const std::uint32_t g = map.host_group[h];
    const auto pid = static_cast<std::uint32_t>(100 + h);
    EXPECT_TRUE(
        nw.listen(hosts[h], owner[g], Pid{pid}, net::Proto::tcp, 5000));
    EXPECT_TRUE(nw.listen(hosts[h], wanderer, Pid{pid + 100},
                          net::Proto::tcp, 5001));
  }

  // Mode B schedulers: one instance per group, stepped from the group
  // tick. Scheduler::step() reads but never advances the clock, and every
  // scheduler owns all its state, so instances share nothing.
  std::vector<std::unique_ptr<sched::Scheduler>> scheds;
  std::vector<std::vector<bench::WorkloadJob>> jobs(kGroups);
  std::vector<std::size_t> next(kGroups, 0);
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    sched::SchedulerConfig cfg;
    cfg.policy = sched::SharingPolicy::user_whole_node;
    scheds.push_back(std::make_unique<sched::Scheduler>(&clock, cfg));
    for (std::size_t n = 0; n < kHostsPerGroup; ++n) {
      sched::NodeInfo info;
      info.hostname = common::strformat("g%u-n%zu", g, n);
      info.cpus = 16;
      info.mem_mb = 16 * 4096ULL;
      scheds[g]->add_node(info);
    }
    bench::WorkloadParams wp;
    wp.users = 2;
    wp.jobs = 40;
    wp.mean_interarrival_ns = common::kSecond / 4;
    wp.seed = 7 + g;
    jobs[g] = bench::make_bsp_sweep(wp);
  }

  std::vector<std::vector<FlowId>> open(kGroups);
  engine.set_group_tick([&](std::uint32_t g, common::Rng& rng) {
    const auto& gh = group_hosts[g];
    // Intra-group connection churn: a mix of same-user allows, UBF
    // denials (owner -> wanderer port and vice versa) and cache hits.
    for (int i = 0; i < 12; ++i) {
      const HostId src = gh[rng.bounded(gh.size())];
      const HostId dst = gh[rng.bounded(gh.size())];
      const bool as_wanderer = rng.chance(0.4);
      const std::uint16_t port = rng.chance(0.5) ? 5000 : 5001;
      auto r = nw.connect(src, as_wanderer ? wanderer : owner[g], Pid{1},
                          dst, net::Proto::tcp, port);
      if (r) open[g].push_back(*r);
    }
    auto& fl = open[g];
    for (std::size_t k = 0; k < fl.size();) {
      if (rng.chance(0.5)) {
        (void)nw.send(fl[k], net::FlowEnd::client, "ping");
      }
      if (rng.chance(0.15)) {
        (void)nw.close(fl[k]);
        fl[k] = fl.back();
        fl.pop_back();
      } else {
        ++k;
      }
    }
    (void)nw.gc_bucket(g);

    auto& js = jobs[g];
    while (next[g] < js.size() &&
           js[next[g]].submit_offset_ns <= clock.now().ns) {
      const auto& j = js[next[g]];
      (void)scheds[g]->submit(j.user_index % 2 == 0 ? owner[g] : wanderer,
                              j.spec);
      ++next[g];
    }
    scheds[g]->step();

    // Cross-group traffic goes through the outbox: the connect itself
    // runs in the serial phase, in (group, post-order) order. Endpoints
    // are drawn from the group's Rng *now* so the stream stays group-pure.
    if (rng.chance(0.6)) {
      const std::uint32_t og = (g + 1) % kGroups;
      const HostId src = gh[rng.bounded(gh.size())];
      const HostId dst =
          group_hosts[og][rng.bounded(group_hosts[og].size())];
      engine.post_cross(g, [&nw, &wanderer, src, dst] {
        (void)nw.connect(src, wanderer, Pid{1}, dst, net::Proto::tcp, 5001);
      });
    }
  });
  engine.set_serial_tick([&] {
    (void)nw.gc_bucket(nw.cross_bucket());
    clock.advance(common::kSecond / 2);
  });

  for (int t = 0; t < 80; ++t) engine.tick();

  RunResult r;
  r.net = network_digest(nw);
  r.decisions = decision_digest(trace);
  common::Fnv u;
  const net::UbfStats us = ubf.stats();
  u.fold(us.decisions);
  u.fold(us.allowed_same_user);
  u.fold(us.allowed_group);
  u.fold(us.denied);
  u.fold(us.ident_failures);
  u.fold(us.cache_hits);
  u.fold(us.cache_misses);
  u.fold(us.cache_invalidations);
  u.fold(ubf.cache_size());
  u.fold(ubf.log().size());
  r.ubf = u.value();
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    r.sched.push_back(schedule_digest(*scheds[g]));
  }
  r.final_ns = clock.now().ns;
  r.lc_fired = nw.flow_lifecycle().fired_total();
  r.lc_illegal = nw.flow_lifecycle().illegal_events();
  r.established = nw.stats().connections_established;
  r.denied = us.denied;
  r.cache_hits = us.cache_hits;
  r.cross_ops = engine.stats().cross_ops;
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    r.jobs_accounted +=
        scheds[g]->accounting(simos::root_credentials()).size();
  }
  return r;
}

TEST(ShardInvariance, ModeBDigestsIdenticalAtOneTwoFourEightWorkers) {
  const RunResult base = run_mode_b(1);
  // The workload must actually exercise every parallel surface, or the
  // invariance claim is vacuous.
  EXPECT_GT(base.established, 100u) << "workload made too few flows";
  EXPECT_GT(base.denied, 50u) << "UBF denial path not exercised";
  EXPECT_GT(base.cache_hits, 50u) << "UBF decision cache not exercised";
  EXPECT_GT(base.cross_ops, 20u) << "cross-group phase not exercised";
  EXPECT_GT(base.jobs_accounted, 100u) << "schedulers barely ran";
  EXPECT_EQ(base.lc_illegal, 0u);

  for (const unsigned workers : {2u, 4u, 8u}) {
    const RunResult r = run_mode_b(workers);
    EXPECT_EQ(r.net, base.net) << workers << " workers: network drifted";
    EXPECT_EQ(r.decisions, base.decisions)
        << workers << " workers: decision trace drifted";
    EXPECT_EQ(r.ubf, base.ubf) << workers << " workers: UBF state drifted";
    EXPECT_EQ(r.sched, base.sched)
        << workers << " workers: a group schedule drifted";
    EXPECT_EQ(r.final_ns, base.final_ns)
        << workers << " workers: simulated time drifted";
    EXPECT_TRUE(r == base) << workers << " workers: full result drifted";
  }
}

TEST(ShardInvariance, ModeBRepeatRunsAreBitIdentical) {
  EXPECT_TRUE(run_mode_b(4) == run_mode_b(4));
}

}  // namespace
}  // namespace heus::core
