// fleet_tick: core::ShardedEngine over a fleet of hosts, a large UserDb
// and node groups — the E25 body, with DecisionTrace recording enabled on
// the network and the UBF.
//
// Not a timed workload: on a shared 4-vCPU machine its figures moved by
// more than the largest bound the benchmark may set (README.md,
// "Steadiness record"), so core::ShardedEngine has no wall-clock
// measurement here. What remains is the worker-count invariance
// self-test: at a fixed seed the network digest after a run at two
// workers equals that of a run at one.
#include <memory>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/engine.h"
#include "net/network.h"
#include "net/ubf.h"
#include "obs/decision.h"
#include "sched/scheduler.h"
#include "simos/user_db.h"
#include "workloads.h"

namespace perfbench {
namespace {

using heus::FlowId;
using heus::HostId;
using heus::Pid;
using heus::common::kSecond;
namespace core = heus::core;
namespace net = heus::net;
namespace sched = heus::sched;
namespace simos = heus::simos;

// Small enough for a self-test, large enough that every group has hosts,
// flows, jobs and cross-group traffic.
constexpr std::size_t kHosts = 400;
constexpr std::size_t kUsers = 2'000;
constexpr std::uint32_t kGroups = 4;
constexpr int kConnectsPerGroup = 8;
constexpr std::size_t kActive = 16;
constexpr std::int64_t kFlowTtl = 3 * kSecond;
constexpr std::uint16_t kOwnerPort = 5000;
constexpr std::uint16_t kWandererPort = 5001;
constexpr std::uint16_t kClosedPort = 5002;  ///< nobody listens: refused

struct OpenFlow {
  FlowId id;
  std::int64_t touched_ns;  ///< sim time of the last connect/send
};

/// Per-group state, written only by the group's own task.
struct GroupState {
  std::vector<HostId> hosts;
  std::vector<OpenFlow> open;
  std::unique_ptr<sched::Scheduler> sched;
};

class Fleet {
 public:
  Fleet(std::uint64_t seed, unsigned workers) { build(seed, workers); }

  void tick() { engine_->tick(); }
  [[nodiscard]] const net::Network& network() const { return *nw_; }

 private:
  void build(std::uint64_t seed, unsigned workers);
  void group_tick(std::uint32_t g, heus::common::Rng& rng);

  heus::common::SimClock clock_;
  simos::UserDb db_;
  std::vector<simos::Credentials> active_;
  simos::Credentials wanderer_;
  std::unique_ptr<net::Network> nw_;
  heus::obs::DecisionTrace trace_;
  std::unique_ptr<core::ShardedEngine> engine_;
  std::unique_ptr<net::Ubf> ubf_;
  std::vector<GroupState> groups_;
};

void Fleet::build(std::uint64_t seed, unsigned workers) {
  // The account database is the "millions of users" axis; only a few
  // principals own listeners and submit jobs.
  for (std::size_t u = 0; u < kUsers; ++u) {
    const auto uid = *db_.create_user(heus::common::strformat("u%zu", u));
    if (u < kActive) active_.push_back(*simos::login(db_, uid));
  }
  wanderer_ = *simos::login(db_, *db_.create_user("wanderer"));

  nw_ = std::make_unique<net::Network>(&clock_);
  nw_->set_flow_ttl(kFlowTtl);
  std::vector<HostId> hosts;
  hosts.reserve(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    hosts.push_back(nw_->add_host(heus::common::strformat("n%zu", h)));
  }
  const core::ShardMap map = core::ShardMap::blocks(kHosts, kGroups);
  core::EngineConfig ec;
  ec.workers = workers;
  ec.seed = seed;
  engine_ = std::make_unique<core::ShardedEngine>(nw_.get(), &clock_, map, ec);

  trace_.set_clock(&clock_);
  trace_.set_capacity(1 << 16);
  trace_.set_enabled(true);
  nw_->set_trace(&trace_);
  ubf_ = std::make_unique<net::Ubf>(&db_, nw_.get());
  ubf_->set_clock(&clock_);
  ubf_->set_log_limit(0);
  ubf_->set_trace(&trace_);
  ubf_->attach();

  groups_ = std::vector<GroupState>(map.groups);
  for (std::size_t h = 0; h < kHosts; ++h) {
    const std::uint32_t g = map.host_group[h];
    groups_[g].hosts.push_back(hosts[h]);
    (void)nw_->listen(hosts[h], active_[g % kActive], Pid{1},
                      net::Proto::tcp, kOwnerPort);
    (void)nw_->listen(hosts[h], wanderer_, Pid{2}, net::Proto::tcp,
                      kWandererPort);
  }
  // Mode B: one scheduler per group over that group's nodes.
  for (std::uint32_t g = 0; g < map.groups; ++g) {
    sched::SchedulerConfig cfg;
    cfg.policy = sched::SharingPolicy::user_whole_node;
    groups_[g].sched = std::make_unique<sched::Scheduler>(&clock_, cfg);
    for (std::size_t n = 0; n < groups_[g].hosts.size(); ++n) {
      sched::NodeInfo info;
      info.hostname = heus::common::strformat("g%u-n%zu", g, n);
      info.cpus = 16;
      info.mem_mb = 16 * 4096ULL;
      groups_[g].sched->add_node(info);
    }
  }

  engine_->set_group_tick([this](std::uint32_t g, heus::common::Rng& rng) {
    group_tick(g, rng);
  });
  engine_->set_serial_tick([this] {
    (void)nw_->gc_bucket(nw_->cross_bucket());
    clock_.advance(kSecond / 2);
  });
}

void Fleet::group_tick(std::uint32_t g, heus::common::Rng& rng) {
  GroupState& gs = groups_[g];
  const simos::Credentials& owner = active_[g % active_.size()];
  const std::int64_t now = clock_.now().ns;

  // Same-user pairings are admitted, cross-user ones dropped by the UBF,
  // the closed port refused.
  for (int i = 0; i < kConnectsPerGroup; ++i) {
    const HostId src = gs.hosts[rng.bounded(gs.hosts.size())];
    const HostId dst = gs.hosts[rng.bounded(gs.hosts.size())];
    const bool as_wanderer = rng.chance(0.3);
    std::uint16_t port = rng.chance(0.5) ? kOwnerPort : kWandererPort;
    if (rng.chance(0.1)) port = kClosedPort;
    const heus::Result<FlowId> r =
        nw_->connect(src, as_wanderer ? wanderer_ : owner, Pid{3}, dst,
                     net::Proto::tcp, port);
    if (r) gs.open.push_back(OpenFlow{*r, now});
  }

  auto& fl = gs.open;
  for (std::size_t k = 0; k < fl.size();) {
    // A flow idle for half its TTL is left to the GC; the fleet never
    // touches a flow the GC may already have expired.
    if (now - fl[k].touched_ns >= kFlowTtl / 2) {
      fl[k] = fl.back();
      fl.pop_back();
      continue;
    }
    if (rng.chance(0.5)) {
      (void)nw_->send(fl[k].id, net::FlowEnd::client, "x");
      fl[k].touched_ns = now;
    }
    if (rng.chance(0.2)) {
      (void)nw_->close(fl[k].id);
      fl[k] = fl.back();
      fl.pop_back();
    } else {
      ++k;
    }
  }
  (void)nw_->gc_bucket(g);

  if (rng.chance(0.5)) {
    sched::JobSpec spec;
    spec.name = "sweep";
    spec.duration_ns = rng.uniform_int(1, 8) * kSecond;
    spec.time_limit_ns = 4 * spec.duration_ns;
    (void)gs.sched->submit(rng.chance(0.5) ? wanderer_ : owner, spec);
  }
  gs.sched->step();

  if (rng.chance(0.3)) {
    const std::uint32_t og =
        (g + 1) % static_cast<std::uint32_t>(groups_.size());
    const HostId src = gs.hosts[rng.bounded(gs.hosts.size())];
    const HostId dst =
        groups_[og].hosts[rng.bounded(groups_[og].hosts.size())];
    engine_->post_cross(g, [this, src, dst] {
      // The wanderer's own listener: admitted.
      (void)nw_->connect(src, wanderer_, Pid{3}, dst, net::Proto::tcp,
                         kWandererPort);
    });
  }
}

}  // namespace

std::uint64_t fleet_digest(std::uint64_t seed, unsigned workers, int ticks) {
  Fleet f(seed, workers);
  for (int t = 0; t < ticks; ++t) f.tick();
  return core::network_digest(f.network());
}

}  // namespace perfbench
