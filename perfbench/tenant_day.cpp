// tenant_day: one hardened core::Cluster and one client thread running a
// seeded mix of tenant actions, many of which target another tenant and
// must be denied.
//
// Why: it is serial and runs every enforcement point at its per-call hot
// path, with a UBF decision cache that user-database churn keeps
// invalidating. The engine and the analyzer do no work here, so a change
// to them should leave this workload unchanged.
//
// The run is a sequence of days. Each day builds a fresh cluster (the
// set-up that setup_s times) and replays a fixed number of actions drawn
// from (seed, day). Job history, and with it the cost of sacct, grows
// within a day and starts from zero the next. The run cycles through
// kDistinctDays distinct days, so each is replayed many times and every
// burst of it can be taken at its fastest replay.
#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "container/runtime.h"
#include "core/cluster.h"
#include "obs/decision.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using heus::GpuId;
using heus::JobId;
using heus::NodeId;
using heus::Pid;
using heus::Uid;
using heus::common::kSecond;
namespace core = heus::core;
namespace obs = heus::obs;
namespace sched = heus::sched;
namespace net = heus::net;
namespace vfs = heus::vfs;

struct TenantSizes {
  unsigned compute = 32;
  unsigned login = 2;
  unsigned debug = 1;
  std::size_t tenants = 300;
  std::size_t projects = 30;
  std::size_t members_per_project = 12;
  std::size_t portal_apps = 8;
  std::size_t actions_per_day = 40'000;
};

TenantSizes sizes_for(Size s) {
  if (s == Size::full) return {};
  TenantSizes t;
  t.compute = 6;
  t.tenants = 24;
  t.projects = 4;
  t.members_per_project = 5;
  t.portal_apps = 2;
  t.actions_per_day = 3'000;
  return t;
}

enum class Kind : std::uint8_t {
  connect,
  vfs_read,
  vfs_write,
  vfs_chmod,
  vfs_acl,
  procfs_read,
  procfs_list,
  ssh,
  submit,
  advance,
  squeue,
  sacct,
  portal,
  container,
  gpu,
  churn,
  count_
};

struct KindInfo {
  const char* name;
  unsigned weight;  ///< per 1000 actions
  bool predicted_heavy;
};

// The mix is assumed: no public characterisation of per-tenant actions on
// a shared HPC cluster, and nothing in this repository, gives one. Cheap
// per-call verdicts (connect, file and /proc access) make up about 70%,
// heavy rare actions (ssh, scheduler, portal, container) the rest; about
// one action in 500 changes project membership. README.md reports how the
// end-to-end figures move when the heavy share is halved or doubled.
constexpr std::array<KindInfo, static_cast<std::size_t>(Kind::count_)>
    kKinds = {{
        {"connect", 228, false},
        {"vfs_read", 160, false},
        {"vfs_write", 80, false},
        {"vfs_chmod", 40, false},
        {"vfs_acl", 40, false},
        {"procfs_read", 120, false},
        {"procfs_list", 30, false},
        {"ssh", 40, true},
        {"submit", 60, true},
        {"advance", 60, true},
        {"squeue", 40, true},
        {"sacct", 20, true},
        {"portal", 30, true},
        {"container", 30, true},
        {"gpu", 20, false},
        {"churn", 2, true},
    }};

constexpr std::string_view kGpuPayload = "model-weights";

Kind draw_kind(heus::common::Rng& rng) {
  unsigned x = static_cast<unsigned>(rng.bounded(1000));
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    if (x < kKinds[k].weight) return static_cast<Kind>(k);
    x -= kKinds[k].weight;
  }
  return Kind::connect;
}

struct Tenant {
  Uid uid{};
  core::Session session;
  std::string home_file;
  std::string tmp_file;
  std::uint16_t port = 0;  ///< personal service on the second login node
  bool container_granted = false;
  heus::SessionId portal_token{};
  std::optional<std::size_t> app;  ///< index into Day::apps
  std::vector<JobId> jobs;
  std::set<std::size_t> projects;
};

struct Project {
  heus::Gid gid{};
  std::size_t steward = 0;
  std::set<std::size_t> members;  ///< includes the steward
  std::string file;
  std::uint16_t port = 0;  ///< steward's service, egid = project
};

struct App {
  std::size_t owner = 0;
  heus::portal::AppId id{};
};

/// The benchmark's own tally of the decisions the trace must count.
struct Tally {
  struct Count {
    std::uint64_t allowed = 0;
    std::uint64_t denied = 0;
  };
  std::map<obs::DecisionPoint, Count> points;
  void add(obs::DecisionPoint p, bool allowed) {
    Count& c = points[p];
    ++(allowed ? c.allowed : c.denied);
  }
};

// The points whose record count is one per call in this workload's
// actions; the others record per process entry or per job row.
constexpr obs::DecisionPoint kTalliedPoints[] = {
    obs::DecisionPoint::pam_ssh, obs::DecisionPoint::ubf_admission,
    obs::DecisionPoint::portal_forward, obs::DecisionPoint::container_entry,
    obs::DecisionPoint::fs_acl};

/// The unit of work: a burst of consecutive actions by one tenant — one
/// script's worth of shell commands. A single action completes in about
/// a microsecond, too short to time as an end-to-end latency on its own.
constexpr std::size_t kBurstActions = 16;

struct Samples {
  LogHistogram bursts;   ///< per burst: Σ its actions' latencies
  LogHistogram actions;  ///< per action
  std::array<LogHistogram, kKinds.size()> by_kind;
};

class Day {
 public:
  Day(const TenantSizes& sz, std::uint64_t seed, bool wrong_expectation)
      : sz_(sz), rng_(seed), wrong_expectation_(wrong_expectation) {
    build();
  }

  /// Run every burst of the day into `s`, and burst i as unit
  /// `first_unit + i` into `fastest`; returns the loop's wall time.
  std::int64_t run(Samples& s, FastestTimes& fastest, std::size_t first_unit,
                   OpCounter& ops);

  /// Trace counters since the day's set-up must equal the tally.
  void check_trace(OpCounter& ops) const;

  [[nodiscard]] heus::net::UbfStats ubf_stats() const {
    return cluster_->ubf().stats();
  }
  [[nodiscard]] std::uint64_t decisions() const {
    return cluster_->trace().total() - trace_total_at_start_;
  }
  [[nodiscard]] const sched::SchedStats& sched_stats() const {
    return cluster_->scheduler().sched_stats();
  }

 private:
  void build();
  void relogin(std::size_t t);
  std::size_t other_tenant(std::size_t a);
  std::optional<std::size_t> non_member_project(std::size_t a);
  std::optional<std::size_t> any_project_of(std::size_t a);
  /// A running job of tenant `a` (node, and its GPU when it holds one).
  struct Placement {
    NodeId node;
    std::optional<GpuId> gpu;
  };
  std::vector<Placement> running_placements(std::size_t a) const;

  bool act(Kind kind, std::int64_t& t_end);
  bool do_connect(std::int64_t& t_end);
  bool do_vfs_read(std::int64_t& t_end);
  bool do_vfs_write(std::int64_t& t_end);
  bool do_vfs_chmod(std::int64_t& t_end);
  bool do_vfs_acl(std::int64_t& t_end);
  bool do_procfs_read(std::int64_t& t_end);
  bool do_procfs_list(std::int64_t& t_end);
  bool do_ssh(std::int64_t& t_end);
  bool do_submit(std::int64_t& t_end);
  bool do_advance(std::int64_t& t_end);
  bool do_squeue(std::int64_t& t_end);
  bool do_sacct(std::int64_t& t_end);
  bool do_portal(std::int64_t& t_end);
  bool do_container(std::int64_t& t_end);
  bool do_gpu(std::int64_t& t_end);
  bool do_churn(std::int64_t& t_end);

  TenantSizes sz_;
  heus::common::Rng rng_;
  bool wrong_expectation_;
  std::unique_ptr<core::Cluster> cluster_;
  std::vector<Tenant> tenants_;
  std::vector<Project> projects_;
  std::vector<App> apps_;
  std::unique_ptr<heus::container::Image> image_;
  NodeId login0_{};
  heus::HostId login0_host_{};
  heus::HostId service_host_{};
  Tally tally_;
  std::array<obs::PointCounters, obs::kAllDecisionPoints.size()>
      counters_at_start_{};
  std::uint64_t trace_total_at_start_ = 0;
  std::size_t actor_ = 0;  ///< the tenant acting in the current burst

 public:
  std::array<std::uint64_t, kKinds.size()> failed_by_kind_{};
};

void Day::build() {
  core::ClusterConfig cfg;
  cfg.compute_nodes = sz_.compute;
  cfg.login_nodes = sz_.login;
  cfg.debug_nodes = sz_.debug;
  cfg.cpus_per_node = 48;
  cfg.gpus_per_node = 1;
  cfg.gpu_mem_bytes = 4096;
  cfg.policy = core::SeparationPolicy::hardened();
  cfg.seed = rng_.next();
  cluster_ = std::make_unique<core::Cluster>(cfg);
  core::Cluster& c = *cluster_;
  login0_ = c.login_nodes().front();
  login0_host_ = c.node(login0_).host();
  service_host_ = c.node(c.login_nodes().back()).host();

  tenants_.resize(sz_.tenants);
  for (std::size_t i = 0; i < sz_.tenants; ++i) {
    tenants_[i].uid = *c.add_user(heus::common::strformat("t%zu", i));
  }
  projects_.resize(sz_.projects);
  for (std::size_t j = 0; j < sz_.projects; ++j) {
    Project& p = projects_[j];
    p.steward = j * sz_.tenants / sz_.projects;
    p.gid = *c.create_project(heus::common::strformat("p%zu", j),
                              tenants_[p.steward].uid);
    p.members.insert(p.steward);
    while (p.members.size() < sz_.members_per_project) {
      const std::size_t m = rng_.bounded(sz_.tenants);
      if (p.members.contains(m) || tenants_[m].projects.size() >= 2) continue;
      (void)c.add_to_project(tenants_[p.steward].uid, p.gid, tenants_[m].uid);
      p.members.insert(m);
      tenants_[m].projects.insert(j);
    }
    tenants_[p.steward].projects.insert(j);
    p.file = heus::common::strformat("/proj/p%zu/shared.dat", j);
    p.port = static_cast<std::uint16_t>(40000 + j);
  }

  const std::map<std::string, std::string> image_files = {
      {"/usr/bin/python", "#!python"}};
  image_ = std::make_unique<heus::container::Image>("conda.sif", image_files);

  for (std::size_t i = 0; i < sz_.tenants; ++i) {
    Tenant& t = tenants_[i];
    t.session = *c.login(t.uid);
    t.home_file = c.users().find_user(t.uid)->home + "/data.txt";
    t.tmp_file = heus::common::strformat("/tmp/t%zu.dat", i);
    t.port = static_cast<std::uint16_t>(20000 + i);
    (void)c.shared_fs().write_file(t.session.cred, t.home_file, "home");
    (void)c.node(login0_).local_fs().write_file(t.session.cred, t.tmp_file,
                                                "tmp");
    (void)c.network().listen(service_host_, t.session.cred, t.session.shell,
                             net::Proto::tcp, t.port);
    t.container_granted = i % 3 == 0;
    if (t.container_granted) c.containers().grant(t.uid);
    t.portal_token = *c.portal().login(t.session.cred);
  }
  for (Project& p : projects_) {
    const Tenant& s = tenants_[p.steward];
    (void)c.shared_fs().write_file(s.session.cred, p.file, "proj");
    (void)c.shared_fs().chmod(s.session.cred, p.file, 0660);
    const auto as_group =
        heus::simos::newgrp(c.users(), s.session.cred, p.gid);
    (void)c.network().listen(service_host_, *as_group, s.session.shell,
                             net::Proto::tcp, p.port);
  }

  // Portal apps: a few tenants keep an interactive job (a notebook)
  // running all day and register it with the portal.
  for (std::size_t k = 0; k < sz_.portal_apps; ++k) {
    const std::size_t owner = (k * 7 + 3) % sz_.tenants;
    if (tenants_[owner].app) continue;
    Tenant& t = tenants_[owner];
    sched::JobSpec spec;
    spec.name = "notebook";
    spec.interactive = true;
    spec.duration_ns = 1'000'000 * kSecond;
    spec.time_limit_ns = 2'000'000 * kSecond;
    const JobId job = *c.submit(t.session, spec);
    t.jobs.push_back(job);
    c.scheduler().step();
    const sched::Job* j = c.scheduler().find_job(job);
    const heus::HostId host = c.node(j->allocations.front().node).host();
    const std::string reply = heus::common::strformat("app-%zu", owner);
    const auto app = c.portal().register_app(
        t.session.cred, Pid{}, job, host, 8888, "jupyter",
        [reply](const std::string&) { return reply; });
    apps_.push_back(App{owner, *app});
    t.app = apps_.size() - 1;
  }

  for (const obs::DecisionPoint p : obs::kAllDecisionPoints) {
    counters_at_start_[obs::point_index(p)] = c.trace().counters(p);
  }
  trace_total_at_start_ = c.trace().total();
}

void Day::relogin(std::size_t i) {
  // A membership change reaches a user's credentials at their next login.
  // The personal service keeps the identity listen() captured.
  Tenant& t = tenants_[i];
  cluster_->logout(t.session);
  t.session = *cluster_->login(t.uid);
}

std::size_t Day::other_tenant(std::size_t a) {
  const std::size_t b = rng_.bounded(sz_.tenants - 1);
  return b >= a ? b + 1 : b;
}

std::optional<std::size_t> Day::any_project_of(std::size_t a) {
  const auto& ps = tenants_[a].projects;
  if (ps.empty()) return std::nullopt;
  auto it = ps.begin();
  std::advance(it, static_cast<long>(rng_.bounded(ps.size())));
  return *it;
}

std::optional<std::size_t> Day::non_member_project(std::size_t a) {
  for (int tries = 0; tries < 16; ++tries) {
    const std::size_t j = rng_.bounded(sz_.projects);
    if (!projects_[j].members.contains(a)) return j;
  }
  return std::nullopt;
}

std::vector<Day::Placement> Day::running_placements(std::size_t a) const {
  std::vector<Placement> out;
  for (const JobId id : tenants_[a].jobs) {
    const sched::Job* j = cluster_->scheduler().find_job(id);
    if (j == nullptr || j->state != sched::JobState::running) continue;
    for (const sched::Allocation& al : j->allocations) {
      Placement p{al.node, std::nullopt};
      if (!al.gpus.empty()) p.gpu = al.gpus.front();
      out.push_back(p);
    }
  }
  return out;
}

// ---- actions ----------------------------------------------------------------
//
// Each action draws its actor and target, makes its library calls (each in
// a span when tracing), stamps t_end after the last call, and returns
// whether every verdict matched what the hardened policy requires.

bool Day::do_connect(std::int64_t& t_end) {
  static const NameId kConnect = span_name("net.connect");
  static const NameId kAllow = span_name("net.connect_allow");
  static const NameId kDeny = span_name("net.connect_deny");
  static const NameId kSend = span_name("net.send");
  static const NameId kClose = span_name("net.close");
  const std::size_t a = actor_;
  Tenant& t = tenants_[a];
  std::uint16_t port = t.port;
  bool expect_allow = true;
  bool cross_user = false;
  const unsigned target = static_cast<unsigned>(rng_.bounded(3));
  if (target == 1) {
    if (const auto j = any_project_of(a)) {
      port = projects_[*j].port;
      cross_user = projects_[*j].steward != a;
    }
  } else if (target == 2) {
    port = tenants_[other_tenant(a)].port;
    expect_allow = false;
    cross_user = true;
  }
  net::Network& nw = cluster_->network();
  heus::Result<heus::FlowId> flow = heus::Errno::einval;
  {
    Span span(kConnect);
    flow = nw.connect(login0_host_, t.session.cred, t.session.shell,
                      service_host_, net::Proto::tcp, port);
    span.rename(flow ? kAllow : kDeny);
  }
  if (cross_user) tally_.add(obs::DecisionPoint::ubf_admission, expect_allow);
  bool ok = static_cast<bool>(flow) == expect_allow;
  if (flow) {
    {
      Span span(kSend);
      ok = static_cast<bool>(nw.send(*flow, net::FlowEnd::client, "ping")) &&
           ok;
    }
    Span span(kClose);
    ok = static_cast<bool>(nw.close(*flow)) && ok;
  }
  t_end = now_ns();
  return ok;
}

bool Day::do_vfs_read(std::int64_t& t_end) {
  static const NameId kRead = span_name("vfs.read");
  const std::size_t a = actor_;
  const Tenant& t = tenants_[a];
  const bool foreign = rng_.bounded(3) == 0;
  const unsigned where = static_cast<unsigned>(rng_.bounded(3));
  vfs::FileSystem* fs = &cluster_->shared_fs();
  std::string path;
  bool expect_allow = !foreign;
  if (where == 0) {
    path = foreign ? tenants_[other_tenant(a)].home_file : t.home_file;
    if (foreign && wrong_expectation_) expect_allow = true;
  } else if (where == 1) {
    const auto j = foreign ? non_member_project(a) : any_project_of(a);
    if (j) {
      path = projects_[*j].file;
    } else {
      path = t.home_file;
      expect_allow = true;
    }
  } else {
    fs = &cluster_->node(login0_).local_fs();
    path = foreign ? tenants_[other_tenant(a)].tmp_file : t.tmp_file;
  }
  bool allowed = false;
  {
    Span span(kRead);
    allowed = static_cast<bool>(fs->read_file(t.session.cred, path));
  }
  t_end = now_ns();
  return allowed == expect_allow;
}

bool Day::do_vfs_write(std::int64_t& t_end) {
  static const NameId kWrite = span_name("vfs.write");
  const std::size_t a = actor_;
  const Tenant& t = tenants_[a];
  const bool foreign = rng_.bounded(3) == 0;
  std::string path = t.home_file;
  bool expect_allow = !foreign;
  if (rng_.chance(0.5)) {
    const auto j = foreign ? non_member_project(a) : any_project_of(a);
    if (j) {
      path = projects_[*j].file;
    } else {
      expect_allow = true;
    }
  } else if (foreign) {
    path = tenants_[other_tenant(a)].home_file;
  }
  bool allowed = false;
  {
    Span span(kWrite);
    allowed = static_cast<bool>(
        cluster_->shared_fs().write_file(t.session.cred, path, "update"));
  }
  t_end = now_ns();
  return allowed == expect_allow;
}

bool Day::do_vfs_chmod(std::int64_t& t_end) {
  static const NameId kChmod = span_name("vfs.chmod");
  const std::size_t a = actor_;
  const Tenant& t = tenants_[a];
  const bool foreign = rng_.bounded(3) == 0;
  const std::string& path =
      foreign ? tenants_[other_tenant(a)].home_file : t.home_file;
  const unsigned mode = rng_.chance(0.5) ? 0600 : 0640;
  bool allowed = false;
  {
    Span span(kChmod);
    allowed = static_cast<bool>(
        cluster_->shared_fs().chmod(t.session.cred, path, mode));
  }
  t_end = now_ns();
  return allowed == !foreign;
}

bool Day::do_vfs_acl(std::int64_t& t_end) {
  static const NameId kAcl = span_name("vfs.acl_set");
  const std::size_t a = actor_;
  const Tenant& t = tenants_[a];
  vfs::AclEntry entry{vfs::AclTag::named_user, Uid{}, heus::Gid{}, 4};
  bool expect_allow = false;
  const unsigned what = static_cast<unsigned>(rng_.bounded(3));
  if (what == 0) {
    // A grant to another individual: sharing outside any project.
    entry.uid = tenants_[other_tenant(a)].uid;
    tally_.add(obs::DecisionPoint::fs_acl, false);
  } else {
    const auto j = what == 1 ? any_project_of(a) : non_member_project(a);
    entry.tag = vfs::AclTag::named_group;
    if (j) {
      entry.gid = projects_[*j].gid;
      expect_allow = what == 1;
    } else {
      entry.gid = cluster_->users().find_user(t.uid)->private_group;
      expect_allow = true;
    }
  }
  bool allowed = false;
  {
    Span span(kAcl);
    allowed = static_cast<bool>(
        cluster_->shared_fs().acl_set(t.session.cred, t.home_file, entry));
  }
  t_end = now_ns();
  return allowed == expect_allow;
}

bool Day::do_procfs_read(std::int64_t& t_end) {
  static const NameId kRead = span_name("simos.procfs.read");
  const std::size_t a = actor_;
  const bool foreign = rng_.bounded(3) == 0;
  const Pid pid = foreign ? tenants_[other_tenant(a)].session.shell
                          : tenants_[a].session.shell;
  bool allowed = false;
  {
    Span span(kRead);
    allowed = static_cast<bool>(cluster_->node(login0_).procfs().read_details(
        tenants_[a].session.cred, pid));
  }
  t_end = now_ns();
  return allowed == !foreign;
}

bool Day::do_procfs_list(std::int64_t& t_end) {
  static const NameId kList = span_name("simos.procfs.list");
  const std::size_t a = actor_;
  const Tenant& t = tenants_[a];
  core::Node& node = cluster_->node(login0_);
  std::vector<Pid> pids;
  {
    Span span(kList);
    pids = node.procfs().list(t.session.cred);
  }
  t_end = now_ns();
  // hidepid=2: exactly the tenant's own processes, the shell among them.
  bool own_shell = false;
  for (const Pid pid : pids) {
    const heus::simos::Process* p = node.procs().find(pid);
    if (p == nullptr || p->cred.uid != t.uid) return false;
    own_shell = own_shell || pid == t.session.shell;
  }
  return own_shell;
}

bool Day::do_ssh(std::int64_t& t_end) {
  static const NameId kSsh = span_name("core.ssh");
  const std::size_t a = actor_;
  Tenant& t = tenants_[a];
  const std::vector<Placement> own = running_placements(a);
  NodeId target{};
  bool expect_allow = false;
  if (!own.empty() && rng_.chance(0.5)) {
    target = own[rng_.bounded(own.size())].node;
    expect_allow = true;
  } else {
    const auto nodes = cluster_->compute_nodes();
    target = nodes[rng_.bounded(nodes.size())];
    expect_allow = std::any_of(own.begin(), own.end(), [&](const Placement& p) {
      return p.node == target;
    });
    if (!expect_allow) tally_.add(obs::DecisionPoint::pam_ssh, false);
  }
  heus::Result<core::Session> shell = heus::Errno::einval;
  {
    Span span(kSsh);
    shell = cluster_->ssh(t.session, target);
    if (shell) cluster_->logout(*shell);
  }
  t_end = now_ns();
  return static_cast<bool>(shell) == expect_allow;
}

bool Day::do_submit(std::int64_t& t_end) {
  static const NameId kSubmit = span_name("sched.submit");
  const std::size_t a = actor_;
  Tenant& t = tenants_[a];
  sched::JobSpec spec;
  spec.name = "sweep";
  spec.command = "./simulate --step";
  spec.cpus_per_task = static_cast<unsigned>(rng_.uniform_int(1, 4));
  spec.mem_mb_per_task = 1024;
  spec.duration_ns = rng_.uniform_int(20, 120) * kSecond;
  spec.time_limit_ns = 2 * spec.duration_ns;
  if (rng_.chance(0.1)) {
    spec.partition = "debug";
  } else if (rng_.chance(0.3)) {
    spec.gpus_per_task = 1;
  }
  heus::Result<JobId> job = heus::Errno::einval;
  {
    Span span(kSubmit);
    job = cluster_->submit(t.session, spec);
  }
  t_end = now_ns();
  if (job) t.jobs.push_back(*job);
  return static_cast<bool>(job);
}

bool Day::do_advance(std::int64_t& t_end) {
  static const NameId kStep = span_name("sched.step");
  {
    Span span(kStep);
    cluster_->clock().advance(5 * kSecond);
    cluster_->scheduler().step();
  }
  t_end = now_ns();
  // The epilog scrubbed every GPU it released: no free device still holds
  // what a tenant's job wrote into it (see do_gpu).
  for (const NodeId n : cluster_->compute_nodes()) {
    heus::gpu::GpuDevice& dev = cluster_->node(n).gpus().at(0);
    if (dev.assigned_to()) continue;
    const auto mem = dev.read(heus::kRootUid, 0, kGpuPayload.size());
    if (mem && *mem == kGpuPayload) return false;
  }
  return true;
}

bool Day::do_squeue(std::int64_t& t_end) {
  static const NameId kList = span_name("sched.list_jobs");
  const std::size_t a = actor_;
  std::vector<sched::JobView> views;
  {
    Span span(kList);
    views = cluster_->scheduler().list_jobs(tenants_[a].session.cred);
  }
  t_end = now_ns();
  return std::all_of(views.begin(), views.end(), [&](const sched::JobView& v) {
    return v.user == tenants_[a].uid;
  });
}

bool Day::do_sacct(std::int64_t& t_end) {
  static const NameId kAcct = span_name("sched.accounting");
  const std::size_t a = actor_;
  std::vector<sched::AccountingRecord> recs;
  {
    Span span(kAcct);
    recs = cluster_->scheduler().accounting(tenants_[a].session.cred);
  }
  t_end = now_ns();
  return std::all_of(recs.begin(), recs.end(),
                     [&](const sched::AccountingRecord& r) {
                       return r.user == tenants_[a].uid;
                     });
}

bool Day::do_portal(std::int64_t& t_end) {
  static const NameId kRequest = span_name("portal.request");
  if (apps_.empty()) {
    t_end = now_ns();
    return true;
  }
  const std::size_t a = actor_;
  const bool own = tenants_[a].app && rng_.chance(0.5);
  const App* pick = own ? &apps_[*tenants_[a].app] : nullptr;
  while (pick == nullptr || (!own && pick->owner == a)) {
    pick = &apps_[rng_.bounded(apps_.size())];
    if (apps_.size() == 1 && pick->owner == a) {
      t_end = now_ns();
      return true;
    }
  }
  const App& app = *pick;
  heus::Result<std::string> resp = heus::Errno::einval;
  {
    Span span(kRequest);
    resp = cluster_->portal().request(tenants_[a].portal_token, app.id,
                                      "GET / HTTP/1.1");
  }
  t_end = now_ns();
  if (!own) {
    tally_.add(obs::DecisionPoint::ubf_admission, false);
    tally_.add(obs::DecisionPoint::portal_forward, false);
    return !resp;
  }
  return resp && *resp == heus::common::strformat("app-%zu", app.owner);
}

bool Day::do_container(std::int64_t& t_end) {
  static const NameId kExec = span_name("container.exec");
  const std::size_t a = actor_;
  const Tenant& t = tenants_[a];
  core::Node& node = cluster_->node(login0_);
  heus::Result<heus::container::ContainerId> inst = heus::Errno::einval;
  {
    Span span(kExec);
    inst = cluster_->containers().exec(t.session.cred, image_.get(),
                                       "python", &node.procs(),
                                       &node.mounts());
    if (inst) (void)cluster_->containers().stop(*inst, &node.procs());
  }
  t_end = now_ns();
  tally_.add(obs::DecisionPoint::container_entry, t.container_granted);
  return static_cast<bool>(inst) == t.container_granted;
}

bool Day::do_gpu(std::int64_t& t_end) {
  static const NameId kOpen = span_name("vfs.open_device");
  static const NameId kWrite = span_name("gpu.write");
  const std::size_t a = actor_;
  const Tenant& t = tenants_[a];
  const std::vector<Placement> own = running_placements(a);
  std::optional<Placement> mine;
  for (const Placement& p : own) {
    if (p.gpu) mine = p;
  }
  NodeId node{};
  bool expect_allow = false;
  if (mine) {
    node = mine->node;
    expect_allow = true;
  } else {
    const auto nodes = cluster_->compute_nodes();
    node = nodes[rng_.bounded(nodes.size())];
  }
  core::Node& nd = cluster_->node(node);
  bool ok = false;
  {
    Span span(kOpen);
    ok = static_cast<bool>(nd.local_fs().open_device(
        t.session.cred, core::Node::gpu_dev_path(0), vfs::Access::write));
  }
  if (ok && expect_allow) {
    Span span(kWrite);
    ok = static_cast<bool>(nd.gpus().at(0).write(t.uid, 0, kGpuPayload));
  }
  t_end = now_ns();
  return ok == expect_allow;
}

bool Day::do_churn(std::int64_t& t_end) {
  static const NameId kChurn = span_name("simos.user_db.churn");
  Project& p = projects_[rng_.bounded(sz_.projects)];
  const Uid steward = tenants_[p.steward].uid;
  const std::size_t j = static_cast<std::size_t>(&p - projects_.data());
  bool ok = false;
  std::size_t member = 0;
  const bool remove = p.members.size() > 2 && rng_.chance(0.5);
  if (remove) {
    do {
      auto it = p.members.begin();
      std::advance(it, static_cast<long>(rng_.bounded(p.members.size())));
      member = *it;
    } while (member == p.steward);
  } else {
    do {
      member = rng_.bounded(sz_.tenants);
    } while (p.members.contains(member));
  }
  {
    Span span(kChurn);
    heus::simos::UserDb& db = cluster_->users();
    ok = static_cast<bool>(
        remove ? db.remove_member(steward, p.gid, tenants_[member].uid)
               : db.add_member(steward, p.gid, tenants_[member].uid));
    relogin(member);
  }
  t_end = now_ns();
  if (remove) {
    p.members.erase(member);
    tenants_[member].projects.erase(j);
  } else {
    p.members.insert(member);
    tenants_[member].projects.insert(j);
  }
  return ok;
}

bool Day::act(Kind kind, std::int64_t& t_end) {
  switch (kind) {
    case Kind::connect: return do_connect(t_end);
    case Kind::vfs_read: return do_vfs_read(t_end);
    case Kind::vfs_write: return do_vfs_write(t_end);
    case Kind::vfs_chmod: return do_vfs_chmod(t_end);
    case Kind::vfs_acl: return do_vfs_acl(t_end);
    case Kind::procfs_read: return do_procfs_read(t_end);
    case Kind::procfs_list: return do_procfs_list(t_end);
    case Kind::ssh: return do_ssh(t_end);
    case Kind::submit: return do_submit(t_end);
    case Kind::advance: return do_advance(t_end);
    case Kind::squeue: return do_squeue(t_end);
    case Kind::sacct: return do_sacct(t_end);
    case Kind::portal: return do_portal(t_end);
    case Kind::container: return do_container(t_end);
    case Kind::gpu: return do_gpu(t_end);
    case Kind::churn: return do_churn(t_end);
    case Kind::count_: break;
  }
  return false;
}

std::int64_t Day::run(Samples& s, FastestTimes& fastest,
                      std::size_t first_unit, OpCounter& ops) {
  static const NameId kBurst = span_name("bench.burst");
  const std::int64_t loop_start = now_ns();
  std::size_t unit = first_unit;
  for (std::size_t i = 0; i < sz_.actions_per_day; i += kBurstActions) {
    actor_ = rng_.bounded(sz_.tenants);
    std::int64_t burst_ns = 0;
    Span span(kBurst, s.bursts.count());
    for (std::size_t b = 0; b < kBurstActions; ++b) {
      const Kind kind = draw_kind(rng_);
      std::int64_t t_end = 0;
      const std::int64_t t0 = now_ns();
      const bool ok = act(kind, t_end);
      ops.check(ok);
      if (!ok) ++failed_by_kind_[static_cast<std::size_t>(kind)];
      burst_ns += t_end - t0;
      s.actions.add(static_cast<double>(t_end - t0));
      s.by_kind[static_cast<std::size_t>(kind)].add(
          static_cast<double>(t_end - t0));
    }
    s.bursts.add(static_cast<double>(burst_ns));
    fastest.add(unit++, static_cast<double>(burst_ns));
  }
  return now_ns() - loop_start;
}

void Day::check_trace(OpCounter& ops) const {
  for (const obs::DecisionPoint p : kTalliedPoints) {
    const obs::PointCounters now = cluster_->trace().counters(p);
    const obs::PointCounters& then = counters_at_start_[obs::point_index(p)];
    const auto it = tally_.points.find(p);
    const Tally::Count want = it == tally_.points.end() ? Tally::Count{}
                                                        : it->second;
    ops.check(now.allowed - then.allowed == want.allowed &&
              now.denied - then.denied == want.denied);
  }
}

struct Phase {
  Samples samples;  ///< pooled over the run, for the per-action notes
  FastestTimes bursts;  ///< every burst of every distinct day, fastest
  std::array<std::uint64_t, kKinds.size()> failed_by_kind{};
  std::vector<double> setup_s;
  std::int64_t loop_ns = 0;
  std::uint64_t decisions = 0;
  heus::net::UbfStats ubf;
  sched::SchedStats sched;
};

/// Distinct days a run cycles through. Odd, so that with every other day
/// traced both phases replay every distinct day.
constexpr unsigned kDistinctDays = 7;

/// Days until `seconds` have passed (at least `min_days`). With `traced`,
/// every other day runs traced into it, so both phases see the same
/// stretches of the machine's load.
void run_days(const TenantSizes& sz, const RunOptions& opts,
              std::uint64_t day_seed, double seconds, int min_days,
              Phase& untraced, Phase* traced, OpCounter& ops) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t bursts_per_day =
      (sz.actions_per_day + kBurstActions - 1) / kBurstActions;
  for (int n = 0; n < min_days || now_ns() < deadline; ++n) {
    const bool trace_day = traced != nullptr && n % 2 == 1;
    Phase& out = trace_day ? *traced : untraced;
    const std::int64_t t0 = now_ns();
    const unsigned distinct = static_cast<unsigned>(n) % kDistinctDays;
    Day d(sz, day_seed + 0x9e3779b97f4a7c15ULL * distinct,
          opts.wrong_expectation);
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    tracer().set_enabled(trace_day);
    out.loop_ns +=
        d.run(out.samples, out.bursts, distinct * bursts_per_day, ops);
    tracer().set_enabled(false);
    d.check_trace(ops);
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      out.failed_by_kind[k] += d.failed_by_kind_[k];
    }
    out.decisions += d.decisions();
    const heus::net::UbfStats u = d.ubf_stats();
    out.ubf.cache_hits += u.cache_hits;
    out.ubf.cache_misses += u.cache_misses;
    out.ubf.cache_invalidations += u.cache_invalidations;
    out.sched.nodes_examined += d.sched_stats().nodes_examined;
    out.sched.placement_attempts += d.sched_stats().placement_attempts;
  }
}

}  // namespace

Result run_tenant_day(const RunOptions& opts) {
  const TenantSizes sz = sizes_for(opts.size);
  Result r;
  OpCounter ops;
  const std::uint64_t seed = opts.seed * 0x100000001b3ULL + 0x7e4a47;

  Phase untraced;
  Phase traced;
  tracer().reset(false);
  run_days(sz, opts, seed, opts.seconds, opts.trace ? 6 : 3, untraced,
           opts.trace ? &traced : nullptr, ops);

  // Each burst of each distinct day at its fastest replay: the burst
  // latencies are their quantiles, the throughput their count over their
  // sum.
  const std::vector<double> fastest = untraced.bursts.sorted();
  auto throughput = [](const std::vector<double>& bursts) {
    double ns = 0;
    for (const double x : bursts) ns += x;
    return static_cast<double>(bursts.size()) / (ns / 1e9);
  };
  const Samples& s = untraced.samples;

  // Which actions make up the slowest 1% of actions: the prediction is
  // that the heavy, rare kinds do.
  const double p99 = s.actions.quantile(0.99);
  std::array<std::uint64_t, kKinds.size()> in_tail{};
  std::uint64_t tail_n = 0;
  std::uint64_t tail_heavy = 0;
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    in_tail[k] = s.by_kind[k].count_above(p99);
    tail_n += in_tail[k];
    if (kKinds[k].predicted_heavy) tail_heavy += in_tail[k];
  }
  std::string comp = "slowest 1% of actions by kind:";
  std::string failed = "failed actions by kind:";
  for (std::size_t k = 0; k < kKinds.size(); ++k) {
    if (in_tail[k] > 0) {
      comp += heus::common::strformat(
          " %s=%.1f%%", kKinds[k].name,
          100.0 * static_cast<double>(in_tail[k]) /
              static_cast<double>(tail_n));
    }
    if (untraced.failed_by_kind[k] > 0) {
      failed += heus::common::strformat(
          " %s=%llu", kKinds[k].name,
          static_cast<unsigned long long>(untraced.failed_by_kind[k]));
    }
  }
  r.note(comp);
  if (ops.failed() > 0) r.note(failed);
  r.note(heus::common::strformat(
      "actions=%zu bursts=%zu days=%zu action_p50_us=%.3f "
      "action_p99_us=%.2f burst_samples_beyond_p99=%zu",
      static_cast<std::size_t>(s.actions.count()),
      static_cast<std::size_t>(s.bursts.count()), untraced.setup_s.size(),
      s.actions.quantile(0.5) / 1e3, p99 / 1e3,
      samples_beyond(s.bursts.count(), 0.99)));
  r.note(heus::common::strformat(
      "fastest replay of each burst: distinct_days=%u bursts=%zu "
      "p50_us=%.3f p99_us=%.3f samples_beyond_p99=%zu",
      kDistinctDays, fastest.size(), quantile_sorted(fastest, 0.5) / 1e3,
      quantile_sorted(fastest, 0.99) / 1e3,
      samples_beyond(fastest.size(), 0.99)));

  if (!opts.trace) {
    r.set("setup_s", median(untraced.setup_s));
    r.set("throughput_per_s", throughput(fastest));
    r.set("latency_p50_ms", quantile_sorted(fastest, 0.5) / 1e6);
    const auto tail = reportable_quantile(fastest, 0.99);
    r.set("latency_tail_ms", tail ? *tail / 1e6 : 0);
    r.set("peak_rss_mb", peak_rss_mb());
    r.add_ops(ops.attempted(), ops.failed());
    return r;
  }

  const double bursts = static_cast<double>(traced.samples.bursts.count());
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  r.set("net.connect_allow_p50_us", span_quantile_us("net.connect_allow", 0.5));
  r.set("net.connect_allow_p99_us",
        span_quantile_us("net.connect_allow", 0.99));
  r.set("net.connect_deny_p50_us", span_quantile_us("net.connect_deny", 0.5));
  r.set("net.connect_deny_p99_us", span_quantile_us("net.connect_deny", 0.99));
  const heus::net::UbfStats& ubf = traced.ubf;
  r.set("net.ubf.cache_hit_ratio",
        ratio(static_cast<double>(ubf.cache_hits),
              static_cast<double>(ubf.cache_hits + ubf.cache_misses)));
  r.set("net.ubf.invalidations_per_kunit",
        ratio(1000.0 * static_cast<double>(ubf.cache_invalidations), bursts));
  r.set("obs.decisions_per_unit",
        ratio(static_cast<double>(traced.decisions), bursts));
  r.set("sched.submit_us", span_quantile_us("sched.submit", 0.5));
  r.set("sched.step_us", span_quantile_us("sched.step", 0.5));
  r.set("sched.nodes_examined_per_attempt",
        ratio(static_cast<double>(traced.sched.nodes_examined),
              static_cast<double>(traced.sched.placement_attempts)));
  r.set("simos.procfs.list_us", span_quantile_us("simos.procfs.list", 0.5));
  r.set("simos.procfs.read_us", span_quantile_us("simos.procfs.read", 0.5));
  r.set("vfs.read_us", span_quantile_us("vfs.read", 0.5));
  r.set("vfs.write_us", span_quantile_us("vfs.write", 0.5));
  r.set("vfs.chmod_us", span_quantile_us("vfs.chmod", 0.5));
  r.set("vfs.acl_set_us", span_quantile_us("vfs.acl_set", 0.5));
  r.set("core.ssh_us", span_quantile_us("core.ssh", 0.5));
  r.set("sched.list_jobs_us", span_quantile_us("sched.list_jobs", 0.5));
  r.set("sched.accounting_us", span_quantile_us("sched.accounting", 0.5));
  r.set("portal.request_us", span_quantile_us("portal.request", 0.5));
  r.set("container.exec_us", span_quantile_us("container.exec", 0.5));
  r.set("simos.user_db.churn_us",
        span_quantile_us("simos.user_db.churn", 0.5));
  r.set("bench.tail_heavy_pct",
        tail_n > 0 ? 100.0 * static_cast<double>(tail_heavy) /
                         static_cast<double>(tail_n)
                   : 0);
  set_self_shares(r, traced.loop_ns);
  r.set("trace.overhead_pct",
        100.0 * (throughput(fastest) / throughput(traced.bursts.sorted()) -
                 1.0));
  zero_unset_layer_metrics(r);
  if (!opts.spans_path.empty() && !tracer().write_csv(opts.spans_path)) {
    r.note("could not write spans to " + opts.spans_path);
  }
  r.add_ops(ops.attempted(), ops.failed());
  return r;
}

}  // namespace perfbench
