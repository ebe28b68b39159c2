#include "core/audit.h"

#include <algorithm>

#include "common/strings.h"
#include "core/channel_probe.h"

namespace heus::core {

using common::strformat;

std::size_t LeakageAuditor::open_count(
    const std::vector<ChannelReport>& reports) {
  return static_cast<std::size_t>(
      std::count_if(reports.begin(), reports.end(),
                    [](const ChannelReport& r) { return r.open; }));
}

std::size_t LeakageAuditor::unexpected_open_count(
    const std::vector<ChannelReport>& reports) {
  return static_cast<std::size_t>(std::count_if(
      reports.begin(), reports.end(), [](const ChannelReport& r) {
        return r.open && !is_documented_residual(r.kind);
      }));
}

std::string LeakageAuditor::to_markdown(
    const std::vector<ChannelReport>& reports) {
  std::string out =
      "| channel | status | documented residual | detail |\n"
      "|---|---|---|---|\n";
  for (const auto& r : reports) {
    out += strformat("| %s | %s | %s | %s |\n", to_string(r.kind),
                     r.open ? "**OPEN**" : "closed",
                     is_documented_residual(r.kind) ? "yes" : "no",
                     r.detail.c_str());
  }
  out += strformat(
      "\nopen: %zu / %zu (unexpected: %zu)\n", open_count(reports),
      reports.size(), unexpected_open_count(reports));
  return out;
}

std::vector<ChannelReport> LeakageAuditor::audit_pair(Uid victim,
                                                      Uid observer) {
  std::vector<ChannelReport> out;
  for (const ChannelProbe& probe : channel_probes()) {
    ChannelReport rep{probe.kind, false, "login failed"};
    auto vs = cluster_->login(victim);
    auto os = cluster_->login(observer);
    if (vs && os) {
      ProbeOutcome got = probe.run({*cluster_, *vs, *os});
      rep.open = got.open;
      rep.detail = std::move(got.detail);
    }
    if (vs) cluster_->logout(*vs);
    if (os) cluster_->logout(*os);
    out.push_back(std::move(rep));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Blast radius (§V)
// ---------------------------------------------------------------------------

BlastRadius LeakageAuditor::blast_radius(Uid attacker,
                                         const std::vector<Uid>& victims) {
  BlastRadius out;
  out.victims_total = victims.size();

  net::Network& nw = cluster_->network();
  struct VictimAssets {
    Session session;
    std::uint16_t port;
    std::string tmp_file;
    std::string home_file;
    std::optional<JobId> job;
  };
  std::vector<VictimAssets> assets;

  // Population setup: every victim runs a service, owns files, has a job.
  std::uint16_t next_port = 40000;
  for (Uid v : victims) {
    auto session = cluster_->login(v);
    if (!session) continue;
    VictimAssets a{*session, next_port++, "", "", std::nullopt};
    const HostId host = cluster_->node(a.session.node).host();
    (void)nw.listen(host, a.session.cred, a.session.shell, net::Proto::tcp,
                    a.port);
    vfs::FileSystem& lfs = cluster_->node(a.session.node).local_fs();
    a.tmp_file = strformat("/tmp/victim-%u.dat", v.value());
    (void)lfs.write_file(a.session.cred, a.tmp_file, "victim-data");
    (void)lfs.chmod(a.session.cred, a.tmp_file, 0666);
    const simos::User* vu = cluster_->users().find_user(v);
    a.home_file = vu->home + "/results.csv";
    (void)cluster_->shared_fs().write_file(a.session.cred, a.home_file,
                                           "victim-results");
    sched::JobSpec spec;
    spec.name = strformat("victim-%u-job", v.value());
    spec.duration_ns = 3600 * common::kSecond;
    auto job = cluster_->submit(a.session, spec);
    if (job) a.job = *job;
    assets.push_back(std::move(a));
  }
  cluster_->scheduler().step();

  // The misbehaving/malicious code, running as `attacker`.
  auto as = cluster_->login(attacker);
  if (as) {
    Node& login_node = cluster_->node(as->node);
    // Observe processes.
    std::set<Uid> seen_proc_users;
    for (const auto& d : login_node.procfs().snapshot(as->cred)) {
      if (d.uid != attacker && d.uid != kRootUid) {
        seen_proc_users.insert(d.uid);
      }
    }
    out.processes_observed = seen_proc_users.size();

    // Observe the queue.
    std::set<Uid> seen_job_users;
    for (const auto& view : cluster_->scheduler().list_jobs(as->cred)) {
      if (view.user != attacker) seen_job_users.insert(view.user);
    }
    out.jobs_observed = seen_job_users.size();

    for (const auto& a : assets) {
      // Read files.
      vfs::FileSystem& lfs = cluster_->node(a.session.node).local_fs();
      if (lfs.read_file(as->cred, a.tmp_file)) ++out.files_read;
      if (cluster_->shared_fs().read_file(as->cred, a.home_file)) {
        ++out.files_read;
      }
      // Reach services.
      const HostId vhost = cluster_->node(a.session.node).host();
      auto flow = nw.connect(login_node.host(), as->cred, as->shell, vhost,
                             net::Proto::tcp, a.port);
      if (flow) {
        ++out.services_reached;
        (void)nw.close(*flow);
      }
      // Port-collision crosstalk: the attacker binds the victim's port
      // number on another host; a confused victim client connecting there
      // (mis-typed hostname) reaches the attacker unless the UBF drops it.
      const HostId squat_host =
          cluster_->node(cluster_->compute_nodes().front()).host();
      if (nw.listen(squat_host, as->cred, as->shell, net::Proto::tcp,
                    a.port)) {
        auto misdirected =
            nw.connect(vhost, a.session.cred, a.session.shell, squat_host,
                       net::Proto::tcp, a.port);
        if (misdirected) {
          ++out.port_collisions_won;
          (void)nw.close(*misdirected);
        }
        (void)nw.close_listener(squat_host, net::Proto::tcp, a.port);
      }
    }
    cluster_->logout(*as);
  }

  // Teardown.
  for (auto& a : assets) {
    const HostId host = cluster_->node(a.session.node).host();
    (void)nw.close_listener(host, net::Proto::tcp, a.port);
    vfs::FileSystem& lfs = cluster_->node(a.session.node).local_fs();
    (void)lfs.unlink(a.session.cred, a.tmp_file);
    (void)cluster_->shared_fs().unlink(a.session.cred, a.home_file);
    if (a.job) (void)cluster_->scheduler().cancel(a.session.cred, *a.job);
    cluster_->logout(a.session);
  }
  return out;
}

}  // namespace heus::core
