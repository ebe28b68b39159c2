#include "core/channel_probe.h"

#include <array>

#include "common/strings.h"

namespace heus::core {
namespace {

using common::strformat;
using obs::ChannelKind;

// ---------------------------------------------------------------------------
// §IV-A processes
// ---------------------------------------------------------------------------

ProbeOutcome probe_procfs_list(const ProbeParties& p) {
  Node& nd = p.cluster.node(p.victim.node);
  for (Pid pid : nd.procfs().list(p.observer.cred)) {
    auto st = nd.procfs().stat(p.observer.cred, pid);
    if (st && st->uid == p.victim.cred.uid) {
      return {true, strformat("victim pid %u listed", pid.value())};
    }
  }
  return {};
}

ProbeOutcome probe_procfs_cmdline(const ProbeParties& p) {
  Node& nd = p.cluster.node(p.victim.node);
  const Pid pid = nd.procs().spawn(
      p.victim.cred, "python train.py --api-key=AUDIT-PROC-SECRET");
  ProbeOutcome out;
  auto details = nd.procfs().read_details(p.observer.cred, pid);
  if (details && details->cmdline.find("AUDIT-PROC-SECRET") !=
                     std::string::npos) {
    out = {true, "command line (with embedded secret) readable"};
  }
  (void)nd.procs().exit(pid);
  return out;
}

// ---------------------------------------------------------------------------
// §IV-B scheduler
// ---------------------------------------------------------------------------

ProbeOutcome probe_scheduler_queue(const ProbeParties& p) {
  sched::JobSpec spec;
  spec.name = "audit-sensitive-jobname";
  spec.command = "./proprietary_sim --input=/proj/secret";
  spec.duration_ns = 3600 * common::kSecond;
  auto job = p.cluster.submit(p.victim, spec);
  if (!job) return {};
  ProbeOutcome out;
  for (const auto& view : p.cluster.scheduler().list_jobs(p.observer.cred)) {
    if (view.id == *job) {
      out = {true, "job name/command visible in squeue"};
      break;
    }
  }
  (void)p.cluster.scheduler().cancel(p.victim.cred, *job);
  return out;
}

ProbeOutcome probe_scheduler_accounting(const ProbeParties& p) {
  sched::JobSpec spec;
  spec.name = "audit-acct-job";
  spec.duration_ns = common::kSecond;
  auto job = p.cluster.submit(p.victim, spec);
  if (!job) return {};
  p.cluster.run_jobs();
  for (const auto& rec : p.cluster.scheduler().accounting(p.observer.cred)) {
    if (rec.id == *job) return {true, "victim's sacct record readable"};
  }
  return {};
}

ProbeOutcome probe_scheduler_usage(const ProbeParties& p) {
  if (p.cluster.scheduler().usage_by_user(p.observer.cred).contains(
          p.victim.cred.uid)) {
    return {true, "victim's aggregate usage visible in sreport"};
  }
  return {};
}

ProbeOutcome probe_ssh_foreign_node(const ProbeParties& p) {
  sched::JobSpec spec;
  spec.name = "audit-ssh-probe";
  spec.duration_ns = 3600 * common::kSecond;
  auto job = p.cluster.submit(p.victim, spec);
  if (!job) return {};
  ProbeOutcome out;
  p.cluster.scheduler().step();  // dispatch
  const sched::Job* j = p.cluster.scheduler().find_job(*job);
  if (j != nullptr && j->state == sched::JobState::running &&
      !j->allocations.empty()) {
    const NodeId target = j->allocations.front().node;
    auto shell = p.cluster.ssh(p.observer, target);
    if (shell) {
      out = {true, strformat("ssh into %s admitted",
                             p.cluster.node(target).hostname().c_str())};
      p.cluster.logout(*shell);
    }
  }
  (void)p.cluster.scheduler().cancel(p.victim.cred, *job);
  return out;
}

// ---------------------------------------------------------------------------
// §IV-C filesystems
// ---------------------------------------------------------------------------

ProbeOutcome probe_fs_home(const ProbeParties& p) {
  const std::string& home =
      p.cluster.users().find_user(p.victim.cred.uid)->home;
  const std::string file = home + "/audit-secret.dat";
  vfs::FileSystem& fs = p.cluster.shared_fs();
  (void)fs.write_file(p.victim.cred, file, "HOME-SECRET");
  // The accidental-misconfiguration scenario: the victim tries to open
  // everything up (mis-typed chmod). Under smask + root-owned homes both
  // steps are neutralised.
  const auto home_before = fs.stat(p.victim.cred, home);
  (void)fs.chmod(p.victim.cred, home, 0777);
  (void)fs.chmod(p.victim.cred, file, 0666);
  ProbeOutcome out;
  auto read = fs.read_file(p.observer.cred, file);
  if (read && read->find("HOME-SECRET") != std::string::npos) {
    out = {true, "world-chmod'ed home file readable by observer"};
  }
  (void)fs.unlink(p.victim.cred, file);
  // Teardown: if the chmod above changed the home's mode, put it back as
  // root, which smask does not clamp and the decision trace does not log.
  const auto home_after = fs.stat(p.victim.cred, home);
  if (home_before && home_after && home_after->mode != home_before->mode) {
    (void)fs.chmod(simos::root_credentials(), home, home_before->mode);
  }
  return out;
}

/// Content of an accidentally world-readable file under `base` on the
/// vantage node's local filesystem.
ProbeOutcome probe_local_content(const ProbeParties& p, const char* base) {
  vfs::FileSystem& fs = p.cluster.node(p.victim.node).local_fs();
  const std::string file =
      strformat("%s/audit-%u.dat", base, p.victim.cred.uid.value());
  (void)fs.write_file(p.victim.cred, file, "TMP-SECRET");
  (void)fs.chmod(p.victim.cred, file, 0666);  // accidental world-readable
  ProbeOutcome out;
  auto read = fs.read_file(p.observer.cred, file);
  if (read && read->find("TMP-SECRET") != std::string::npos) {
    out = {true, strformat("%s file content readable cross-user", base)};
  }
  (void)fs.unlink(p.victim.cred, file);
  return out;
}

ProbeOutcome probe_fs_tmp(const ProbeParties& p) {
  return probe_local_content(p, "/tmp");
}

ProbeOutcome probe_fs_devshm(const ProbeParties& p) {
  return probe_local_content(p, "/dev/shm");
}

ProbeOutcome probe_fs_tmp_names(const ProbeParties& p) {
  vfs::FileSystem& fs = p.cluster.node(p.victim.node).local_fs();
  const std::string name =
      strformat("audit-projectname-leak-%u", p.victim.cred.uid.value());
  (void)fs.write_file(p.victim.cred, "/tmp/" + name, "x");
  ProbeOutcome out;
  auto listing = fs.readdir(p.observer.cred, "/tmp");
  if (listing) {
    for (const auto& e : *listing) {
      if (e.name == name) {
        out = {true, "file *name* visible in world-writable /tmp "
                     "(documented residual channel)"};
        break;
      }
    }
  }
  (void)fs.unlink(p.victim.cred, "/tmp/" + name);
  return out;
}

ProbeOutcome probe_fs_acl_grant(const ProbeParties& p) {
  const Uid observer = p.observer.cred.uid;
  const std::string& home =
      p.cluster.users().find_user(p.victim.cred.uid)->home;
  vfs::FileSystem& fs = p.cluster.shared_fs();
  const std::string file = home + "/audit-acl.dat";
  (void)fs.write_file(p.victim.cred, file, "ACL-SECRET");
  // Direct user-to-user grant, bypassing any approved project group.
  auto grant = fs.acl_set(
      p.victim.cred, file,
      vfs::AclEntry{vfs::AclTag::named_user, observer, Gid{}, 4});
  // The observer additionally needs traversal into the home directory; a
  // cooperative victim would try to open that too.
  (void)fs.acl_set(
      p.victim.cred, home,
      vfs::AclEntry{vfs::AclTag::named_user, observer, Gid{}, 5});
  ProbeOutcome out;
  if (grant) {
    auto read = fs.read_file(p.observer.cred, file);
    if (read && read->find("ACL-SECRET") != std::string::npos) {
      out = {true, "setfacl u:<observer>:r succeeded and file read"};
    }
  } else {
    out.detail = strformat("setfacl rejected (%s)",
                           std::string(errno_name(grant.error())).c_str());
  }
  (void)fs.unlink(p.victim.cred, file);
  (void)fs.acl_remove(p.victim.cred, home, vfs::AclTag::named_user,
                      observer, Gid{});
  return out;
}

// ---------------------------------------------------------------------------
// §IV-D network
// ---------------------------------------------------------------------------

/// The observer connects to a service the victim listens on.
ProbeOutcome probe_flow(const ProbeParties& p, net::Proto proto,
                        std::uint16_t port) {
  net::Network& nw = p.cluster.network();
  const HostId vhost = p.cluster.node(p.victim.node).host();
  (void)nw.listen(vhost, p.victim.cred, p.victim.shell, proto, port);
  auto flow = nw.connect(p.cluster.node(p.observer.node).host(),
                         p.observer.cred, p.observer.shell, vhost, proto,
                         port);
  const bool tcp = proto == net::Proto::tcp;
  ProbeOutcome out{false, tcp ? "connection dropped" : "flow dropped"};
  if (flow) {
    out = {true, tcp ? "TCP connection to foreign service established"
                     : "UDP flow to foreign service established"};
    (void)nw.close(*flow);
  }
  (void)nw.close_listener(vhost, proto, port);
  return out;
}

ProbeOutcome probe_tcp(const ProbeParties& p) {
  return probe_flow(p, net::Proto::tcp, 23456);
}

ProbeOutcome probe_udp(const ProbeParties& p) {
  return probe_flow(p, net::Proto::udp, 23457);
}

ProbeOutcome probe_abstract_uds(const ProbeParties& p) {
  net::Network& nw = p.cluster.network();
  const HostId host = p.cluster.node(p.victim.node).host();
  const std::string name =
      strformat("@audit-%u", p.victim.cred.uid.value());
  (void)nw.unix_listen_abstract(host, p.victim.cred, name);
  ProbeOutcome out;
  auto peer = nw.unix_connect_abstract(host, p.observer.cred, name);
  if (peer && *peer == p.victim.cred.uid) {
    out = {true, "abstract unix socket rendezvous succeeded "
                 "(documented residual channel)"};
  }
  (void)nw.unix_close_abstract(host, name);
  return out;
}

ProbeOutcome probe_rdma_tcp(const ProbeParties& p) {
  net::Network& nw = p.cluster.network();
  const HostId vhost = p.cluster.node(p.victim.node).host();
  const std::uint16_t port = 24000;
  (void)nw.listen(vhost, p.victim.cred, p.victim.shell, net::Proto::tcp,
                  port);
  auto qp = p.cluster.rdma().setup_via_tcp(
      p.cluster.node(p.observer.node).host(), p.observer.cred,
      p.observer.shell, vhost, port);
  ProbeOutcome out{false, "QP setup blocked at the TCP control channel"};
  if (qp) {
    out = {true, "QP established via TCP control channel"};
    (void)p.cluster.rdma().destroy(*qp);
  }
  (void)nw.close_listener(vhost, net::Proto::tcp, port);
  return out;
}

ProbeOutcome probe_rdma_cm(const ProbeParties& p) {
  auto qp = p.cluster.rdma().setup_via_cm(
      p.cluster.node(p.observer.node).host(), p.observer.cred,
      p.cluster.node(p.victim.node).host(), p.victim.cred.uid);
  if (!qp) return {};
  (void)p.cluster.rdma().destroy(*qp);
  return {true, "QP established via native IB CM — nothing inspected it "
                "(documented residual channel)"};
}

// ---------------------------------------------------------------------------
// §IV-E portal
// ---------------------------------------------------------------------------

ProbeOutcome probe_portal(const ProbeParties& p) {
  portal::Gateway& gw = p.cluster.portal();
  return with_victim_notebook(
      p.cluster, p.victim, [&](portal::AppId app) -> Result<std::string> {
        auto token = gw.login(p.observer.cred);
        if (!token) return token.error();
        auto resp = gw.request(*token, app, "GET / HTTP/1.1");
        (void)gw.logout(*token);
        return resp;
      });
}

// ---------------------------------------------------------------------------
// §IV-F accelerators
// ---------------------------------------------------------------------------

ProbeOutcome probe_gpu_residue(const ProbeParties& p) {
  Cluster& c = p.cluster;
  if (c.config().gpus_per_node == 0 || c.compute_nodes().empty()) {
    return {false, "skipped: cluster has no GPUs"};
  }
  // Victim job takes every GPU in the cluster, writes a secret into the
  // first one, and exits; the epilog scrubs (or not) per policy.
  sched::JobSpec vspec;
  vspec.name = "audit-gpu-writer";
  vspec.num_tasks = c.config().gpus_per_node *
                    static_cast<unsigned>(c.compute_nodes().size());
  vspec.gpus_per_task = 1;
  vspec.mem_mb_per_task = 512;
  vspec.duration_ns = 10 * common::kSecond;
  auto vjob = c.submit(p.victim, vspec);
  if (!vjob) return {};
  c.scheduler().step();
  const sched::Job* j = c.scheduler().find_job(*vjob);
  if (j == nullptr || j->state != sched::JobState::running) return {};
  Node& nd = c.node(j->allocations.front().node);
  const GpuId g = j->allocations.front().gpus.front();
  if (nd.local_fs().open_device(p.victim.cred,
                                Node::gpu_dev_path(g.value()),
                                vfs::Access::write)) {
    (void)nd.gpus().at(g.value()).write(p.victim.cred.uid, 0,
                                        "GPU-RESIDUE-SECRET");
  }
  // Let the job run out; epilog fires.
  c.run_jobs();

  // Observer takes a GPU job; first-fit hands back the same device.
  sched::JobSpec ospec;
  ospec.name = "audit-gpu-reader";
  ospec.gpus_per_task = 1;
  ospec.mem_mb_per_task = 512;
  ospec.duration_ns = 10 * common::kSecond;
  auto ojob = c.submit(p.observer, ospec);
  if (!ojob) return {};
  ProbeOutcome out;
  c.scheduler().step();
  const sched::Job* oj = c.scheduler().find_job(*ojob);
  if (oj != nullptr && oj->state == sched::JobState::running) {
    Node& ond = c.node(oj->allocations.front().node);
    const GpuId og = oj->allocations.front().gpus.front();
    if (ond.local_fs().open_device(p.observer.cred,
                                   Node::gpu_dev_path(og.value()),
                                   vfs::Access::read)) {
      auto mem = ond.gpus().at(og.value()).read(p.observer.cred.uid, 0, 64);
      if (mem && mem->find("GPU-RESIDUE-SECRET") != std::string::npos) {
        out = {true, "previous tenant's GPU memory readable"};
      } else {
        out.detail = "device memory scrubbed before reassignment";
      }
    } else {
      out.detail = "device node not openable";
    }
  }
  c.run_jobs();
  return out;
}

// ---------------------------------------------------------------------------
// Deny attribution
// ---------------------------------------------------------------------------

template <const char* const& Knob>
const char* always(const SeparationPolicy&) {
  return Knob;
}

const char* never(const SeparationPolicy&) { return nullptr; }

const char* home_knob(const SeparationPolicy& policy) {
  return policy.root_owned_homes ? obs::knob::root_owned_homes
                                 : obs::knob::fs_enforce_smask;
}

const char* acl_knob(const SeparationPolicy& policy) {
  return policy.fs.restrict_acl ? obs::knob::fs_restrict_acl
                                : obs::knob::root_owned_homes;
}

constexpr std::array<ChannelProbe, obs::kAllChannels.size()> kProbes = {{
    {ChannelKind::procfs_process_list, probe_procfs_list,
     always<obs::knob::hidepid>},
    {ChannelKind::procfs_cmdline, probe_procfs_cmdline,
     always<obs::knob::hidepid>},
    {ChannelKind::scheduler_queue, probe_scheduler_queue,
     always<obs::knob::private_data_jobs>},
    {ChannelKind::scheduler_accounting, probe_scheduler_accounting,
     always<obs::knob::private_data_accounting>},
    {ChannelKind::scheduler_usage, probe_scheduler_usage,
     always<obs::knob::private_data_usage>},
    {ChannelKind::ssh_foreign_node, probe_ssh_foreign_node,
     always<obs::knob::pam_slurm>},
    {ChannelKind::fs_home_read, probe_fs_home, home_knob},
    {ChannelKind::fs_tmp_content, probe_fs_tmp,
     always<obs::knob::fs_enforce_smask>},
    {ChannelKind::fs_tmp_names, probe_fs_tmp_names, never},
    {ChannelKind::fs_devshm_content, probe_fs_devshm,
     always<obs::knob::fs_enforce_smask>},
    {ChannelKind::fs_acl_user_grant, probe_fs_acl_grant, acl_knob},
    {ChannelKind::tcp_cross_user, probe_tcp, always<obs::knob::ubf>},
    {ChannelKind::udp_cross_user, probe_udp, always<obs::knob::ubf>},
    {ChannelKind::abstract_uds, probe_abstract_uds, never},
    {ChannelKind::rdma_tcp_setup, probe_rdma_tcp, always<obs::knob::ubf>},
    {ChannelKind::rdma_native_cm, probe_rdma_cm, never},
    {ChannelKind::portal_foreign_app, probe_portal, always<obs::knob::ubf>},
    {ChannelKind::gpu_residue, probe_gpu_residue,
     always<obs::knob::gpu_epilog_scrub>},
}};

}  // namespace

std::span<const ChannelProbe> channel_probes() { return kProbes; }

const ChannelProbe& channel_probe(ChannelKind kind) {
  // The table is in enum order (the coverage test holds it there).
  return kProbes.at(static_cast<std::size_t>(kind));
}

ProbeOutcome with_victim_notebook(
    Cluster& cluster, const Session& victim,
    const std::function<Result<std::string>(portal::AppId)>& fetch) {
  sched::JobSpec spec;
  spec.name = "audit-jupyter";
  spec.interactive = true;
  spec.duration_ns = 3600 * common::kSecond;
  auto job = cluster.submit(victim, spec);
  if (!job) return {};
  ProbeOutcome out;
  cluster.scheduler().step();
  const sched::Job* j = cluster.scheduler().find_job(*job);
  if (j != nullptr && j->state == sched::JobState::running) {
    const NodeId jn = j->allocations.front().node;
    auto app = cluster.portal().register_app(
        victim.cred, Pid{}, *job, cluster.node(jn).host(), 8888, "jupyter",
        [](const std::string&) { return std::string("NOTEBOOK-TOKEN"); });
    if (app) {
      auto resp = fetch(*app);
      if (resp && resp->find("NOTEBOOK-TOKEN") != std::string::npos) {
        out = {true, "foreign notebook served through the portal"};
      } else {
        out.detail = "portal forwarded hop denied";
      }
      (void)cluster.portal().unregister_app(victim.cred, *app);
    }
  }
  (void)cluster.scheduler().cancel(victim.cred, *job);
  return out;
}

}  // namespace heus::core
