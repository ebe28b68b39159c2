// E3 (paper §IV-B): the node-sharing policy trade-off.
//
// Claim under test: per-job exclusive scheduling gives isolation but
// "results in poor utilization if a user is executing many bulk
// synchronous parallel jobs like parameter sweeps and Monte Carlo
// simulations"; LLSC's user-based whole-node policy recovers most of the
// shared-scheduling throughput while guaranteeing single-user nodes.
//
// For each synthetic workload and each policy this harness reports:
// utilization (busy cpu-time / capacity), blocked fraction (capacity
// fenced off), makespan, mean queue wait, and the number of cross-user
// co-residency events (the isolation metric — must be 0 for exclusive and
// user-whole-node).
#include <algorithm>
#include <limits>
#include <vector>

#include "bench/common/json.h"
#include "bench/common/table.h"
#include "bench/common/workloads.h"
#include "common/strings.h"
#include "sched/scheduler.h"

namespace heus::bench {
namespace {

using common::kSecond;
using sched::SharingPolicy;

struct RunResult {
  double utilization = 0;
  double blocked = 0;
  double makespan_s = 0;
  double mean_wait_s = 0;
  double p95_wait_s = 0;
  std::uint64_t coresidency = 0;
  std::size_t completed = 0;
};

RunResult run_workload(SharingPolicy policy,
                       const std::vector<WorkloadJob>& jobs,
                       std::size_t n_users, unsigned nodes,
                       unsigned cpus_per_node) {
  common::SimClock clock;
  simos::UserDb db;
  std::vector<simos::Credentials> users;
  for (std::size_t u = 0; u < n_users; ++u) {
    const Uid uid = *db.create_user("user" + std::to_string(u));
    users.push_back(*simos::login(db, uid));
  }

  sched::SchedulerConfig cfg;
  cfg.policy = policy;
  sched::Scheduler sched(&clock, cfg);
  for (unsigned i = 0; i < nodes; ++i) {
    sched::NodeInfo info;
    info.hostname = common::strformat("c%u", i);
    info.cpus = cpus_per_node;
    info.mem_mb = static_cast<std::uint64_t>(cpus_per_node) * 4096;
    sched.add_node(info);
  }

  // Event loop interleaving arrivals with completions.
  std::size_t next = 0;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  while (true) {
    const std::int64_t t_submit =
        next < jobs.size() ? jobs[next].submit_offset_ns : kInf;
    const auto event = sched.next_event_time();
    const std::int64_t t_event = event ? event->ns : kInf;
    const std::int64_t t = std::min(t_submit, t_event);
    if (t == kInf) break;
    clock.advance_to(common::SimTime{t});
    while (next < jobs.size() && jobs[next].submit_offset_ns <= t) {
      (void)sched.submit(users[jobs[next].user_index], jobs[next].spec);
      ++next;
    }
    sched.step();
  }

  RunResult out;
  out.utilization = sched.utilization().utilization();
  out.blocked = sched.utilization().blocked_fraction();
  out.makespan_s = sched.last_completion().seconds();
  out.mean_wait_s = sched.mean_wait_ns() / static_cast<double>(kSecond);
  // Tail behaviour matters more than the mean for interactive users.
  std::vector<double> waits;
  for (const auto& rec :
       sched.accounting(simos::root_credentials())) {
    if (rec.start_time.ns > 0 || rec.final_state ==
                                     sched::JobState::completed) {
      waits.push_back(
          static_cast<double>(rec.start_time.ns - rec.submit_time.ns) /
          static_cast<double>(kSecond));
    }
  }
  if (!waits.empty()) {
    // p95, interpolating linearly between adjacent order statistics.
    std::sort(waits.begin(), waits.end());
    const double pos = 0.95 * static_cast<double>(waits.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, waits.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out.p95_wait_s = waits[lo] * (1.0 - frac) + waits[hi] * frac;
  }
  out.coresidency = sched.cross_user_coresidency_events();
  out.completed = sched.completed_count();
  return out;
}

void policy_sweep() {
  print_banner(
      "E3: node-sharing policy sweep (paper §IV-B)",
      "Claim: exclusive isolates but wastes capacity on small-job "
      "workloads; user-whole-node recovers near-shared throughput with "
      "zero cross-user co-residency.");

  // Sized so the offered load saturates the exclusive policy (which can
  // run at most one job per node) but not the shared one: that is the
  // operating regime the paper's discussion concerns.
  constexpr unsigned kNodes = 8;
  constexpr unsigned kCpus = 16;
  WorkloadParams params;
  params.users = 12;
  params.jobs = 600;
  params.mean_interarrival_ns = kSecond / 4;

  Table table({"workload", "policy", "utilization", "blocked", "makespan-s",
               "mean-wait-s", "p95-wait-s", "cross-user-events",
               "completed"});
  for (const auto& wl : standard_workloads()) {
    const auto jobs = wl.make(params);
    for (auto policy :
         {SharingPolicy::shared, SharingPolicy::exclusive_job,
          SharingPolicy::user_whole_node}) {
      const RunResult r =
          run_workload(policy, jobs, params.users, kNodes, kCpus);
      table.add_row({wl.name, sched::to_string(policy),
                     common::strformat("%.3f", r.utilization),
                     common::strformat("%.3f", r.blocked),
                     common::strformat("%.1f", r.makespan_s),
                     common::strformat("%.1f", r.mean_wait_s),
                     common::strformat("%.1f", r.p95_wait_s),
                     std::to_string(r.coresidency),
                     std::to_string(r.completed)});
    }
  }
  table.print();
  JsonReport::instance().add_table("policy_sweep", table);
}

void user_count_sensitivity() {
  print_banner(
      "E3b: whole-node penalty vs. active-user count",
      "Ablation: user-whole-node approaches shared as per-user job streams "
      "deepen; with many users and one job each it degrades toward "
      "exclusive. (Design-choice sensitivity from DESIGN.md §5.)");

  constexpr unsigned kNodes = 8;
  constexpr unsigned kCpus = 16;
  Table table({"active-users", "policy", "utilization", "makespan-s"});
  for (std::size_t users : {2, 8, 32, 128}) {
    WorkloadParams params;
    params.users = users;
    params.jobs = 400;
    params.mean_interarrival_ns = kSecond / 2;
    const auto jobs = make_bsp_sweep(params);
    for (auto policy :
         {SharingPolicy::shared, SharingPolicy::user_whole_node}) {
      const RunResult r = run_workload(policy, jobs, users, kNodes, kCpus);
      table.add_row({std::to_string(users), sched::to_string(policy),
                     common::strformat("%.3f", r.utilization),
                     common::strformat("%.1f", r.makespan_s)});
    }
  }
  table.print();
  JsonReport::instance().add_table("user_count_sensitivity", table);
}

void backfill_ablation() {
  print_banner(
      "E3c: backfill ablation",
      "EASY backfill recovers capacity behind blocked wide jobs under "
      "every policy (mixed workload).");

  WorkloadParams params;
  params.users = 12;
  params.jobs = 300;
  params.mean_interarrival_ns = kSecond / 2;
  const auto jobs = make_mixed(params);

  Table table({"policy", "backfill", "utilization", "makespan-s",
               "mean-wait-s"});
  for (auto policy :
       {SharingPolicy::shared, SharingPolicy::user_whole_node}) {
    for (bool backfill : {true, false}) {
      common::SimClock clock;
      simos::UserDb db;
      std::vector<simos::Credentials> users;
      for (std::size_t u = 0; u < params.users; ++u) {
        users.push_back(*simos::login(
            db, *db.create_user("user" + std::to_string(u))));
      }
      sched::SchedulerConfig cfg;
      cfg.policy = policy;
      cfg.backfill = backfill;
      sched::Scheduler sched(&clock, cfg);
      for (unsigned i = 0; i < 4; ++i) {
        sched::NodeInfo info;
        info.hostname = common::strformat("c%u", i);
        info.cpus = 32;
        info.mem_mb = 32 * 4096ULL;
        sched.add_node(info);
      }
      std::size_t next = 0;
      constexpr std::int64_t kInf =
          std::numeric_limits<std::int64_t>::max();
      while (true) {
        const std::int64_t t_submit =
            next < jobs.size() ? jobs[next].submit_offset_ns : kInf;
        const auto event = sched.next_event_time();
        const std::int64_t t_event = event ? event->ns : kInf;
        const std::int64_t t = std::min(t_submit, t_event);
        if (t == kInf) break;
        clock.advance_to(common::SimTime{t});
        while (next < jobs.size() &&
               jobs[next].submit_offset_ns <= t) {
          (void)sched.submit(users[jobs[next].user_index],
                             jobs[next].spec);
          ++next;
        }
        sched.step();
      }
      table.add_row(
          {sched::to_string(policy), backfill ? "on" : "off",
           common::strformat("%.3f", sched.utilization().utilization()),
           common::strformat("%.1f", sched.last_completion().seconds()),
           common::strformat("%.1f", sched.mean_wait_ns() /
                                          static_cast<double>(kSecond))});
    }
  }
  table.print();
  JsonReport::instance().add_table("backfill_ablation", table);
}

}  // namespace
}  // namespace heus::bench

int main(int argc, char** argv) {
  heus::bench::policy_sweep();
  heus::bench::user_count_sensitivity();
  heus::bench::backfill_ablation();
  if (const auto path = heus::bench::json_output_path(argc, argv,
                                                      "BENCH_E3.json")) {
    return heus::bench::JsonReport::instance().write("E3", *path) ? 0 : 1;
  }
  return 0;
}
