// Schedule-identity guard for the indexed scheduler (ISSUE 4 tentpole).
//
// The placement indices and event heaps added for fleet scale must be
// pure accelerations: the schedule produced — which job starts when, on
// how many cpus, and how it ends — must be bit-for-bit identical to the
// pre-index implementation. This test replays the E3 workloads
// (bench/common/workloads) through the scheduler and folds the canonical
// schedule into a digest; the golden values below were captured from the
// scan-based implementation immediately before the indices landed.
//
// If a digest changes, the refactor changed *scheduling behaviour*, not
// just its cost. That is a bug unless EXPERIMENTS.md E3 is re-baselined
// on purpose.
#include <gtest/gtest.h>

#include <limits>

#include "bench/common/workloads.h"
#include "common/fnv.h"
#include "common/strings.h"
#include "sched/scheduler.h"
#include "simos/user_db.h"

namespace heus::sched {
namespace {

std::uint64_t run_digest(bench::WorkloadFactory make, SharingPolicy policy,
                         bool backfill, PriorityPolicy priority,
                         unsigned nodes, unsigned cpus_per_node,
                         std::size_t n_users, std::size_t n_jobs) {
  bench::WorkloadParams params;
  params.users = n_users;
  params.jobs = n_jobs;
  params.mean_interarrival_ns = common::kSecond / 4;
  const auto jobs = make(params);

  common::SimClock clock;
  simos::UserDb db;
  std::vector<simos::Credentials> users;
  for (std::size_t u = 0; u < n_users; ++u) {
    users.push_back(
        *simos::login(db, *db.create_user("user" + std::to_string(u))));
  }
  SchedulerConfig cfg;
  cfg.policy = policy;
  cfg.backfill = backfill;
  cfg.priority = priority;
  Scheduler sched(&clock, cfg);
  for (unsigned i = 0; i < nodes; ++i) {
    NodeInfo info;
    info.hostname = common::strformat("c%u", i);
    info.cpus = cpus_per_node;
    info.mem_mb = static_cast<std::uint64_t>(cpus_per_node) * 4096;
    sched.add_node(info);
  }

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

  // FNV-1a over the canonical order: accounting sorted by job id, so the
  // digest is independent of completion-processing order for simultaneous
  // events. Integer fields only: every value hashed is deterministic
  // simulated time or a count.
  auto records = sched.accounting(simos::root_credentials());
  std::sort(records.begin(), records.end(),
            [](const AccountingRecord& x, const AccountingRecord& y) {
              return x.id < y.id;
            });
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

struct Case {
  const char* name;
  bench::WorkloadFactory make;
  SharingPolicy policy;
  bool backfill;
  PriorityPolicy priority;
  unsigned nodes;
  std::uint64_t golden;
};

// Golden digests captured from the pre-index (full-scan) scheduler at
// commit 40b65f8, 8 nodes x 16 cpus (plus one 64-node fleet case),
// 8 users x 150 jobs.
TEST(SchedDigest, IndexedSchedulerReproducesE3Schedules) {
  const Case cases[] = {
      {"bsp/shared", bench::make_bsp_sweep, SharingPolicy::shared, true,
       PriorityPolicy::fcfs, 8, 0x9eb24e8127d9b947ULL},
      {"bsp/exclusive", bench::make_bsp_sweep, SharingPolicy::exclusive_job,
       true, PriorityPolicy::fcfs, 8, 0x889161ef9b81484fULL},
      {"bsp/user-whole-node", bench::make_bsp_sweep,
       SharingPolicy::user_whole_node, true, PriorityPolicy::fcfs, 8,
       0xb85e634362d8d816ULL},
      {"mixed/shared", bench::make_mixed, SharingPolicy::shared, true,
       PriorityPolicy::fcfs, 8, 0x98b2ff6164f1b4bdULL},
      {"mixed/user-whole-node", bench::make_mixed,
       SharingPolicy::user_whole_node, true, PriorityPolicy::fcfs, 8,
       0x5b3b853272fc9ef4ULL},
      {"mixed/uwn/no-backfill", bench::make_mixed,
       SharingPolicy::user_whole_node, false, PriorityPolicy::fcfs, 8,
       0xf0fbe5bc48526de1ULL},
      {"mixed/uwn/fairshare", bench::make_mixed,
       SharingPolicy::user_whole_node, true, PriorityPolicy::fairshare, 8,
       0xc4f447962e665b36ULL},
      {"capability/shared", bench::make_capability, SharingPolicy::shared,
       true, PriorityPolicy::fcfs, 8, 0xd8d4010b0b56eb65ULL},
      {"bsp/uwn/64-nodes", bench::make_bsp_sweep,
       SharingPolicy::user_whole_node, true, PriorityPolicy::fcfs, 64,
       0x2268741af7840a9ULL},
  };
  for (const Case& c : cases) {
    const std::uint64_t got =
        run_digest(c.make, c.policy, c.backfill, c.priority, c.nodes, 16,
                   8, 150);
    EXPECT_EQ(got, c.golden)
        << c.name << ": schedule digest drifted; got 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace heus::sched
