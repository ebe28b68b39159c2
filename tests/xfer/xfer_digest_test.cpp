// Transfer-lifecycle identity guard (ISSUE 6 satellite).
//
// The table-driven transfer lifecycle must be a pure re-expression of
// the DTN staging behaviour: which transfers land, which fail with
// which typed error, how many attempts a flapping mount costs, and the
// exact simulated nanoseconds of backoff and WAN charge — bit-for-bit.
// This test replays a deterministic mix of successes, DAC denials,
// transient-outage retries and a hard outage, and folds the observable
// surface into a digest; the golden value below was captured from the
// pre-table implementation (TransferState = {queued, done, failed})
// immediately before the lifecycle engine landed.
//
// If the digest changes, the refactor changed *staging behaviour*, not
// just its expression. That is a bug unless the scenario itself is
// re-baselined on purpose.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "common/clock.h"
#include "common/fnv.h"
#include "simos/credentials.h"
#include "simos/user_db.h"
#include "vfs/filesystem.h"
#include "xfer/staging.h"

namespace heus::xfer {
namespace {

void require(bool ok) {
  if (!ok) std::abort();
}

std::uint64_t run_digest() {
  common::SimClock clock;
  simos::UserDb db;
  const simos::Credentials root = simos::root_credentials();
  const simos::Credentials alice =
      *simos::login(db, *db.create_user("alice"));
  const simos::Credentials bob = *simos::login(db, *db.create_user("bob"));

  vfs::FileSystem fs("lustre:shared", &db, &clock);
  require(fs.mkdir(root, "/home", 0755).ok());
  require(fs.mkdir(root, "/home/alice", 0700).ok());
  require(fs.chown(root, "/home/alice", alice.uid).ok());
  require(fs.mkdir(root, "/home/bob", 0700).ok());
  require(fs.chown(root, "/home/bob", bob.uid).ok());
  require(fs.write_file(alice, "/home/alice/results.csv",
                        "epoch,loss\n1,0.5\n2,0.25\n")
              .ok());

  ExternalStore store;
  store.put("campus:/data.bin", "payload-bytes-from-campus-storage");
  store.put("campus:/big.tar", std::string(1 << 16, 'x'));

  StagingService dtn(&fs, &store, &clock);
  dtn.set_retry(common::BackoffPolicy{});

  common::Fnv d;
  std::vector<TransferId> ids;
  auto submit = [&](const simos::Credentials& cred, Direction dir,
                    const std::string& remote, const std::string& local) {
    auto r = dtn.submit(cred, dir, remote, local);
    d.fold(r.ok() ? 1 : 0);
    d.fold(r.ok() ? r->value() : static_cast<std::uint64_t>(r.error()));
    if (r.ok()) ids.push_back(*r);
  };

  // -- Batch A: healthy mount. Success, ENOENT, DAC denial, big file. ---
  submit(alice, Direction::stage_in, "campus:/data.bin",
         "/home/alice/data.bin");
  submit(alice, Direction::stage_in, "campus:/missing.bin",
         "/home/alice/missing.bin");
  submit(alice, Direction::stage_in, "campus:/data.bin",
         "/home/bob/stolen.bin");  // foreign dir: plain DAC refuses
  submit(alice, Direction::stage_in, "campus:/big.tar",
         "/home/alice/big.tar");
  submit(alice, Direction::stage_out, "archive:/results.csv",
         "/home/alice/results.csv");
  submit(bob, Direction::stage_out, "archive:/exfil.csv",
         "/home/alice/results.csv");  // foreign read: DAC refuses
  submit(alice, Direction::stage_in, "", "/home/alice/x");     // einval
  submit(alice, Direction::stage_in, "campus:/data.bin", "x");  // einval
  d.fold(dtn.queued());
  d.fold(dtn.process_all());

  // -- Batch B: one-shot outage; the bounded retry rides it out. --------
  int outages_left = 1;
  fs.set_outage_probe([&] {
    if (outages_left <= 0) return false;
    --outages_left;
    return true;
  });
  submit(alice, Direction::stage_in, "campus:/data.bin",
         "/home/alice/retry.bin");
  d.fold(dtn.process_all());

  // -- Batch C: mount stays hung; retries exhaust, typed EIO surfaces. --
  fs.set_outage_probe([] { return true; });
  submit(alice, Direction::stage_out, "archive:/late.csv",
         "/home/alice/results.csv");
  d.fold(dtn.process_all());
  fs.set_outage_probe(nullptr);

  // -- Canonical fold: every transfer in submit order, then stats. ------
  for (const TransferId id : ids) {
    const Transfer* t = dtn.find(id);
    require(t != nullptr);
    d.fold(t->id.value());
    d.fold(t->user.value());
    d.fold(static_cast<std::uint64_t>(t->direction));
    d.fold(t->bytes);
    d.fold(static_cast<std::uint64_t>(t->state));
    d.fold(static_cast<std::uint64_t>(t->error));
    d.fold(t->attempts);
    d.fold(static_cast<std::uint64_t>(t->submitted.ns));
    d.fold(static_cast<std::uint64_t>(t->finished.ns));
  }
  const StagingStats& s = dtn.stats();
  d.fold(s.transfers_done);
  d.fold(s.transfers_failed);
  d.fold(s.bytes_moved);
  d.fold(s.retries);
  d.fold(s.retry_successes);
  d.fold(store.size());
  const auto landed = fs.read_file(alice, "/home/alice/data.bin");
  d.fold(landed.ok() ? landed->size() : 0);
  d.fold(static_cast<std::uint64_t>(clock.now().ns));
  return d.value();
}

// Golden digest captured from the pre-lifecycle-table implementation
// immediately before src/lifecycle landed. See the header comment for
// what a drift means.
constexpr std::uint64_t kGoldenXferDigest = 0x37517324a6858ffdULL;

TEST(XferDigest, TableDrivenLifecycleReproducesStagingBehaviour) {
  const std::uint64_t got = run_digest();
  EXPECT_EQ(got, kGoldenXferDigest)
      << "xfer digest drifted; got 0x" << std::hex << got;
}

}  // namespace
}  // namespace heus::xfer
