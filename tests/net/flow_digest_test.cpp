// Flow-lifecycle identity guard (ISSUE 6 satellite).
//
// The table-driven flow lifecycle must be a pure re-expression of the
// conntrack behaviour that was previously implicit in scattered
// conditionals: which connects succeed, which flows the hook drops,
// when idle entries expire, how identity-change resets and host
// teardowns behave — all bit-for-bit identical, including every stats
// counter and the simulated nanosecond the clock lands on. This test
// replays a deterministic scenario through the whole flow lifecycle
// and folds the observable surface into a digest; the golden value
// below was captured from the pre-table implementation (two-state
// FlowState) immediately before the lifecycle engine landed.
//
// If the digest changes, the refactor changed *network behaviour*, not
// just its expression. That is a bug unless the scenario itself is
// re-baselined on purpose.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fnv.h"
#include "net/network.h"
#include "simos/credentials.h"
#include "simos/user_db.h"

namespace heus::net {
namespace {

// Scenario steps must succeed for the digest to mean anything; abort
// loudly (run_digest is not a TEST body, so no ASSERT_*) on violation.
void require(bool ok) {
  if (!ok) std::abort();
}

void fold_errno(common::Fnv& d, const Result<void>& r) {
  d.fold(r.ok() ? 0 : static_cast<std::uint64_t>(r.error()));
}

void fold_stats(common::Fnv& d, const NetworkStats& s) {
  d.fold(s.connections_attempted);
  d.fold(s.connections_established);
  d.fold(s.connections_refused);
  d.fold(s.connections_dropped);
  d.fold(s.hook_invocations);
  d.fold(s.conntrack_hits);
  d.fold(s.packets_delivered);
  d.fold(s.ident_queries);
  d.fold(s.ident_timeouts);
  d.fold(s.partition_refusals);
  d.fold(s.packets_dropped);
  d.fold(s.flows_reset_identity_changed);
  d.fold(s.flows_expired);
  d.fold(s.gc_runs);
  d.fold(s.gc_entries_touched);
  d.fold(s.ephemeral_exhausted);
}

// Canonical flow-table fold over every flow id the scenario ever saw:
// liveness, then each surviving field that outlives a call.
void fold_flows(common::Fnv& d, const Network& nw,
                const std::vector<FlowId>& ids) {
  std::size_t live = 0;
  for (const FlowId id : ids) {
    const std::optional<Flow> f = nw.find_flow(id);
    d.fold(f.has_value() ? 1 : 0);
    if (!f.has_value()) continue;
    ++live;
    d.fold(f->id.value());
    d.fold(static_cast<std::uint64_t>(f->proto));
    d.fold(f->client_host.value());
    d.fold(f->client_port);
    d.fold(f->server_host.value());
    d.fold(f->server_port);
    d.fold(f->client_uid.value());
    d.fold(f->server_uid.value());
    d.fold(f->state == FlowState::established ? 1 : 0);
    d.fold(f->to_server_len);
    d.fold(f->to_client_len);
    d.fold(f->bytes);
    d.fold(static_cast<std::uint64_t>(f->expires_at_ns));
  }
  d.fold(live);
  d.fold(nw.flow_count());
}

std::uint64_t run_digest() {
  common::SimClock clock;
  simos::UserDb db;
  const simos::Credentials root = simos::root_credentials();
  const simos::Credentials alice =
      *simos::login(db, *db.create_user("alice"));
  const simos::Credentials bob = *simos::login(db, *db.create_user("bob"));

  Network nw(&clock);
  const HostId login = nw.add_host("login");
  const HostId c0 = nw.add_host("c0");
  const HostId c1 = nw.add_host("c1");

  common::Fnv d;
  std::vector<FlowId> ids;  // every flow id ever returned, in order
  auto connect = [&](HostId src, const simos::Credentials& cred, HostId dst,
                     Proto proto, std::uint16_t port) {
    auto r = nw.connect(src, cred, Pid{1}, dst, proto, port);
    d.fold(r.ok() ? 1 : 0);
    d.fold(r.ok() ? r->value() : static_cast<std::uint64_t>(r.error()));
    d.fold(static_cast<std::uint64_t>(nw.last_connect_cost_ns()));
    if (r.ok()) ids.push_back(*r);
    return r;
  };

  // -- Phase 1: no hook. Cross-user and same-user connects; traffic. ----
  require(nw.listen(c0, alice, Pid{10}, Proto::tcp, 5000).ok());
  require(nw.listen(c0, bob, Pid{11}, Proto::tcp, 8000).ok());
  require(nw.listen(c1, bob, Pid{12}, Proto::udp, 9000).ok());
  require(nw.listen(c1, root, Pid{13}, Proto::tcp, 22).ok());

  auto f1 = connect(login, bob, c0, Proto::tcp, 5000);    // cross-user
  auto f2 = connect(login, alice, c0, Proto::tcp, 5000);  // same-user
  require(f1.ok() && f2.ok());
  fold_errno(d, nw.send(*f1, FlowEnd::client, "GET /secrets"));
  fold_errno(d, nw.send(*f1, FlowEnd::server, "200 OK, a lot of payload"));
  fold_errno(d, nw.send(*f2, FlowEnd::client, "ping"));
  const auto got = nw.recv(*f1, FlowEnd::server);
  d.fold(got.ok() ? got->size() : 999);
  d.fold(static_cast<std::uint64_t>(nw.last_send_cost_ns()));
  d.fold(nw.cross_user_flows().size());

  // -- Phase 2: hook installed; drops to port 8000, accepts the rest. ---
  nw.set_hook(
      [](const ConnRequest& req) {
        return req.dst_port == 8000 ? Verdict::drop : Verdict::accept;
      },
      1024);
  const auto f3 = connect(login, alice, c0, Proto::tcp, 8000);  // drop
  d.fold(f3.ok() ? 0 : static_cast<std::uint64_t>(f3.error()));
  const auto f4 = connect(c0, alice, c1, Proto::udp, 9000);   // accept
  const auto f5 = connect(login, alice, c1, Proto::tcp, 22);  // below floor
  require(f4.ok() && f5.ok());
  fold_errno(d, nw.send(*f4, FlowEnd::client, "udp datagram"));
  fold_errno(d, nw.send(*f5, FlowEnd::client, "ssh-ish"));
  d.fold(nw.connect(login, bob, Pid{1}, c0, Proto::tcp, 4444).ok()
             ? 1
             : 0);  // no listener: refused
  d.fold(nw.cross_user_flows().size());

  // -- Phase 3: conntrack TTL, refresh-under-GC, expiry. ----------------
  nw.set_flow_ttl(100 * common::kMillisecond);
  const auto f6 = connect(login, bob, c0, Proto::tcp, 5000);
  const auto f7 = connect(login, alice, c0, Proto::tcp, 5000);
  require(f6.ok() && f7.ok());
  const auto e0 = nw.next_expiry_ns();
  d.fold(e0 ? static_cast<std::uint64_t>(*e0) : 0);
  clock.advance(60 * common::kMillisecond);
  fold_errno(d, nw.send(*f6, FlowEnd::client, "keepalive"));  // refresh f6
  clock.advance(60 * common::kMillisecond);
  d.fold(nw.gc());  // f7 idle-expires; f6 was refreshed (revived) mid-GC
  d.fold(nw.find_flow(*f6).has_value() ? 1 : 0);
  d.fold(nw.find_flow(*f7).has_value() ? 1 : 0);
  fold_errno(d, nw.send(*f6, FlowEnd::client, "still here"));
  clock.advance(200 * common::kMillisecond);
  d.fold(nw.gc());  // now f6 is idle past its refreshed deadline
  const auto e1 = nw.next_expiry_ns();
  d.fold(e1 ? static_cast<std::uint64_t>(*e1) : 0);

  // -- Phase 4: identity-change reset on the established fast path. -----
  require(nw.listen(c1, bob, Pid{14}, Proto::tcp, 7000).ok());
  const auto f8 = connect(login, alice, c1, Proto::tcp, 7000);
  require(f8.ok());
  require(nw.close_listener(c1, Proto::tcp, 7000).ok());
  require(nw.listen(c1, alice, Pid{15}, Proto::tcp, 7000).ok());
  fold_errno(d, nw.send(*f8, FlowEnd::client, "stale conntrack"));
  d.fold(nw.find_flow(*f8).has_value() ? 1 : 0);

  // -- Phase 5: send/close error paths. ---------------------------------
  fold_errno(d, nw.send(*f8, FlowEnd::client, "after reset"));  // ebadf
  fold_errno(d, nw.close(*f8));                                 // ebadf
  fold_errno(d, nw.close(*f2));
  fold_errno(d, nw.send(*f2, FlowEnd::client, "after close"));  // ebadf

  // -- Phase 6: per-user and per-host teardown sweeps. ------------------
  require(nw.unix_listen_abstract(c1, bob, "mpi-rendezvous").ok());
  const auto uds = nw.unix_connect_abstract(c1, alice, "mpi-rendezvous");
  d.fold(uds.ok() ? uds->value() : 888);
  d.fold(nw.close_sockets_of(c0, bob.uid));  // bob's sockets on c0
  d.fold(nw.reset_host(c1));                 // everything touching c1
  d.fold(nw.cross_user_flows().size());

  fold_flows(d, nw, ids);
  fold_stats(d, nw.stats());
  d.fold(static_cast<std::uint64_t>(clock.now().ns));
  return d.value();
}

// Golden digest captured from the pre-lifecycle-table implementation
// (FlowState = {established, closed}) immediately before src/lifecycle
// landed. See the header comment for what a drift means.
constexpr std::uint64_t kGoldenFlowDigest = 0xa88cabbf762e58f2ULL;

TEST(FlowDigest, TableDrivenLifecycleReproducesConntrackBehaviour) {
  const std::uint64_t got = run_digest();
  EXPECT_EQ(got, kGoldenFlowDigest)
      << "flow digest drifted; got 0x" << std::hex << got;
}

}  // namespace
}  // namespace heus::net
