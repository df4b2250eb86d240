// Golden bit-identity suite: the typed zero-allocation packet engine vs
// the seed reference engine (audit::reference_pkt_run).
//
// The typed engine is a representational rewrite -- POD events on a flat
// 4-ary heap, intrusive VL FIFOs through a packet pool, SoA channel state
// -- with control flow mirrored line for line, so every observable must be
// *bitwise* identical: completion times, packet counts, event counts,
// deadlock reports (including the extracted credit-wait cycle) and every
// PktTrace counter.  The matrix covers both paper fabrics (12x8 HyperX
// with DFSSSP, 3-level fat tree with ftree), static and adaptive (DAL)
// routing, tracing on and off, truncated runs, deadlocked runs, and batch
// replication at {1, 4} threads.
//
// The cross-engine identity cannot see a change in what both engines
// derive alike (the randomized-router and retry seed streams, the path
// and config checks).  Six of the fixtures therefore also pin the typed
// engine's own Result to a committed 64-bit FNV-1a digest of every field,
// as routing_golden_test does for the routing tables.  A deliberate
// packet-model change updates the constants in the same commit and says
// why.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "audit/reference_pktsim.hpp"
#include "routing/dfsssp.hpp"
#include "routing/forwarding.hpp"
#include "routing/ftree.hpp"
#include "routing/lid_space.hpp"
#include "sim/adaptive.hpp"
#include "sim/online.hpp"
#include "sim/pktsim.hpp"
#include "stats/rng.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::sim {
namespace {

using topo::ChannelId;
using topo::NodeId;
using topo::SwitchId;
using topo::Topology;

/// 64-bit FNV-1a over the raw bytes of each added value.
class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

/// Adds every field of `r` to `d`, field by field (CreditWaitEdge has
/// padding), doubles by their bits.
void add_result(Fnv1a& d, const PktSim::Result& r) {
  d.add(r.completion.size());
  for (const double t : r.completion) d.add(t);
  d.add(r.deadlock);
  d.add(r.truncated);
  d.add(r.end_time);
  d.add(r.packets_delivered);
  d.add(r.packets_total);
  d.add(r.events_executed);
  d.add(r.packets_dropped);
  d.add(r.dropped_by_cause);
  d.add(r.retries);
  d.add(r.messages_abandoned);
  d.add(r.message_status.size());
  for (const PktMessageStatus s : r.message_status) d.add(s);
  for (const auto* edges :
       {&r.deadlock_report.blocked, &r.deadlock_report.cycle}) {
    d.add(edges->size());
    for (const obs::CreditWaitEdge& e : *edges) {
      d.add(e.packet);
      d.add(e.message);
      d.add(e.held);
      d.add(e.held_vl);
      d.add(e.wanted);
      d.add(e.wanted_vl);
    }
  }
}

std::uint64_t result_digest(const PktSim::Result& r) {
  Fnv1a d;
  add_result(d, r);
  return d.value();
}

/// Field-wise counter equality (ChannelVlCounters has no operator== and
/// struct padding forbids memcmp); doubles compare bitwise.
void expect_traces_identical(const obs::PktTrace& a, const obs::PktTrace& b) {
  ASSERT_EQ(a.num_channels(), b.num_channels());
  ASSERT_EQ(a.num_vls(), b.num_vls());
  for (ChannelId ch = 0; ch < a.num_channels(); ++ch) {
    for (std::int8_t vl = 0; vl < a.num_vls(); ++vl) {
      const obs::ChannelVlCounters& ca = a.at(ch, vl);
      const obs::ChannelVlCounters& cb = b.at(ch, vl);
      ASSERT_EQ(ca.packets, cb.packets) << "ch " << ch << " vl " << int(vl);
      ASSERT_EQ(ca.bytes, cb.bytes) << "ch " << ch << " vl " << int(vl);
      ASSERT_EQ(std::memcmp(&ca.credit_stall_s, &cb.credit_stall_s,
                            sizeof(double)),
                0)
          << "ch " << ch << " vl " << int(vl);
      ASSERT_EQ(ca.arb_skips, cb.arb_skips) << "ch " << ch << " vl "
                                            << int(vl);
      ASSERT_EQ(ca.peak_queue, cb.peak_queue) << "ch " << ch << " vl "
                                              << int(vl);
      ASSERT_EQ(std::memcmp(&ca.queue_depth_time, &cb.queue_depth_time,
                            sizeof(double)),
                0)
          << "ch " << ch << " vl " << int(vl);
      ASSERT_EQ(ca.final_credits, cb.final_credits)
          << "ch " << ch << " vl " << int(vl);
    }
  }
}

/// Runs `msgs` through both engines (fresh simulator each) and asserts
/// bitwise identity of results and, when `with_trace`, of every counter.
/// Returns the typed engine's Result.
PktSim::Result golden_compare(const Topology& topo, PktSimConfig base,
                    const std::vector<PktMessage>& msgs, bool with_trace,
                    std::size_t max_events = SIZE_MAX) {
  obs::PktTrace typed_trace;
  obs::PktTrace ref_trace;

  PktSimConfig typed_cfg = base;
  typed_cfg.trace = with_trace ? &typed_trace : nullptr;
  PktSim typed(topo, typed_cfg);
  const PktSim::Result rt = typed.run(msgs, max_events);

  PktSimConfig ref_cfg = base;
  ref_cfg.trace = with_trace ? &ref_trace : nullptr;
  const PktSim::Result rr =
      audit::reference_pkt_run(topo, ref_cfg, msgs, max_events);

  EXPECT_EQ(first_difference(rt, rr), "");
  if (with_trace) expect_traces_identical(typed_trace, ref_trace);
  return rt;
}

// --- paper HyperX, static DFSSSP ------------------------------------------------

class HyperXGolden : public ::testing::Test {
 protected:
  HyperXGolden()
      : hx_(topo::paper_hyperx_params()),
        lids_(routing::LidSpace::consecutive(hx_.topo().num_terminals(), 0)),
        route_(routing::DfssspEngine(8).compute(hx_.topo(), lids_)),
        dal_(hx_) {}

  /// Seeded random traffic; `adaptive_share` in [0, 1] of the messages are
  /// path-less (DAL-routed), the rest follow the static tables.
  std::vector<PktMessage> traffic(std::uint64_t seed, std::size_t count,
                                  double adaptive_share) const {
    const auto n = static_cast<std::uint64_t>(hx_.topo().num_terminals());
    stats::Rng rng(seed);
    std::vector<PktMessage> msgs;
    while (msgs.size() < count) {
      const auto src = static_cast<NodeId>(rng.next_below(n));
      const auto dst = static_cast<NodeId>(rng.next_below(n));
      if (src == dst) continue;
      PktMessage m;
      m.src = src;
      m.dst = dst;
      m.bytes = static_cast<std::int64_t>(rng.next_below(32 * 1024)) + 1;
      m.inject_time = rng.uniform() * 1e-6;
      if (!rng.bernoulli(adaptive_share)) {
        auto path =
            route_.tables.path(hx_.topo(), lids_, src, lids_.base_lid(dst));
        m.path = std::move(path.channels);
        m.vl =
            route_.vls.vl(hx_.topo().attach_switch(src), lids_.base_lid(dst));
      }
      msgs.push_back(std::move(m));
    }
    return msgs;
  }

  topo::HyperX hx_;
  routing::LidSpace lids_;
  routing::RouteResult route_;
  DalRouter dal_;
};

TEST_F(HyperXGolden, StaticDfssspWithoutTrace) {
  EXPECT_EQ(result_digest(golden_compare(hx_.topo(), PktSimConfig{},
                                         traffic(11, 300, 0.0), false)),
            0x65405a19c4ab26a0ULL);
}

TEST_F(HyperXGolden, StaticDfssspWithTrace) {
  golden_compare(hx_.topo(), PktSimConfig{}, traffic(12, 300, 0.0), true);
}

TEST_F(HyperXGolden, AdaptiveDalWithoutTrace) {
  PktSimConfig cfg;
  cfg.adaptive = &dal_;
  golden_compare(hx_.topo(), cfg, traffic(13, 300, 1.0), false);
}

TEST_F(HyperXGolden, AdaptiveDalWithTrace) {
  PktSimConfig cfg;
  cfg.adaptive = &dal_;
  golden_compare(hx_.topo(), cfg, traffic(14, 300, 1.0), true);
}

TEST_F(HyperXGolden, MixedStaticAndAdaptiveWithTrace) {
  PktSimConfig cfg;
  cfg.adaptive = &dal_;
  cfg.vc_buffer_packets = 2;  // tighter buffers: more arbitration activity
  EXPECT_EQ(result_digest(
                golden_compare(hx_.topo(), cfg, traffic(15, 400, 0.5), true)),
            0x622e347f54af2fc4ULL);
}

TEST_F(HyperXGolden, TruncatedRunsMatch) {
  // Stopping both engines mid-flight at the same event budget must leave
  // them in bitwise-identical (truncated, not deadlocked) states.
  PktSimConfig cfg;
  golden_compare(hx_.topo(), cfg, traffic(16, 200, 0.0), true,
                 /*max_events=*/5000);
}

TEST_F(HyperXGolden, BatchMatchesSerialReferenceLoop) {
  // run_batch on the typed engine vs a serial reference-engine loop: the
  // full cross-engine + cross-parallelism identity, at 1 and 4 threads.
  PktSimConfig cfg;
  cfg.adaptive = &dal_;

  std::vector<std::vector<PktMessage>> reps;
  for (std::uint64_t s = 21; s <= 26; ++s)
    reps.push_back(traffic(s, 120, 0.5));

  std::vector<PktSim::Result> serial;
  for (const auto& r : reps)
    serial.push_back(audit::reference_pkt_run(hx_.topo(), cfg, r));

  for (const std::int32_t threads : {1, 4}) {
    PktSim typed(hx_.topo(), cfg);
    const auto batch = typed.run_batch(reps, threads);
    ASSERT_EQ(batch.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " replication=" + std::to_string(i));
      EXPECT_EQ(first_difference(batch[i], serial[i]), "");
    }
  }
}

TEST_F(HyperXGolden, WarmTypedEngineStaysIdenticalToColdReference) {
  // Scratch reuse across runs must never bleed state: run the typed
  // simulator three times on three message sets and compare each against
  // a cold reference engine.
  PktSimConfig cfg;
  cfg.adaptive = &dal_;
  PktSim typed(hx_.topo(), cfg);
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const auto msgs = traffic(seed, 200, 0.5);
    EXPECT_EQ(first_difference(typed.run(msgs),
                               audit::reference_pkt_run(hx_.topo(), cfg, msgs)),
              "");
  }
}

// --- online fault layer ---------------------------------------------------------

TEST_F(HyperXGolden, InertOnlineConfigIsBitIdentical) {
  // The off switch is a contract: an attached config with no faults, no
  // epochs and retry disabled must change no result bit on either engine.
  const auto msgs = traffic(51, 300, 0.0);
  PktSim plain(hx_.topo(), PktSimConfig{});
  const PktSim::Result base = plain.run(msgs);

  PktOnlineConfig inert;
  PktSimConfig cfg;
  cfg.online = &inert;
  PktSim typed(hx_.topo(), cfg);
  EXPECT_EQ(first_difference(typed.run(msgs), base), "");
  EXPECT_EQ(
      first_difference(audit::reference_pkt_run(hx_.topo(), cfg, msgs), base),
      "");
}

TEST_F(HyperXGolden, OnlineFaultWithRetryMatchesAcrossEnginesAndThreads) {
  // Mid-run cable cut plus end-host timeout/retry: drops, backoff jitter
  // draws and give-ups must all hold the cross-engine identity, and the
  // per-replication retry Rng must make run_batch thread-count invariant.
  std::vector<std::vector<PktMessage>> reps;
  for (std::uint64_t s = 61; s <= 64; ++s)
    reps.push_back(traffic(s, 150, 0.0));

  PktOnlineConfig online;
  online.faults.push_back({0.5e-6, reps[0][0].path});
  online.retry.enabled = true;
  online.retry.timeout = 20e-6;
  online.retry.backoff_base = 1e-6;
  online.retry.jitter = 0.5;
  online.retry.max_retries = 3;
  online.retry.seed = 7;

  PktSimConfig cfg;
  cfg.online = &online;
  for (const auto& r : reps) golden_compare(hx_.topo(), cfg, r, true);

  std::vector<PktSim::Result> serial;
  std::int64_t retries = 0;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    serial.push_back(
        audit::reference_pkt_run(hx_.topo(), cfg, reps[i], SIZE_MAX, i));
    retries += serial.back().retries;
  }
  EXPECT_GT(retries, 0) << "fault did not exercise the retry path";

  for (const std::int32_t threads : {1, 4}) {
    PktSim typed(hx_.topo(), cfg);
    const auto batch = typed.run_batch(reps, threads);
    ASSERT_EQ(batch.size(), serial.size());
    Fnv1a digest;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " replication=" + std::to_string(i));
      EXPECT_EQ(first_difference(batch[i], serial[i]), "");
      add_result(digest, batch[i]);
    }
    // Replications 1..3 draw from derived retry streams.
    EXPECT_EQ(digest.value(), 0x4894ff351d2b7775ULL) << "threads=" << threads;
  }
}

TEST(OnlineGolden, TtlLoopDropIsDeterministic) {
  // Hand-built transient loop: a 3-switch line where the "repaired" epoch
  // reaches only the middle switch, whose new route points back at a
  // switch still forwarding by the stale table.  The packet ping-pongs
  // deterministically until the TTL budget drops it on both engines.
  Topology topo("line3");
  const SwitchId s0 = topo.add_switch();
  const SwitchId s1 = topo.add_switch();
  const SwitchId s2 = topo.add_switch();
  const NodeId t0 = topo.add_terminal(s0);
  const NodeId t2 = topo.add_terminal(s2);
  const auto [c01, c10] = topo.connect(s0, s1);
  const auto [c12, c21] = topo.connect(s1, s2);
  (void)c21;

  const routing::LidSpace lids =
      routing::LidSpace::consecutive(topo.num_terminals(), 0);
  const routing::Lid dlid = lids.base_lid(t2);
  routing::ForwardingTables e0(topo.num_switches(), lids.max_lid());
  e0.set(s0, dlid, c01);
  e0.set(s1, dlid, c12);
  e0.set(s2, dlid, topo.terminal_down(t2));
  routing::ForwardingTables e1 = e0;
  e1.set(s1, dlid, c10);  // repaired route detours back through s0

  PktOnlineConfig online;
  online.epochs.push_back({&e0, nullptr, {}});
  online.epochs.push_back(
      {&e1, nullptr, std::vector<double>{1e9, 0.0, 1e9}});
  online.lids = &lids;
  online.ttl_hops = 8;

  PktMessage m;
  m.src = t0;
  m.dst = t2;
  m.bytes = 1024;  // single segment, path-less: table-routed
  const std::vector<PktMessage> msgs{m};

  PktSimConfig cfg;
  cfg.online = &online;
  golden_compare(topo, cfg, msgs, /*with_trace=*/true);

  PktSim typed(topo, cfg);
  const PktSim::Result r = typed.run(msgs);
  EXPECT_FALSE(r.deadlock);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.packets_total, 1);
  EXPECT_EQ(r.packets_delivered, 0);
  EXPECT_EQ(r.packets_dropped, 1);
  EXPECT_EQ(r.dropped_by_cause[static_cast<std::size_t>(
                obs::PktDropCause::kTtl)],
            1);
  EXPECT_TRUE(std::isnan(r.completion[0]));
  ASSERT_EQ(r.message_status.size(), 1u);
  EXPECT_EQ(r.message_status[0], PktMessageStatus::kUndelivered);
  // A repeated run on the warm engine stays bitwise stable.
  EXPECT_EQ(first_difference(typed.run(msgs), r), "");
  EXPECT_EQ(result_digest(r), 0x77bd9f0e3a6ef9ffULL);
}

// --- paper fat tree, static ftree -----------------------------------------------

class FatTreeGolden : public ::testing::Test {
 protected:
  FatTreeGolden()
      : ft_(topo::paper_fat_tree_params()),
        lids_(routing::LidSpace::consecutive(ft_.topo().num_terminals(), 0)),
        route_(routing::FtreeEngine(ft_).compute(ft_.topo(), lids_)) {}

  std::vector<PktMessage> traffic(std::uint64_t seed,
                                  std::size_t count) const {
    const auto n = static_cast<std::uint64_t>(ft_.topo().num_terminals());
    stats::Rng rng(seed);
    std::vector<PktMessage> msgs;
    while (msgs.size() < count) {
      const auto src = static_cast<NodeId>(rng.next_below(n));
      const auto dst = static_cast<NodeId>(rng.next_below(n));
      if (src == dst) continue;
      auto path =
          route_.tables.path(ft_.topo(), lids_, src, lids_.base_lid(dst));
      PktMessage m;
      m.src = src;
      m.dst = dst;
      m.bytes = static_cast<std::int64_t>(rng.next_below(32 * 1024)) + 1;
      m.inject_time = rng.uniform() * 1e-6;
      m.path = std::move(path.channels);
      m.vl = route_.vls.vl(ft_.topo().attach_switch(src), lids_.base_lid(dst));
      msgs.push_back(std::move(m));
    }
    return msgs;
  }

  topo::FatTree ft_;
  routing::LidSpace lids_;
  routing::RouteResult route_;
};

TEST_F(FatTreeGolden, StaticFtreeWithoutTrace) {
  EXPECT_EQ(result_digest(golden_compare(ft_.topo(), PktSimConfig{},
                                         traffic(41, 300), false)),
            0x1583a7c1c2d2f58dULL);
}

TEST_F(FatTreeGolden, StaticFtreeWithTrace) {
  golden_compare(ft_.topo(), PktSimConfig{}, traffic(42, 300), true);
}

TEST_F(FatTreeGolden, TightBuffersWithTrace) {
  PktSimConfig cfg;
  cfg.vc_buffer_packets = 1;  // maximum credit pressure on the up links
  golden_compare(ft_.topo(), cfg, traffic(43, 300), true);
}

// --- deadlock post-mortem -------------------------------------------------------

TEST(DeadlockGolden, CyclicRoutesProduceIdenticalReports) {
  // The Section 3.2 triangle: cyclic two-hop routes on one VL deadlock.
  // Both engines must report the same blocked set AND extract the same
  // credit-wait cycle, with tracing on and off.
  Topology topo("triangle");
  SwitchId sw[3];
  NodeId node[3];
  ChannelId fwd[3];
  for (auto& s : sw) s = topo.add_switch();
  for (int i = 0; i < 3; ++i) node[i] = topo.add_terminal(sw[i]);
  for (int i = 0; i < 3; ++i) {
    auto [f, unused] = topo.connect(sw[i], sw[(i + 1) % 3]);
    (void)unused;
    fwd[i] = f;
  }
  std::vector<PktMessage> msgs;
  for (int rep = 0; rep < 4; ++rep)
    for (int i = 0; i < 3; ++i) {
      PktMessage m;
      m.src = node[i];
      m.dst = node[(i + 2) % 3];
      m.bytes = 16 * 2048;
      m.path = {topo.terminal_up(node[i]), fwd[i], fwd[(i + 1) % 3],
                topo.terminal_down(node[(i + 2) % 3])};
      msgs.push_back(std::move(m));
    }
  PktSimConfig cfg;
  cfg.vc_buffer_packets = 1;
  const PktSim::Result r =
      golden_compare(topo, cfg, msgs, /*with_trace=*/false);
  ASSERT_TRUE(r.deadlock);
  EXPECT_EQ(result_digest(r), 0xcf1f69e140e1940dULL);
  golden_compare(topo, cfg, msgs, /*with_trace=*/true);
}

}  // namespace
}  // namespace hxsim::sim
