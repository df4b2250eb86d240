// Fuzz-audit subsystem: scenario generation determinism, repro round-trip,
// greedy shrinking, and -- most importantly -- proof that every granular
// oracle *fails* on deliberately corrupted input.  An oracle that cannot
// reject anything verifies nothing; these tests are the oracles' oracles.
//
// Also the regression home for the three satellite fixes that shipped
// with the harness: PktReplicationResult::truncated, ValiantRouter
// replicability through run_pkt_sweep, and kShift message-count
// validation in build_pkt_messages.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "audit/oracles.hpp"
#include "audit/reference_pktsim.hpp"
#include "audit/scenario.hpp"
#include "audit/shrink.hpp"
#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "obs/pkt_trace.hpp"
#include "routing/updown.hpp"
#include "routing/verify.hpp"
#include "sim/adaptive.hpp"
#include "sim/flowsim.hpp"
#include "sim/pktsim.hpp"
#include "topo/hyperx.hpp"
#include "workloads/pkt_sweep.hpp"

namespace hxsim {
namespace {

// --- EventQueue (the reference packet engine's core) ---------------------------

using audit::EventQueue;

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesRunInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [&order, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] {
    ++fired;
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, RejectsPastEvents) {
  EventQueue q;
  q.schedule(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, MaxEventsBound) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.schedule(static_cast<double>(i), [] {});
  EXPECT_EQ(q.run(3), 3u);
  EXPECT_EQ(q.pending(), 7u);
}

topo::HyperXParams tiny_hyperx() {
  topo::HyperXParams p;
  p.dims = {2, 2};
  p.terminals_per_switch = 1;
  return p;
}

struct SmallFabric {
  topo::HyperX hx{tiny_hyperx()};
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::RouteResult route =
      routing::UpDownEngine().compute(hx.topo(), lids);
};

std::vector<sim::PktMessage> small_messages(const SmallFabric& f) {
  workloads::PktRoutingArm arm;
  arm.name = "static";
  arm.route = &f.route;
  arm.lids = &f.lids;
  workloads::PktPatternSpec spec;
  spec.pattern = workloads::PktPattern::kShift;
  spec.bytes = 8 * 1024;
  return workloads::build_pkt_messages(f.hx.topo(), arm, spec, 7);
}

// --- satellite regressions -------------------------------------------------

TEST(PktSweepRegression, TruncationSurfacesInReplicationResults) {
  SmallFabric f;
  const std::vector<workloads::PktRoutingArm> arms{
      {"static", &f.route, &f.lids, nullptr}};
  workloads::PktPatternSpec spec;
  spec.pattern = workloads::PktPattern::kUniformRandom;
  spec.messages = 32;
  const std::vector<workloads::PktPatternSpec> patterns{spec};

  workloads::PktSweepOptions opt;
  opt.seeds = 2;
  opt.threads = 1;
  opt.max_events = 10;  // far too few events for 32 messages
  const auto truncated =
      workloads::run_pkt_sweep(f.hx.topo(), arms, patterns, opt);
  ASSERT_FALSE(truncated.empty());
  for (const auto& r : truncated) {
    EXPECT_TRUE(r.truncated);
    EXPECT_FALSE(r.deadlock);
    EXPECT_LT(r.packets_delivered, r.packets_total);
  }

  opt.max_events = SIZE_MAX;
  const auto complete =
      workloads::run_pkt_sweep(f.hx.topo(), arms, patterns, opt);
  for (const auto& r : complete) {
    EXPECT_FALSE(r.truncated);
    EXPECT_FALSE(r.deadlock);
    EXPECT_EQ(r.packets_delivered, r.packets_total);
  }
}

TEST(PktSweepRegression, ValiantArmIsThreadInvariantAcrossSeeds) {
  SmallFabric f;
  const sim::ValiantRouter valiant(f.hx, 11);
  const std::vector<workloads::PktRoutingArm> arms{
      {"valiant", nullptr, nullptr, &valiant}};
  workloads::PktPatternSpec spec;
  spec.pattern = workloads::PktPattern::kUniformRandom;
  spec.messages = 24;
  const std::vector<workloads::PktPatternSpec> patterns{spec};

  workloads::PktSweepOptions opt;
  opt.seeds = 4;
  opt.threads = 1;
  const auto serial = workloads::run_pkt_sweep(f.hx.topo(), arms, patterns, opt);
  opt.threads = 4;
  const auto parallel =
      workloads::run_pkt_sweep(f.hx.topo(), arms, patterns, opt);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].end_time, parallel[i].end_time) << "replication " << i;
    EXPECT_EQ(serial[i].mean_completion, parallel[i].mean_completion);
    EXPECT_EQ(serial[i].events_executed, parallel[i].events_executed);
    EXPECT_EQ(serial[i].truncated, parallel[i].truncated);
    EXPECT_EQ(serial[i].deadlock, parallel[i].deadlock);
  }
}

TEST(PktSweepRegression, ShiftMessageCountIsValidated) {
  SmallFabric f;
  workloads::PktRoutingArm arm{"static", &f.route, &f.lids, nullptr};
  const std::int32_t n = f.hx.topo().num_terminals();

  workloads::PktPatternSpec spec;
  spec.pattern = workloads::PktPattern::kShift;

  spec.messages = workloads::kAutoMessages;
  EXPECT_EQ(workloads::build_pkt_messages(f.hx.topo(), arm, spec, 1).size(),
            static_cast<std::size_t>(n));

  spec.messages = n;  // explicit N is the one honorable explicit value
  EXPECT_EQ(workloads::build_pkt_messages(f.hx.topo(), arm, spec, 1).size(),
            static_cast<std::size_t>(n));

  spec.messages = n - 1;
  EXPECT_THROW(workloads::build_pkt_messages(f.hx.topo(), arm, spec, 1),
               std::invalid_argument);
  spec.messages = 0;
  EXPECT_THROW(workloads::build_pkt_messages(f.hx.topo(), arm, spec, 1),
               std::invalid_argument);

  spec.pattern = workloads::PktPattern::kUniformRandom;
  spec.messages = -7;  // any negative other than the sentinel is rejected
  EXPECT_THROW(workloads::build_pkt_messages(f.hx.topo(), arm, spec, 1),
               std::invalid_argument);
}

// --- scenario generation / repro -------------------------------------------

TEST(Scenario, GenerationIsDeterministicAndValid) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const audit::Scenario a = audit::generate_scenario(seed);
    const audit::Scenario b = audit::generate_scenario(seed);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_NO_THROW(audit::validate_scenario(a)) << "seed " << seed;
  }
  EXPECT_FALSE(audit::generate_scenario(1) == audit::generate_scenario(2));
}

TEST(Scenario, ReproRoundTripsExactly) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const audit::Scenario s = audit::generate_scenario(seed);
    const std::string text = audit::to_repro(s);
    const audit::Scenario parsed = audit::parse_repro(text);
    EXPECT_EQ(s, parsed) << "seed " << seed;
    EXPECT_EQ(text, audit::to_repro(parsed));
  }
}

TEST(Scenario, ParseRejectsMalformedRepros) {
  EXPECT_THROW((void)audit::parse_repro(""), std::invalid_argument);
  EXPECT_THROW((void)audit::parse_repro("not-a-repro v1\nkind hyperx\n"),
               std::invalid_argument);
  const std::string good = audit::to_repro(audit::generate_scenario(3));
  EXPECT_THROW((void)audit::parse_repro(good + "bogus_key 1\n"),
               std::invalid_argument);
}

TEST(Scenario, ParseNamesTheKeyOfAGarbledValue) {
  // Each line once replayed as a value (7, 2^64-1, true) or failed with a
  // bare "stoi"; now every one is an audit-scenario error naming its key.
  const std::string good = audit::to_repro(audit::generate_scenario(3));
  for (const std::string line : {"messages abc", "messages 7junk",
                                 "traffic_seed -1", "keep_connected yes"}) {
    const std::string key = line.substr(0, line.find(' '));
    try {
      (void)audit::parse_repro(good + line + "\n");
      ADD_FAILURE() << "accepted '" << line << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind("audit scenario: ", 0), 0u) << what;
      EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    }
  }
}

TEST(Scenario, BuildsFabricsWithinBounds) {
  const audit::ScenarioBounds bounds;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const audit::Scenario s = audit::generate_scenario(seed, bounds);
    const audit::Fabric f = audit::build_fabric(s);
    EXPECT_LE(f.topo().num_switches(), bounds.max_switches) << "seed " << seed;
    EXPECT_GE(f.topo().num_terminals(), 2) << "seed " << seed;
    EXPECT_TRUE(f.lids.has_value());
    EXPECT_EQ(f.faults.num_stages(), s.faults.stages);
  }
}

TEST(Scenario, EffectiveTrafficKeepsShiftNonzeroModN) {
  audit::Scenario s = audit::generate_scenario(1);
  s.traffic.pattern = workloads::PktPattern::kShift;
  s.traffic.messages = workloads::kAutoMessages;
  for (std::int32_t shift : {1, 2, 3, 7}) {
    s.traffic.shift = shift;
    for (std::int32_t n = 2; n <= 6; ++n) {
      const workloads::PktPatternSpec spec = audit::effective_traffic(s, n);
      EXPECT_GE(spec.shift, 1);
      EXPECT_NE(spec.shift % n, 0) << "shift " << shift << " n " << n;
    }
  }
}

// --- oracle self-tests: each check must fail on corrupted input ------------

TEST(OracleChecks, PktResultsEqualDetectsEveryFieldFlip) {
  SmallFabric f;
  sim::PktSim sim(f.hx.topo());
  const auto msgs = small_messages(f);
  const auto base = sim.run(msgs);
  EXPECT_TRUE(audit::check_pkt_results_equal(base, base).pass);

  auto r = base;
  r.end_time += 1.0;
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  r = base;
  ASSERT_FALSE(r.completion.empty());
  r.completion[0] += 1e-9;
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  r = base;
  r.packets_delivered -= 1;
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  r = base;
  r.truncated = true;
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  r = base;
  r.events_executed += 1;
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  r = base;
  r.packets_dropped += 1;
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  r = base;
  r.dropped_by_cause[0] += 1;
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  r = base;
  r.retries += 1;
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  r = base;
  r.messages_abandoned += 1;
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  r = base;
  r.message_status.push_back(sim::PktMessageStatus::kDelivered);
  EXPECT_FALSE(audit::check_pkt_results_equal(base, r).pass);
  // The deadlock report compares edge by edge.
  auto wedged = base;
  wedged.deadlock_report.blocked.push_back(
      obs::CreditWaitEdge{0, 0, 1, 0, 2, 0});
  wedged.deadlock_report.cycle = wedged.deadlock_report.blocked;
  r = wedged;
  r.deadlock_report.blocked[0].wanted_vl = 1;
  EXPECT_FALSE(audit::check_pkt_results_equal(wedged, r).pass);
  r = wedged;
  r.deadlock_report.cycle[0].held = 3;
  EXPECT_FALSE(audit::check_pkt_results_equal(wedged, r).pass);
}

TEST(OracleChecks, ConservationDetectsCorruptedCounters) {
  SmallFabric f;
  sim::PktSim sim(f.hx.topo());
  const auto msgs = small_messages(f);
  const auto base = sim.run(msgs);
  EXPECT_TRUE(audit::check_pkt_conservation(msgs, base).pass);

  auto r = base;
  r.packets_delivered = r.packets_total + 1;
  EXPECT_FALSE(audit::check_pkt_conservation(msgs, r).pass);
  r = base;
  r.packets_delivered -= 1;  // clean run that "lost" a packet
  EXPECT_FALSE(audit::check_pkt_conservation(msgs, r).pass);
  r = base;
  r.deadlock = true;
  r.truncated = true;
  EXPECT_FALSE(audit::check_pkt_conservation(msgs, r).pass);
  r = base;
  r.completion.pop_back();
  EXPECT_FALSE(audit::check_pkt_conservation(msgs, r).pass);

  // Online accounting: per-cause counters must sum to packets_dropped...
  r = base;
  r.dropped_by_cause[0] += 1;
  EXPECT_FALSE(audit::check_pkt_conservation(msgs, r).pass);
  // ...drops must balance the clean-run conservation equation...
  r = base;
  r.packets_dropped += 1;
  r.dropped_by_cause[0] += 1;
  EXPECT_FALSE(audit::check_pkt_conservation(msgs, r).pass);
  // ...and message_status, when sized, must restate the completions.
  r = base;
  r.message_status.assign(msgs.size(), sim::PktMessageStatus::kDelivered);
  EXPECT_TRUE(audit::check_pkt_conservation(msgs, r).pass);
  r.message_status[0] = sim::PktMessageStatus::kUndelivered;
  EXPECT_FALSE(audit::check_pkt_conservation(msgs, r).pass);
  r.message_status.assign(msgs.size() - 1, sim::PktMessageStatus::kDelivered);
  EXPECT_FALSE(audit::check_pkt_conservation(msgs, r).pass);
}

TEST(OracleChecks, QuiescedEquivalenceDetectsDivergence) {
  SmallFabric f;
  sim::PktSim sim(f.hx.topo());
  const auto msgs = small_messages(f);
  const auto base = sim.run(msgs);
  ASSERT_FALSE(base.deadlock);

  // The healthy shape: identical run, two extra fault events that fired
  // after quiesce and advanced the clock there, statuses restating the
  // completion vector.
  const double fault_time = base.end_time + 1.0;
  auto quiesced = base;
  quiesced.events_executed += 2;
  quiesced.end_time = fault_time;
  quiesced.message_status.assign(msgs.size(),
                                 sim::PktMessageStatus::kDelivered);
  EXPECT_TRUE(audit::check_online_quiesced_equivalent(quiesced, base, 2,
                                                      fault_time)
                  .pass);

  // Wrong event credit, a shifted timestamp, a drop the base never saw,
  // and a status contradicting its completion must each be rejected.
  EXPECT_FALSE(audit::check_online_quiesced_equivalent(quiesced, base, 1,
                                                       fault_time)
                   .pass);
  auto corrupt = quiesced;
  corrupt.end_time += 1e-9;
  EXPECT_FALSE(audit::check_online_quiesced_equivalent(corrupt, base, 2,
                                                       fault_time)
                   .pass);
  corrupt = quiesced;
  corrupt.packets_dropped += 1;
  corrupt.dropped_by_cause[0] += 1;
  EXPECT_FALSE(audit::check_online_quiesced_equivalent(corrupt, base, 2,
                                                       fault_time)
                   .pass);
  corrupt = quiesced;
  corrupt.message_status[0] = sim::PktMessageStatus::kAbandoned;
  EXPECT_FALSE(audit::check_online_quiesced_equivalent(corrupt, base, 2,
                                                       fault_time)
                   .pass);
}

TEST(OracleChecks, BatchEqualityDetectsReplicationDivergence) {
  SmallFabric f;
  sim::PktSim sim(f.hx.topo());
  const auto msgs = small_messages(f);
  const std::vector<std::vector<sim::PktMessage>> replications(2, msgs);
  const auto a = sim.run_batch(replications, 1);
  const auto b = sim.run_batch(replications, 1);
  EXPECT_TRUE(audit::check_pkt_batches_equal(a, b).pass);

  auto corrupt = b;
  corrupt[1].end_time += 1e-9;
  const auto check = audit::check_pkt_batches_equal(a, corrupt);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("replication 1"), std::string::npos);

  corrupt = b;
  corrupt.pop_back();
  EXPECT_FALSE(audit::check_pkt_batches_equal(a, corrupt).pass);
}

TEST(OracleChecks, TraceConsistencyDetectsTamperedCounters) {
  SmallFabric f;
  obs::PktTrace trace;
  sim::PktSimConfig cfg;
  cfg.trace = &trace;
  sim::PktSim sim(f.hx.topo(), cfg);
  const auto r = sim.run(small_messages(f));
  EXPECT_TRUE(audit::check_trace_consistency(f.hx.topo(), cfg, r, trace).pass);

  trace.at(f.hx.topo().terminal_down(0), 0).packets += 1;
  EXPECT_FALSE(
      audit::check_trace_consistency(f.hx.topo(), cfg, r, trace).pass);
  trace.at(f.hx.topo().terminal_down(0), 0).packets -= 1;
  EXPECT_TRUE(audit::check_trace_consistency(f.hx.topo(), cfg, r, trace).pass);

  trace.at(0, 1).credit_stall_s = -0.5;
  EXPECT_FALSE(
      audit::check_trace_consistency(f.hx.topo(), cfg, r, trace).pass);
}

TEST(OracleChecks, ShippedTablesDetectLostPairs) {
  SmallFabric f;
  audit::TableExpectations expect;
  EXPECT_TRUE(
      audit::check_shipped_tables(f.hx.topo(), f.lids, f.route, expect).pass);

  // Cut terminal 3 off from switch 0 and claim nothing is unreachable.
  auto corrupt = f.route;
  corrupt.tables.set(0, f.lids.base_lid(3), topo::kInvalidChannel);
  auto check =
      audit::check_shipped_tables(f.hx.topo(), f.lids, corrupt, expect);
  EXPECT_FALSE(check.pass);

  // Same corruption with an honest unreachable_entries count must still
  // fail the no-lost-pairs contract...
  corrupt.unreachable_entries = 1;
  check = audit::check_shipped_tables(f.hx.topo(), f.lids, corrupt, expect);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("lost"), std::string::npos);

  // ...and pass once the scenario's engine legally loses pairs.
  expect.require_no_lost_pairs = false;
  EXPECT_TRUE(
      audit::check_shipped_tables(f.hx.topo(), f.lids, corrupt, expect).pass);
}

TEST(OracleChecks, ShippedTablesDetectCyclicRoutes) {
  // Hand-built 4-cycle on the 2x2 lattice: each of the four two-hop paths
  // chains into the next around the ring, a textbook credit cycle on VL0.
  SmallFabric f;
  const topo::SwitchId s00 = 0;
  const auto s10 = f.hx.switch_at(std::vector<std::int32_t>{1, 0});
  const auto s01 = f.hx.switch_at(std::vector<std::int32_t>{0, 1});
  const auto s11 = f.hx.switch_at(std::vector<std::int32_t>{1, 1});

  const topo::ChannelId a = f.hx.dim_channel(s00, 0, 1);  // s00 -> s10
  const topo::ChannelId b = f.hx.dim_channel(s10, 1, 1);  // s10 -> s11
  const topo::ChannelId c = f.hx.dim_channel(s11, 0, 0);  // s11 -> s01
  const topo::ChannelId d = f.hx.dim_channel(s01, 1, 0);  // s01 -> s00

  routing::RouteResult ring;
  ring.tables = routing::ForwardingTables(f.hx.topo().num_switches(),
                                          f.lids.max_lid());
  const auto lid = [&](topo::SwitchId sw) {
    // terminals_per_switch == 1: terminal id == switch id.
    return f.lids.base_lid(sw);
  };
  // Four two-hop paths forming the dependency cycle a->b->c->d->a.
  ring.tables.set(s00, lid(s11), a);
  ring.tables.set(s10, lid(s11), b);
  ring.tables.set(s10, lid(s01), b);
  ring.tables.set(s11, lid(s01), c);
  ring.tables.set(s11, lid(s00), c);
  ring.tables.set(s01, lid(s00), d);
  ring.tables.set(s01, lid(s10), d);
  ring.tables.set(s00, lid(s10), a);
  // Direct single-hop routes for the remaining (switch, dlid) pairs.
  ring.tables.set(s00, lid(s01), f.hx.dim_channel(s00, 1, 1));
  ring.tables.set(s10, lid(s00), f.hx.dim_channel(s10, 0, 0));
  ring.tables.set(s01, lid(s11), f.hx.dim_channel(s01, 0, 1));
  ring.tables.set(s11, lid(s10), f.hx.dim_channel(s11, 1, 0));
  // Ejection entries: at the owner switch the LFT points at the terminal.
  for (const topo::SwitchId sw : {s00, s10, s01, s11})
    ring.tables.set(sw, lid(sw), f.hx.topo().terminal_down(sw));

  const routing::CdgReport cdg =
      routing::verify_deadlock_freedom(f.hx.topo(), f.lids, ring);
  EXPECT_FALSE(cdg.acyclic);

  audit::TableExpectations expect;
  const auto check =
      audit::check_shipped_tables(f.hx.topo(), f.lids, ring, expect);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("cycle"), std::string::npos);

  expect.require_acyclic = false;  // an sssp-style scenario tolerates it
  EXPECT_TRUE(
      audit::check_shipped_tables(f.hx.topo(), f.lids, ring, expect).pass);
}

TEST(OracleChecks, VlLayeringDetectsAPathMovedUpALane) {
  // PARX on the 4x4 HyperX spreads its paths over several lanes.  Moving
  // one multi-hop lane-0 path up to the top lane can keep every lane's
  // CDG acyclic, so check_shipped_tables accepts it; it is still not the
  // greedy lowest-lane layering, and check_vl_layering must say so.
  const topo::HyperX hx(topo::small_hyperx_params());
  const topo::Topology& topo = hx.topo();
  const routing::LidSpace lids = core::make_parx_lid_space(hx);
  const routing::RouteResult route = core::ParxEngine(hx).compute(topo, lids);
  ASSERT_GE(route.num_vls_used, 2);
  audit::TableExpectations expect;
  ASSERT_TRUE(audit::check_shipped_tables(topo, lids, route, expect).pass);
  EXPECT_TRUE(audit::check_vl_layering(topo, lids, route, 8).pass);

  const auto top = static_cast<std::int8_t>(route.num_vls_used - 1);
  std::optional<routing::RouteResult> moved;
  for (topo::SwitchId sw = 0; sw < topo.num_switches() && !moved; ++sw) {
    for (const routing::Lid dlid : lids.all_lids()) {
      const topo::SwitchId dest = topo.attach_switch(lids.owner(dlid).node);
      if (sw == dest || route.vls.vl(sw, dlid) != 0) continue;
      const topo::ChannelId first = route.tables.next(sw, dlid);
      if (first == topo::kInvalidChannel ||
          topo.channel(first).dst.index == dest)
        continue;  // not a multi-hop path: it adds no dependency
      routing::RouteResult candidate = route;
      candidate.vls.set(sw, dlid, top);
      if (routing::verify_deadlock_freedom(topo, lids, candidate).acyclic) {
        moved = std::move(candidate);
        break;
      }
    }
  }
  ASSERT_TRUE(moved.has_value());
  EXPECT_TRUE(audit::check_shipped_tables(topo, lids, *moved, expect).pass);
  const audit::OracleResult check =
      audit::check_vl_layering(topo, lids, *moved, 8);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("ships VL"), std::string::npos) << check.detail;

  // A lane count that disagrees with the layering fails too.
  routing::RouteResult recounted = route;
  recounted.num_vls_used += 1;
  EXPECT_FALSE(audit::check_vl_layering(topo, lids, recounted, 8).pass);
}

TEST(OracleChecks, FlowInvariantsDetectCorruptedRates) {
  SmallFabric f;
  const sim::FlowSim fs(f.hx.topo());
  std::vector<sim::Flow> flows(2);
  for (auto& flow : flows) {
    auto path = f.route.tables.path(f.hx.topo(), f.lids, 0,
                                    f.lids.base_lid(3));
    ASSERT_TRUE(path.ok);
    flow.channels = std::move(path.channels);
    flow.bytes = 1 << 20;
  }
  const std::vector<double> rates = fs.fair_rates(flows);
  EXPECT_TRUE(audit::check_flow_invariants(fs, flows, rates).pass);

  auto corrupt = rates;
  corrupt[0] *= 2.0;  // oversubscribes the shared bottleneck
  auto check = audit::check_flow_invariants(fs, flows, corrupt);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("oversubscribed"), std::string::npos);

  corrupt = rates;
  corrupt[0] *= 0.5;
  corrupt[1] *= 0.5;  // feasible but nobody saturates: not max-min
  check = audit::check_flow_invariants(fs, flows, corrupt);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("bottleneck"), std::string::npos);
}

TEST(OracleChecks, FlowEngineIdentityDetectsCorruption) {
  SmallFabric f;
  const sim::FlowSim reference(f.hx.topo(), {},
                               sim::FlowSim::SolverEngine::kReference);
  const sim::FlowSim indexed(f.hx.topo(), {},
                             sim::FlowSim::SolverEngine::kIndexed);
  std::vector<sim::Flow> flows(3);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    auto path = f.route.tables.path(
        f.hx.topo(), f.lids, 0, f.lids.base_lid(static_cast<topo::NodeId>(
                                    1 + static_cast<topo::NodeId>(i))));
    ASSERT_TRUE(path.ok);
    flows[i].channels = std::move(path.channels);
    flows[i].bytes = 1 << 20;
  }
  obs::FlowSolveTrace ref_trace;
  obs::FlowSolveTrace idx_trace;
  const std::vector<double> ref_rates = reference.fair_rates(flows, &ref_trace);
  const std::vector<double> idx_rates = indexed.fair_rates(flows, &idx_trace);
  ASSERT_EQ(ref_trace.solves.size(), 1u);
  ASSERT_EQ(idx_trace.solves.size(), 1u);
  const obs::FlowSolveRecord& ref_rec = ref_trace.solves[0];
  const obs::FlowSolveRecord& idx_rec = idx_trace.solves[0];
  EXPECT_TRUE(audit::check_flowsim_engines_identical(ref_rates, idx_rates,
                                                     ref_rec, idx_rec)
                  .pass);

  // A single-ulp rate nudge must trip the bitwise comparison.
  auto corrupt_rates = idx_rates;
  corrupt_rates[0] = std::nextafter(corrupt_rates[0], 0.0);
  auto check = audit::check_flowsim_engines_identical(ref_rates, corrupt_rates,
                                                      ref_rec, idx_rec);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("rate["), std::string::npos);

  // So must every FlowSolveRecord field.
  obs::FlowSolveRecord corrupt_rec = idx_rec;
  ASSERT_FALSE(corrupt_rec.levels.empty());
  corrupt_rec.levels[0] = std::nextafter(corrupt_rec.levels[0], 0.0);
  check = audit::check_flowsim_engines_identical(ref_rates, idx_rates, ref_rec,
                                                 corrupt_rec);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("levels"), std::string::npos);

  corrupt_rec = idx_rec;
  ASSERT_FALSE(corrupt_rec.freezes_per_level.empty());
  corrupt_rec.freezes_per_level[0] += 1;
  check = audit::check_flowsim_engines_identical(ref_rates, idx_rates, ref_rec,
                                                 corrupt_rec);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("freezes_per_level"), std::string::npos);

  corrupt_rec = idx_rec;
  ASSERT_FALSE(corrupt_rec.saturated.empty());
  corrupt_rec.saturated.push_back(corrupt_rec.saturated.front());
  check = audit::check_flowsim_engines_identical(ref_rates, idx_rates, ref_rec,
                                                 corrupt_rec);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("saturated"), std::string::npos);

  corrupt_rec = idx_rec;
  corrupt_rec.active_flows += 1;
  EXPECT_FALSE(audit::check_flowsim_engines_identical(ref_rates, idx_rates,
                                                      ref_rec, corrupt_rec)
                   .pass);
}

TEST(OracleChecks, FlowLevelsMonotoneDetectsDescent) {
  obs::FlowSolveRecord rec;
  rec.levels = {1.0, 1.0, 2.5};
  rec.freezes_per_level = {1, 1, 1};
  EXPECT_TRUE(audit::check_flow_levels_monotone(rec).pass);

  rec.levels = {1.0, 2.5, 2.0};  // filling level descended: broken order
  auto check = audit::check_flow_levels_monotone(rec);
  EXPECT_FALSE(check.pass);
  EXPECT_NE(check.detail.find("descended"), std::string::npos);

  rec.levels = {1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_FALSE(audit::check_flow_levels_monotone(rec).pass);

  rec.levels = {-1.0};
  EXPECT_FALSE(audit::check_flow_levels_monotone(rec).pass);
}

// --- shrinking -------------------------------------------------------------

TEST(Shrink, CandidatesAreValidAndStrictlySmaller) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const audit::Scenario s = audit::generate_scenario(seed);
    for (const audit::Scenario& c : audit::shrink_candidates(s)) {
      EXPECT_NO_THROW(audit::validate_scenario(c)) << "seed " << seed;
      EXPECT_FALSE(c == s) << "seed " << seed;
    }
  }
}

TEST(Shrink, GreedilyMinimisesUnderSyntheticPredicate) {
  audit::Scenario s = audit::generate_scenario(5);
  s.faults.stages = 3;
  s.faults.links_per_stage = 2;
  audit::validate_scenario(s);

  // "Bug" reproduces whenever at least one fault stage remains.
  const auto outcome = audit::shrink(
      s, [](const audit::Scenario& c) { return c.faults.stages >= 1; });
  EXPECT_EQ(outcome.scenario.faults.stages, 1);
  EXPECT_GT(outcome.steps, 0);
  EXPECT_NO_THROW(audit::validate_scenario(outcome.scenario));
  EXPECT_NO_THROW((void)audit::build_fabric(outcome.scenario));
}

TEST(Shrink, RespectsAttemptBudget) {
  const audit::Scenario s = audit::generate_scenario(6);
  const auto outcome = audit::shrink(
      s, [](const audit::Scenario&) { return true; }, /*max_attempts=*/3);
  EXPECT_LE(outcome.attempts, 3);
}

// --- end-to-end ------------------------------------------------------------

TEST(Audit, AllOraclesPassOnHealthySeeds) {
  // A slice of the CI smoke sweep: every oracle over a few generated
  // scenarios must pass on the shipped (healthy) pipelines.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const audit::ScenarioVerdict v =
        audit::run_all_oracles(audit::generate_scenario(seed));
    EXPECT_TRUE(v.pass) << "seed " << seed << " oracle " << v.oracle << ": "
                        << v.detail;
    EXPECT_EQ(v.oracles_run,
              static_cast<std::int32_t>(audit::all_oracles().size()));
  }
}

TEST(Audit, RunAuditReportsCleanSweep) {
  audit::AuditOptions opt;
  opt.first_seed = 1;
  opt.num_seeds = 2;
  opt.repro_path.clear();  // no file on failure; this sweep must pass
  const audit::AuditOutcome outcome = audit::run_audit(opt);
  EXPECT_FALSE(outcome.failed) << outcome.oracle << ": " << outcome.detail;
  EXPECT_EQ(outcome.scenarios, 2);
  EXPECT_EQ(outcome.oracle_runs,
            2 * static_cast<std::int64_t>(audit::all_oracles().size()));
}

}  // namespace
}  // namespace hxsim
