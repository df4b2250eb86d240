// Tests for the observability layer: phase timing accumulation,
// packet-counter bookkeeping, flow-solver trace export, and credit-wait
// cycle extraction on hand-built wait graphs.
#include <gtest/gtest.h>

#include "obs/deadlock.hpp"
#include "obs/flow_trace.hpp"
#include "obs/phase_clock.hpp"
#include "obs/pkt_trace.hpp"
#include "report/result.hpp"
#include "topo/topology.hpp"

namespace hxsim::obs {
namespace {

// --- PhaseTimings --------------------------------------------------------------

TEST(PhaseTimings, AccumulatesPerPhaseInInsertionOrder) {
  PhaseTimings t;
  t.add("spf", 1.0);
  t.add("merge", 0.5);
  t.add("spf", 2.0);
  ASSERT_EQ(t.entries().size(), 2u);
  EXPECT_EQ(t.entries()[0].first, "spf");
  EXPECT_DOUBLE_EQ(t.entries()[0].second, 3.0);
  EXPECT_EQ(t.entries()[1].first, "merge");
  EXPECT_DOUBLE_EQ(t.total(), 3.5);
  t.clear();
  EXPECT_TRUE(t.entries().empty());
}

// --- PktTrace ------------------------------------------------------------------

TEST(PktTrace, StallWindowsOpenCloseAndFinalize) {
  PktTrace trace;
  trace.reset(2, 2);
  trace.on_blocked(0, 0, true, 1.0);
  trace.on_blocked(0, 0, true, 2.0);   // same-state: no-op
  trace.on_blocked(0, 0, false, 3.5);  // closes: 2.5 s
  trace.on_blocked(1, 1, true, 4.0);   // left open
  trace.finalize(10.0);
  EXPECT_DOUBLE_EQ(trace.at(0, 0).credit_stall_s, 2.5);
  EXPECT_DOUBLE_EQ(trace.at(1, 1).credit_stall_s, 6.0);
  EXPECT_DOUBLE_EQ(trace.at(0, 1).credit_stall_s, 0.0);
}

TEST(PktTrace, QueueDepthIntegralAndPeak) {
  PktTrace trace;
  trace.reset(1, 1);
  trace.on_queue_depth(0, 0, 2, 1.0);  // depth 0 for [0,1): contributes 0
  trace.on_queue_depth(0, 0, 1, 3.0);  // depth 2 for [1,3): contributes 4
  trace.finalize(5.0);                 // depth 1 for [3,5): contributes 2
  EXPECT_DOUBLE_EQ(trace.at(0, 0).queue_depth_time, 6.0);
  EXPECT_EQ(trace.at(0, 0).peak_queue, 2);
}

TEST(PktTrace, CrossAndVlSums) {
  topo::Topology t("pair");
  const topo::SwitchId a = t.add_switch();
  const topo::SwitchId b = t.add_switch();
  const auto [ab, ba] = t.connect(a, b);
  const topo::NodeId n = t.add_terminal(a);
  (void)n;

  PktTrace trace;
  trace.reset(t.num_channels(), 2);
  trace.on_cross(ab, 0, 100);
  trace.on_cross(ab, 0, 100);
  trace.on_cross(ab, 1, 50);
  trace.on_arb_skip(ab, 1);
  EXPECT_EQ(trace.channel_packets(ab), 3);
  EXPECT_EQ(trace.at(ab, 0).bytes, 200);
  EXPECT_EQ(trace.at(ab, 1).packets, 1);
  EXPECT_EQ(trace.at(ab, 1).arb_skips, 1);
  EXPECT_EQ(trace.channel_packets(ba), 0);
}

// --- FlowSolveTrace ------------------------------------------------------------

TEST(FlowSolveTrace, PublishSummarisesSolves) {
  FlowSolveTrace trace;
  FlowSolveRecord& r = trace.solves.emplace_back();
  r.active_flows = 3;
  r.levels = {1.0, 2.0};
  r.freezes_per_level = {2, 1};
  r.saturated = {5};
  report::ResultSet rs;
  trace.publish(rs);
  ASSERT_EQ(rs.tables.size(), 1u);
  const report::ResultTable& table = rs.tables.front();
  EXPECT_EQ(table.id, "flow_solves");
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][1], "3");  // active_flows
  EXPECT_EQ(table.rows[0][3], "3");  // flows frozen in total
  EXPECT_EQ(table.rows[0][6], "2");  // last level
  ASSERT_NE(rs.find("flow_solver_levels"), nullptr);
  EXPECT_DOUBLE_EQ(*rs.find("flow_solver_levels"), 2.0);
}

// --- deadlock post-mortem ------------------------------------------------------

CreditWaitEdge edge(std::int32_t pkt, topo::ChannelId held,
                    topo::ChannelId wanted, std::int8_t held_vl = 0,
                    std::int8_t wanted_vl = 0) {
  CreditWaitEdge e;
  e.packet = pkt;
  e.message = pkt;
  e.held = held;
  e.held_vl = held_vl;
  e.wanted = wanted;
  e.wanted_vl = wanted_vl;
  return e;
}

TEST(DeadlockReport, ExtractsTheThreeEdgeCycle) {
  // 0 -> 1 -> 2 -> 0 over (channel, VL0) resources.
  const auto report = build_deadlock_report(
      {edge(0, 0, 1), edge(1, 1, 2), edge(2, 2, 0)}, 1);
  ASSERT_TRUE(report.has_cycle());
  ASSERT_EQ(report.cycle.size(), 3u);
  for (std::size_t i = 0; i < report.cycle.size(); ++i) {
    const auto& cur = report.cycle[i];
    const auto& next = report.cycle[(i + 1) % report.cycle.size()];
    EXPECT_EQ(cur.wanted, next.held);
    EXPECT_EQ(cur.wanted_vl, next.held_vl);
  }
  EXPECT_NE(report.to_string().find("circular credit wait"),
            std::string::npos);
  EXPECT_NE(report.to_string().find("waits for credit on"),
            std::string::npos);
}

TEST(DeadlockReport, ChainWithoutCycleReportsNone) {
  const auto report =
      build_deadlock_report({edge(0, 0, 1), edge(1, 1, 2)}, 1);
  EXPECT_FALSE(report.has_cycle());
  EXPECT_EQ(report.blocked.size(), 2u);
}

TEST(DeadlockReport, InjectionQueuePacketsCannotFormCycles) {
  // A packet that never left its injection queue holds no buffer; only the
  // genuine 1 <-> 2 pair is circular.
  const auto report = build_deadlock_report(
      {edge(0, topo::kInvalidChannel, 1), edge(1, 1, 2), edge(2, 2, 1)}, 1);
  ASSERT_TRUE(report.has_cycle());
  EXPECT_EQ(report.cycle.size(), 2u);
  for (const auto& e : report.cycle) EXPECT_NE(e.held, topo::kInvalidChannel);
}

TEST(DeadlockReport, DistinguishesVlsOfTheSameChannel) {
  // Same channel ids, different VLs: (0,VL0) -> (0,VL1) -> (0,VL0).
  const auto report = build_deadlock_report(
      {edge(0, 0, 0, 0, 1), edge(1, 0, 0, 1, 0)}, 2);
  ASSERT_TRUE(report.has_cycle());
  EXPECT_EQ(report.cycle.size(), 2u);
  // But a wait from (0,VL0) to (1,VL0) with nobody holding (1,VL0): none.
  const auto no_cycle = build_deadlock_report({edge(0, 0, 1, 0, 0)}, 2);
  EXPECT_FALSE(no_cycle.has_cycle());
}

}  // namespace
}  // namespace hxsim::obs
