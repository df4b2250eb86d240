// Resilience subsystem tests: fault schedules (determinism, staging,
// revert, legacy compatibility), post-routing verification, and the
// campaign driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "exec/exec.hpp"
#include "routing/dfsssp.hpp"
#include "routing/updown.hpp"
#include "routing/verify.hpp"
#include "sim/flowsim.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"
#include "workloads/resilience.hpp"

namespace hxsim {
namespace {

using topo::FaultKind;
using topo::FaultSchedule;

topo::HyperXParams test_params() {
  topo::HyperXParams p;
  p.dims = {4, 4};
  p.terminals_per_switch = 2;
  p.name = "hyperx-4x4-resilience";
  return p;
}

std::vector<char> enabled_mask(const topo::Topology& topo) {
  std::vector<char> mask(static_cast<std::size_t>(topo.num_channels()));
  for (topo::ChannelId ch = 0; ch < topo.num_channels(); ++ch)
    mask[static_cast<std::size_t>(ch)] = topo.channel(ch).enabled ? 1 : 0;
  return mask;
}

TEST(FaultSchedule, DeterministicAcrossSeedAndThreadCount) {
  topo::HyperX hx(test_params());
  FaultSchedule::Options opt;
  opt.stages = 3;
  opt.links_per_stage = 2;
  opt.switches_per_stage = 1;
  opt.seed = 99;

  exec::set_default_threads(1);
  const FaultSchedule a = FaultSchedule::plan(hx.topo(), opt);
  exec::set_default_threads(4);
  const FaultSchedule b = FaultSchedule::plan(hx.topo(), opt);
  exec::set_default_threads(0);

  ASSERT_EQ(a.num_stages(), b.num_stages());
  for (std::int32_t s = 0; s < a.num_stages(); ++s)
    EXPECT_EQ(a.stage(s), b.stage(s)) << "stage " << s;

  // A different seed must produce a different plan (overwhelmingly likely
  // on 48 cables).
  opt.seed = 100;
  const FaultSchedule c = FaultSchedule::plan(hx.topo(), opt);
  bool any_diff = false;
  for (std::int32_t s = 0; s < a.num_stages() && !any_diff; ++s)
    any_diff = !(a.stage(s) == c.stage(s));
  EXPECT_TRUE(any_diff);
}

TEST(FaultSchedule, OneStageLinkPlanMatchesLegacyInjector) {
  topo::HyperX legacy(test_params());
  const topo::FaultReport legacy_report =
      topo::inject_link_faults(legacy.topo(), 5, 1003);

  topo::HyperX planned(test_params());
  FaultSchedule::Options opt;
  opt.links_per_stage = 5;
  opt.seed = 1003;
  const FaultSchedule schedule = FaultSchedule::plan(planned.topo(), opt);
  const topo::FaultReport report = schedule.apply_all(planned.topo());

  EXPECT_EQ(report.disabled_links, legacy_report.disabled_links);
  EXPECT_EQ(enabled_mask(planned.topo()), enabled_mask(legacy.topo()));
}

TEST(FaultSchedule, StagesNestAndRevertRestores) {
  topo::HyperX hx(test_params());
  const std::vector<char> pristine = enabled_mask(hx.topo());
  FaultSchedule::Options opt;
  opt.stages = 3;
  opt.links_per_stage = 2;
  opt.switches_per_stage = 1;
  opt.seed = 7;
  const FaultSchedule schedule = FaultSchedule::plan(hx.topo(), opt);
  ASSERT_EQ(schedule.num_stages(), 3);

  // apply_through == sequential apply_stage calls.
  topo::HyperX seq(test_params());
  std::int64_t seq_disabled = 0;
  for (std::int32_t s = 0; s < schedule.num_stages(); ++s)
    seq_disabled += static_cast<std::int64_t>(
        schedule.apply_stage(seq.topo(), s).disabled_links.size());
  const topo::FaultReport through =
      schedule.apply_through(hx.topo(), schedule.num_stages() - 1);
  EXPECT_EQ(static_cast<std::int64_t>(through.disabled_links.size()),
            seq_disabled);
  EXPECT_EQ(enabled_mask(hx.topo()), enabled_mask(seq.topo()));
  EXPECT_EQ(schedule.total_cables(), seq_disabled);

  schedule.revert(hx.topo());
  EXPECT_EQ(enabled_mask(hx.topo()), pristine);
}

TEST(FaultSchedule, SwitchFaultIsolatesVictimButKeepsSurvivorsConnected) {
  topo::HyperX hx(test_params());
  FaultSchedule::Options opt;
  opt.switches_per_stage = 1;
  opt.seed = 3;
  const FaultSchedule schedule = FaultSchedule::plan(hx.topo(), opt);
  ASSERT_EQ(schedule.num_stages(), 1);
  const auto& events = schedule.stage(0).events;
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].kind, FaultKind::kSwitch);
  const topo::SwitchId victim = events[0].victim;

  schedule.apply_all(hx.topo());
  // Every inter-switch channel of the victim is down; its terminals stay
  // cabled (they become footnote 7's lost LIDs, not detached hardware).
  for (const topo::ChannelId ch : hx.topo().switch_out(victim)) {
    const auto& c = hx.topo().channel(ch);
    if (c.dst.is_switch())
      EXPECT_FALSE(c.enabled);
    else
      EXPECT_TRUE(c.enabled);
  }
  EXPECT_TRUE(hx.topo().switch_neighbors(victim).empty());

  // The survivors must remain mutually connected (planner guarantee).
  std::vector<char> alive(static_cast<std::size_t>(hx.topo().num_switches()),
                          1);
  alive[static_cast<std::size_t>(victim)] = 0;
  EXPECT_TRUE(hx.topo().switches_connected(alive));
  EXPECT_FALSE(hx.topo().switches_connected());
}

TEST(FaultSchedule, HyperXPlaneFaultCutsOneDimension) {
  topo::HyperX hx(test_params());
  const topo::FaultEvent plane = topo::hyperx_plane_fault(hx, 0, 0);
  EXPECT_EQ(plane.kind, FaultKind::kPlane);
  EXPECT_EQ(plane.victim, 0 * topo::kPlaneVictimStride + 0);
  // 4 switches have coord 0 in dim 0; each has 3 dim-0 cables, all distinct
  // (the row peers have coord != 0).
  EXPECT_EQ(plane.cables.size(), 12u);

  FaultSchedule schedule;
  topo::FaultStage stage;
  stage.events.push_back(plane);
  schedule.append_stage(stage);
  schedule.apply_all(hx.topo());

  for (topo::SwitchId sw = 0; sw < hx.topo().num_switches(); ++sw) {
    if (hx.coord(sw, 0) != 0) continue;
    for (std::int32_t v = 0; v < hx.dim_size(0); ++v) {
      const topo::ChannelId ch = hx.dim_channel(sw, 0, v);
      if (ch == topo::kInvalidChannel) continue;
      EXPECT_FALSE(hx.topo().channel(ch).enabled);
    }
    // Dimension 1 still works: the column stays internally connected.
    bool dim1_alive = false;
    for (std::int32_t v = 0; v < hx.dim_size(1); ++v) {
      const topo::ChannelId ch = hx.dim_channel(sw, 1, v);
      if (ch != topo::kInvalidChannel && hx.topo().channel(ch).enabled)
        dim1_alive = true;
    }
    EXPECT_TRUE(dim1_alive);
  }

  // In 2-D, dimension 0 is the column's only route to other columns, so the
  // plane fault isolates it: the fabric splits into the column island and
  // the rest, and the column's terminals become footnote-7 lost LIDs.  Each
  // part stays internally connected.
  EXPECT_FALSE(hx.topo().switches_connected());
  std::vector<char> rest(static_cast<std::size_t>(hx.topo().num_switches()));
  std::vector<char> column(rest.size());
  for (topo::SwitchId sw = 0; sw < hx.topo().num_switches(); ++sw) {
    const bool in_column = hx.coord(sw, 0) == 0;
    column[static_cast<std::size_t>(sw)] = in_column ? 1 : 0;
    rest[static_cast<std::size_t>(sw)] = in_column ? 0 : 1;
  }
  EXPECT_TRUE(hx.topo().switches_connected(rest));
  EXPECT_TRUE(hx.topo().switches_connected(column));
}

TEST(RoutingVerify, IntactFabricFullyReachableAndAcyclic) {
  topo::HyperX hx(test_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  const routing::RerouteOutcome out =
      routing::reroute_and_verify(engine, hx.topo(), lids);
  const std::int64_t n = hx.topo().num_terminals();
  EXPECT_EQ(out.census.pairs, n * (n - 1));
  EXPECT_EQ(out.census.lost_pairs, 0);
  EXPECT_DOUBLE_EQ(out.census.reachability(), 1.0);
  EXPECT_TRUE(out.cdg.acyclic);
  EXPECT_EQ(out.cdg.first_cyclic_vl, -1);
}

TEST(RoutingVerify, DfssspStaysDeadlockFreeOnDegradedFabric) {
  topo::HyperX hx(test_params());
  topo::inject_link_faults(hx.topo(), 8, 21);
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  const routing::RerouteOutcome out =
      routing::reroute_and_verify(engine, hx.topo(), lids);
  EXPECT_TRUE(out.cdg.acyclic);
  // keep_connected held, so every pair still routes (longer paths allowed).
  EXPECT_DOUBLE_EQ(out.census.reachability(), 1.0);
  EXPECT_GE(out.census.max_switch_hops, 2);
}

TEST(RoutingVerify, CensusIsThreadCountInvariant) {
  topo::HyperX hx(test_params());
  topo::inject_link_faults(hx.topo(), 6, 5);
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::UpDownEngine engine;
  const auto route = engine.compute(hx.topo(), lids);
  const auto one = routing::route_census(hx.topo(), lids, route.tables, 1);
  const auto four = routing::route_census(hx.topo(), lids, route.tables, 4);
  EXPECT_EQ(one.routable_pairs, four.routable_pairs);
  EXPECT_EQ(one.lost_pairs, four.lost_pairs);
  EXPECT_EQ(one.total_switch_hops, four.total_switch_hops);
  EXPECT_EQ(one.max_switch_hops, four.max_switch_hops);
}

TEST(FlowSimGuard, RejectsFlowOverDisabledChannel) {
  topo::HyperX hx(test_params());
  // Find an enabled inter-switch cable and route one flow over it.
  topo::ChannelId cable = topo::kInvalidChannel;
  for (topo::ChannelId ch = 0; ch < hx.topo().num_channels(); ++ch) {
    if (hx.topo().is_switch_channel(ch) && hx.topo().channel(ch).enabled) {
      cable = ch;
      break;
    }
  }
  ASSERT_NE(cable, topo::kInvalidChannel);
  const std::vector<sim::Flow> flows = {sim::Flow{{cable}, 1}};
  sim::FlowSim sim(hx.topo());
  EXPECT_NO_THROW((void)sim.fair_rates(flows));
  hx.topo().disable_link(cable);
  EXPECT_THROW((void)sim.fair_rates(flows), std::invalid_argument);
}

TEST(ResilienceCampaign, RetentionMonotoneAndFabricRestored) {
  topo::HyperX hx(test_params());
  const std::vector<char> pristine = enabled_mask(hx.topo());

  routing::UpDownEngine updown;
  routing::DfssspEngine dfsssp(8);
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  std::vector<workloads::ResilienceEngine> engines;
  engines.push_back({"updown", &updown, lids});
  engines.push_back({"dfsssp", &dfsssp, lids});

  workloads::ResilienceOptions opt;
  opt.schedule.stages = 2;
  opt.schedule.links_per_stage = 3;
  opt.schedule.seed = 11;
  opt.traffic_samples = 2;
  opt.threads = 2;

  const obs::DegradationSeries series = workloads::run_resilience_campaign(
      hx.topo(), "hyperx-4x4", engines, opt);

  // stages + intact baseline, per engine.
  EXPECT_EQ(series.samples().size(), 3u * engines.size());
  EXPECT_EQ(series.first_retention_rise(), nullptr);
  EXPECT_EQ(series.first_cyclic("dfsssp"), nullptr);
  for (const auto& s : series.samples()) {
    EXPECT_FALSE(s.engine_failed);
    if (s.stage == 0) {
      EXPECT_DOUBLE_EQ(s.retention, 1.0);
      EXPECT_DOUBLE_EQ(s.reachability, 1.0);
      EXPECT_EQ(s.cables_failed, 0);
    } else {
      EXPECT_GT(s.cables_failed, 0);
      EXPECT_LE(s.retention, 1.0);
    }
  }
  // The campaign reverts its own damage.
  EXPECT_EQ(enabled_mask(hx.topo()), pristine);
}

TEST(ResilienceCampaign, SeriesIdenticalAtAnyThreadCount) {
  auto run = [](std::int32_t threads) {
    topo::HyperX hx(test_params());
    routing::DfssspEngine dfsssp(8);
    const auto lids =
        routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
    std::vector<workloads::ResilienceEngine> engines;
    engines.push_back({"dfsssp", &dfsssp, lids});
    workloads::ResilienceOptions opt;
    opt.schedule.stages = 2;
    opt.schedule.links_per_stage = 2;
    opt.schedule.switches_per_stage = 1;
    opt.schedule.seed = 17;
    opt.traffic_samples = 2;
    opt.threads = threads;
    return workloads::run_resilience_campaign(hx.topo(), "hx", engines, opt);
  };
  const auto one = run(1);
  const auto four = run(4);
  ASSERT_EQ(one.samples().size(), four.samples().size());
  for (std::size_t i = 0; i < one.samples().size(); ++i) {
    const auto& a = one.samples()[i];
    const auto& b = four.samples()[i];
    EXPECT_EQ(a.cables_failed, b.cables_failed);
    EXPECT_EQ(a.lost_pairs, b.lost_pairs);
    EXPECT_DOUBLE_EQ(a.reachability, b.reachability);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_DOUBLE_EQ(a.retention, b.retention);
  }
}

}  // namespace
}  // namespace hxsim
