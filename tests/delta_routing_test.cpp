// Incremental delta-SPF rerouting: the DeltaRouter's contract is that the
// patched tables after every fault stage are *bit-identical* to what the
// wrapped engine's compute() returns on the degraded fabric, at any thread
// count, and that the revert path (re-enabled channels) falls back to a
// full recompute that reproduces the intact tables.  This matrix checks
// all five engines (the four general ones plus PARX) on both small paper
// planes through a multi-stage schedule of cable and whole-switch faults.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "routing/delta.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "routing/sssp.hpp"
#include "routing/updown.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"

namespace hxsim {
namespace {

enum class Fabric : std::int8_t { kFatTree, kHyperX };
enum class Engine : std::int8_t { kFtree, kUpDown, kSssp, kDfsssp, kParx };

struct Case {
  Fabric fabric;
  Engine engine;
  std::int32_t threads;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string name =
      info.param.fabric == Fabric::kFatTree ? "FatTree" : "HyperX";
  switch (info.param.engine) {
    case Engine::kFtree:
      name += "Ftree";
      break;
    case Engine::kUpDown:
      name += "UpDown";
      break;
    case Engine::kSssp:
      name += "Sssp";
      break;
    case Engine::kDfsssp:
      name += "Dfsssp";
      break;
    case Engine::kParx:
      name += "Parx";
      break;
  }
  return name + "Threads" + std::to_string(info.param.threads);
}

topo::FatTreeParams small_tree_params() {
  topo::FatTreeParams p;
  p.arity = 6;
  p.levels = 3;
  p.leaf_terminals = 4;
  p.populated_leaves = 24;  // 96 nodes
  p.name = "fat-tree-6ary3-small";
  return p;
}

topo::HyperXParams small_hyperx_params() {
  topo::HyperXParams p;
  p.dims = {6, 4};
  p.terminals_per_switch = 4;  // 96 nodes
  p.name = "hyperx-6x4-small";
  return p;
}

class DeltaRoutingTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Case& c = GetParam();
    if (c.fabric == Fabric::kFatTree) {
      tree_ = std::make_unique<topo::FatTree>(small_tree_params());
      topo_ = &tree_->topo();
    } else {
      hx_ = std::make_unique<topo::HyperX>(small_hyperx_params());
      topo_ = &hx_->topo();
    }
    switch (c.engine) {
      case Engine::kFtree:
        engine_ = std::make_unique<routing::FtreeEngine>(*tree_, c.threads);
        break;
      case Engine::kUpDown:
        engine_ = std::make_unique<routing::UpDownEngine>(-1, c.threads);
        break;
      case Engine::kSssp:
        engine_ = std::make_unique<routing::SsspEngine>(c.threads);
        break;
      case Engine::kDfsssp:
        engine_ = std::make_unique<routing::DfssspEngine>(8, c.threads);
        break;
      case Engine::kParx:
        engine_ = std::make_unique<core::ParxEngine>(*hx_);
        break;
    }
    lids_ = c.engine == Engine::kParx
                ? core::make_parx_lid_space(*hx_)
                : routing::LidSpace::consecutive(topo_->num_terminals(), 0);
  }

  std::unique_ptr<topo::FatTree> tree_;
  std::unique_ptr<topo::HyperX> hx_;
  topo::Topology* topo_ = nullptr;
  std::unique_ptr<routing::RoutingEngine> engine_;
  routing::LidSpace lids_{routing::LidSpace::consecutive(1, 0)};
};

TEST_P(DeltaRoutingTest, BitIdenticalAcrossFaultStagesAndRevert) {
  topo::Topology& topo = *topo_;

  topo::FaultSchedule::Options opt;
  opt.stages = 3;
  opt.links_per_stage = 2;
  opt.switches_per_stage = 1;  // exercises rank changes / isolated switches
  opt.seed = 7;
  const topo::FaultSchedule schedule = topo::FaultSchedule::plan(topo, opt);
  ASSERT_EQ(schedule.num_stages(), opt.stages);

  routing::DeltaRouter router(*engine_);
  EXPECT_TRUE(router.incremental());  // all five engines are DeltaCapable

  const routing::RouteResult intact = router.reroute_full(topo, lids_);
  EXPECT_EQ(intact, engine_->compute(topo, lids_));

  std::vector<topo::ChannelId> all_disabled;
  for (std::int32_t stage = 0; stage < schedule.num_stages(); ++stage) {
    topo::FaultReport report = schedule.apply_stage(topo, stage);
    ASSERT_FALSE(report.disabled_channels.empty());
    all_disabled.insert(all_disabled.end(), report.disabled_channels.begin(),
                        report.disabled_channels.end());

    routing::DeltaUpdate update;
    update.disabled = std::move(report.disabled_channels);
    routing::DeltaStats stats;
    const routing::RouteResult& delta =
        router.reroute(topo, lids_, update, &stats);

    // The contract under test: patched tables == a from-scratch compute on
    // the degraded fabric, for every engine, stage, and thread count.
    EXPECT_EQ(delta, engine_->compute(topo, lids_))
        << "stage " << stage << " delta tables diverge";
    EXPECT_EQ(stats.columns_total,
              static_cast<std::int64_t>(lids_.all_lids().size()));
    EXPECT_LE(stats.columns_changed, stats.columns_recomputed);
    if (!stats.full_recompute) {
      EXPECT_EQ(stats.dirty_lids.size(),
                static_cast<std::size_t>(stats.columns_changed));
    }
  }

  // Revert: re-enabling channels is not coverable by membership tracking,
  // so the update must fall back to a full recompute -- and reproduce the
  // intact tables exactly.
  schedule.revert(topo);
  routing::DeltaUpdate revert_update;
  revert_update.enabled = std::move(all_disabled);
  routing::DeltaStats stats;
  const routing::RouteResult& restored =
      router.reroute(topo, lids_, revert_update, &stats);
  EXPECT_TRUE(stats.full_recompute);
  EXPECT_EQ(restored, intact);
}

TEST_P(DeltaRoutingTest, VerifyModePassesOnCleanUpdates) {
  // HXSIM_VERIFY_DELTA is read once per router; with it set, every
  // incremental update self-checks against a full recompute and throws on
  // divergence -- so simply completing a faulted update is the assertion.
  ::setenv("HXSIM_VERIFY_DELTA", "1", 1);
  routing::DeltaRouter router(*engine_);
  ::unsetenv("HXSIM_VERIFY_DELTA");
  ASSERT_TRUE(router.verifying());

  topo::Topology& topo = *topo_;
  topo::FaultSchedule::Options opt;
  opt.stages = 1;
  opt.links_per_stage = 2;
  opt.seed = 11;
  const topo::FaultSchedule schedule = topo::FaultSchedule::plan(topo, opt);

  router.reroute_full(topo, lids_);
  topo::FaultReport report = schedule.apply_stage(topo, 0);
  routing::DeltaUpdate update;
  update.disabled = std::move(report.disabled_channels);
  EXPECT_NO_THROW(router.reroute(topo, lids_, update, nullptr));
  schedule.revert(topo);
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const std::int32_t threads : {1, 4}) {
    for (const Engine e : {Engine::kFtree, Engine::kUpDown, Engine::kSssp,
                           Engine::kDfsssp})
      cases.push_back({Fabric::kFatTree, e, threads});
    for (const Engine e : {Engine::kUpDown, Engine::kSssp, Engine::kDfsssp,
                           Engine::kParx})
      cases.push_back({Fabric::kHyperX, e, threads});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, DeltaRoutingTest,
                         ::testing::ValuesIn(all_cases()), case_name);

}  // namespace
}  // namespace hxsim
