// Repo-level experiment: the incremental-reroute contract.
//
// A seeded cable-attrition schedule runs on both paper planes -- every
// fat-tree engine (ftree, Up*/Down*, SSSP, DFSSSP) and every HyperX engine
// (Up*/Down*, SSSP, DFSSSP, PARX), the HyperX schedule ending with a
// dimension-plane fault as the bulk-damage extreme.  Every stage is
// rerouted twice, both timed: from scratch (engine.compute on the degraded
// fabric) and through routing::DeltaRouter, which recomputes only the
// destination trees whose previous SPF tree used a channel the stage
// disabled.  The schedule models the operational attrition cadence the
// incremental path exists for -- a few cables at a time, the way the
// paper's fabric accumulated its 197 cable faults -- because a
// whole-switch stage at paper scale dirties every tree (the resilience
// campaign covers that regime through the same DeltaRouter).
//
// Two fractions per stage: the dirty fraction (LFT columns changed /
// total) is the machine- and strategy-independent measure of how much
// routing state a stage touched; the recompute fraction (Dijkstras re-run
// / total) is the work the engine's delta strategy spent.  The "dirty"
// table aggregates them over the cable-attrition stages; the long-form
// "phases" table holds every stage's wall times and fractions.
//
// Checks: the delta tables must be bit-identical to the full recompute at
// every stage, and each engine's aggregate dirty fraction must stay below
// 1.0 (incrementality saved work); either failure throws, naming the
// fabric, engine and stage.  An engine refusing a degraded fabric (PARX
// out of VLs) is not a delta-layer defect: the stage is recorded as failed
// and the router invalidated.  Under HXSIM_VERIFY_DELTA=1 the DeltaRouter
// additionally self-checks every incremental update against a full
// recompute; delta timings then include that shadow compute.
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parx.hpp"
#include "experiments/experiments.hpp"
#include "routing/delta.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "routing/sssp.hpp"
#include "routing/updown.hpp"
#include "stats/units.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::bench {

namespace {

struct Arm {
  const char* key;    // metric prefix
  const char* label;  // "dirty" table row
  topo::Topology& topo;
  routing::RoutingEngine& engine;
  routing::LidSpace lids;
  /// Stages appended after the cable-attrition schedule (not aggregated).
  std::span<const topo::FaultStage> extra;
};

struct ArmResult {
  double dirty = 1.0;      // aggregate changed-tree fraction (attrition)
  double recompute = 1.0;  // aggregate Dijkstra fraction (attrition)
};

/// Runs one arm's schedule stage by stage, records every stage and the
/// cable-attrition aggregate in `phase_table` under `tag`, and reverts the
/// fabric.
ArmResult run_arm(const Arm& arm, const std::string& tag,
                  const topo::FaultSchedule::Options& opt,
                  report::ResultTable& phase_table) {
  topo::FaultSchedule schedule = topo::FaultSchedule::plan(arm.topo, opt);
  const std::int32_t attrition_stages = schedule.num_stages();
  for (const topo::FaultStage& stage : arm.extra)
    schedule.append_stage(stage);
  routing::DeltaRouter router(arm.engine);
  std::int64_t changed = 0;
  std::int64_t recomputed = 0;
  std::int64_t total = 0;
  double full_ms_sum = 0.0;
  double delta_ms_sum = 0.0;

  for (std::int32_t stage = 0; stage <= schedule.num_stages(); ++stage) {
    routing::DeltaUpdate update;
    if (stage > 0) {
      topo::FaultReport report = schedule.apply_stage(arm.topo, stage - 1);
      update.disabled = std::move(report.disabled_channels);
    }
    const std::string phase = tag + "/stage" + std::to_string(stage);
    PhaseClock clock;
    std::optional<routing::RouteResult> full;
    try {
      full = arm.engine.compute(arm.topo, arm.lids);
    } catch (const std::exception&) {
      // The engine refuses this degraded fabric; the delta path would too.
      router.invalidate();
      add_phase(phase_table, phase + "/failed",
                {{"stage", static_cast<double>(stage)}});
      continue;
    }
    const double full_ms = clock.lap() * 1e3;
    routing::DeltaStats stats;
    const routing::RouteResult& delta =
        stage == 0 ? router.reroute_full(arm.topo, arm.lids)
                   : router.reroute(arm.topo, arm.lids, update, &stats);
    const double delta_ms = clock.lap() * 1e3;
    if (!(delta == *full))
      throw std::runtime_error(
          phase + ": delta tables diverge from the full recompute");

    if (stage > 0 && stage <= attrition_stages) {
      changed += stats.full_recompute ? stats.columns_total
                                      : stats.columns_changed;
      recomputed += stats.columns_recomputed;
      total += stats.columns_total;
      full_ms_sum += full_ms;
      delta_ms_sum += delta_ms;
    }
    add_phase(phase_table, phase,
              {{"stage", static_cast<double>(stage)},
               {"full_ms", full_ms},
               {"delta_ms", delta_ms},
               {"dirty_fraction", stage == 0 ? 1.0 : stats.dirty_fraction()},
               {"recompute_fraction",
                stage == 0 ? 1.0 : stats.recompute_fraction()},
               {"columns_total", static_cast<double>(stats.columns_total)},
               {"columns_recomputed",
                static_cast<double>(stats.columns_recomputed)},
               {"columns_changed", static_cast<double>(stats.columns_changed)},
               {"full_recompute", stats.full_recompute ? 1.0 : 0.0}});
  }
  schedule.revert(arm.topo);

  ArmResult out;
  if (total > 0) {
    out.dirty = static_cast<double>(changed) / static_cast<double>(total);
    out.recompute =
        static_cast<double>(recomputed) / static_cast<double>(total);
    if (out.dirty >= 1.0)
      throw std::runtime_error(
          tag + ": every cable-attrition stage dirtied every tree "
                "(incrementality saved nothing)");
    add_phase(phase_table, tag + "/aggregate",
              {{"dirty_fraction", out.dirty},
               {"recompute_fraction", out.recompute},
               {"full_ms", full_ms_sum},
               {"delta_ms", delta_ms_sum},
               {"speedup",
                delta_ms_sum > 0.0 ? full_ms_sum / delta_ms_sum : 0.0}});
  }
  return out;
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  topo::FatTree ft(campaign_fat_tree_params(options.quick));
  topo::HyperX hx(campaign_hyperx_params(options.quick));

  topo::FaultSchedule::Options opt;
  opt.stages = options.quick ? 3 : 5;
  opt.links_per_stage = options.quick ? 2 : 3;
  opt.switches_per_stage = 0;  // cable attrition
  opt.seed = options.seed;

  const routing::LidSpace ft_lids =
      routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
  const routing::LidSpace hx_lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::FtreeEngine ftree(ft);
  routing::UpDownEngine ft_updown;
  routing::SsspEngine ft_sssp;
  routing::DfssspEngine ft_dfsssp(8);
  routing::UpDownEngine hx_updown;
  routing::SsspEngine hx_sssp;
  routing::DfssspEngine hx_dfsssp(8);
  core::ParxEngine parx(hx);
  std::vector<topo::FaultStage> plane_fault(1);
  plane_fault[0].events.push_back(topo::hyperx_plane_fault(hx, 0, 0));

  const std::vector<Arm> arms{
      {"ftree", "fat-tree / ftree", ft.topo(), ftree, ft_lids, {}},
      {"updown", "fat-tree / updown", ft.topo(), ft_updown, ft_lids, {}},
      {"ft_sssp", "fat-tree / sssp", ft.topo(), ft_sssp, ft_lids, {}},
      {"ft_dfsssp", "fat-tree / dfsssp", ft.topo(), ft_dfsssp, ft_lids, {}},
      {"hx_updown", "hyperx / updown", hx.topo(), hx_updown, hx_lids,
       plane_fault},
      {"hx_sssp", "hyperx / sssp", hx.topo(), hx_sssp, hx_lids, plane_fault},
      {"hx_dfsssp", "hyperx / dfsssp", hx.topo(), hx_dfsssp, hx_lids,
       plane_fault},
      {"hx_parx", "hyperx / parx", hx.topo(), parx,
       core::make_parx_lid_space(hx), plane_fault},
  };

  report::ResultTable& out =
      rs.table("dirty", {"fabric / engine", "agg dirty frac",
                         "agg recompute frac", "delta == full"});
  report::ResultTable phase_table{"phases", {"phase", "metric", "value"}, {}};
  for (const Arm& arm : arms) {
    const ArmResult r = run_arm(
        arm, arm.topo.name() + "/" + arm.engine.name(), opt, phase_table);
    out.add_row({arm.label, stats::format_fixed(r.dirty, 4),
                 stats::format_fixed(r.recompute, 4), "yes"});
    rs.set(std::string(arm.key) + "_dirty_fraction", r.dirty);
    rs.set(std::string(arm.key) + "_recompute_fraction", r.recompute);
  }
  // Reaching here means every stage of every arm matched (run_arm throws).
  rs.set("delta_identical", 1.0);
  rs.tables.push_back(std::move(phase_table));
  return rs;
}

}  // namespace

report::Experiment reroute_dirty_experiment() {
  return {"reroute_dirty",
          "Incremental reroute dirty fractions and delta identity",
          "repo (delta-SPF contract)", run};
}

}  // namespace hxsim::bench
