// Repo-level experiment: routing churn under cable attrition.
//
// A seeded cable-attrition schedule runs on both paper planes -- every
// fat-tree engine (ftree, Up*/Down*, SSSP, DFSSSP) and every HyperX engine
// (Up*/Down*, SSSP, DFSSSP, PARX), the HyperX schedule ending with a
// dimension-plane fault as the bulk-damage extreme.  Every stage is routed
// from scratch (engine.compute on the degraded fabric, timed), and its LFT
// columns are diffed against the previous stage's tables: a destination
// LID's column changed when any switch forwards it differently.  The
// schedule models the operational attrition cadence -- a few cables at a
// time, the way the paper's fabric accumulated its 197 cable faults --
// because a whole-switch stage at paper scale changes every column (the
// resilience campaign covers that regime).
//
// The dirty fraction (changed columns / total) is the machine-independent
// measure of how much routing state a stage touched.  The "dirty" table
// aggregates it over the cable-attrition stages; the long-form "phases"
// table holds every stage's wall time, column counts and fraction.
//
// Check: each engine's aggregate dirty fraction must stay below 1.0, or
// the experiment throws, naming the fabric and engine.  An engine refusing
// a degraded fabric (PARX out of VLs) is recorded as a failed stage; the
// stage after it has no tables to diff against and counts every column as
// changed.
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parx.hpp"
#include "experiments/experiments.hpp"
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

/// Destination LIDs whose LFT column differs at any switch.
std::int64_t changed_columns(const routing::LidSpace& lids,
                             const routing::ForwardingTables& before,
                             const routing::ForwardingTables& after) {
  std::int64_t changed = 0;
  for (const routing::Lid dlid : lids.all_lids()) {
    for (topo::SwitchId sw = 0; sw < after.num_switches(); ++sw) {
      if (before.next(sw, dlid) != after.next(sw, dlid)) {
        ++changed;
        break;
      }
    }
  }
  return changed;
}

/// Runs one arm's schedule stage by stage, records every stage and the
/// cable-attrition aggregate in `phase_table` under `tag`, reverts the
/// fabric and returns the aggregate dirty fraction.
double run_arm(const Arm& arm, const std::string& tag,
               const topo::FaultSchedule::Options& opt,
               report::ResultTable& phase_table) {
  topo::FaultSchedule schedule = topo::FaultSchedule::plan(arm.topo, opt);
  const std::int32_t attrition_stages = schedule.num_stages();
  for (const topo::FaultStage& stage : arm.extra)
    schedule.append_stage(stage);
  const auto columns = static_cast<std::int64_t>(arm.lids.all_lids().size());
  std::optional<routing::RouteResult> previous;
  std::int64_t changed = 0;
  std::int64_t total = 0;
  double full_ms_sum = 0.0;

  for (std::int32_t stage = 0; stage <= schedule.num_stages(); ++stage) {
    if (stage > 0) (void)schedule.apply_stage(arm.topo, stage - 1);
    const std::string phase = tag + "/stage" + std::to_string(stage);
    PhaseClock clock;
    std::optional<routing::RouteResult> route;
    try {
      route = arm.engine.compute(arm.topo, arm.lids);
    } catch (const std::exception&) {
      previous.reset();  // the engine refuses this degraded fabric
      add_phase(phase_table, phase + "/failed",
                {{"stage", static_cast<double>(stage)}});
      continue;
    }
    const double full_ms = clock.lap() * 1e3;

    // Stage 0 is the baseline, with nothing to diff against.
    std::int64_t stage_total = 0;
    std::int64_t stage_changed = 0;
    if (stage > 0) {
      stage_total = columns;
      stage_changed = previous ? changed_columns(arm.lids, previous->tables,
                                                 route->tables)
                               : columns;
    }
    if (stage > 0 && stage <= attrition_stages) {
      changed += stage_changed;
      total += stage_total;
      full_ms_sum += full_ms;
    }
    add_phase(phase_table, phase,
              {{"stage", static_cast<double>(stage)},
               {"full_ms", full_ms},
               {"dirty_fraction",
                stage == 0 ? 1.0
                           : static_cast<double>(stage_changed) /
                                 static_cast<double>(stage_total)},
               {"columns_total", static_cast<double>(stage_total)},
               {"columns_changed", static_cast<double>(stage_changed)}});
    previous = std::move(route);
  }
  schedule.revert(arm.topo);

  if (total == 0) return 1.0;
  const double dirty =
      static_cast<double>(changed) / static_cast<double>(total);
  if (dirty >= 1.0)
    throw std::runtime_error(
        tag + ": every cable-attrition stage changed every LFT column");
  add_phase(phase_table, tag + "/aggregate",
            {{"dirty_fraction", dirty}, {"full_ms", full_ms_sum}});
  return dirty;
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  topo::FatTree ft(workloads::PaperSystem::fat_tree_params(options.quick));
  topo::HyperX hx(workloads::PaperSystem::hyperx_params(options.quick));

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
      rs.table("dirty", {"fabric / engine", "agg dirty frac"});
  report::ResultTable phase_table{"phases", {"phase", "metric", "value"}, {}};
  for (const Arm& arm : arms) {
    const double dirty = run_arm(
        arm, arm.topo.name() + "/" + arm.engine.name(), opt, phase_table);
    out.add_row({arm.label, stats::format_fixed(dirty, 4)});
    rs.set(std::string(arm.key) + "_dirty_fraction", dirty);
  }
  rs.tables.push_back(std::move(phase_table));
  return rs;
}

}  // namespace

report::Experiment reroute_dirty_experiment() {
  return {"reroute_dirty", "Routing churn under cable attrition",
          "repo (delta-SPF contract)", run};
}

}  // namespace hxsim::bench
