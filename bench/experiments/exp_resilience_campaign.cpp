// Repo-level experiment: the degraded-fabric resilience campaign (paper
// §2.3 and footnote 7 generalised).  Both paper planes are degraded in
// seeded stages -- random cable faults, whole-switch failures, and a final
// HyperX plane fault -- and after every stage each routing engine is
// re-run, its tables are audited (per-VL CDG acyclicity, all-pairs path
// census) and delivered throughput is measured on uniform-random traffic
// with the max-min flow solver.  Full mode additionally sweeps the
// HyperX/DFSSSP combination over the mpiGraph-shift and eBB-bisection
// patterns.
//
// Output: one "resilience_<fabric>_<engine>" table per series with its
// "_final_retention" metric, and the "retention" summary EXPERIMENTS.md
// renders (throughput intact and after the attrition stages, retention
// there and after the plane cut).  A retention envelope that rises after
// a fall, or DFSSSP tables that go cyclic, throws naming the fabric,
// engine and stage -- the two properties the campaign exists to
// guarantee.
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "routing/sssp.hpp"
#include "routing/updown.hpp"
#include "stats/units.hpp"
#include "topo/fault_injector.hpp"
#include "workloads/resilience.hpp"

namespace hxsim::bench {

namespace {

/// Publishes `series` into `rs`, throwing on a broken guarantee, and adds
/// one `summary` row per (fabric, engine): intact throughput, throughput
/// and retention after the `stages` attrition stages, and retention after
/// the appended plane cut where the schedule has one.
void record(const obs::DegradationSeries& series, std::int32_t stages,
            report::ResultSet& rs, report::ResultTable& summary) {
  series.publish(rs);
  const auto where = [](const obs::DegradationSample& s) {
    return s.fabric + " / " + s.engine + " stage " + std::to_string(s.stage);
  };
  if (const obs::DegradationSample* s = series.first_retention_rise())
    throw std::runtime_error(where(*s) + ": retention rose after a fall");
  if (const obs::DegradationSample* s = series.first_cyclic("dfsssp"))
    throw std::runtime_error(where(*s) + (s->engine_failed
                                              ? ": DFSSSP failed to route"
                                              : ": DFSSSP tables are cyclic"));

  for (const obs::DegradationSample& intact : series.samples()) {
    if (intact.stage != 0) continue;
    const auto at = [&](std::int32_t stage) -> const obs::DegradationSample* {
      for (const obs::DegradationSample& s : series.samples())
        if (s.fabric == intact.fabric && s.engine == intact.engine &&
            s.stage == stage)
          return &s;
      return nullptr;
    };
    const obs::DegradationSample& last = *at(stages);
    const obs::DegradationSample* cut = at(stages + 1);
    summary.add_row({intact.fabric + " / " + intact.engine,
                     std::to_string(last.cables_failed) + " / " +
                         std::to_string(last.switches_failed),
                     stats::format_fixed(intact.throughput, 3),
                     stats::format_fixed(last.throughput, 3),
                     stats::format_fixed(last.retention, 3),
                     cut ? stats::format_fixed(cut->retention, 3) : "-"});
  }
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const bool quick = options.quick;
  topo::FatTree ft(workloads::PaperSystem::fat_tree_params(quick));
  topo::HyperX hx(workloads::PaperSystem::hyperx_params(quick));

  workloads::ResilienceOptions opt;
  opt.schedule.stages = quick ? 3 : 5;
  opt.schedule.switches_per_stage = 1;
  opt.schedule.seed = options.seed;
  opt.traffic_samples = quick ? 4 : 8;
  opt.traffic_seed = options.seed;
  opt.threads = options.threads;
  const std::int32_t stages = opt.schedule.stages;

  // Filled as the campaigns run, appended after their series tables.
  report::ResultTable summary{"retention",
                              {"fabric / engine", "cables / switches",
                               "intact thr.", "faulted thr.", "retention",
                               "+ plane cut"},
                              {}};

  // --- fat-tree plane: the paper lost 197 of its 2662 tree links ---------
  {
    workloads::ResilienceOptions ft_opt = opt;
    ft_opt.schedule.links_per_stage = quick ? 4 : 40;  // ~paper scale overall
    routing::LidSpace lids =
        routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
    routing::FtreeEngine ftree(ft);
    routing::UpDownEngine updown;
    routing::SsspEngine sssp;
    routing::DfssspEngine dfsssp(8);
    std::vector<workloads::ResilienceEngine> engines;
    engines.push_back({"ftree", &ftree, lids});
    engines.push_back({"updown", &updown, lids});
    engines.push_back({"sssp", &sssp, lids});
    engines.push_back({"dfsssp", &dfsssp, lids});
    record(workloads::run_resilience_campaign(ft.topo(), ft.topo().name(),
                                              engines, ft_opt),
           stages, rs, summary);
  }

  // --- HyperX plane: random cables + switches, then a whole plane fault --
  {
    workloads::ResilienceOptions hx_opt = opt;
    hx_opt.schedule.links_per_stage = quick ? 2 : 5;  // 15 = paper count
    routing::LidSpace lids =
        routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
    routing::UpDownEngine updown;
    routing::SsspEngine sssp;
    routing::DfssspEngine dfsssp(8);
    routing::LidSpace parx_lids = core::make_parx_lid_space(hx);
    core::ParxEngine parx(hx);
    std::vector<workloads::ResilienceEngine> engines;
    engines.push_back({"updown", &updown, lids});
    engines.push_back({"sssp", &sssp, lids});
    engines.push_back({"dfsssp", &dfsssp, lids});
    engines.push_back({"parx", &parx, parx_lids});

    // Final stage: one lattice column loses its entire row cabling (a cut
    // AOC bundle).  In 2-D that isolates the column -- its terminals become
    // footnote-7 lost LIDs and reachability drops by ~1/S_1.
    std::vector<topo::FaultStage> extra(1);
    extra[0].events.push_back(topo::hyperx_plane_fault(hx, 0, 0));
    record(workloads::run_resilience_campaign(hx.topo(), hx.topo().name(),
                                              engines, hx_opt, extra),
           stages, rs, summary);
  }

  // --- full mode: HyperX/DFSSSP across all three traffic patterns --------
  if (!quick) {
    routing::LidSpace lids =
        routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
    for (const auto traffic : {workloads::ResilienceTraffic::kMpiGraphShift,
                               workloads::ResilienceTraffic::kEbbBisection}) {
      workloads::ResilienceOptions t_opt = opt;
      t_opt.schedule.links_per_stage = 5;
      t_opt.traffic = traffic;
      routing::DfssspEngine dfsssp(8);
      std::vector<workloads::ResilienceEngine> engines;
      engines.push_back(
          {std::string("dfsssp-") + workloads::to_string(traffic), &dfsssp,
           lids});
      record(workloads::run_resilience_campaign(hx.topo(), hx.topo().name(),
                                                engines, t_opt),
             stages, rs, summary);
    }
  }

  // Reaching here means record() found every guarantee intact.
  rs.set("retention_monotone", 1.0);
  rs.set("dfsssp_acyclic", 1.0);
  rs.tables.push_back(std::move(summary));
  return rs;
}

}  // namespace

report::Experiment resilience_campaign_experiment() {
  return {"resilience_campaign",
          "Degraded-fabric retention, lost LIDs and deadlock freedom per "
          "engine",
          "SS2.3 / footnote 7", run};
}

}  // namespace hxsim::bench
