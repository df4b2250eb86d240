// Ablation experiment of the PARX design choices (DESIGN.md): link
// pruning on/off, demand-weighted edge updates on/off, LMC multipathing
// vs plain DFSSSP, on the degraded dense-allocation HyperX.
#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "experiments/experiments.hpp"
#include "mpi/collectives.hpp"
#include "routing/dfsssp.hpp"
#include "stats/units.hpp"
#include "topo/fault_injector.hpp"
#include "workloads/imb.hpp"
#include "workloads/mpigraph.hpp"

namespace hxsim::bench {

namespace {

struct Variant {
  std::string name;
  std::string key;  // metric prefix
  mpi::Cluster cluster;
};

double alltoall_time(const mpi::Cluster& cluster, std::int32_t n,
                     std::uint64_t seed) {
  const mpi::Placement p =
      mpi::Placement::linear(n, mpi::Placement::whole_machine(
                                    cluster.num_nodes()));
  mpi::Transport t(cluster, p, seed);
  return t.execute(mpi::collectives::alltoall_pairwise(n, 512 * 1024));
}

double mpigraph_mean(const mpi::Cluster& cluster, std::int32_t n,
                     std::uint64_t seed) {
  const mpi::Placement p =
      mpi::Placement::linear(n, mpi::Placement::whole_machine(
                                    cluster.num_nodes()));
  workloads::MpiGraphOptions opts;
  opts.seed = seed;
  return workloads::mpigraph(cluster, p, n, opts).mean_off_diagonal();
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  topo::HyperX hx(options.quick
                      ? topo::HyperXParams{{6, 4}, 4, "hyperx-6x4"}
                      : topo::paper_hyperx_params());
  // Same degraded fabric as before, expressed as a one-stage fault schedule
  // (a link-only single stage is bit-identical to the legacy injector).
  topo::FaultSchedule::Options faults;
  faults.links_per_stage = options.quick ? 2 : 15;
  faults.seed = 1003;
  topo::FaultSchedule::plan(hx.topo(), faults).apply_all(hx.topo());

  // A synthetic all-pairs demand over the dense allocation (mpiGraph-like).
  const std::int32_t dense = options.quick ? 16 : 28;
  core::DemandMatrix demands(hx.topo().num_terminals());
  for (topo::NodeId s = 0; s < dense; ++s)
    for (topo::NodeId d = 0; d < dense; ++d)
      if (s != d) demands.set(s, d, 255);

  std::vector<Variant> variants;
  {
    routing::LidSpace lids =
        routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
    routing::DfssspEngine engine(8);
    variants.push_back(Variant{"DFSSSP (no LMC, minimal)", "dfsssp",
                               mpi::Cluster(hx.topo(), lids,
                                            engine.compute(hx.topo(), lids),
                                            mpi::make_ob1())});
  }
  auto add_parx = [&](const std::string& name, const std::string& key,
                      core::ParxOptions opts, const core::DemandMatrix& dm) {
    routing::LidSpace lids = core::make_parx_lid_space(hx);
    core::ParxEngine engine(hx, dm, opts);
    variants.push_back(Variant{name, key,
                               mpi::Cluster(hx.topo(), lids,
                                            engine.compute(hx.topo(), lids),
                                            mpi::make_bfo())});
  };
  add_parx("PARX full (pruning + demand)", "parx_full", core::ParxOptions{},
           demands);
  {
    core::ParxOptions opts;
    opts.use_demand_weights = false;
    add_parx("PARX w/o demand weights", "parx_nodemand", opts,
             core::DemandMatrix(hx.topo().num_terminals()));
  }
  {
    core::ParxOptions opts;
    opts.use_link_pruning = false;
    add_parx("PARX w/o link pruning (minimal LIDs)", "parx_noprune", opts,
             demands);
  }

  report::ResultTable& out =
      rs.table("variants", {"variant", "VLs", "mpiGraph mean GiB/s",
                            "14-node Alltoall 512KiB [ms]"});
  for (const Variant& v : variants) {
    const double mean = mpigraph_mean(v.cluster, dense, options.seed);
    const double a2a =
        alltoall_time(v.cluster, std::min(dense, 14), options.seed) * 1e3;
    out.add_row({v.name, std::to_string(v.cluster.route().num_vls_used),
                 stats::format_fixed(mean, 2), stats::format_fixed(a2a, 2)});
    rs.set(v.key + "_mpigraph_gibs", mean);
    rs.set(v.key + "_alltoall_ms", a2a);
  }
  // The design-choice ratios EXPERIMENTS.md reads off the table.
  const double full = *rs.find("parx_full_mpigraph_gibs");
  rs.set("pruning_gain", full / *rs.find("parx_noprune_mpigraph_gibs"));
  rs.set("demand_gain", full / *rs.find("parx_nodemand_mpigraph_gibs"));
  rs.set("parx_over_dfsssp", full / *rs.find("dfsssp_mpigraph_gibs"));
  return rs;
}

}  // namespace

report::Experiment ablation_parx_experiment() {
  return {"ablation_parx",
          "PARX design-choice ablation on the degraded HyperX",
          "DESIGN.md / SS3.2", run};
}

}  // namespace hxsim::bench
