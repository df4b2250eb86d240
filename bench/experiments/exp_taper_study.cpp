// Section 2.1 experiment: the fat-tree cost/throughput trade.  Sweeps the
// leaf taper of the paper's 18-ary 3-tree and reports leaf-stage cable
// counts and the uniform-traffic saturation throughput ("a 2-to-1
// oversubscription cuts the network cost by more than 50% however reduces
// the uniform random throughput to 50%").
#include "experiments/experiments.hpp"
#include "routing/ftree.hpp"
#include "stats/units.hpp"
#include "topo/fat_tree.hpp"

namespace hxsim::bench {

namespace {

double uniform_saturation(const mpi::Cluster& cluster, std::uint64_t seed) {
  const std::int32_t n = cluster.num_nodes();
  std::vector<double> load(
      static_cast<std::size_t>(cluster.topo().num_channels()), 0.0);
  stats::Rng rng(seed);
  const double w = 1.0 / static_cast<double>(n - 1);
  for (topo::NodeId i = 0; i < n; ++i)
    for (topo::NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      const auto msg = cluster.route_message(i, j, 1 << 20, rng);
      if (!msg) continue;
      for (topo::ChannelId ch : msg->path)
        load[static_cast<std::size_t>(ch)] += w;
    }
  double worst = 0.0;
  for (double l : load) worst = std::max(worst, l);
  return worst > 0.0 ? std::min(1.0, 1.0 / worst) : 1.0;
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;

  report::ResultTable& out =
      rs.table("taper", {"taper", "leaf uplink cables", "uniform alpha",
                         "expectation"});
  for (const std::int32_t taper : {1, 2, 3, 6}) {
    topo::FatTreeParams p = topo::paper_fat_tree_params();
    p.taper = taper;
    const topo::FatTree ft(p);
    routing::LidSpace lids =
        routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
    routing::FtreeEngine engine(ft);
    const mpi::Cluster cluster(ft.topo(), lids,
                               engine.compute(ft.topo(), lids),
                               mpi::make_ob1());
    // Leaf-stage cables = populated-leaf uplinks (arity/taper each).
    const std::int64_t leaf_cables =
        static_cast<std::int64_t>(p.populated_leaves) * (p.arity / taper);
    const double alpha = uniform_saturation(cluster, options.seed);
    std::string expect;
    if (taper == 1)
      expect = "full bisection: ~1.0";
    else
      expect = "~1/" + std::to_string(taper) +
               " (x" + std::to_string(taper) + " fewer leaf cables)";
    out.add_row({std::to_string(taper) + ":1", std::to_string(leaf_cables),
                 stats::format_fixed(alpha, 2), expect});
    rs.set("alpha_" + std::to_string(taper) + "to1", alpha);
    rs.set("leaf_cables_" + std::to_string(taper) + "to1",
           static_cast<double>(leaf_cables));
  }
  return rs;
}

}  // namespace

report::Experiment taper_study_experiment() {
  return {"taper_study",
          "Fat-tree leaf-taper cost vs uniform throughput sweep",
          "SS2.1", run};
}

}  // namespace hxsim::bench
