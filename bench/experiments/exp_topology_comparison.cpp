// Topology-comparison experiment: fat-tree vs. HyperX vs. Dragonfly
// ("the various flies"), all at 672 nodes; hardware cost, routed path
// lengths, deadlock-freedom cost (VLs), and throughput under the uniform
// and adversarial-shift matrices.
#include <algorithm>
#include <memory>

#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "stats/summary.hpp"
#include "stats/units.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::bench {

namespace {

struct Plane {
  std::string name;
  std::string key;  // metric prefix: ft / hx / df
  const topo::Topology* topology;
  std::unique_ptr<mpi::Cluster> cluster;
};

double saturation(const mpi::Cluster& cluster, bool adversarial,
                  std::uint64_t seed) {
  const std::int32_t n = cluster.num_nodes();
  std::vector<double> load(
      static_cast<std::size_t>(cluster.topo().num_channels()), 0.0);
  stats::Rng rng(seed);
  if (!adversarial) {
    const double w = 1.0 / static_cast<double>(n - 1);
    for (topo::NodeId i = 0; i < n; ++i)
      for (topo::NodeId j = 0; j < n; ++j) {
        if (i == j) continue;
        auto msg = cluster.route_message(i, j, 1 << 20, rng);
        if (!msg) continue;
        for (topo::ChannelId ch : msg->path)
          load[static_cast<std::size_t>(ch)] += w;
      }
  } else {
    // Worst-ish case for direct topologies: pair node i with the node
    // "half the machine away" (same linear shift for every plane).
    for (topo::NodeId i = 0; i < n; ++i) {
      auto msg = cluster.route_message(i, (i + n / 2) % n, 1 << 20, rng);
      if (!msg) continue;
      for (topo::ChannelId ch : msg->path)
        load[static_cast<std::size_t>(ch)] += 1.0;
    }
  }
  double worst = 0.0;
  for (double l : load) worst = std::max(worst, l);
  return worst > 0.0 ? std::min(1.0, 1.0 / worst) : 1.0;
}

stats::Summary hops(const mpi::Cluster& cluster, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> lengths;
  for (std::int32_t trial = 0; trial < 2000; ++trial) {
    const auto src = static_cast<topo::NodeId>(
        rng.next_below(static_cast<std::uint64_t>(cluster.num_nodes())));
    const auto dst = static_cast<topo::NodeId>(
        rng.next_below(static_cast<std::uint64_t>(cluster.num_nodes())));
    if (src == dst) continue;
    const auto msg = cluster.route_message(src, dst, 1024, rng);
    if (msg) lengths.push_back(static_cast<double>(msg->path.size()) - 2.0);
  }
  return stats::summarize(lengths);
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;

  const topo::FatTree ft(topo::paper_fat_tree_params());
  const topo::HyperX hx(topo::paper_hyperx_params());
  const topo::Dragonfly df(topo::paper_matched_dragonfly_params());

  std::vector<Plane> planes;
  {
    routing::LidSpace lids = routing::LidSpace::consecutive(672, 0);
    routing::FtreeEngine engine(ft);
    planes.push_back(Plane{"Fat-Tree 18-ary-3 / ftree", "ft", &ft.topo(),
                           std::make_unique<mpi::Cluster>(
                               ft.topo(), lids,
                               engine.compute(ft.topo(), lids),
                               mpi::make_ob1())});
  }
  for (const auto* direct :
       std::initializer_list<const topo::Topology*>{&hx.topo(), &df.topo()}) {
    routing::LidSpace lids = routing::LidSpace::consecutive(672, 0);
    routing::DfssspEngine engine(8);
    const bool is_hx = direct == &hx.topo();
    planes.push_back(Plane{is_hx ? "HyperX 12x8 / DFSSSP"
                                 : "Dragonfly 7-8-2-12 / DFSSSP",
                           is_hx ? "hx" : "df", direct,
                           std::make_unique<mpi::Cluster>(
                               *direct, lids,
                               engine.compute(*direct, lids),
                               mpi::make_ob1())});
  }

  report::ResultTable& out =
      rs.table("planes", {"plane", "switches", "cables", "hops med/max",
                          "VLs", "uniform alpha", "shift alpha"});
  for (const Plane& plane : planes) {
    const stats::Summary h = hops(*plane.cluster, options.seed);
    const double uniform = saturation(*plane.cluster, false, options.seed);
    const double shift = saturation(*plane.cluster, true, options.seed);
    out.add_row({plane.name, std::to_string(plane.topology->num_switches()),
                 std::to_string(plane.topology->num_switch_links()),
                 stats::format_fixed(h.median, 0) + "/" +
                     stats::format_fixed(h.max, 0),
                 std::to_string(plane.cluster->route().num_vls_used),
                 stats::format_fixed(uniform, 2),
                 stats::format_fixed(shift, 2)});
    rs.set(plane.key + "_switches", plane.topology->num_switches());
    rs.set(plane.key + "_cables", plane.topology->num_switch_links());
    rs.set(plane.key + "_median_hops", h.median);
    rs.set(plane.key + "_uniform_alpha", uniform);
    rs.set(plane.key + "_shift_alpha", shift);
  }
  return rs;
}

}  // namespace

report::Experiment topology_comparison_experiment() {
  return {"topology_comparison",
          "Fat-tree vs HyperX vs Dragonfly at 672 nodes",
          "SS1-2", run};
}

}  // namespace hxsim::bench
