// Section 2 experiment: switch/terminal/cable counts of both planes, the
// HyperX bisection ratio (paper: 57.1 %), the missing-cable degradation,
// and routed path-length statistics per engine.
#include "experiments/experiments.hpp"
#include "stats/summary.hpp"
#include "stats/units.hpp"
#include "workloads/paper_system.hpp"

namespace hxsim::bench {

namespace {

stats::Summary path_lengths(const mpi::Cluster& cluster, std::uint64_t seed,
                            std::int32_t samples, std::int64_t bytes = 1024) {
  stats::Rng rng(seed);
  std::vector<double> hops;
  const std::int32_t n = cluster.num_nodes();
  for (std::int32_t i = 0; i < samples; ++i) {
    const auto src = static_cast<topo::NodeId>(rng.next_below(n));
    const auto dst = static_cast<topo::NodeId>(rng.next_below(n));
    if (src == dst) continue;
    const auto msg = cluster.route_message(src, dst, bytes, rng);
    if (msg)
      hops.push_back(static_cast<double>(msg->path.size()) - 2.0);
  }
  return stats::summarize(hops);
}

report::ResultSet run(const report::Options& options) {
  const workloads::PaperSystem& system = shared_system(options.quick);
  const auto& ft = system.fat_tree();
  const auto& hx = system.hyperx();
  report::ResultSet rs;

  report::ResultTable& t =
      rs.table("properties", {"property", "Fat-Tree", "HyperX", "paper"});
  t.add_row({"switches", std::to_string(ft.topo().num_switches()),
             std::to_string(hx.topo().num_switches()),
             "972 (3x324) / 96"});
  t.add_row({"terminals", std::to_string(ft.topo().num_terminals()),
             std::to_string(hx.topo().num_terminals()), "672 / 672"});
  t.add_row({"cables (enabled)",
             std::to_string(ft.topo().num_switch_links()),
             std::to_string(hx.topo().num_switch_links()),
             "-197 / -15 missing"});
  t.add_row({"cables (total)",
             std::to_string(ft.topo().num_switch_links(false)),
             std::to_string(hx.topo().num_switch_links(false)),
             "11664 / 864"});
  t.add_row({"bisection ratio", "1.00 (undersubscribed)",
             stats::format_fixed(hx.bisection_ratio(), 4), "full / 0.571"});
  t.add_row({"connected",
             ft.topo().switches_connected() ? "yes" : "NO",
             hx.topo().switches_connected() ? "yes" : "NO", "yes / yes"});

  rs.set("ft_switches", ft.topo().num_switches());
  rs.set("hx_switches", hx.topo().num_switches());
  rs.set("ft_terminals", ft.topo().num_terminals());
  rs.set("hx_terminals", hx.topo().num_terminals());
  rs.set("ft_cables_total", ft.topo().num_switch_links(false));
  rs.set("hx_cables_total", hx.topo().num_switch_links(false));
  rs.set("ft_cables_enabled", ft.topo().num_switch_links());
  rs.set("hx_cables_enabled", hx.topo().num_switch_links());
  rs.set("hx_bisection_ratio", hx.bisection_ratio());
  rs.set("ft_connected", ft.topo().switches_connected() ? 1.0 : 0.0);
  rs.set("hx_connected", hx.topo().switches_connected() ? 1.0 : 0.0);

  report::ResultTable& hops =
      rs.table("hops", {"plane/routing", "min", "median", "max", "VLs"});
  struct Row {
    const char* name;
    const char* key;
    const mpi::Cluster* cluster;
    std::int64_t bytes;
  } rows[] = {
      {"Fat-Tree / ftree", "ft_ftree", &system.ft_ftree(), 1024},
      {"Fat-Tree / SSSP", "ft_sssp", &system.ft_sssp(), 1024},
      {"HyperX / DFSSSP", "hx_dfsssp", &system.hx_dfsssp(), 1024},
      {"HyperX / PARX (small msgs)", "hx_parx_small", &system.hx_parx(), 256},
      {"HyperX / PARX (large msgs)", "hx_parx_large", &system.hx_parx(),
       1 << 20},
  };
  for (const Row& row : rows) {
    const stats::Summary s =
        path_lengths(*row.cluster, options.seed, 1000, row.bytes);
    const std::int32_t vls = row.cluster->route().num_vls_used;
    hops.add_row({row.name, stats::format_fixed(s.min, 0),
                  stats::format_fixed(s.median, 0),
                  stats::format_fixed(s.max, 0), std::to_string(vls)});
    rs.set(std::string(row.key) + "_median_hops", s.median);
    rs.set(std::string(row.key) + "_vls", vls);
  }
  return rs;
}

}  // namespace

report::Experiment topology_properties_experiment() {
  return {"topology_properties",
          "Plane counts, bisection ratio and routed path lengths",
          "SS2", run};
}

}  // namespace hxsim::bench
