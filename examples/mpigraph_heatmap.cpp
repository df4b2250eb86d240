// mpiGraph heatmap on a topology/routing of your choice -- a command-line
// front-end to the Figure 1 experiment.
//
// usage: mpigraph_heatmap [fattree|hyperx] [ftree|sssp|dfsssp|parx]
//                         [nodes] [linear|clustered|random]
// e.g.:  ./build/examples/mpigraph_heatmap hyperx parx 28 linear
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.hpp"
#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "mpi/cluster.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "routing/sssp.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"
#include "workloads/mpigraph.hpp"

int main(int argc, char** argv) {
  using namespace hxsim;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [fattree|hyperx] [ftree|sssp|dfsssp|parx] "
                 "[nodes] [linear|clustered|random]\n",
                 argv[0]);
  };
  const std::string topo_arg = argc > 1 ? argv[1] : "hyperx";
  const std::string routing_arg = argc > 2 ? argv[2] : "dfsssp";
  const std::string place_arg = argc > 4 ? argv[4] : "linear";
  if (place_arg != "linear" && place_arg != "clustered" &&
      place_arg != "random") {
    std::fprintf(stderr, "unknown placement '%s'\n", place_arg.c_str());
    usage();
    return 2;
  }

  std::unique_ptr<topo::FatTree> ft;
  std::unique_ptr<topo::HyperX> hx;
  const topo::Topology* topology = nullptr;
  if (topo_arg == "fattree") {
    ft = std::make_unique<topo::FatTree>(topo::paper_fat_tree_params());
    topology = &ft->topo();
  } else if (topo_arg == "hyperx") {
    hx = std::make_unique<topo::HyperX>(topo::paper_hyperx_params());
    topology = &hx->topo();
  } else {
    std::fprintf(stderr, "unknown topology '%s'\n", topo_arg.c_str());
    return 2;
  }
  // mpiGraph needs a partner for every node, and one node per rank.
  const std::int32_t nodes =
      argc > 3 ? bench::parse_flag<std::int32_t>(
                     "nodes", argv[3], 2, topology->num_terminals(), usage)
               : 28;

  routing::LidSpace lids =
      routing::LidSpace::consecutive(topology->num_terminals(), 0);
  routing::RouteResult route;
  mpi::PmlConfig pml = mpi::make_ob1();
  if (routing_arg == "ftree") {
    if (!ft) {
      std::fprintf(stderr, "ftree routing needs the fattree topology\n");
      return 2;
    }
    routing::FtreeEngine engine(*ft);
    route = engine.compute(*topology, lids);
  } else if (routing_arg == "sssp") {
    routing::SsspEngine engine;
    route = engine.compute(*topology, lids);
  } else if (routing_arg == "dfsssp") {
    routing::DfssspEngine engine(8);
    route = engine.compute(*topology, lids);
  } else if (routing_arg == "parx") {
    if (!hx) {
      std::fprintf(stderr, "parx routing needs the hyperx topology\n");
      return 2;
    }
    lids = core::make_parx_lid_space(*hx);
    core::ParxEngine engine(*hx);
    route = engine.compute(*topology, lids);
    pml = mpi::make_bfo();
  } else {
    std::fprintf(stderr, "unknown routing '%s'\n", routing_arg.c_str());
    return 2;
  }
  std::printf("%s / %s: %d VL(s)\n", topo_arg.c_str(), routing_arg.c_str(),
              route.num_vls_used);

  const mpi::Cluster cluster(*topology, std::move(lids), std::move(route),
                             pml);
  stats::Rng rng(42);
  const auto pool = mpi::Placement::whole_machine(cluster.num_nodes());
  mpi::Placement placement = mpi::Placement::linear(nodes, pool);
  if (place_arg == "clustered")
    placement = mpi::Placement::clustered(nodes, pool, rng);
  else if (place_arg == "random")
    placement = mpi::Placement::random(nodes, pool, rng);

  const stats::Heatmap map = workloads::mpigraph(cluster, placement, nodes);
  std::printf("%s", map.to_string(3.0).c_str());
  return 0;
}
