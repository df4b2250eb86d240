#include "workloads/mpigraph.hpp"

#include <stdexcept>

#include "mpi/round_runner.hpp"
#include "stats/units.hpp"

namespace hxsim::workloads {

stats::Heatmap mpigraph(const mpi::Cluster& cluster,
                        const mpi::Placement& placement,
                        std::int32_t nodes_used,
                        const MpiGraphOptions& options) {
  if (nodes_used < 2 || nodes_used > placement.num_ranks())
    throw std::invalid_argument("mpigraph: bad node count");
  cluster.check_placement(placement, nodes_used, "mpigraph");

  stats::Heatmap map(static_cast<std::size_t>(nodes_used),
                     static_cast<std::size_t>(nodes_used),
                     cluster.topo().name() + " mpiGraph " +
                         std::to_string(nodes_used) + " nodes");

  // Shift rounds are independent once their LIDs are drawn: the draws stay
  // strictly in shift order, and the runner walks and solves the rounds of
  // a block concurrently, so the heatmap is identical to the sequential
  // run at any thread count.
  const auto n = static_cast<std::size_t>(nodes_used);
  const auto fill = [&](const mpi::RoundRunner::Slot& slot) {
    for (std::size_t i = 0; i < n; ++i) {
      // Streaming bandwidth of the pair == its steady fair share.
      map.set((i + slot.index) % n, i,
              slot.rates[i] / static_cast<double>(stats::kGiB));
    }
  };
  stats::Rng rng(options.seed);
  mpi::RoundRunner runner(cluster, "mpigraph");
  for (std::size_t shift = 1; shift < n; ++shift) {
    mpi::RoundRunner::Slot& slot = runner.next(shift, n);
    for (std::size_t i = 0; i < n; ++i)
      runner.draw(slot, i,
                  placement.node_of(static_cast<std::int32_t>(i)),
                  placement.node_of(static_cast<std::int32_t>((i + shift) % n)),
                  options.bytes, rng);
    runner.push(fill);
  }
  runner.flush(fill);
  return map;
}

}  // namespace hxsim::workloads
