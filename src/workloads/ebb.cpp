#include "workloads/ebb.hpp"

#include <stdexcept>
#include <string>

#include "mpi/round_runner.hpp"
#include "stats/units.hpp"

namespace hxsim::workloads {

EbbResult effective_bisection_bandwidth(const mpi::Cluster& cluster,
                                        const mpi::Placement& placement,
                                        std::int32_t nodes_used,
                                        const EbbOptions& options) {
  if (nodes_used < 2 || nodes_used % 2 != 0 ||
      nodes_used > placement.num_ranks())
    throw std::invalid_argument("ebb: node count must be even and placed");
  if (options.samples < 1)
    throw std::invalid_argument("ebb: samples must be positive, got " +
                                std::to_string(options.samples));
  cluster.check_placement(placement, nodes_used, "ebb");

  EbbResult result;
  result.sample_means.reserve(static_cast<std::size_t>(options.samples));
  const auto mean_of = [&](const mpi::RoundRunner::Slot& slot) {
    double mean = 0.0;
    for (std::size_t i = 0; i < slot.size; ++i) mean += slot.rates[i];
    mean /= static_cast<double>(slot.size);
    result.sample_means.push_back(mean / static_cast<double>(stats::kGiB));
  };

  // Permutation samples are independent once their LIDs are drawn.
  // Permutations and LID draws interleave strictly in sample order (both
  // consume the RNG), and the runner walks and solves the samples of a
  // block concurrently, so the sample means are identical to the
  // sequential run at any thread count.
  const std::int32_t half = nodes_used / 2;
  stats::Rng rng(options.seed);
  mpi::RoundRunner runner(cluster, "ebb");
  for (std::int32_t s = 0; s < options.samples; ++s) {
    const std::vector<std::int32_t> perm = rng.permutation(nodes_used);
    // Pair perm[i] <-> perm[i + half]; both directions stream
    // concurrently (Netgauge uses Isend/Irecv full-duplex pairs).
    mpi::RoundRunner::Slot& slot = runner.next(
        static_cast<std::size_t>(s), static_cast<std::size_t>(nodes_used));
    for (std::int32_t i = 0; i < half; ++i) {
      const topo::NodeId a =
          placement.node_of(perm[static_cast<std::size_t>(i)]);
      const topo::NodeId b =
          placement.node_of(perm[static_cast<std::size_t>(i + half)]);
      const auto k = static_cast<std::size_t>(2 * i);
      runner.draw(slot, k, a, b, options.bytes, rng);
      runner.draw(slot, k + 1, b, a, options.bytes, rng);
    }
    runner.push(mean_of);
  }
  runner.flush(mean_of);
  return result;
}

}  // namespace hxsim::workloads
