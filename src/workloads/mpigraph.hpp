// mpiGraph: the all-pairs streaming-bandwidth heatmap of Figure 1.
//
// mpiGraph shifts through r = 1..N-1; in shift r every node i streams to
// node (i + r) mod N concurrently, and the observed per-pair bandwidth
// fills cell (receiver, sender) of the matrix.  Congestion between the
// concurrent streams -- e.g. seven flows on one HyperX cable under minimal
// routing -- is what the heatmap makes visible.
#pragma once

#include <cstdint>

#include "mpi/cluster.hpp"
#include "stats/heatmap.hpp"

namespace hxsim::workloads {

struct MpiGraphOptions {
  std::int64_t bytes = 1 * 1024 * 1024;  // per-stream message size
  std::uint64_t seed = 1;
};

/// Heatmap of observed bandwidth [GiB/s], cell (receiver, sender);
/// diagonal cells stay 0.  Uses the first `nodes_used` ranks of the
/// placement.  Throws std::invalid_argument for fewer than 2 or more than
/// the placed ranks, std::out_of_range if a used rank sits outside the
/// fabric, and std::runtime_error for an unroutable pair.  Must not run
/// inside an exec::ThreadPool::parallel_for body.
[[nodiscard]] stats::Heatmap mpigraph(const mpi::Cluster& cluster,
                                      const mpi::Placement& placement,
                                      std::int32_t nodes_used,
                                      const MpiGraphOptions& options = {});

}  // namespace hxsim::workloads
