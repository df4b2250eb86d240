// Netgauge's effective bisection bandwidth (eBB) benchmark (paper §4.1,
// Figure 5c).
//
// eBB samples random bisections of the allocated nodes: each sample splits
// the nodes into two random halves, matches them into pairs across the cut,
// and streams 1 MiB per pair concurrently; the sample's metric is the mean
// per-pair bandwidth.  The paper executes 1,000 such bisections and plots
// whiskers over the sample distribution.
#pragma once

#include <cstdint>
#include <vector>

#include "mpi/cluster.hpp"
#include "stats/summary.hpp"

namespace hxsim::workloads {

struct EbbOptions {
  std::int32_t samples = 1000;
  std::int64_t bytes = 1 * 1024 * 1024;
  std::uint64_t seed = 1;
};

struct EbbResult {
  /// Mean per-pair bandwidth [GiB/s] of each sampled bisection.
  std::vector<double> sample_means;

  [[nodiscard]] stats::Summary summary() const {
    return stats::summarize(sample_means);
  }
};

/// Runs eBB on the first `nodes_used` ranks of the placement (must be
/// even).  Throws std::invalid_argument for an odd, too small or unplaced
/// node count or fewer than one sample, std::out_of_range if a used rank
/// sits outside the fabric, and std::runtime_error for an unroutable
/// pair.  Must not run inside an exec::ThreadPool::parallel_for body.
[[nodiscard]] EbbResult effective_bisection_bandwidth(
    const mpi::Cluster& cluster, const mpi::Placement& placement,
    std::int32_t nodes_used, const EbbOptions& options = {});

}  // namespace hxsim::workloads
