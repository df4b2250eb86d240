// Communication profiles (paper Section 3.2.2).
//
// The paper records per-rank-pair byte counts with a low-level IB profiler;
// the profile is rank-based and therefore "immune to changes in MPI rank
// placement, topology, and IB routing" (footnote 6).  The SAR-style
// interface then combines a profile with a concrete placement into the
// node-based demand matrix PARX ingests before job start.
#pragma once

#include <cstdint>
#include <vector>

#include "core/demand.hpp"
#include "mpi/placement.hpp"

namespace hxsim::mpi {

class CommProfile {
 public:
  CommProfile() = default;
  explicit CommProfile(std::int32_t nranks);

  [[nodiscard]] std::int32_t num_ranks() const noexcept { return nranks_; }
  [[nodiscard]] bool empty() const noexcept { return nranks_ == 0; }

  void record(std::int32_t src_rank, std::int32_t dst_rank,
              std::int64_t bytes);

  [[nodiscard]] std::int64_t bytes(std::int32_t src_rank,
                                   std::int32_t dst_rank) const {
    return cells_[index(src_rank, dst_rank)];
  }

  [[nodiscard]] std::int64_t total_bytes() const;

  /// The job-submission/OpenSM interface: resolve ranks to nodes through
  /// the placement and normalise to the 0..255 demand range.  Throws
  /// std::invalid_argument if num_nodes < 1 and std::out_of_range if the
  /// placement puts a rank on a node outside [0, num_nodes).
  [[nodiscard]] core::DemandMatrix to_demands(const Placement& placement,
                                              std::int32_t num_nodes) const;

 private:
  [[nodiscard]] std::size_t index(std::int32_t s, std::int32_t d) const {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(nranks_) +
           static_cast<std::size_t>(d);
  }

  std::int32_t nranks_ = 0;
  std::vector<std::int64_t> cells_;
};

}  // namespace hxsim::mpi
