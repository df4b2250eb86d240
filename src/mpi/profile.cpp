#include "mpi/profile.hpp"

#include <stdexcept>
#include <string>

namespace hxsim::mpi {

CommProfile::CommProfile(std::int32_t nranks)
    : nranks_(nranks),
      cells_(static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks),
             0) {}

void CommProfile::record(std::int32_t src_rank, std::int32_t dst_rank,
                         std::int64_t bytes) {
  if (src_rank < 0 || src_rank >= nranks_ || dst_rank < 0 ||
      dst_rank >= nranks_)
    throw std::out_of_range("CommProfile::record: rank out of range");
  if (bytes < 0) throw std::invalid_argument("CommProfile: negative bytes");
  cells_[index(src_rank, dst_rank)] += bytes;
}

std::int64_t CommProfile::total_bytes() const {
  std::int64_t sum = 0;
  for (std::int64_t b : cells_) sum += b;
  return sum;
}

core::DemandMatrix CommProfile::to_demands(const Placement& placement,
                                           std::int32_t num_nodes) const {
  if (placement.num_ranks() != nranks_)
    throw std::invalid_argument("CommProfile::to_demands: rank mismatch");
  if (num_nodes < 1)
    throw std::invalid_argument("CommProfile::to_demands: num_nodes must be "
                                ">= 1");
  for (std::int32_t r = 0; r < nranks_; ++r) {
    const topo::NodeId node = placement.node_of(r);
    if (node < 0 || node >= num_nodes)
      throw std::out_of_range("CommProfile::to_demands: rank " +
                              std::to_string(r) + " is placed on node " +
                              std::to_string(node) + ", outside [0, " +
                              std::to_string(num_nodes) + ")");
  }
  std::vector<std::int64_t> node_bytes(
      static_cast<std::size_t>(num_nodes) * static_cast<std::size_t>(num_nodes),
      0);
  for (std::int32_t s = 0; s < nranks_; ++s) {
    const topo::NodeId sn = placement.node_of(s);
    for (std::int32_t d = 0; d < nranks_; ++d) {
      const std::int64_t b = cells_[index(s, d)];
      if (b == 0) continue;
      const topo::NodeId dn = placement.node_of(d);
      if (sn == dn) continue;  // intra-node traffic never enters the fabric
      node_bytes[static_cast<std::size_t>(sn) *
                     static_cast<std::size_t>(num_nodes) +
                 static_cast<std::size_t>(dn)] += b;
    }
  }
  return core::DemandMatrix::from_bytes(num_nodes, node_bytes);
}

}  // namespace hxsim::mpi
