// HyperX builder (Ahn et al. [3 in the paper]).
//
// An n-dimensional HyperX places switches on an integer lattice
// S_1 x ... x S_n and fully connects every "row": two switches are cabled
// iff their coordinates differ in exactly one dimension.  Each switch hosts
// T terminals.  The paper's network is the 2-D 12x8 with T = 7
// (Section 2.3, 96 switches, 672 nodes, 57.1 % bisection).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "stats/rng.hpp"
#include "topo/topology.hpp"

namespace hxsim::topo {

struct HyperXParams {
  std::vector<std::int32_t> dims = {4, 4};  // S_k per dimension
  std::int32_t terminals_per_switch = 2;    // T
  std::string name = "hyperx";
};

/// Paper configuration: 12x8, 7 nodes per switch (672 nodes).
[[nodiscard]] HyperXParams paper_hyperx_params();

/// Figure 2b configuration: 4x4 with 2 nodes per switch (32 nodes).
[[nodiscard]] HyperXParams small_hyperx_params();

/// Random valid lattice shape within the bounds, for the fuzz-audit
/// scenario generator: 1-3 dimensions of size >= 2 whose product stays
/// <= max_switches, and >= 1 terminal per switch with the fabric total
/// <= max_terminals.  Deterministic in the rng state.  `even_dims` forces
/// exactly two even-sized dimensions (the PARX precondition).
[[nodiscard]] HyperXParams random_hyperx_params(stats::Rng& rng,
                                                std::int32_t max_switches,
                                                std::int32_t max_terminals,
                                                bool even_dims = false);

class HyperX {
 public:
  explicit HyperX(const HyperXParams& params);

  [[nodiscard]] const Topology& topo() const noexcept { return topo_; }
  [[nodiscard]] Topology& topo() noexcept { return topo_; }
  [[nodiscard]] const HyperXParams& params() const noexcept { return params_; }

  [[nodiscard]] std::int32_t num_dims() const noexcept {
    return static_cast<std::int32_t>(params_.dims.size());
  }
  [[nodiscard]] std::int32_t dim_size(std::int32_t d) const {
    return params_.dims[static_cast<std::size_t>(d)];
  }

  /// Coordinate of a switch in dimension d.
  [[nodiscard]] std::int32_t coord(SwitchId sw, std::int32_t d) const {
    return coords_[static_cast<std::size_t>(sw)][static_cast<std::size_t>(d)];
  }

  /// Switch at the given coordinate vector (size == num_dims()).
  [[nodiscard]] SwitchId switch_at(std::span<const std::int32_t> coord) const;

  /// Channel from `sw` along dimension d to the switch with coordinate
  /// `value` in that dimension; kInvalidChannel when value == coord(sw, d).
  [[nodiscard]] ChannelId dim_channel(SwitchId sw, std::int32_t d,
                                      std::int32_t value) const {
    return dim_channels_[static_cast<std::size_t>(sw)]
                        [static_cast<std::size_t>(d)]
                        [static_cast<std::size_t>(value)];
  }

  /// Offered bisection bandwidth ratio: min over dimensions of the cut
  /// crossing the lattice bisector, relative to terminal injection
  /// bandwidth of one half (1.0 = full bisection).  12x8 with T = 7 gives
  /// 4/7 = 0.571, the paper's 57.1 %.
  [[nodiscard]] double bisection_ratio() const;

 private:
  HyperXParams params_;
  Topology topo_;
  std::vector<std::vector<std::int32_t>> coords_;
  std::vector<std::vector<std::vector<ChannelId>>> dim_channels_;
};

}  // namespace hxsim::topo
