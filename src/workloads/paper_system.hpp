// The dual-plane supercomputer of the paper as one object: the 672-node
// 18-ary 3-tree plane, the 672-node 12x8 HyperX plane (both with the
// paper's missing-cable counts), routed by all four engines, plus the five
// (topology, routing, placement) combinations of Section 4.4.3:
//
//   1. Fat-Tree / ftree  / linear      (the Figure 4 baseline)
//   2. Fat-Tree / SSSP   / clustered
//   3. HyperX   / DFSSSP / linear
//   4. HyperX   / DFSSSP / random
//   5. HyperX   / PARX   / clustered
//
// Building the object computes all routings once (a few seconds for the
// 972-switch tree); benches share it across figures.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "core/demand.hpp"
#include "mpi/cluster.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::workloads {

struct SystemOptions {
  bool with_faults = true;
  /// Seed for the missing-cable sample.  The default keeps the cables of
  /// the first-row switches intact, as the paper's fabric did (the dense
  /// small-allocation phenomena of Figures 1/5c need them).
  std::uint64_t fault_seed = 1003;
  std::int32_t parx_max_vls = 8;
  /// Scaled-down system for quick runs: a 6x4 HyperX / 6-ary tree with
  /// 96 nodes instead of 672.
  bool small_scale = false;
};

class PaperSystem {
 public:
  explicit PaperSystem(SystemOptions options = {});

  /// The planes' fabrics: the paper's 18-ary 3-tree and 12x8 HyperX, or
  /// with `small_scale` the 96-node stand-ins (a 6-ary 3-tree with 24
  /// populated leaves, a 6x4 HyperX), before any cable is removed.
  [[nodiscard]] static topo::FatTreeParams fat_tree_params(bool small_scale);
  [[nodiscard]] static topo::HyperXParams hyperx_params(bool small_scale);

  struct Config {
    std::string name;              // e.g. "HyperX / PARX / clustered"
    const mpi::Cluster* cluster = nullptr;
    mpi::PlacementKind placement = mpi::PlacementKind::kLinear;
  };

  static constexpr std::size_t kNumConfigs = 5;

  /// The five evaluation combinations; [0] is the paper's baseline.
  [[nodiscard]] const std::array<Config, kNumConfigs>& configs() const {
    return configs_;
  }
  [[nodiscard]] const Config& baseline() const { return configs_[0]; }

  [[nodiscard]] std::int32_t num_nodes() const {
    return hx_->topo().num_terminals();
  }

  [[nodiscard]] const topo::FatTree& fat_tree() const { return *ft_; }
  [[nodiscard]] const topo::HyperX& hyperx() const { return *hx_; }

  [[nodiscard]] const mpi::Cluster& ft_ftree() const { return *ft_ftree_; }
  [[nodiscard]] const mpi::Cluster& ft_sssp() const { return *ft_sssp_; }
  [[nodiscard]] const mpi::Cluster& hx_dfsssp() const { return *hx_dfsssp_; }
  [[nodiscard]] const mpi::Cluster& hx_parx() const { return *hx_parx_; }

  /// The SAR-style interface (Section 4.4.3): re-route the PARX plane for
  /// a concrete communication-demand matrix.  Returns a fresh cluster on
  /// the same HyperX plane.
  [[nodiscard]] mpi::Cluster make_parx_cluster(
      const core::DemandMatrix& demands) const;

 private:
  SystemOptions options_;
  std::unique_ptr<topo::FatTree> ft_;
  std::unique_ptr<topo::HyperX> hx_;
  std::unique_ptr<mpi::Cluster> ft_ftree_;
  std::unique_ptr<mpi::Cluster> ft_sssp_;
  std::unique_ptr<mpi::Cluster> hx_dfsssp_;
  std::unique_ptr<mpi::Cluster> hx_parx_;
  std::array<Config, kNumConfigs> configs_;
};

}  // namespace hxsim::workloads
