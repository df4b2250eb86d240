#include "workloads/paper_system.hpp"

#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "topo/fault_injector.hpp"

namespace hxsim::workloads {

topo::FatTreeParams PaperSystem::fat_tree_params(bool small_scale) {
  if (!small_scale) return topo::paper_fat_tree_params();
  topo::FatTreeParams p;
  p.arity = 6;
  p.levels = 3;
  p.leaf_terminals = 4;
  p.populated_leaves = 24;  // 96 nodes
  p.name = "fat-tree-6ary3-small";
  return p;
}

topo::HyperXParams PaperSystem::hyperx_params(bool small_scale) {
  if (!small_scale) return topo::paper_hyperx_params();
  topo::HyperXParams p;
  p.dims = {6, 4};
  p.terminals_per_switch = 4;  // 96 nodes
  p.name = "hyperx-6x4-small";
  return p;
}

PaperSystem::PaperSystem(SystemOptions options) : options_(options) {
  ft_ = std::make_unique<topo::FatTree>(fat_tree_params(options.small_scale));
  hx_ = std::make_unique<topo::HyperX>(hyperx_params(options.small_scale));
  if (options.with_faults) {
    const std::int32_t scale = options.small_scale ? 8 : 1;
    topo::inject_link_faults(ft_->topo(),
                             topo::kPaperFatTreeMissingLinks / scale,
                             options.fault_seed);
    topo::inject_link_faults(hx_->topo(),
                             topo::kPaperHyperXMissingLinks / scale,
                             options.fault_seed);
  }

  {
    routing::LidSpace lids =
        routing::LidSpace::consecutive(ft_->topo().num_terminals(), 0);
    routing::FtreeEngine engine(*ft_);
    ft_ftree_ = std::make_unique<mpi::Cluster>(
        ft_->topo(), lids, engine.compute(ft_->topo(), lids),
        mpi::make_ob1());
  }
  {
    routing::LidSpace lids =
        routing::LidSpace::consecutive(ft_->topo().num_terminals(), 0);
    // The paper runs plain SSSP on the tree; up/down legality (and thus
    // deadlock freedom) is inherent there because SSSP's minimal paths on
    // a tree never bounce, so one VL suffices -- we still route via the
    // deadlock-free variant for uniformity.
    routing::DfssspEngine engine(8);
    ft_sssp_ = std::make_unique<mpi::Cluster>(
        ft_->topo(), lids, engine.compute(ft_->topo(), lids),
        mpi::make_ob1());
  }
  {
    routing::LidSpace lids =
        routing::LidSpace::consecutive(hx_->topo().num_terminals(), 0);
    routing::DfssspEngine engine(8);
    hx_dfsssp_ = std::make_unique<mpi::Cluster>(
        hx_->topo(), lids, engine.compute(hx_->topo(), lids),
        mpi::make_ob1());
  }
  {
    routing::LidSpace lids = core::make_parx_lid_space(*hx_);
    core::ParxOptions parx_opts;
    parx_opts.max_vls = options.parx_max_vls;
    core::ParxEngine engine(*hx_, core::DemandMatrix{}, parx_opts);
    hx_parx_ = std::make_unique<mpi::Cluster>(
        hx_->topo(), lids, engine.compute(hx_->topo(), lids),
        mpi::make_bfo());
  }

  configs_ = {
      Config{"Fat-Tree / ftree / linear", ft_ftree_.get(),
             mpi::PlacementKind::kLinear},
      Config{"Fat-Tree / SSSP / clustered", ft_sssp_.get(),
             mpi::PlacementKind::kClustered},
      Config{"HyperX / DFSSSP / linear", hx_dfsssp_.get(),
             mpi::PlacementKind::kLinear},
      Config{"HyperX / DFSSSP / random", hx_dfsssp_.get(),
             mpi::PlacementKind::kRandom},
      Config{"HyperX / PARX / clustered", hx_parx_.get(),
             mpi::PlacementKind::kClustered},
  };
}

mpi::Cluster PaperSystem::make_parx_cluster(
    const core::DemandMatrix& demands) const {
  routing::LidSpace lids = core::make_parx_lid_space(*hx_);
  core::ParxOptions parx_opts;
  parx_opts.max_vls = options_.parx_max_vls;
  core::ParxEngine engine(*hx_, demands, parx_opts);
  return mpi::Cluster(hx_->topo(), lids, engine.compute(hx_->topo(), lids),
                      mpi::make_bfo());
}

}  // namespace hxsim::workloads
