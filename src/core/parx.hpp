// PARX: Pattern-Aware Routing for 2-D HyperX topologies (paper Section
// 3.2.3, Algorithm 1) -- the paper's primary contribution.
//
// PARX provides every destination port with four virtual destination LIDs
// (LMC = 2) and routes each LIDx on a *pruned* copy of the fabric according
// to rules R1-R4 (see core/quadrant.hpp), so that minimal and non-minimal
// path sets coexist in one static, destination-based routing.  Path
// calculation is the DFSSSP modified Dijkstra; edge-weight updates are
// demand-weighted (+w from the ingested communication profile for listed
// destinations, +1 otherwise), which separates high-traffic paths and
// reduces "dark fiber".  Finally all paths are layered onto virtual lanes
// for deadlock freedom; the paper observes 5-8 VLs on the 12x8 HyperX.
#pragma once

#include "core/demand.hpp"
#include "core/quadrant.hpp"
#include "obs/phase_clock.hpp"
#include "routing/engine.hpp"

namespace hxsim::core {

struct ParxOptions {
  /// Hardware virtual-lane budget (QDR InfiniBand: 8).
  std::int32_t max_vls = 8;
  /// Ablation switch: when false the engine skips the demand-weighted edge
  /// updates and balances globally (+1 per path) like plain DFSSSP.
  bool use_demand_weights = true;
  /// Ablation switch: when false rules R1-R4 are not applied and all four
  /// LIDs route minimally (isolates the effect of forced detours).
  bool use_link_pruning = true;
};

class ParxEngine final : public routing::RoutingEngine {
 public:
  /// The HyperX must outlive the engine.  An empty demand matrix routes
  /// all destinations with the +1 fallback (last loop of Algorithm 1).
  explicit ParxEngine(const topo::HyperX& hx, DemandMatrix demands = {},
                      ParxOptions options = {});

  [[nodiscard]] std::string name() const override { return "parx"; }

  /// `lids` must be the quadrant-grouped LMC=2 space from
  /// make_parx_lid_space() -- the rules are indexed by LID offset.
  [[nodiscard]] routing::RouteResult compute(const topo::Topology& topo,
                                             const routing::LidSpace& lids)
      override;

  /// Attaches a phase-timer sink (not owned; nullptr detaches): compute()
  /// accumulates "spf_trees" (the per-column pruned SPF sweep plus its LFT
  /// column), "parx_load" (the edge-weight update) and assign_vls's
  /// "vl_path_extraction" and "vl_placement".  The same contract as
  /// DfssspEngine::set_timings: observational only.
  void set_timings(obs::PhaseTimings* timings) noexcept {
    timings_ = timings;
  }

 private:
  const topo::HyperX* hx_;
  DemandMatrix demands_;
  ParxOptions options_;
  obs::PhaseTimings* timings_ = nullptr;
};

}  // namespace hxsim::core
