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
#include "routing/delta.hpp"
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

class ParxEngine final : public routing::RoutingEngine,
                         public routing::DeltaCapable {
 public:
  /// The HyperX must outlive the engine.  An empty demand matrix routes
  /// all destinations with the +1 fallback (last loop of Algorithm 1).
  explicit ParxEngine(const topo::HyperX& hx, DemandMatrix demands = {},
                      ParxOptions options = {});

  /// Re-routing trigger: ingest a new communication profile before the next
  /// compute() (the paper's OpenSM interface re-routes the fabric prior to
  /// job start).  Invalidates any tracked delta state: the destination
  /// order and weight evolution both depend on the profile.
  void set_demands(DemandMatrix demands) {
    demands_ = std::move(demands);
    track_.valid = false;
  }

  [[nodiscard]] std::string name() const override { return "parx"; }

  /// `lids` must be the quadrant-grouped LMC=2 space from
  /// make_parx_lid_space() -- the rules are indexed by LID offset.
  [[nodiscard]] routing::RouteResult compute(const topo::Topology& topo,
                                             const routing::LidSpace& lids)
      override;

  // DeltaCapable.  Algorithm 1's weight evolution is strictly sequential
  // (batch 1), so an update replays the weight contributions of the
  // columns before the first membership-dirty (destination rank, LIDx)
  // column from the cached trees and recomputes every column from there
  // on; the VL placement re-runs iff any LFT column changed.
  [[nodiscard]] routing::RouteResult compute_tracked(
      const topo::Topology& topo, const routing::LidSpace& lids) override;
  routing::DeltaStats update_tracked(const topo::Topology& topo,
                                     const routing::LidSpace& lids,
                                     const routing::DeltaUpdate& update,
                                     routing::RouteResult& io) override;
  void invalidate_tracking() noexcept override { track_.valid = false; }

  /// Attaches a phase-timer sink (not owned; nullptr detaches): compute()
  /// and the tracked paths accumulate "spf_trees" (the per-column pruned
  /// Dijkstra plus its LFT column), "parx_load" (the edge-weight update)
  /// and assign_vls's "vl_path_extraction" and "vl_placement".  The same
  /// contract as DfssspEngine::set_timings: observational only.
  void set_timings(obs::PhaseTimings* timings) noexcept {
    timings_ = timings;
  }

 private:
  routing::RouteResult compute_impl(const topo::Topology& topo,
                                    const routing::LidSpace& lids,
                                    routing::TreeTrackState* track);

  const topo::HyperX* hx_;
  DemandMatrix demands_;
  ParxOptions options_;
  routing::TreeTrackState track_;
  obs::PhaseTimings* timings_ = nullptr;
};

}  // namespace hxsim::core
