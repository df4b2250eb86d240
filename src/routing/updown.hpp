// Up*/Down* routing (Autonet [72 in the paper]) for arbitrary topologies.
//
// Switches are ranked by BFS depth from a root; a packet may only ascend
// (toward the root) and then descend, which makes any fabric deadlock-free
// on a single virtual lane at the price of concentrating traffic near the
// root.  Serves as the topology-agnostic deadlock-free baseline the paper
// mentions alongside DFSSSP/LASH/Nue.
//
// Paper cross-reference: Section 2.1's survey of deadlock-free options for
// the HyperX.  Up*/Down* needs no virtual lanes where DFSSSP spends them
// and PARX's Algorithm 1 spends LIDs (rules R1-R4, core/quadrant.hpp), but
// pays with root congestion -- visible in this repo as the lowest
// throughput column of bench/resilience_campaign and the engine matrix.
#pragma once

#include "routing/engine.hpp"

namespace hxsim::routing {

class UpDownEngine final : public RoutingEngine {
 public:
  /// root < 0 selects the highest-degree switch (lowest id on ties).
  /// Destinations are independent (unit weights), so compute()
  /// parallelises over `threads` workers with bit-identical output;
  /// threads == 0 uses exec::default_threads().
  explicit UpDownEngine(topo::SwitchId root = -1, std::int32_t threads = 0)
      : root_(root), threads_(threads) {}

  [[nodiscard]] std::string name() const override { return "updown"; }
  [[nodiscard]] RouteResult compute(const topo::Topology& topo,
                                    const LidSpace& lids) override;

 private:
  [[nodiscard]] std::vector<std::int32_t> compute_ranks(
      const topo::Topology& topo) const;

  topo::SwitchId root_;
  std::int32_t threads_;
};

}  // namespace hxsim::routing
