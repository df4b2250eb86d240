// OpenSM SSSP routing (Hoefler, Schneider, Lumsdaine [31 in the paper]).
//
// Globally balanced shortest-path routing: each destination gets a Dijkstra
// tree over the current edge weights, and every path routed through a
// channel increments that channel's weight, steering later destinations
// away from already-loaded channels.  SSSP alone is *not* deadlock-free on
// non-tree topologies; DfssspEngine layers its paths onto virtual lanes.
//
// Parallel execution: destinations are processed in fixed-size batches.
// All trees of a batch are computed concurrently against the weight
// snapshot taken at the batch boundary; tables and weight updates are then
// applied serially in LID order.  The batch size is a constant independent
// of the thread count, so the result is *bit-identical* for any number of
// threads (weights are merely stale by at most kBatch-1 destinations, which
// preserves the global balancing property the tests assert).
//
// Paper cross-reference: Section 2.1 (routing survey) and the DFSSSP base
// pass of [17].  SSSP is what PARX's Algorithm 1 runs *inside each pruned
// per-LID fabric*: rules R1-R4 (core/quadrant.hpp, Section 3.2.3) first
// delete the quadrant's forbidden links, then this weighted-Dijkstra
// balancing routes the survivors.  Run bare on the HyperX it produces the
// CDG cycles bench/resilience_campaign flags as "CYCLE".
#pragma once

#include "obs/phase_clock.hpp"
#include "routing/engine.hpp"

namespace hxsim::routing {

class SsspEngine : public RoutingEngine {
 public:
  /// Destinations per weight snapshot; chosen small enough that the
  /// balancing quality is indistinguishable from the sequential update on
  /// the paper fabrics, large enough to feed 8-16 threads.
  static constexpr std::int32_t kBatch = 8;

  /// threads == 0 uses exec::default_threads().
  explicit SsspEngine(std::int32_t threads = 0) : threads_(threads) {}

  [[nodiscard]] std::string name() const override { return "sssp"; }
  [[nodiscard]] RouteResult compute(const topo::Topology& topo,
                                    const LidSpace& lids) override;

  /// Attaches a phase-timer sink (not owned; may be nullptr to detach).
  /// compute() then accumulates wall time under "spf_trees" (parallel
  /// SPF batches) and "table_merge" (serial table + weight merge).
  /// Purely observational: the RouteResult is identical either way.
  void set_timings(obs::PhaseTimings* timings) noexcept {
    timings_ = timings;
  }

 private:
  std::int32_t threads_;
  obs::PhaseTimings* timings_ = nullptr;
};

}  // namespace hxsim::routing
