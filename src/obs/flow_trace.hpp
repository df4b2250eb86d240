// Solver metrics for the max-min flow simulator.
//
// Each progressive-filling solve reports how it converged: the rate levels
// at which flows froze, how many froze per level, and which channels
// saturated.  The saturated set is the flow-level view of the Figure 1
// hotspot -- the shared HyperX cable carrying 7 streams is the first
// channel to saturate, at 1/7th of line rate -- and the level count tracks
// solver cost.
//
// A trace is passed per call (FlowSim::fair_rates / channel_utilisation),
// so the const solver stays safe to run concurrently from solve_batch,
// which does not trace.  Tracing never changes the computed rates.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "topo/topology.hpp"

namespace hxsim::report {
struct ResultSet;
}

namespace hxsim::obs {

/// One progressive-filling solve.
struct FlowSolveRecord {
  std::int32_t active_flows = 0;  // flows participating (self-sends excluded)
  /// Common fill level at each freezing iteration [bytes/s], ascending.
  std::vector<double> levels;
  /// Flows frozen at each level (parallel to `levels`).
  std::vector<std::int32_t> freezes_per_level;
  /// Channels that saturated, in first-saturation order (each listed once).
  std::vector<topo::ChannelId> saturated;

  [[nodiscard]] std::int32_t num_levels() const noexcept {
    return static_cast<std::int32_t>(levels.size());
  }
};

struct FlowSolveTrace {
  /// One record per solve (fair_rates() appends exactly one).
  std::vector<FlowSolveRecord> solves;

  void clear() { solves.clear(); }

  /// Flattens into `rs`: table "flow_solves" (one row per solve: levels,
  /// freezes, saturated-channel count) and summary metrics.
  void publish(report::ResultSet& rs,
               std::string_view table_name = "flow_solves") const;
};

}  // namespace hxsim::obs
