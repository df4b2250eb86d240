// Shortest-path-tree cores shared by the routing engines.
//
// Both functions compute a *destination-rooted* tree: for every switch s the
// result records the out-channel of s on its best path toward dest_sw.
// This is exactly the shape a destination-based LFT needs.
//
//  - spf_to(): minimal paths over the switch graph, weights arbitrating
//    among equal-hop alternatives (OpenSM SSSP / DFSSSP / PARX core).
//    Ties break on smaller channel id, so results are deterministic.
//  - updown_spf_to(): the same, restricted to Up*/Down*-legal paths
//    (ascend in rank first, then descend), used by the ftree and updown
//    engines; it stays loop- and deadlock-free even on faulty fabrics.
//
// Both are hop-layered sweeps, not heap Dijkstra: PathCost orders hop
// count first and every hop adds one, so the switches (in Up*/Down*, the
// (state, switch) pairs) at hop k+1 are exactly those first reached from
// hop k, and each takes the least (weight, channel id) over its admitted
// channels into hop k -- the sums and ties a Dijkstra on PathCost finds.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "topo/topology.hpp"

namespace hxsim::routing {

namespace detail {

/// Lexicographic path cost used by the SPF cores: InfiniBand static routing
/// is *minimal*, so the hop count dominates and the accumulated edge
/// weights only arbitrate among equal-hop alternatives.
struct PathCost {
  std::int32_t hops = 0;
  double weight = 0.0;
};

}  // namespace detail

/// Reusable per-call buffers for spf_to()/updown_spf_to().  A scratch
/// object amortises all allocations of the per-destination sweep across
/// the thousands of destinations a routing engine visits; each worker
/// thread owns one (see exec::ScratchArena).  Contents between calls are
/// unspecified.
struct SpfScratch {
  std::vector<detail::PathCost> cost0, cost1;
  std::vector<topo::ChannelId> parent0, parent1;
  /// The current and the next hop layer: switch ids in spf_to(),
  /// 2 * switch + state in updown_spf_to().
  std::vector<std::int32_t> layer, next_layer;
};

struct SpfResult {
  /// Per switch: the out-channel toward the destination, kInvalidChannel
  /// when unreachable (or for the destination switch itself).
  std::vector<topo::ChannelId> out_channel;
  /// Per switch: hop count of the stored path; +inf when unreachable.
  std::vector<double> dist;

  [[nodiscard]] bool reachable(topo::SwitchId sw) const {
    return dist[static_cast<std::size_t>(sw)] !=
           std::numeric_limits<double>::infinity();
  }
};

/// Weighted minimal paths from every switch to dest_sw.
/// channel_weight may be empty (all weights 1) or sized num_channels().
/// `admit` may be empty (every enabled channel) or sized num_channels():
/// a channel is used only when it is enabled and admit[ch] is nonzero.
/// Both scratch and `out`'s vectors are reused, so a hot loop performs no
/// allocations after warm-up.
void spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
            std::span<const double> channel_weight,
            std::span<const char> admit, SpfScratch& scratch, SpfResult& out);

/// Up*/Down*-legal minimal paths from every switch to dest_sw over the
/// enabled channels.  `rank` is per switch; a forward hop u->v is "up" iff
/// rank[v] < rank[u], "down" iff rank[v] > rank[u] (equal ranks: up iff
/// v < u).  A legal path is up* down*.
void updown_spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
                   std::span<const std::int32_t> rank,
                   std::span<const double> channel_weight,
                   SpfScratch& scratch, SpfResult& out);

}  // namespace hxsim::routing
