// Shortest-path-tree cores shared by the routing engines.
//
// Both functions compute a *destination-rooted* tree: for every switch s the
// result records the out-channel of s on its best path toward dest_sw.
// This is exactly the shape a destination-based LFT needs.
//
//  - spf_to(): weighted Dijkstra over the switch graph (OpenSM SSSP /
//    DFSSSP / PARX core).  Ties break on smaller channel id, so results are
//    deterministic.
//  - updown_spf_to(): two-phase Dijkstra restricted to Up*/Down*-legal paths
//    (ascend in rank first, then descend) used by the ftree and updown
//    engines; it stays loop- and deadlock-free even on faulty fabrics.
#pragma once

#include <cstdint>
#include <functional>
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

  friend bool operator<(const PathCost& a, const PathCost& b) {
    if (a.hops != b.hops) return a.hops < b.hops;
    return a.weight < b.weight;
  }
  friend bool operator==(const PathCost& a, const PathCost& b) {
    return a.hops == b.hops && a.weight == b.weight;
  }
};

struct HeapEntry {
  PathCost cost;
  std::int8_t state = 0;  // updown phase; always 0 for plain spf_to
  topo::SwitchId sw = 0;
};

}  // namespace detail

/// Reusable per-call buffers for spf_to()/updown_spf_to().  A scratch
/// object amortises all heap allocations of the per-destination Dijkstra
/// across the thousands of destinations a routing engine visits; each
/// worker thread owns one (see exec::ScratchArena).  Contents between
/// calls are unspecified.
struct SpfScratch {
  std::vector<detail::PathCost> cost0, cost1;
  std::vector<topo::ChannelId> parent0, parent1;
  std::vector<detail::HeapEntry> heap;
};

struct SpfResult {
  /// Per switch: the out-channel toward the destination, kInvalidChannel
  /// when unreachable (or for the destination switch itself).
  std::vector<topo::ChannelId> out_channel;
  /// Per switch: total path weight; +inf when unreachable.
  std::vector<double> dist;

  [[nodiscard]] bool reachable(topo::SwitchId sw) const {
    return dist[static_cast<std::size_t>(sw)] !=
           std::numeric_limits<double>::infinity();
  }
};

/// Extra per-channel admission test on top of the enabled flag; empty
/// function admits everything.
using ChannelFilter = std::function<bool(topo::ChannelId)>;

/// Weighted shortest paths from every switch to dest_sw.
/// channel_weight may be empty (all weights 1) or sized num_channels().
/// The scratch overload reuses both the scratch buffers and `out`'s
/// vectors, so a hot loop performs no allocations after warm-up.
void spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
            std::span<const double> channel_weight,
            const ChannelFilter& filter, SpfScratch& scratch, SpfResult& out);

[[nodiscard]] SpfResult spf_to(const topo::Topology& topo,
                               topo::SwitchId dest_sw,
                               std::span<const double> channel_weight = {},
                               const ChannelFilter& filter = {});

/// Up*/Down*-legal shortest paths from every switch to dest_sw.
/// `rank` is per switch; a forward hop u->v is "up" iff rank[v] < rank[u],
/// "down" iff rank[v] > rank[u] (equal ranks: up iff v < u).  A legal path
/// is up* down*.
void updown_spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
                   std::span<const std::int32_t> rank,
                   std::span<const double> channel_weight,
                   const ChannelFilter& filter, SpfScratch& scratch,
                   SpfResult& out);

[[nodiscard]] SpfResult updown_spf_to(const topo::Topology& topo,
                                      topo::SwitchId dest_sw,
                                      std::span<const std::int32_t> rank,
                                      std::span<const double> channel_weight = {},
                                      const ChannelFilter& filter = {});

}  // namespace hxsim::routing
