// Channel dependency graph (CDG) machinery for deadlock-free routing.
//
// A routing function is deadlock-free on a virtual lane iff the dependency
// graph whose vertices are channels and whose edges connect consecutive
// channels of some path is acyclic (Dally & Towles [13 in the paper]).
//
//  - IncrementalDag: an online DAG with cycle rejection, implementing the
//    Pearce-Kelly dynamic topological-order algorithm.  add_edge() refuses
//    (and leaves the DAG unchanged) when the edge would close a cycle.
//  - VlLayering: greedy path-to-layer assignment used by DFSSSP and PARX --
//    a path goes to the lowest virtual lane whose CDG stays acyclic.
//  - acyclic(): batch oracle used by tests to independently verify the
//    layering (Kahn's algorithm).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

namespace hxsim::routing {

/// Built for lane placement, where every insertion is a trial: VlLayering
/// tries a path's dependencies on each lane in turn, so a path that lands
/// on lane k was first rejected by lanes 0..k-1.  A rejection is cheap --
/// the forward search stops at the first node that proves the cycle --
/// and the search scratch (stack, both visit lists, the reorder pool)
/// lives in the object: once warm, add_edge allocates only to grow an
/// adjacency list.  Edges are found by scanning the tail's out-list; a CDG
/// node's out-degree is bounded by the switch radix.
class IncrementalDag {
 public:
  explicit IncrementalDag(std::int32_t num_nodes);

  /// Adds edge u -> v unless it would create a cycle.
  /// Returns false (and changes nothing) when rejected.
  /// Adding an existing edge succeeds trivially.
  /// Throws std::out_of_range for a node outside [0, num_nodes).
  bool add_edge(std::int32_t u, std::int32_t v);

  /// Removes an edge if present (removals never create cycles).
  /// Throws std::out_of_range like add_edge.
  void remove_edge(std::int32_t u, std::int32_t v);

  /// Throws std::out_of_range like add_edge.
  [[nodiscard]] bool has_edge(std::int32_t u, std::int32_t v) const;

  /// Current topological position of a node (tests assert consistency).
  [[nodiscard]] std::int32_t order_of(std::int32_t node) const {
    return ord_[static_cast<std::size_t>(node)];
  }

 private:
  void check_nodes(const char* what, std::int32_t u, std::int32_t v) const;
  /// DFS forward from `v` over nodes with ord < ub, marking and collecting
  /// its visits in delta_f_; returns true as soon as the node at position
  /// ub (i.e. u) is reached.
  bool dfs_forward(std::int32_t v, std::int32_t ub);
  /// DFS backward from `u` over nodes with ord > lb, marking and collecting
  /// its visits in delta_b_.
  void dfs_backward(std::int32_t u, std::int32_t lb);
  /// Pearce-Kelly reorder: place delta_b_ before delta_f_ in the union of
  /// their current positions.
  void reorder();

  std::int32_t n_;
  std::vector<std::vector<std::int32_t>> out_;
  std::vector<std::vector<std::int32_t>> in_;
  std::vector<std::int32_t> ord_;  // node -> topological position
  std::vector<char> mark_;         // DFS visit marks, all 0 between calls
  // Search scratch, reused across add_edge calls.
  std::vector<std::int32_t> stack_;
  std::vector<std::int32_t> delta_f_;
  std::vector<std::int32_t> delta_b_;
  std::vector<std::int32_t> pool_;
};

/// Greedy assignment of paths (channel sequences) to virtual lanes.
///
/// Most paths that land on lane k > 0 are refused by lanes 0..k-1 on a
/// dependency some earlier path was already refused on, so each lane
/// remembers its refusals and answers a repeated one without a search.
/// Only a refusal made while no trial dependency of the current path is
/// pending on the lane is remembered: its cycle then runs through
/// committed dependencies alone, and a lane's committed dependencies only
/// grow, so the refusal stands for the layering's lifetime.
class VlLayering {
 public:
  VlLayering(std::int32_t num_channels, std::int32_t max_layers);

  /// Places all consecutive dependencies of `channel_path` into the lowest
  /// layer that stays acyclic.  Returns the layer, or -1 if no layer fits
  /// (the paper's "PARX may exceed a VL hardware limit" case).
  std::int32_t place_path(std::span<const std::int32_t> channel_path);

  [[nodiscard]] std::int32_t layers_used() const noexcept {
    return layers_used_;
  }
  [[nodiscard]] std::int32_t max_layers() const noexcept {
    return static_cast<std::int32_t>(layers_.size());
  }

 private:
  std::vector<IncrementalDag> layers_;
  std::int32_t layers_used_ = 0;
  /// Dependencies a trial placement added, rolled back if a later one
  /// closes a cycle; reused across calls.
  std::vector<std::pair<std::int32_t, std::int32_t>> added_;
  /// Per layer, the standing refusals a -> b, keyed a << 32 | b.
  std::vector<std::unordered_set<std::uint64_t>> refused_;
};

/// Batch acyclicity test over dependency edges (pairs u -> v).
[[nodiscard]] bool acyclic(
    std::int32_t num_nodes,
    std::span<const std::pair<std::int32_t, std::int32_t>> edges);

}  // namespace hxsim::routing
