// Routing-engine interface.
//
// An engine turns (topology, LID space) into forwarding tables plus a
// virtual-lane map, mirroring what an OpenSM routing engine produces for an
// InfiniBand fabric.  Engines are constructed with whatever topology
// metadata they need (the ftree engine needs the tree structure, PARX needs
// the HyperX lattice and its demand profile); compute() may be called
// repeatedly, e.g. once per fault stage, and keeps no state between calls
// that changes its result.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "routing/forwarding.hpp"
#include "routing/lid_space.hpp"
#include "topo/topology.hpp"

namespace hxsim::routing {

struct RouteResult {
  ForwardingTables tables;
  VlMap vls;
  /// Highest virtual lane used + 1 (1 when no VL layering was needed).
  std::int32_t num_vls_used = 1;
  /// (switch, dlid) entries for which no route exists.  Non-zero values do
  /// not necessarily affect terminals: e.g. on a faulty fat-tree a *root*
  /// can lose its only legal down path to a leaf while every terminal
  /// still routes around that root.  With PARX's link pruning terminal
  /// paths themselves can be lost on faulty fabrics (paper footnote 7);
  /// the MPI layer then falls back to another LID.
  std::int64_t unreachable_entries = 0;

  /// Field-wise equality; used to assert that parallel engine runs are
  /// bit-identical to the 1-thread run.
  [[nodiscard]] bool operator==(const RouteResult&) const = default;
};

class RoutingEngine {
 public:
  virtual ~RoutingEngine() = default;
  RoutingEngine() = default;
  RoutingEngine(const RoutingEngine&) = delete;
  RoutingEngine& operator=(const RoutingEngine&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual RouteResult compute(const topo::Topology& topo,
                                            const LidSpace& lids) = 0;
};

/// Fills LFT entries for every switch from a destination-rooted SPF tree.
/// Shared by the SPF-based engines.  Returns the number of switches
/// with no route to the destination.
std::int64_t apply_tree_to_tables(const topo::Topology& topo,
                                  const struct SpfResult& tree,
                                  topo::NodeId dest_node, Lid dlid,
                                  ForwardingTables& tables);

}  // namespace hxsim::routing
