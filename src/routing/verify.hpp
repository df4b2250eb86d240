// Post-routing verification on (possibly degraded) fabrics.
//
// After fault injection an engine's compute() is re-run; these entry points
// answer the two questions an operator asks of the rerouted fabric:
//
//  - verify_deadlock_freedom(): rebuild the per-virtual-lane channel
//    dependency graphs from the *forwarding tables as deployed* and check
//    each layer acyclic (Kahn's algorithm via routing::acyclic).  This is
//    independent of whatever CDG the engine maintained internally -- it
//    verifies the shipped tables, the way a fabric audit would.
//  - route_census(): walk every (source terminal, destination LID) path,
//    counting lost pairs (the paper's footnote-7 "lost LIDs"), lost
//    individual LID paths, and switch-hop statistics for path-length
//    inflation tracking.
//
// reroute_and_verify() bundles recompute + both checks: the campaign
// driver's per-stage entry point.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/engine.hpp"

namespace hxsim::routing {

struct CdgReport {
  /// True iff every used virtual lane's dependency graph is acyclic.
  bool acyclic = true;
  std::int32_t num_vls = 1;
  /// Dependency edges found per virtual lane (deduplicated).
  std::vector<std::int64_t> edges_per_vl;
  /// Lowest VL whose CDG contains a cycle; -1 when acyclic.
  std::int8_t first_cyclic_vl = -1;
};

/// Rebuilds the per-VL CDGs from `route`'s tables over all (source
/// terminal, destination LID) paths and batch-checks each layer.
[[nodiscard]] CdgReport verify_deadlock_freedom(const topo::Topology& topo,
                                                const LidSpace& lids,
                                                const RouteResult& route);

struct PathCensus {
  /// Ordered (src, dst) terminal pairs considered (src != dst).
  std::int64_t pairs = 0;
  std::int64_t routable_pairs = 0;
  /// Pairs no LID of the destination can reach: footnote 7's lost LIDs.
  std::int64_t lost_pairs = 0;
  /// Individual (src, destination LID) paths considered / lost.  On multi-
  /// LID spaces a pair can lose some LIDs yet stay routable via others.
  std::int64_t lid_paths = 0;
  std::int64_t lost_lid_paths = 0;
  /// Switch-hop statistics over each routable pair's shortest surviving
  /// LID path.
  std::int64_t total_switch_hops = 0;
  std::int32_t max_switch_hops = 0;
  /// Blackhole columns: LFT entries that forward onto a *disabled* channel.
  /// A freshly computed or correctly patched table has zero -- any entry
  /// pointing at a dead channel silently eats table-routed traffic (the
  /// stale-table hazard the online fault layer simulates).  Counted over
  /// the full LFT, independent of the terminal mask.
  std::int64_t blackhole_entries = 0;

  [[nodiscard]] double reachability() const {
    return pairs > 0 ? static_cast<double>(routable_pairs) /
                           static_cast<double>(pairs)
                     : 1.0;
  }
  [[nodiscard]] double mean_switch_hops() const {
    return routable_pairs > 0 ? static_cast<double>(total_switch_hops) /
                                    static_cast<double>(routable_pairs)
                              : 0.0;
  }
};

/// All-pairs path walk over the tables.  Parallelised over source
/// terminals (threads == 0: exec::default_threads()); the census is a sum
/// of per-source integer counts, so the result is identical at any thread
/// count.
[[nodiscard]] PathCensus route_census(const topo::Topology& topo,
                                      const LidSpace& lids,
                                      const ForwardingTables& tables,
                                      std::int32_t threads = 0);

/// Census restricted to a terminal subset: pairs are counted only when
/// both endpoints have a non-zero mask entry (empty mask = all terminals).
/// The degraded-fabric form -- terminals on dead switches are excluded, so
/// "no lost pairs" asserts exactly the connectivity the fabric still owes.
[[nodiscard]] PathCensus route_census(const topo::Topology& topo,
                                      const LidSpace& lids,
                                      const ForwardingTables& tables,
                                      std::span<const char> terminals,
                                      std::int32_t threads = 0);

struct RouteAudit {
  CdgReport cdg;
  PathCensus census;
};

/// Audits an existing RouteResult (deadlock freedom + path census) without
/// recomputing or copying it -- the resilience campaign's per-stage check
/// of each engine's fresh compute().
[[nodiscard]] RouteAudit audit_route(const topo::Topology& topo,
                                     const LidSpace& lids,
                                     const RouteResult& route,
                                     std::int32_t threads = 0);

struct RerouteOutcome {
  RouteResult route;
  CdgReport cdg;
  PathCensus census;
};

/// The degraded-fabric reroute entry point: recomputes the engine on the
/// current (possibly faulted) topology, then audits the result.  Throws if
/// the shipped tables contain blackhole columns (census.blackhole_entries
/// != 0): a freshly computed table must never forward onto a dead channel.
[[nodiscard]] RerouteOutcome reroute_and_verify(RoutingEngine& engine,
                                                const topo::Topology& topo,
                                                const LidSpace& lids,
                                                std::int32_t threads = 0);

}  // namespace hxsim::routing
