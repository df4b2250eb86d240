// Cluster = topology + routing + LID space + PML: one "machine plane".
// Transport = cluster + placement: executes MPI-level communication
// schedules and reports wall time.
//
// Execution model (documented in DESIGN.md):
//  - a Schedule is a list of rounds; messages within a round start
//    concurrently, rounds are separated by dependency barriers (this is how
//    binomial trees, dissemination barriers, ring steps etc. behave);
//  - per-message software cost: PML overhead, serialized per endpoint (the
//    k-th concurrent message of a rank starts k overheads late);
//  - network cost: max-min fair share of the routed path's channels
//    (fixed-rate round model, FlowSim's default adaptive core) plus
//    per-hop latency;
//  - PARX/bfo picks the destination LID per Table 1 and message size, with
//    reachability fallback across the four LIDs (faulty fabrics); the LFT
//    walk that proves a candidate reachable is also the message's path
//    (select_path), so each candidate is walked once.
//
// A round routes into transport-owned buffers and solves through
// FlowSim::solve_active on transport-owned scratch: once the transport has
// seen its largest round, rounds allocate nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mpi/placement.hpp"
#include "mpi/pml.hpp"
#include "mpi/profile.hpp"
#include "routing/engine.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"

namespace hxsim::mpi {

/// One MPI point-to-point message between ranks.
struct RankMsg {
  std::int32_t src_rank = -1;
  std::int32_t dst_rank = -1;
  std::int64_t bytes = 0;
};

/// Messages that start concurrently.
using Round = std::vector<RankMsg>;
/// Dependency-ordered rounds.
using Schedule = std::vector<Round>;

/// A fully routed network message (Cluster::route_message).
struct NetMessage {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  std::int64_t bytes = 0;
  /// Routed path (terminal-up ... switch-terminal); empty for self-sends.
  std::vector<topo::ChannelId> path;
  std::int8_t vl = 0;
};

class Cluster {
 public:
  /// The topology must outlive the cluster; routing results are owned.
  Cluster(const topo::Topology& topo, routing::LidSpace lids,
          routing::RouteResult route, PmlConfig pml,
          sim::LinkModel link = {});

  [[nodiscard]] const topo::Topology& topo() const noexcept { return *topo_; }
  [[nodiscard]] const routing::LidSpace& lids() const noexcept { return lids_; }
  [[nodiscard]] const routing::RouteResult& route() const noexcept {
    return route_;
  }
  [[nodiscard]] const PmlConfig& pml() const noexcept { return pml_; }
  [[nodiscard]] const sim::LinkModel& link() const noexcept { return link_; }
  [[nodiscard]] std::int32_t num_nodes() const noexcept {
    return topo_->num_terminals();
  }

  /// Destination LID for a (src, dst, size) message: Table 1 on bfo with a
  /// quadrant-grouped LMC=2 space, LID0 otherwise.  Falls back across the
  /// node's LIDs when the preferred one is unreachable; kInvalidLid if no
  /// LID routes.
  [[nodiscard]] routing::Lid select_dlid(topo::NodeId src, topo::NodeId dst,
                                         std::int64_t bytes,
                                         stats::Rng& rng) const;

  /// select_dlid() and the LFT walk of its pick in one: each candidate LID
  /// is walked once, in select_dlid's order and with its RNG draws, and
  /// the walk that succeeds is left in `path` (cleared first; empty when
  /// no LID routes).  Returns the chosen LID, kInvalidLid if none routes.
  [[nodiscard]] routing::Lid select_path(
      topo::NodeId src, topo::NodeId dst, std::int64_t bytes,
      stats::Rng& rng, std::vector<topo::ChannelId>& path) const;

  /// Fully routed network message (empty path for src == dst);
  /// std::nullopt when unroutable.  Built on select_path().
  [[nodiscard]] std::optional<NetMessage> route_message(
      topo::NodeId src, topo::NodeId dst, std::int64_t bytes,
      stats::Rng& rng) const;

 private:
  const topo::Topology* topo_;
  routing::LidSpace lids_;
  routing::RouteResult route_;
  PmlConfig pml_;
  sim::LinkModel link_;
  bool parx_selection_ = false;
};

class Transport {
 public:
  /// The cluster must outlive the transport.
  Transport(const Cluster& cluster, Placement placement, std::uint64_t seed);

  [[nodiscard]] const Placement& placement() const noexcept {
    return placement_;
  }

  /// Executes the schedule; returns total time [s].
  /// Throws std::runtime_error if any message is unroutable and
  /// std::out_of_range if a message names a rank outside the placement.
  [[nodiscard]] double execute(const Schedule& schedule);

  /// Per-round completion times (diagnostics / tests).  Once the transport
  /// has seen its largest round, a round allocates nothing: paths, rates
  /// and the solver scratch live in buffers the transport owns.
  [[nodiscard]] std::vector<double> execute_rounds(const Schedule& schedule);

  /// Records the schedule's rank-pair byte counts (the IB-profiler stand-in;
  /// no simulation involved).
  static void accumulate(const Schedule& schedule, CommProfile& profile);

 private:
  [[nodiscard]] double round_time(const Round& round);

  const Cluster* cluster_;
  Placement placement_;
  stats::Rng rng_;
  sim::FlowSim solver_;

  // Round state reused from round to round.
  std::vector<sim::Flow> flows_;  // grows to the largest round
  std::vector<char> active_;      // all 1, same length as flows_
  std::vector<double> rates_;
  std::vector<double> offsets_;
  std::vector<std::int32_t> src_count_;  // per rank; zero between rounds
  std::vector<std::int32_t> dst_count_;
  sim::FlowSim::SolveScratch scratch_;
};

}  // namespace hxsim::mpi
