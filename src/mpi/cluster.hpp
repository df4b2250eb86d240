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
//    (walk_path), so each candidate is walked once.
//
// The transport range-checks each round and makes its Table-1 draws in
// message order (draw_lid_index); its RoundRunner (mpi/round_runner.hpp)
// walks and solves the rounds in blocks on the runner's thread pool, and
// the transport times each round from its rates, endpoint offsets and hop
// counts.  Round times are bit-identical to a serial, solve-every-round
// loop at any thread count.  parallel_for does not nest, so a transport
// must not run inside a parallel region.  Once the transport has seen its
// largest rounds, a schedule allocates only the vector of times it
// returns.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "mpi/placement.hpp"
#include "mpi/pml.hpp"
#include "mpi/profile.hpp"
#include "mpi/round_runner.hpp"
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

  /// The one RNG draw of LID selection: the index x of dst's LIDx that
  /// select_dlid and walk_path try first.  With Table-1 selection it is
  /// Table 1's pick, drawn from `rng` exactly when the cell lists two
  /// options; otherwise it is 0 and nothing is drawn.  Whether it draws
  /// never depends on reachability.
  [[nodiscard]] std::int8_t draw_lid_index(topo::NodeId src,
                                           topo::NodeId dst,
                                           std::int64_t bytes,
                                           stats::Rng& rng) const;

  /// select_dlid() and the LFT walk of its pick in one, from a drawn first
  /// index and touching no RNG: tries dst's LID `first`, then Table 1's
  /// other listed LID, then dst's remaining LIDs in index order, walking
  /// each candidate once.  The walk that succeeds is left in `path`
  /// (cleared first; empty when no LID routes).  Returns the chosen LID,
  /// kInvalidLid if none routes.  Reads `bytes` only through its Table-1
  /// size class.
  [[nodiscard]] routing::Lid walk_path(
      topo::NodeId src, topo::NodeId dst, std::int64_t bytes,
      std::int8_t first, std::vector<topo::ChannelId>& path) const;

  /// Fully routed network message (empty path for src == dst);
  /// std::nullopt when unroutable.  Draws with draw_lid_index(), then
  /// walks with walk_path().
  [[nodiscard]] std::optional<NetMessage> route_message(
      topo::NodeId src, topo::NodeId dst, std::int64_t bytes,
      stats::Rng& rng) const;

  /// Throws std::out_of_range, naming the rank and its node, if one of the
  /// placement's first `ranks` ranks sits on a node outside the cluster.
  /// `who` opens the message.
  void check_placement(const Placement& placement, std::int32_t ranks,
                       std::string_view who) const;

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
  /// The cluster must outlive the transport.  Throws std::out_of_range if
  /// the placement puts a rank on a node outside the cluster.  Worker
  /// threads: exec::default_threads() at construction.
  Transport(const Cluster& cluster, Placement placement, std::uint64_t seed);

  [[nodiscard]] const Placement& placement() const noexcept {
    return placement_;
  }

  /// Executes the schedule; returns total time [s].
  /// Throws std::runtime_error if any message is unroutable and
  /// std::out_of_range if a message names a rank outside the placement.
  /// Errors keep schedule order: every round before the first failing one
  /// executes first.  A round rejected for its ranks draws nothing and
  /// counts nothing; after an unroutable message the RNG may have drawn
  /// for later rounds of its block.  Like execute_rounds, must not be
  /// called inside an exec::ThreadPool::parallel_for body.
  [[nodiscard]] double execute(const Schedule& schedule);

  /// Per-round completion times (diagnostics / tests); empty rounds take
  /// 0.  Must not be called inside an exec::ThreadPool::parallel_for body.
  [[nodiscard]] std::vector<double> execute_rounds(const Schedule& schedule);

  /// Rounds, over the transport's lifetime, whose rates were copied from
  /// the previous non-empty round of the same schedule (same walks, so
  /// equal paths) instead of solved.
  [[nodiscard]] std::int64_t reused_rounds() const noexcept {
    return runner_.reused_rounds();
  }

  /// Records the schedule's rank-pair byte counts (the IB-profiler stand-in;
  /// no simulation involved).
  static void accumulate(const Schedule& schedule, CommProfile& profile);

 private:
  /// Completion time of a walked and solved round: the slowest message's
  /// endpoint offset, PML overheads, hop latency and bytes over its rate.
  [[nodiscard]] double round_time(const Round& round,
                                  const RoundRunner::Slot& slot);

  const Cluster* cluster_;
  Placement placement_;
  stats::Rng rng_;
  RoundRunner runner_;

  std::vector<std::int32_t> src_count_;  // per rank; zero between rounds
  std::vector<std::int32_t> dst_count_;
};

}  // namespace hxsim::mpi
