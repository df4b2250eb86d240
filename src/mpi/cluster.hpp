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
// In the fixed-rate model a round's rates depend only on its routed paths,
// so once the Table-1 draws are made in message order the rounds of a
// schedule are independent.  The transport runs a schedule in blocks of
// rounds: a serial pass range-checks each round, computes its endpoint
// offsets and makes every RNG draw (draw_lid_index); then its thread pool
// walks the block's rounds (walk_path) and solves them (one
// FlowSim::solve_active per round), striped over one scratch per thread,
// each task writing only its own rounds' slots.  A round that walks
// exactly the previous round's paths (same endpoints, drawn LIDs and size
// classes) copies that round's rates instead of solving.  Round times are
// bit-identical to a serial, solve-every-round loop at any thread count.
// parallel_for does not nest, so a transport must not run inside a
// parallel region.
//
// Rounds route into transport-owned buffers and solve on transport-owned
// scratch: once the transport has seen its largest rounds, a schedule
// allocates only the vector of times it returns.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exec/exec.hpp"
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
  /// Equal to walk_path(src, dst, bytes, draw_lid_index(src, dst, bytes,
  /// rng), path).
  [[nodiscard]] routing::Lid select_path(
      topo::NodeId src, topo::NodeId dst, std::int64_t bytes,
      stats::Rng& rng, std::vector<topo::ChannelId>& path) const;

  /// The one RNG draw of LID selection: the index x of dst's LIDx that
  /// select_dlid and select_path try first.  With Table-1 selection it is
  /// Table 1's pick, drawn from `rng` exactly when the cell lists two
  /// options; otherwise it is 0 and nothing is drawn.  Whether it draws
  /// never depends on reachability.
  [[nodiscard]] std::int8_t draw_lid_index(topo::NodeId src,
                                           topo::NodeId dst,
                                           std::int64_t bytes,
                                           stats::Rng& rng) const;

  /// select_path from a drawn first index, touching no RNG: tries dst's
  /// LID `first`, then Table 1's other listed LID, then dst's remaining
  /// LIDs in index order, and leaves the walk that succeeds in `path`.
  /// Reads `bytes` only through its Table-1 size class.
  [[nodiscard]] routing::Lid walk_path(
      topo::NodeId src, topo::NodeId dst, std::int64_t bytes,
      std::int8_t first, std::vector<topo::ChannelId>& path) const;

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
    return reused_rounds_;
  }

  /// Records the schedule's rank-pair byte counts (the IB-profiler stand-in;
  /// no simulation involved).
  static void accumulate(const Schedule& schedule, CommProfile& profile);

 private:
  /// Non-empty rounds per block: the serial draws of a block run before
  /// its parallel walks and solves.
  static constexpr std::size_t kBlockRounds = 32;
  /// Messages from which a block goes to the pool.  In the IMB sweep on
  /// the paper planes (4 cores), smaller blocks ran slower on four threads
  /// than on the calling thread: waking the pool cost more than their
  /// walks and solves.
  static constexpr std::size_t kParallelMessages = 1024;

  /// A message's endpoints and the LID index its serial draw picked.
  struct Endpoints {
    topo::NodeId src = topo::kInvalidNode;
    topo::NodeId dst = topo::kInvalidNode;
    std::int8_t first_lid = 0;
  };

  /// One non-empty round in flight.  The buffers only grow: a round uses
  /// their first `size` entries, and each path keeps its capacity.
  struct RoundSlot {
    std::size_t index = 0;  // position in the schedule
    std::size_t size = 0;   // messages
    bool reuse = false;     // walks the previous round's paths
    std::vector<Endpoints> ends;
    std::vector<sim::Flow> flows;
    std::vector<double> offsets;
    std::vector<double> rates;
  };

  /// Slot of the round at running position `pos` (non-empty rounds of the
  /// current schedule).  A block holds kBlockRounds positions; the ring
  /// has one more slot, so the previous block's last round survives.
  [[nodiscard]] RoundSlot& slot_at(std::size_t pos) {
    return slots_[pos % slots_.size()];
  }
  /// Serial pass over one round: offsets and RNG draws in message order.
  void draw_round(const Round& round, std::size_t index, RoundSlot& slot);
  /// Whether two drawn rounds walk the same paths: message by message,
  /// the same endpoints, drawn LID index and Table-1 size class -- all
  /// that Cluster::walk_path reads.
  [[nodiscard]] static bool same_walks(const RoundSlot& slot,
                                       const RoundSlot& prev);
  /// LFT walks of one drawn round into its slot; throws if unroutable.
  void walk_round(RoundSlot& slot) const;
  /// Walks the block's rounds stripe, stripe + stripes, ... and solves
  /// those that do not reuse on scratch_[stripe].  The split depends only
  /// on the block, so each scratch sees the same rounds on every call,
  /// whichever thread runs the stripe.
  void run_stripe(std::size_t stripe, std::size_t stripes);
  /// Walks, solves and times the block at positions [block_begin_,
  /// block_begin_ + block_size_) into `times`: one stripe per thread in
  /// one parallel_for, or a single stripe on the calling thread when the
  /// block holds fewer than kParallelMessages messages.
  void run_block(std::vector<double>& times);

  const Cluster* cluster_;
  Placement placement_;
  stats::Rng rng_;
  sim::FlowSim solver_;
  exec::ThreadPool pool_;

  std::vector<RoundSlot> slots_;
  std::size_t block_begin_ = 0;
  std::size_t block_size_ = 0;
  std::size_t max_path_ = 0;  // path buffers are reserved to this length
  std::int64_t reused_rounds_ = 0;

  std::vector<char> active_;  // all 1, as long as the largest round
  std::vector<std::int32_t> src_count_;  // per rank; zero between rounds
  std::vector<std::int32_t> dst_count_;
  std::vector<sim::FlowSim::SolveScratch> scratch_;  // one per thread
};

}  // namespace hxsim::mpi
