// RoundRunner: walks and solves rounds of concurrent messages on a thread
// pool, for every caller that times rounds in the fixed-rate model
// (mpi::Transport, mpiGraph's shifts, eBB's bisection samples).
//
// In the fixed-rate round model a round's rates depend only on its routed
// paths, so once the Table-1 draws are made in message order the rounds of
// a sequence are independent.  The caller fills each round's slot serially
// -- endpoints and the drawn LID index of every message (draw) -- and
// pushes it.  Every kBlockRounds rounds, and at flush, the runner's pool
// walks the block's rounds (Cluster::walk_path) and solves them (one
// FlowSim::solve per round), striped over one scratch per thread,
// each task writing only its own rounds' slots.  Then the caller reads
// each round's rates, in round order, on the calling thread.  A round that
// walks exactly the previous round's paths (same endpoints, drawn LIDs and
// size classes) copies that round's rates instead of solving.  Rates are
// bit-identical to a route_message + FlowSim::fair_rates loop at any
// thread count.  parallel_for does not nest, so a runner must not run
// inside a parallel region.
//
// Rounds route into runner-owned buffers and solve on runner-owned
// scratch: once the runner has seen its largest rounds, a sequence
// allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exec/exec.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"

namespace hxsim::mpi {

class Cluster;

class RoundRunner {
 public:
  /// A message's endpoints and the LID index its serial draw picked.
  struct Endpoints {
    topo::NodeId src = topo::kInvalidNode;
    topo::NodeId dst = topo::kInvalidNode;
    std::int8_t first_lid = 0;
  };

  /// One round in flight.  The buffers only grow: a round uses their first
  /// `size` entries, and each path keeps its capacity.
  struct Slot {
    std::size_t index = 0;  // the caller's round number
    std::size_t size = 0;   // messages
    bool reuse = false;     // walks the previous round's paths
    std::vector<Endpoints> ends;
    /// Message bytes (draw) and routed path (the walk; empty for a
    /// self-send).
    std::vector<sim::Flow> flows;
    /// Max-min rates [bytes/s]; +inf for a self-send.
    std::vector<double> rates;
  };

  /// The cluster must outlive the runner; `who` opens its error messages.
  /// Worker threads: exec::default_threads() at construction.
  RoundRunner(const Cluster& cluster, std::string who);

  /// Starts a new sequence: the next round has no predecessor whose rates
  /// it could reuse.  A new runner has started one.
  void begin() noexcept {
    block_begin_ = 0;
    block_size_ = 0;
  }

  /// The slot of the next round, numbered `index`, with room for
  /// `messages` (> 0) messages; draw() fills each of them, then push()
  /// adds the round.
  [[nodiscard]] Slot& next(std::size_t index, std::size_t messages);

  /// Message i of `slot`: its endpoints, bytes and the Table-1 draw from
  /// `rng` (Cluster::draw_lid_index).  A self-send draws nothing.
  void draw(Slot& slot, std::size_t i, topo::NodeId src, topo::NodeId dst,
            std::int64_t bytes, stats::Rng& rng) const;

  /// Adds the round next() handed out.  When that fills the block, walks
  /// and solves it and calls done(const Slot&) for each of its rounds in
  /// order.  Throws std::runtime_error if a message is unroutable; then
  /// no round of the block reaches `done`.
  template <typename Done>
  void push(Done&& done) {
    const std::size_t pos = block_begin_ + block_size_;
    Slot& slot = slot_at(pos);
    // A walk reads only what same_walks compares, so such a round routes
    // exactly like its predecessor, and a round's rates depend only on
    // its paths: it takes the predecessor's rates instead of a solve.
    slot.reuse = pos > 0 && same_walks(slot, slot_at(pos - 1));
    if (++block_size_ == kBlockRounds) flush(done);
  }

  /// Walks and solves the rounds pushed since the last block, as push()
  /// does for a full one.
  template <typename Done>
  void flush(Done&& done) {
    run_block();
    for (std::size_t pos = block_begin_; pos < block_begin_ + block_size_;
         ++pos)
      done(std::as_const(slot_at(pos)));
    block_begin_ += block_size_;
    block_size_ = 0;
  }

  /// Rounds, over the runner's lifetime, whose rates were copied from the
  /// previous round of the same sequence (same walks, so equal paths)
  /// instead of solved.
  [[nodiscard]] std::int64_t reused_rounds() const noexcept {
    return reused_rounds_;
  }

 private:
  /// Rounds per block: the serial draws of a block run before its
  /// parallel walks and solves.
  static constexpr std::size_t kBlockRounds = 32;
  /// Messages from which a block goes to the pool.  In the IMB sweep on
  /// the paper planes (4 cores), smaller blocks ran slower on four threads
  /// than on the calling thread: waking the pool cost more than their
  /// walks and solves.
  static constexpr std::size_t kParallelMessages = 1024;

  /// Slot of the round at running position `pos` (rounds of the current
  /// sequence).  A block holds kBlockRounds positions; the ring has one
  /// more slot, so the previous block's last round survives.
  [[nodiscard]] Slot& slot_at(std::size_t pos) {
    return slots_[pos % slots_.size()];
  }
  /// Whether two drawn rounds walk the same paths: message by message,
  /// the same endpoints, drawn LID index and Table-1 size class -- all
  /// that Cluster::walk_path reads.
  [[nodiscard]] static bool same_walks(const Slot& slot, const Slot& prev);
  /// LFT walks of one drawn round into its slot; throws if unroutable.
  void walk_round(Slot& slot) const;
  /// Walks the block's rounds stripe, stripe + stripes, ... and solves
  /// those that do not reuse on scratch_[stripe].  The split depends only
  /// on the block, so each scratch sees the same rounds on every call,
  /// whichever thread runs the stripe.
  void run_stripe(std::size_t stripe, std::size_t stripes);
  /// Walks and solves the block at positions [block_begin_, block_begin_ +
  /// block_size_): one stripe per thread in one parallel_for, or a single
  /// stripe on the calling thread when the block holds fewer than
  /// kParallelMessages messages.  Then copies the rates of reusing rounds.
  void run_block();

  const Cluster* cluster_;
  std::string who_;
  sim::FlowSim solver_;
  exec::ThreadPool pool_;

  std::vector<Slot> slots_;
  std::size_t block_begin_ = 0;
  std::size_t block_size_ = 0;
  std::size_t max_path_ = 0;  // path buffers are reserved to this length
  std::int64_t reused_rounds_ = 0;

  std::vector<sim::FlowSim::SolveScratch> scratch_;  // one per thread
};

}  // namespace hxsim::mpi
