// RoundRunner: walks and solves rounds of concurrent messages on a thread
// pool, for every caller that times rounds in the fixed-rate model
// (mpi::Transport, mpiGraph's shifts, eBB's bisection samples).
//
// In the fixed-rate round model a round's rates depend only on its routed
// paths, and its paths only on its walk inputs: per message the endpoints,
// the drawn LID index and, on a cluster that applies Table 1, the size
// class -- all that Cluster::walk_path reads.  So once the Table-1 draws
// are made in message order the rounds of a sequence are independent, and
// a round with the walk inputs of one walked before has that round's rates
// and hop counts.  The caller fills each round's slot serially -- the walk
// inputs of every message (draw) -- and pushes it.  push() looks the round
// up in the runner's memo, which maps the walk inputs of rounds this
// runner walked and solved to their rates and per-message hop counts; a
// hit, confirmed by comparing the inputs exactly, is neither walked nor
// solved.  Every kBlockRounds rounds, and at flush, the runner's pool
// walks the block's misses (Cluster::walk_path) and solves them (one
// FlowSim::solve per round), striped over one scratch per thread, each
// task writing only its own rounds' storage.  Then the caller reads each
// round's rates and hop counts, in round order, on the calling thread.
// Hits are decided on the calling thread, so rates are bit-identical to a
// route_message + FlowSim::fair_rates loop at any thread count.
// parallel_for does not nest, so a runner must not run inside a parallel
// region.
//
// The memo lives as long as the runner and holds at most kMemoMessages
// messages.  A miss that does not fit is walked and solved into its
// slot's own buffers, and when the next block begins the memo drops its
// newest entries until it holds at most half the bound and that miss
// would fit.  The older entries stay, so a runner that repeats a sequence
// larger than the memo still hits on its first rounds, and a round that
// repeats its predecessor hits except from such a miss to the first round
// of the next block.  A round larger than the whole memo is never stored
// and evicts nothing.  A block that throws leaves no entry behind.
//
// Rounds route into runner-owned buffers, solve on runner-owned scratch
// and are memoised in storage reserved at construction: once the runner
// has seen its largest rounds, a sequence allocates nothing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/lid_choice.hpp"
#include "exec/exec.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"

namespace hxsim::mpi {

class Cluster;

class RoundRunner {
 public:
  /// Messages the memo holds: ~3 MiB of walk inputs, rates and hop
  /// counts.  On the paper planes a bound of 2^19 saved fig4_collectives
  /// ~0.8 s more but raised hxbench imb_sweep's peak RSS by 9%.
  static constexpr std::size_t kMemoMessages = std::size_t{1} << 17;

 private:
  /// A message's walk inputs: its endpoints, the LID index its serial
  /// draw picked and, where the cluster applies Table 1, its size class.
  struct WalkInputs {
    topo::NodeId src = topo::kInvalidNode;
    topo::NodeId dst = topo::kInvalidNode;
    std::int8_t first_lid = 0;
    core::MsgClass size_class = core::MsgClass::kSmall;

    friend bool operator==(const WalkInputs&, const WalkInputs&) = default;
  };

 public:
  /// One round in flight: next() hands it out, draw() fills it, and the
  /// runner sets its rates and hop counts before done() reads them.  The
  /// buffers only grow: a round uses their first size() entries, and each
  /// path keeps its capacity.
  class Slot {
   public:
    /// The caller's round number.
    [[nodiscard]] std::size_t index() const noexcept { return index_; }
    /// Messages.
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    /// Max-min rates [bytes/s]; +inf for a self-send.
    [[nodiscard]] std::span<const double> rates() const noexcept {
      return rates_;
    }
    /// Routed path lengths [channels]; 0 for a self-send.
    [[nodiscard]] std::span<const std::int32_t> hops() const noexcept {
      return hops_;
    }

   private:
    friend class RoundRunner;

    std::size_t index_ = 0;
    std::size_t size_ = 0;
    bool hit_ = false;  // found in the memo: neither walked nor solved
    std::vector<WalkInputs> inputs_;
    /// Message bytes (draw) and routed path (the walk of a miss; empty for
    /// a self-send).
    std::vector<sim::Flow> flows_;
    /// The memo entry's storage, or own_rates_ and own_hops_ for a miss
    /// the memo has no room for.
    std::span<double> rates_;
    std::span<std::int32_t> hops_;
    std::vector<double> own_rates_;
    std::vector<std::int32_t> own_hops_;
  };

  /// The cluster must outlive the runner; `who` opens its error messages.
  /// Worker threads: exec::default_threads() at construction.
  RoundRunner(const Cluster& cluster, std::string who);

  /// The slot of the next round, numbered `index`, with room for
  /// `messages` (> 0) messages; draw() fills each of them, then push()
  /// adds the round.
  [[nodiscard]] Slot& next(std::size_t index, std::size_t messages);

  /// Message i of `slot`: its endpoints, bytes and the Table-1 draw from
  /// `rng` (Cluster::draw_lid_index).  A self-send draws nothing.
  void draw(Slot& slot, std::size_t i, topo::NodeId src, topo::NodeId dst,
            std::int64_t bytes, stats::Rng& rng) const;

  /// Adds the round next() handed out, a memo hit or a miss.  When that
  /// fills the block, walks and solves its misses and calls
  /// done(const Slot&) for each of its rounds in order.  Throws
  /// std::runtime_error if a message is unroutable; then no round of the
  /// block reaches `done`, and the block adds nothing to the memo.
  template <typename Done>
  void push(Done&& done) {
    admit(slots_[block_size_]);
    if (++block_size_ == kBlockRounds) flush(done);
  }

  /// Walks and solves the rounds pushed since the last block, as push()
  /// does for a full one.
  template <typename Done>
  void flush(Done&& done) {
    const std::size_t rounds = std::exchange(block_size_, 0);
    run_block(rounds);
    for (std::size_t i = 0; i < rounds; ++i) done(std::as_const(slots_[i]));
  }

  /// Rounds, over the runner's lifetime, that hit the memo: their rates
  /// and hop counts are those of an earlier round with the same walk
  /// inputs, and they were neither walked nor solved.
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

  /// Walk inputs -> rates and hop counts, for the rounds this runner
  /// walked and solved.  Entries sit back to back, in insertion order, in
  /// storage reserved for kMemoMessages messages, which therefore never
  /// moves, chained per hash bucket.  When an insert finds no room, the
  /// next begin_block() drops the newest entries, down to half the bound
  /// or below: the current block's slots point into the storage until
  /// their rounds are done.
  class Memo {
   public:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    Memo();

    /// If an insert found no room since the last call, drops the newest
    /// entries until at most kMemoMessages / 2 messages remain and the
    /// largest round that found none would fit.  Marks where the block's
    /// entries begin.
    void begin_block();
    /// The entry whose walk inputs equal `key` and whether it was there
    /// (a hit); else a new entry for `key`, whose rates and hops the
    /// caller fills, or kNone when `key` does not fit.
    [[nodiscard]] std::pair<std::size_t, bool> find_or_insert(
        std::span<const WalkInputs> key);
    [[nodiscard]] std::span<double> rates(std::size_t entry) noexcept;
    [[nodiscard]] std::span<std::int32_t> hops(std::size_t entry) noexcept;
    /// Removes the entries inserted since begin_block().
    void drop_block() noexcept;

   private:
    /// Hash buckets, one per 8 messages the memo holds: a full memo of
    /// rounds of 8 messages or more averages at most one entry per bucket.
    static constexpr std::size_t kBuckets = kMemoMessages / 8;

    struct Entry {
      std::uint64_t hash = 0;
      std::uint32_t offset = 0;  // into keys_, rates_ and hops_
      std::uint32_t size = 0;
      std::int32_t next = -1;  // the bucket's previous entry
    };

    [[nodiscard]] static std::size_t bucket_of(std::uint64_t hash) noexcept;
    /// Removes the newest entry, which heads its bucket's chain.
    void pop_newest() noexcept;

    std::vector<std::int32_t> buckets_;  // newest entry per bucket, or -1
    std::vector<Entry> entries_;
    std::vector<WalkInputs> keys_;
    std::vector<double> rates_;
    std::vector<std::int32_t> hops_;
    std::size_t block_entries_ = 0;  // entries_.size() at begin_block()
    std::size_t needed_ = 0;  // the largest round that found no room
  };

  /// Looks the slot's round up in the memo: a hit points its rates and
  /// hops at the entry; a miss is to be walked and solved, into a new
  /// entry or, when none fits, into the slot's own buffers.
  void admit(Slot& slot);
  /// LFT walks of a missed round into its slot, with its hop counts;
  /// throws if unroutable.
  void walk_round(Slot& slot);
  /// Walks and solves the misses among the block's rounds stripe, stripe +
  /// stripes, ... on scratch_[stripe].  The split depends only on the
  /// block, so each scratch sees the same rounds on every call, whichever
  /// thread runs the stripe.
  void run_stripe(std::size_t stripe, std::size_t stripes,
                  std::size_t rounds);
  /// Walks and solves the misses among the block's first `rounds` slots:
  /// one stripe per thread in one parallel_for, or a single stripe on the
  /// calling thread when they hold fewer than kParallelMessages messages.
  /// Then counts the hits.  If a walk throws, drops the block's memo
  /// entries and rethrows.
  void run_block(std::size_t rounds);

  const Cluster* cluster_;
  std::string who_;
  sim::FlowSim solver_;
  exec::ThreadPool pool_;

  std::vector<Slot> slots_;  // one per round of a block
  std::size_t block_size_ = 0;
  std::size_t max_path_ = 0;  // path buffers are reserved to this length
  Memo memo_;
  std::int64_t reused_rounds_ = 0;

  std::vector<sim::FlowSim::SolveScratch> scratch_;  // one per thread
};

}  // namespace hxsim::mpi
