// Max-min fair flow-level network simulator.
//
// Statically routed InfiniBand traffic under sustained load converges to a
// per-link fair share; FlowSim computes the exact max-min allocation by
// progressive filling.  fair_rates() solves one flow set, solve_batch()
// many independent sets on worker threads (a fresh pool and scratch per
// call; the resilience campaign's traffic samples), and solve() solves a
// caller's set on a warm, caller-owned scratch (mpi::RoundRunner's rounds
// -- the transport's, mpiGraph's shifts and eBB's samples).  Each call
// solves every flow of the set it is given: a caller that drops flows
// (a fault stage's lost pairs) hands over the smaller set.  This is the
// engine behind the
// bandwidth-dominated experiments (Figure 1 heatmaps, eBB, large-message
// collectives): congestion arises purely from routed paths sharing
// channels, which is the effect the paper studies.  The event_queue.hpp
// include provides FlatKeyHeap, the indexed core's quotient heap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/flow_trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/link_model.hpp"
#include "topo/topology.hpp"

namespace hxsim::sim {

struct Flow {
  /// Channels traversed in order (terminal and switch channels alike share
  /// capacity).
  ///
  /// An empty path is a *self-send*: the flow consumes no network resource
  /// regardless of `bytes`.  Defined semantics (matching PktSim, which
  /// completes self-send messages at their inject_time): fair_rates()
  /// reports +inf.
  std::vector<topo::ChannelId> channels;
  std::int64_t bytes = 0;
};

class FlowSim {
 public:
  /// Max-min core selection.  All three cores run the same progressive
  /// filling and are *bitwise* identical -- rates and FlowSolveRecord
  /// output alike -- a contract pinned by tests/flowsim_golden_test.cpp,
  /// the fuzz-audit flowsim_engine_identity oracle, and the
  /// flowsim_speedup experiment.
  ///  - kAdaptive (default): rescan rounds while the solve is light, handed
  ///    over mid-solve to the indexed loop once the rounds have rescanned
  ///    a fixed multiple of the set's flow-hops (see "Flow-solver
  ///    internals" in ARCHITECTURE.md).
  ///  - kIndexed: the indexed loop from the first round -- CSR
  ///    flow<->channel incidence and a keyed lazy min-heap of channel fill
  ///    quotients, touching only flows incident to newly saturated
  ///    channels per round.  Forced oracle.
  ///  - kReference: the seed full-rescan progressive filler for every
  ///    round.  Forced oracle.
  enum class SolverEngine : std::int8_t { kAdaptive, kIndexed, kReference };

  explicit FlowSim(const topo::Topology& topo, LinkModel link = {},
                   SolverEngine engine = SolverEngine::kAdaptive);

  /// Override one channel's capacity [bytes/s].
  void set_capacity(topo::ChannelId ch, double bytes_per_s);

  [[nodiscard]] const LinkModel& link() const noexcept { return link_; }

  /// Reusable progressive-filling state.  One per worker thread; passing
  /// the same scratch to repeated solves removes every per-call heap
  /// allocation: a warm solve through solve() performs ZERO heap
  /// allocations on every core, and on both sides of the adaptive handoff
  /// (enforced by tests/flowsim_alloc_test.cpp with a counting global
  /// operator new).
  struct SolveScratch {
    std::vector<std::int32_t> local_of;
    std::vector<topo::ChannelId> used;
    std::vector<char> frozen;
    std::vector<double> frozen_load;
    std::vector<std::int32_t> unfrozen_count;
    std::vector<char> saturated;
    /// Local indices of channels still carrying unfrozen flows; compacted
    /// after each filling level so late levels scan only live channels
    /// (rescan rounds only; the indexed loop tracks liveness through the
    /// heap).
    std::vector<std::int32_t> worklist;
    /// First-saturation marks for trace recording (sized only when a solve
    /// actually traces, but persistent so traced solves stay
    /// allocation-free too).
    std::vector<char> ever_saturated;
    /// Adaptive solves on this scratch that crossed from rescan rounds to
    /// the indexed loop (diagnostics and tests).
    std::int64_t handoffs = 0;

    // --- indexed-loop state (see "Flow-solver internals" in ARCHITECTURE.md).
    /// CSR flow -> local-channel incidence: flow f's channels (as local
    /// indices, in path order) live in flow_ch[flow_off[f]..flow_off[f+1]).
    std::vector<std::int32_t> flow_off;
    std::vector<std::int32_t> flow_ch;
    /// CSR local-channel -> flow incidence: channel c's incident flows (in
    /// ascending flow order, with multiplicity) live in
    /// chan_flow[chan_off[c]..chan_off[c+1]).
    std::vector<std::int32_t> chan_off;
    std::vector<std::int32_t> chan_flow;
    std::vector<std::int32_t> chan_cursor;  // CSR fill cursors
    /// Heap-entry invalidation: an entry is live iff its tag's version
    /// matches; every quotient change bumps the version and pushes a fresh
    /// entry, stale ones are discarded at pop time.
    std::vector<std::uint32_t> version;
    std::vector<std::int32_t> dirty;  // channels touched this round
    std::vector<char> dirty_mark;
    std::vector<std::int32_t> sat_chans;    // channels saturated this round
    std::vector<std::int32_t> candidates;   // flows incident to them
    std::vector<char> candidate_mark;
    /// Channel fill quotients (capacity - frozen_load) / unfrozen_count in
    /// a keyed lazy min-heap (the FlatEventHeap 4-ary layout).
    FlatKeyHeap quotients;
  };

  /// Steady-state max-min fair rates [bytes/s] for the given flow set
  /// (bytes fields are ignored; zero-length paths get +inf).  When `trace`
  /// is given, one obs::FlowSolveRecord is appended describing the solve
  /// (levels, freezes, saturated channels); tracing never changes the
  /// rates.
  ///
  /// Solves on the engine-owned warm scratch (like channel_utilisation),
  /// so sweep loops stop re-warming per call; these convenience entry
  /// points therefore must not run concurrently on one FlowSim --
  /// concurrent callers go through solve_batch (per-worker scratch) or
  /// solve (caller-owned scratch).
  [[nodiscard]] std::vector<double> fair_rates(
      std::span<const Flow> flows,
      obs::FlowSolveTrace* trace = nullptr) const;

  /// fair_rates() for many *independent* flow sets, solved concurrently
  /// on `threads` workers (0: exec::default_threads()) with per-worker
  /// scratch; pool and scratch are built per call, so repeated batches
  /// belong on solve() with warm scratch (mpi::RoundRunner).  Each
  /// set's allocation is computed in isolation, exactly as a fair_rates()
  /// loop would, so the output is thread-count-invariant.  solve_batch
  /// does not take a solver trace (a shared sink would race across
  /// workers); trace individual sets through fair_rates() instead.
  [[nodiscard]] std::vector<std::vector<double>> solve_batch(
      std::span<const std::vector<Flow>> flow_sets,
      std::int32_t threads = 0) const;

  /// fair_rates() on a caller-owned, reusable `scratch`, writing the rate
  /// of flow f to rate[f] (`rate` must be as long as `flows`, else
  /// std::invalid_argument).  Rates are bit-identical to fair_rates() and
  /// solve_batch() on the same set.  `record`, when non-null, receives the
  /// solve's convergence trace.  Throws std::invalid_argument, naming the
  /// flow, when a flow crosses a disabled or unknown channel.
  void solve(std::span<const Flow> flows, std::span<double> rate,
             SolveScratch& scratch,
             obs::FlowSolveRecord* record = nullptr) const;

  /// Utilisation [0, 1] per channel under the steady-state allocation
  /// (diagnostics; same flow-set semantics as fair_rates).
  [[nodiscard]] std::vector<double> channel_utilisation(
      std::span<const Flow> flows,
      obs::FlowSolveTrace* trace = nullptr) const;

  /// Capacity (bytes/s) of one channel -- the denominator of the max-min
  /// invariants (sum of rates on a channel may not exceed this).
  [[nodiscard]] double capacity(topo::ChannelId ch) const {
    return capacity_[static_cast<std::size_t>(ch)];
  }

 private:
  /// Degraded-fabric guard of solve(): throws std::invalid_argument
  /// (naming the flow index) when a flow crosses a disabled or unknown
  /// channel -- a stale path routed before fault injection must be
  /// re-routed, not solved.
  void validate(std::span<const Flow> flows) const;

  /// The seed progressive filler's rounds: each rescans every unfrozen
  /// flow x hop -- O(rounds x flows x path).  `hops` is the flow-hops of
  /// the `remaining` unfrozen flows.  Stops after the round in which the
  /// rescanned flow-hops exceed `budget`, or when every flow froze;
  /// returns the number of flows left unfrozen.
  [[nodiscard]] std::size_t fill_rescan(std::span<const Flow> flows,
                                        std::span<double> rate,
                                        SolveScratch& scratch,
                                        obs::FlowSolveRecord* record,
                                        std::size_t remaining,
                                        std::size_t hops,
                                        std::size_t budget) const;

  /// The indexed rounds, from whatever frozen state the scratch holds:
  /// saturation propagated through CSR incidence, fill quotients in a
  /// keyed lazy min-heap, per round touching only flows incident to newly
  /// saturated channels.  Bit-identical to the rescan rounds; see the .cpp
  /// for the FP-order argument.
  void fill_indexed(std::span<const Flow> flows, std::span<double> rate,
                    SolveScratch& scratch, obs::FlowSolveRecord* record,
                    std::size_t remaining) const;

  const topo::Topology* topo_;
  LinkModel link_;
  std::vector<double> capacity_;
  SolverEngine engine_ = SolverEngine::kAdaptive;
  /// Warm scratch backing the serial convenience entry points
  /// (fair_rates / channel_utilisation); persists across calls so sweep
  /// loops stop re-warming every iteration.
  mutable SolveScratch scratch_;
};

}  // namespace hxsim::sim
