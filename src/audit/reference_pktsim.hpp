// The seed packet engine, kept as a feature-frozen oracle.
//
// sim::PktSim ships one engine: the typed, allocation-free core.  The
// engine it was rewritten from -- per-event std::function closures on a
// binary-heap EventQueue, per-VL std::deque queues, one heap-allocated
// record per packet -- lives here, with its control flow unchanged, as
// the reference the typed engine is held to bit for bit: the golden
// suite (tests/pktsim_golden_test.cpp), the fuzz audit's pktsim_identity
// and online_fault oracles, and the pktsim_speedup experiment compare
// the two with sim::first_difference.
//
// It accepts and rejects exactly what PktSim does, through the same code
// (sim::detail::validate_config / validate_message), and draws the same
// seeded streams (sim::detail::candidate_rng_seed / retry_rng_seed /
// backoff_delay).  It covers every packet feature up to the online-fault
// layer; a feature added to the typed engine later is checked against
// this oracle with the feature switched off, and by the golden digests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "sim/pktsim.hpp"
#include "topo/topology.hpp"

namespace hxsim::audit {

/// Discrete-event core of the seed engine: a time-ordered queue of
/// type-erased callbacks.  Events at equal timestamps run in scheduling
/// order (a monotone sequence number breaks ties) -- the ordering contract
/// sim::FlatEventHeap shares, which is what makes the two engines'
/// event orders, and so their results, identical.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  void schedule(double when, Callback cb);

  /// Convenience: schedule at now() + delay.
  void schedule_in(double delay, Callback cb) { schedule(now_ + delay, std::move(cb)); }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Pops and runs the earliest event; returns false when idle.
  bool run_one();

  /// Runs until the queue drains or `max_events` fire; returns events run.
  std::size_t run(std::size_t max_events = SIZE_MAX);

 private:
  struct Entry {
    double when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// Runs `messages` through the seed engine, exactly as
/// sim::PktSim(topo, config).run(messages, max_events, replication) runs
/// them through the typed one: same validation (std::invalid_argument),
/// same randomized-router and retry streams for `replication`, tracing on
/// config.trace.  A fresh engine per call; nothing is kept warm.
[[nodiscard]] sim::PktSim::Result reference_pkt_run(
    const topo::Topology& topo, const sim::PktSimConfig& config,
    std::span<const sim::PktMessage> messages,
    std::size_t max_events = SIZE_MAX, std::uint64_t replication = 0);

}  // namespace hxsim::audit
