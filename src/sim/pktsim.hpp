// Packet-granularity discrete-event network simulator.
//
// Models what the flow-level simulator abstracts away: virtual-lane queues,
// credit-based flow control, round-robin output arbitration, and cut-through
// timing.  Its two jobs in the reproduction are (a) latency-dominated
// small-message experiments and (b) demonstrating that cyclically-dependent
// routes really deadlock -- and that the DFSSSP/PARX VL layering removes
// the deadlock (Section 3.2, criteria (4)).
//
// Model summary:
//  - messages are segmented into MTU packets injected back-to-back;
//  - each channel serializes one packet at a time (bytes/bandwidth), then
//    the packet arrives at the downstream buffer hop_latency later;
//  - a packet needs a credit (a buffer slot at the downstream input, per
//    channel x VL) before it may start crossing; the credit of the
//    *previous* hop returns when the packet starts crossing the next one;
//  - per-channel arbitration: round-robin over VLs, FIFO within a VL;
//  - switch->terminal channels have unbounded credits (the HCA drains);
//  - if the event queue drains while packets remain buffered, those packets
//    form a circular wait: the run reports deadlock and a post-mortem
//    (Result::deadlock_report) naming the credit-wait cycle;
//  - static paths are validated at injection (connected, starting at the
//    source's terminal-up and ending at the destination's terminal-down
//    channel); malformed paths throw instead of walking out of bounds.
//
// Engine: one typed zero-allocation core -- POD event records
// ({kInject, kXmitDone, kArrive}) on sim::FlatEventHeap (FIFO lanes for
// the fixed-delay xmit-done and arrive events over a flat 4-ary heap for
// the rest), packets in a pool pre-sized from message bytes/MTU, per-VL
// FIFOs threaded intrusively through that pool, and channel state split
// into flat per-channel / per-channel-x-VL arrays.  All of that scratch
// lives in the PktSim object and is reused across run() calls, so a warm
// engine performs zero heap allocations per event.  The seed
// std::function engine lives on as a feature-frozen oracle in the audit
// library (audit/reference_pktsim.hpp); the golden suite in
// tests/pktsim_golden_test.cpp, the fuzz audit and the pktsim_speedup
// experiment hold the two to byte equality (first_difference below), and
// committed digests pin what the two derive alike through the detail::
// functions below.
//
// Replication: run_batch() fans independent message sets across an
// exec::ThreadPool, one engine instance (and scratch) per worker, results
// bit-identical to a serial run() loop at any thread count.  Shared-state
// hazards are rejected up front: a shared PktSimConfig::trace and
// non-replicable adaptive routers (AdaptiveRouter::replicable()) both
// throw.
//
// Observability: attach an obs::PktTrace via PktSimConfig::trace to collect
// per-channel x VL counters (packets/bytes crossed, credit-stall time,
// arbitration skips, queue depths, final credits).  Tracing is off by
// default, allocation-free per event, and strictly observational -- results
// are bit-identical with tracing on or off.
// Online faults: attach a sim::PktOnlineConfig (sim/online.hpp) via
// PktSimConfig::online to inject mid-run link failures, forwarding-table
// epochs with per-switch install delays, and end-host timeout/retry.
// Packets lost to the transient are dropped with per-cause accounting
// (Result::dropped_by_cause, obs::PktDropCause); a config that is absent
// or inert leaves every run bit-identical and allocation-free.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "obs/deadlock.hpp"
#include "obs/pkt_trace.hpp"
#include "sim/adaptive.hpp"
#include "sim/link_model.hpp"
#include "sim/online.hpp"
#include "topo/topology.hpp"

namespace hxsim::sim {

namespace detail {
struct PktScratch;  // engine scratch (pktsim.cpp); reused across runs
}

/// Per-message outcome under the online-fault layer.
enum class PktMessageStatus : std::int8_t {
  /// All segments of the final attempt reached the destination.
  kDelivered = 0,
  /// The run ended (deadlock/truncation or drops with retry disabled)
  /// before the message completed.
  kUndelivered = 1,
  /// The end host exhausted max_retries and gave up on the flow.
  kAbandoned = 2,
};

struct PktMessage {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  std::int64_t bytes = 0;
  /// Full channel path: terminal-up, switch..., switch-terminal.
  /// Leave empty (with src != dst) to route per hop: adaptively when
  /// PktSimConfig::adaptive is set, else by the online config's active
  /// forwarding epoch (PktOnlineConfig::epochs); one of the two is
  /// required for path-less messages.
  std::vector<topo::ChannelId> path;
  /// Virtual lane for statically routed messages; adaptive packets use
  /// VL escalation (lane = switch hops taken) instead.
  std::int8_t vl = 0;
  double inject_time = 0.0;
};

struct PktSimConfig {
  LinkModel link;
  std::int32_t num_vls = 8;
  /// Input-buffer depth in packets, per channel x VL.
  std::int32_t vc_buffer_packets = 8;
  /// Per-hop router for path-less messages (e.g. DalRouter).  Not owned;
  /// must outlive the simulator.  Its max_hops() must fit num_vls so that
  /// VL escalation stays deadlock-free.
  const AdaptiveRouter* adaptive = nullptr;
  /// Adaptive choice policy: queue-length penalty of a non-minimal hop
  /// (the UGAL-style bias toward minimal paths).
  std::int32_t deroute_penalty = 2;
  /// Optional counter sink (not owned; must outlive run()).  When set, the
  /// simulator resets it at the start of every run and fills per-channel x
  /// VL counters; simulation results are unaffected.  run_batch() rejects a
  /// shared trace -- pass per-replication sinks there instead.
  obs::PktTrace* trace = nullptr;
  /// Optional online-fault layer (not owned; must outlive the simulator):
  /// timed mid-run channel failures, forwarding epochs, end-host retry.
  /// nullptr or an inert config (no faults/epochs, retry disabled) is the
  /// bit-identity off switch.
  const PktOnlineConfig* online = nullptr;
};

class PktSim {
 public:
  explicit PktSim(const topo::Topology& topo, PktSimConfig config = {});
  ~PktSim();
  PktSim(PktSim&&) noexcept;
  PktSim& operator=(PktSim&&) noexcept;

  struct Result {
    /// Per-message delivery time of the last packet; NaN if undelivered.
    std::vector<double> completion;
    /// The event queue drained with packets still buffered -- a circular
    /// credit wait.  Mutually exclusive with `truncated`.
    bool deadlock = false;
    /// run() stopped at `max_events` with events still pending; the run is
    /// incomplete but NOT deadlocked (rerun with a higher budget).
    bool truncated = false;
    double end_time = 0.0;
    std::int64_t packets_delivered = 0;
    std::int64_t packets_total = 0;
    /// Discrete events dispatched by the run (inject + xmit-done + arrive,
    /// plus fault/timeout/retry under an online config); the denominator
    /// of the engine's events/sec throughput.
    std::int64_t events_executed = 0;
    // --- online-fault accounting (all zero without an active config) ----
    /// Segments dropped by the online layer, total and by cause (indexed
    /// by obs::PktDropCause).
    std::int64_t packets_dropped = 0;
    std::array<std::int64_t, obs::kNumPktDropCauses> dropped_by_cause{};
    /// End-host retransmission attempts performed / flows given up.
    std::int64_t retries = 0;
    std::int64_t messages_abandoned = 0;
    /// Per-message outcome; sized only when an online config is attached
    /// (empty otherwise, preserving pre-online result comparisons).
    std::vector<PktMessageStatus> message_status;
    /// Populated when deadlock: every buffered packet and one extracted
    /// credit-wait cycle (see obs/deadlock.hpp).
    obs::DeadlockReport deadlock_report;
  };

  /// Runs all messages to completion (or deadlock).  `max_events` guards
  /// against runaway simulations.  Engine scratch (event heap, packet
  /// pool, channel arrays) persists in this PktSim, so repeated runs on a
  /// warm instance allocate only the returned Result.  `replication` picks
  /// the randomized-router stream: the engine owns a per-run stats::Rng
  /// seeded from AdaptiveRouter::rng_seed() and this index, so
  /// run(msgs, n, r) reproduces run_batch replication r exactly and the
  /// default index 0 reproduces the historical single-run stream.
  [[nodiscard]] Result run(std::span<const PktMessage> messages,
                           std::size_t max_events = SIZE_MAX,
                           std::uint64_t replication = 0);

  /// Runs each replication's message set on its own engine instance,
  /// fanned across `threads` workers (0: exec::default_threads()).  Every
  /// replication i is simulated exactly as run(replications[i], max_events,
  /// i) would be, with per-worker scratch, so the result vector is
  /// bit-identical to a serial run() loop at any thread count -- including
  /// randomized routers, whose per-replication rng stream is derived from
  /// the index, not drawn from shared state.  `traces`, when non-empty,
  /// supplies one obs::PktTrace* per replication (entries may be nullptr).
  /// Throws std::invalid_argument when config.trace is set (a shared sink
  /// would race across workers) or when the adaptive router reports
  /// replicable() == false (mutable router state would make results depend
  /// on execution order).
  [[nodiscard]] std::vector<Result> run_batch(
      std::span<const std::vector<PktMessage>> replications,
      std::int32_t threads = 0,
      std::span<obs::PktTrace* const> traces = {},
      std::size_t max_events = SIZE_MAX);

 private:
  const topo::Topology* topo_;
  PktSimConfig config_;
  /// Warm-path scratch for run(); lazily sized to the topology/messages.
  std::unique_ptr<detail::PktScratch> scratch_;
  /// Per-worker scratch for run_batch(); grown to the pool width on use.
  std::vector<std::unique_ptr<detail::PktScratch>> batch_scratch_;
};

/// The bitwise comparator of PktSim results (engine vs oracle, 1 vs N
/// threads, trace on vs off): the name of the first field that differs,
/// or an empty view when `a` and `b` are bitwise equal.  Doubles compare
/// by bits, so matching NaN completions (undelivered messages) are equal;
/// the deadlock report compares edge by edge.
[[nodiscard]] std::string_view first_difference(
    const PktSim::Result& a, const PktSim::Result& b) noexcept;

namespace detail {

// What the engine shares with the audit's reference engine, so the two
// reject the same inputs and draw the same random streams through one
// piece of code (pktsim.cpp).

/// PktSim's constructor checks: VL count, buffer depth, the adaptive
/// router's hop budget and the online config.  Throws
/// std::invalid_argument.
void validate_config(const topo::Topology& topo, const PktSimConfig& config);

/// Per-message checks, in submit order: VL range, src/dst terminals, a
/// router (adaptive or table epochs) for a path-less message, and for a
/// static path that it runs connected from the source's terminal-up to
/// the destination's terminal-down channel.  Throws std::invalid_argument.
void validate_message(const topo::Topology& topo, const PktSimConfig& config,
                      std::size_t m, const PktMessage& msg);

/// Seed of the per-run adaptive-candidate rng.  Replication 0 maps to the
/// router's base seed unchanged, so a plain run() reproduces the
/// historical ValiantRouter stream bit-for-bit; every other replication
/// gets an independent golden-ratio-offset stream derived from its index
/// alone, which is what makes randomized routers replicable under
/// run_batch (no shared mutable state, no order dependence).
[[nodiscard]] std::uint64_t candidate_rng_seed(const PktSimConfig& config,
                                               std::uint64_t replication);

/// Seed of the per-run retry-jitter rng, derived exactly like the
/// adaptive-candidate seed from the online config's retry seed.
[[nodiscard]] std::uint64_t retry_rng_seed(const PktSimConfig& config,
                                           std::uint64_t replication);

/// Exponential backoff with seeded jitter before retry attempt `attempt`
/// (1-based): base * 2^(attempt-1) * (1 + jitter * u).  `u` is drawn by
/// the caller in event order.
[[nodiscard]] double backoff_delay(const PktRetryConfig& retry,
                                   std::int32_t attempt, double u);

}  // namespace detail

}  // namespace hxsim::sim
