// Online-fault configuration for the packet engine: mid-run link failures,
// routing-epoch swaps, and end-host timeout/retry.
//
// The resilience pipeline historically modelled faults *between* runs:
// apply a FaultSchedule stage, recompute LFTs, re-solve -- no packet was
// ever in flight when a link died.  Camarero et al. (arXiv:2404.04315)
// show the interesting degradation happens in the transient: stale tables
// blackhole or loop traffic until updated routes propagate.  This header
// is the data model for that transient, consumed by PktSim and, bit for
// bit, by the audit's reference engine (the typed/reference differential
// covers every online feature below):
//
//  - PktTimedFault: a set of directed channels that die at one instant.
//    At the fault time the channel stops accepting and transmitting:
//    packets on the wire are dropped (PktDropCause::kInFlight), queued
//    packets are re-arbitrated through the live fabric, and held credits
//    are returned so upstream arbitration continues.
//  - PktRoutingEpoch: one generation of forwarding state.  Epoch 0 is
//    installed everywhere from t = 0; each later epoch carries a
//    *per-switch* install time (the repaired LFT propagating through the
//    subnet manager's sweep), so between the fault and the install a
//    switch still forwards by the stale table -- the blackhole / transient
//    loop window, bounded by PktOnlineConfig::ttl_hops.
//  - PktRetryConfig: the end-host reliability model.  Each message arms a
//    timeout per transmission attempt; on expiry the unacknowledged
//    remainder is retransmitted after exponential backoff with seeded
//    jitter (stats::Rng -- replicable across run_batch threads), up to
//    max_retries, after which the flow gives up (kAbandoned).
//
// The off switch is a contract: a PktOnlineConfig with no faults, no
// epochs, and retry disabled -- or no config at all -- leaves every run
// bit-identical to the pre-online engine and allocation-free on warm runs.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/forwarding.hpp"
#include "routing/lid_space.hpp"
#include "topo/fault_injector.hpp"
#include "topo/topology.hpp"

namespace hxsim::sim {

/// Channels that die mid-run at `time`.  Both directions of a failing
/// cable must be listed (timed_faults() lists each cable and its
/// reverse).
struct PktTimedFault {
  double time = 0.0;
  std::vector<topo::ChannelId> channels;
};

/// One generation of forwarding state.  Tables/VLs are borrowed (the
/// caller keeps the RouteResult alive for the run).
struct PktRoutingEpoch {
  const routing::ForwardingTables* tables = nullptr;
  /// Optional: per-destination VL assignment; packets fall back to their
  /// message VL when null.
  const routing::VlMap* vls = nullptr;
  /// Per-switch install timestamp [s]; empty = installed from t = 0
  /// (mandatory for epoch 0).  A switch forwards by the highest epoch
  /// whose install time has passed.
  std::vector<double> install_time;
};

/// End-host timeout/retry model.
struct PktRetryConfig {
  bool enabled = false;
  /// Time after an attempt's injection before the unacknowledged
  /// remainder is declared lost [s].
  double timeout = 1e-3;
  /// Backoff before retry k (1-based) is base * 2^(k-1) * (1 + jitter*u),
  /// u drawn uniformly from the engine's retry Rng in event order.
  double backoff_base = 1e-5;
  double jitter = 0.5;
  /// Attempts beyond the first; exhausted => the flow is abandoned.
  std::int32_t max_retries = 4;
  /// Base seed of the retry jitter stream; replication r draws from
  /// Rng(seed ^ (r * golden-ratio)), mirroring the adaptive-router rule,
  /// so run_batch replications are independent and thread-count invariant.
  std::uint64_t seed = 1;
};

struct PktOnlineConfig {
  /// Time-ordered is not required; the engine schedules each fault as an
  /// event at its timestamp.  Fault events sort before same-time injects.
  std::vector<PktTimedFault> faults;
  /// Forwarding epochs for *table-routed* messages (path-less messages
  /// without an adaptive router are forwarded hop-by-hop through the
  /// active epoch's LFT).  Empty: no table routing, faults and retry
  /// still apply to static-path and adaptive traffic.
  std::vector<PktRoutingEpoch> epochs;
  /// Required when epochs are present: destination terminal -> LID.
  const routing::LidSpace* lids = nullptr;
  /// Switch-visit budget for table-routed packets; exceeded => dropped
  /// with PktDropCause::kTtl (bounds transient routing loops).
  std::int32_t ttl_hops = 64;
  PktRetryConfig retry;

  /// True when attaching this config can change any simulation result.
  [[nodiscard]] bool active() const noexcept {
    return !faults.empty() || !epochs.empty() || retry.enabled;
  }
  [[nodiscard]] bool table_routed() const noexcept { return !epochs.empty(); }
};

/// Converts the schedule's *timed* stages (at_time >= 0) into the engine's
/// fault feed: one PktTimedFault per timed stage, listing both directions
/// of every cable the stage disables.  Untimed stages are skipped (they
/// remain the between-runs campaign model).
[[nodiscard]] std::vector<PktTimedFault> timed_faults(
    const topo::Topology& topo, const topo::FaultSchedule& schedule);

/// Validates `online` against the run's fabric; throws std::invalid_argument
/// on out-of-range channels, missing tables/lids, a LidSpace that misses a
/// terminal, epoch tables or VL maps whose shape does not fit the fabric
/// and its LIDs, non-finite or negative times, or nonsensical retry
/// parameters.  PktSim's constructor calls this.
void validate_online(const topo::Topology& topo, const PktOnlineConfig& online,
                     std::int32_t num_vls);

}  // namespace hxsim::sim
