// Per-channel x virtual-lane counters for the packet simulator -- the
// simulator analogue of the InfiniBand port counters the paper's fabric
// debugging relies on (PortXmitData/PortXmitPkts for traffic volume,
// PortXmitWait for credit starvation).
//
// A PktTrace is attached through PktSimConfig::trace and is strictly
// observational: PktSim reads its own state and bumps counters here, but no
// simulation decision ever looks at the trace, so results are bit-identical
// with tracing on or off (asserted in tests/sim_test.cpp).  All storage is
// preallocated in reset() -- called once by the simulator before injection
// -- so the per-event cost is a few array writes and no allocation.
//
// Counter semantics (per directed channel, per VL):
//  - packets/bytes:    segments that *started crossing* the channel, the
//                      PortXmitData analogue;
//  - credit_stall_s:   total time the VL had a packet queued while the
//                      downstream input buffer had no free slot -- the
//                      PortXmitWait analogue; Figure 1's dark inter-switch
//                      blocks are exactly where this concentrates;
//  - arb_skips:        round-robin arbitration passes that skipped this VL
//                      because it was credit-blocked (a cheap integer proxy
//                      for head-of-line blocking frequency);
//  - peak_queue/queue_depth_time: maximum and time-integrated occupancy of
//                      the VL's waiting queue (divide the integral by the
//                      run's end_time for the time-weighted mean depth);
//  - final_credits:    downstream credits at the end of the run; after a
//                      fully drained run this must equal vc_buffer_packets
//                      (credit-leak canary), after a deadlock it exposes
//                      the exhausted buffers.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "topo/topology.hpp"

namespace hxsim::obs {

/// Why the online-fault layer (sim/online.hpp) dropped a packet.  Causes are
/// mutually exclusive and charged exactly once per dropped segment.
enum class PktDropCause : std::int8_t {
  /// The packet was on the wire when its channel died at the fault instant.
  kInFlight = 0,
  /// No usable next hop: a stale table forwarded onto a dead channel, a
  /// static path crossed one, or no adaptive escape candidate was alive.
  kBlackhole = 1,
  /// Table-routed hop budget exceeded (transient loop between epochs).
  kTtl = 2,
  /// A stale-attempt or abandoned-message segment reached the terminal
  /// after the end host had already retransmitted or given up.
  kSuperseded = 3,
};

inline constexpr std::int32_t kNumPktDropCauses = 4;

[[nodiscard]] std::string_view to_string(PktDropCause cause) noexcept;

struct ChannelVlCounters {
  std::int64_t packets = 0;
  std::int64_t bytes = 0;
  double credit_stall_s = 0.0;
  std::int64_t arb_skips = 0;
  std::int32_t peak_queue = 0;
  double queue_depth_time = 0.0;  // integral of depth over time [pkt*s]
  std::int32_t final_credits = -1;  // -1: channel has no credit budget
};

class PktTrace {
 public:
  /// Sizes (and zeroes) the counter store; PktSim calls this at the start
  /// of every run() so a trace object can be reused across runs.
  void reset(std::int32_t num_channels, std::int32_t num_vls);

  [[nodiscard]] std::int32_t num_channels() const noexcept {
    return num_channels_;
  }
  [[nodiscard]] std::int32_t num_vls() const noexcept { return num_vls_; }

  [[nodiscard]] ChannelVlCounters& at(topo::ChannelId ch, std::int8_t vl) {
    return counters_[index(ch, vl)];
  }
  [[nodiscard]] const ChannelVlCounters& at(topo::ChannelId ch,
                                            std::int8_t vl) const {
    return counters_[index(ch, vl)];
  }

  // --- hooks PktSim drives (hot path: branch-free array updates) ---------

  void on_cross(topo::ChannelId ch, std::int8_t vl, std::int32_t bytes) {
    ChannelVlCounters& c = counters_[index(ch, vl)];
    ++c.packets;
    c.bytes += bytes;
  }

  void on_arb_skip(topo::ChannelId ch, std::int8_t vl) {
    ++counters_[index(ch, vl)].arb_skips;
  }

  void on_queue_depth(topo::ChannelId ch, std::int8_t vl,
                      std::int32_t depth, double now) {
    const std::size_t i = index(ch, vl);
    ChannelVlCounters& c = counters_[i];
    c.queue_depth_time += depth_[i] * (now - depth_since_[i]);
    depth_[i] = depth;
    depth_since_[i] = now;
    if (depth > c.peak_queue) c.peak_queue = depth;
  }

  /// Tracks the credit-stall window: `blocked` is "a packet is queued on
  /// this VL and the downstream buffer has zero credits".  Transitions
  /// open/close the window; repeated same-state calls are no-ops.
  void on_blocked(topo::ChannelId ch, std::int8_t vl, bool blocked,
                  double now) {
    const std::size_t i = index(ch, vl);
    if (blocked) {
      if (blocked_since_[i] < 0.0) blocked_since_[i] = now;
    } else if (blocked_since_[i] >= 0.0) {
      counters_[i].credit_stall_s += now - blocked_since_[i];
      blocked_since_[i] = -1.0;
    }
  }

  void set_final_credits(topo::ChannelId ch, std::int8_t vl,
                         std::int32_t credits) {
    counters_[index(ch, vl)].final_credits = credits;
  }

  // --- online-fault hooks (sim/online.hpp); scalar, not per-channel ------

  void on_drop(PktDropCause cause) {
    ++drops_[static_cast<std::size_t>(cause)];
  }
  void on_retry() { ++retries_; }
  void on_abandon() { ++abandoned_; }

  [[nodiscard]] std::int64_t drops(PktDropCause cause) const noexcept {
    return drops_[static_cast<std::size_t>(cause)];
  }
  [[nodiscard]] std::int64_t retries() const noexcept { return retries_; }
  [[nodiscard]] std::int64_t abandoned() const noexcept { return abandoned_; }

  /// Closes every open stall window and depth integral at `end_time`.
  void finalize(double end_time);

  /// Per-channel sums over VLs (convenience for hotspot analysis).
  [[nodiscard]] std::int64_t channel_packets(topo::ChannelId ch) const;
  [[nodiscard]] double channel_credit_stall(topo::ChannelId ch) const;

 private:
  [[nodiscard]] std::size_t index(topo::ChannelId ch, std::int8_t vl) const {
    return static_cast<std::size_t>(ch) * static_cast<std::size_t>(num_vls_) +
           static_cast<std::size_t>(vl);
  }

  std::int32_t num_channels_ = 0;
  std::int32_t num_vls_ = 0;
  std::array<std::int64_t, kNumPktDropCauses> drops_{};
  std::int64_t retries_ = 0;
  std::int64_t abandoned_ = 0;
  std::vector<ChannelVlCounters> counters_;
  // Transient accounting state, parallel to counters_.
  std::vector<double> blocked_since_;  // -1: no open stall window
  std::vector<double> depth_since_;
  std::vector<std::int32_t> depth_;
};

}  // namespace hxsim::obs
