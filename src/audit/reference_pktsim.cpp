#include "audit/reference_pktsim.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <utility>

#include "stats/rng.hpp"

namespace hxsim::audit {

void EventQueue::schedule(double when, Callback cb) {
  if (when < now_)
    throw std::invalid_argument("EventQueue::schedule: event in the past");
  heap_.push(Entry{when, next_seq_++, std::move(cb)});
}

bool EventQueue::run_one() {
  if (heap_.empty()) return false;
  // priority_queue::top() is const; move out via const_cast is UB-adjacent,
  // so copy the callback handle (cheap: std::function) and pop.
  Entry e = heap_.top();
  heap_.pop();
  now_ = e.when;
  e.cb();
  return true;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && run_one()) ++count;
  return count;
}

namespace {

using sim::AdaptiveState;
using sim::PktMessage;
using sim::PktMessageStatus;
using sim::PktOnlineConfig;
using sim::PktRoutingEpoch;
using sim::PktSim;
using sim::PktSimConfig;
using sim::RouteCandidate;
using sim::serialization_time;
using sim::detail::backoff_delay;
using sim::detail::candidate_rng_seed;
using sim::detail::retry_rng_seed;
using sim::detail::validate_message;

// ---------------------------------------------------------------------------
// ReferenceEngine: the seed implementation, the oracle of the typed engine
// in sim/pktsim.cpp.  Type-erased callbacks on a binary heap, per-VL
// std::deques, one heap-allocated Packet record per segment.  Behaviour is
// frozen; only the config copy was replaced by a reference (the config
// outlives the engine in every call path) and the input checks by the
// typed engine's own (sim::detail).
// ---------------------------------------------------------------------------

struct RefPacket {
  std::int32_t msg = -1;
  std::int32_t size = 0;  // bytes in this segment
  std::int32_t hop = 0;   // path index (static) / switch visits (table: TTL)
  std::int32_t attempt = 0;  // transmission attempt the segment belongs to
  std::int8_t vl = 0;
  bool adaptive = false;
  bool table = false;  // forwarded hop-by-hop through the online epochs
  /// Channel whose downstream buffer the packet currently occupies (credit
  /// held), and the VL it was crossed on.
  topo::ChannelId held = topo::kInvalidChannel;
  std::int8_t held_vl = 0;
  AdaptiveState astate;
};

struct RefChannelState {
  bool busy = false;
  bool down = false;  // online fault: died mid-run
  std::int8_t busy_vl = 0;                      // VL of the in-flight packet
  std::int32_t rr_next = 0;                     // VL arbitration pointer
  std::vector<std::deque<std::int32_t>> queue;  // per VL: waiting packets
  std::vector<std::int32_t> credits;            // per VL: downstream slots
  bool downstream_is_switch = false;

  /// Congestion score of one VL: its waiting queue plus the in-flight
  /// packet *iff* that packet is serialising on this VL.
  [[nodiscard]] std::int32_t occupancy(std::int8_t vl) const {
    return static_cast<std::int32_t>(queue[static_cast<std::size_t>(vl)]
                                         .size()) +
           ((busy && busy_vl == vl) ? 1 : 0);
  }
};

class ReferenceEngine {
 public:
  ReferenceEngine(const topo::Topology& topo, const PktSimConfig& config,
                  obs::PktTrace* trace, std::span<const PktMessage> messages,
                  std::uint64_t replication = 0)
      : topo_(topo), config_(config), messages_(messages), trace_(trace),
        rng_(candidate_rng_seed(config, replication)),
        retry_rng_(retry_rng_seed(config, replication)) {
    online_ = config.online;
    table_mode_ = online_ != nullptr && !online_->epochs.empty();
    retry_on_ = online_ != nullptr && online_->retry.enabled;
    track_status_ = online_ != nullptr && online_->active();

    channels_.resize(static_cast<std::size_t>(topo.num_channels()));
    for (topo::ChannelId ch = 0; ch < topo.num_channels(); ++ch) {
      RefChannelState& st = channels_[static_cast<std::size_t>(ch)];
      st.queue.resize(static_cast<std::size_t>(config.num_vls));
      st.downstream_is_switch = topo.channel(ch).dst.is_switch();
      st.credits.assign(static_cast<std::size_t>(config.num_vls),
                        st.downstream_is_switch ? config.vc_buffer_packets
                                                : 0 /* unused */);
    }
    if (trace_ != nullptr)
      trace_->reset(topo.num_channels(), config.num_vls);

    result_.completion.assign(messages.size(),
                              std::numeric_limits<double>::quiet_NaN());
    remaining_packets_.assign(messages.size(), 0);
    if (track_status_)
      result_.message_status.assign(messages.size(),
                                    PktMessageStatus::kUndelivered);
    if (table_mode_) {
      cur_epoch_.assign(static_cast<std::size_t>(topo.num_switches()), 0);
      dlid_.assign(messages.size(), routing::kInvalidLid);
    }
    if (retry_on_) {
      attempt_.assign(messages.size(), 0);
      retries_left_.assign(messages.size(), online_->retry.max_retries);
    }

    // Fault events are scheduled before any inject so they carry lower
    // sequence numbers: at an equal timestamp the channel dies first, then
    // traffic routes around it -- identically in both engines.
    if (online_ != nullptr)
      for (std::size_t f = 0; f < online_->faults.size(); ++f)
        events_.schedule(online_->faults[f].time, [this, f] { fault(f); });

    for (std::size_t m = 0; m < messages.size(); ++m) {
      const PktMessage& msg = messages[m];
      validate_message(topo, config, m, msg);
      const bool pathless = msg.path.empty() && msg.src != msg.dst;
      if (msg.path.empty() && msg.src == msg.dst) {
        result_.completion[m] = msg.inject_time;  // self-send
        if (track_status_)
          result_.message_status[m] = PktMessageStatus::kDelivered;
        continue;
      }
      if (pathless && config_.adaptive == nullptr)
        dlid_[m] = online_->lids->base_lid(msg.dst);
      const std::int64_t segments =
          std::max<std::int64_t>(1, (msg.bytes + config.link.mtu - 1) /
                                        config.link.mtu);
      remaining_packets_[m] = segments;
      result_.packets_total += segments;
      events_.schedule(msg.inject_time, [this, m] { inject(m); });
    }
  }

  PktSim::Result run(std::size_t max_events) {
    result_.events_executed =
        static_cast<std::int64_t>(events_.run(max_events));
    result_.end_time = events_.now();
    // Pending events mean the run was truncated by max_events -- progress
    // was still possible, so it is NOT a deadlock; a drained queue with
    // packets neither delivered nor dropped is one.
    result_.truncated = !events_.empty();
    result_.deadlock =
        events_.empty() && result_.packets_delivered + result_.packets_dropped <
                               result_.packets_total;
    if (result_.deadlock) result_.deadlock_report = post_mortem();
    if (trace_ != nullptr) {
      trace_->finalize(result_.end_time);
      for (topo::ChannelId ch = 0; ch < topo_.num_channels(); ++ch) {
        const RefChannelState& st = channels_[static_cast<std::size_t>(ch)];
        if (!st.downstream_is_switch) continue;
        for (std::int8_t vl = 0; vl < config_.num_vls; ++vl)
          trace_->set_final_credits(ch, vl,
                                    st.credits[static_cast<std::size_t>(vl)]);
      }
    }
    return std::move(result_);
  }

 private:
  /// Re-derives the credit-stall state of (ch, vl) after any queue or
  /// credit mutation; no-op unless tracing.
  void sync_stall(topo::ChannelId ch, std::int8_t vl) {
    if (trace_ == nullptr) return;
    const RefChannelState& st = channels_[static_cast<std::size_t>(ch)];
    const bool blocked =
        st.downstream_is_switch &&
        st.credits[static_cast<std::size_t>(vl)] <= 0 &&
        !st.queue[static_cast<std::size_t>(vl)].empty();
    trace_->on_blocked(ch, vl, blocked, events_.now());
  }

  /// Runs after deadlock detection: every queued packet becomes a wait
  /// edge (holds its upstream buffer, wants a credit of the channel it is
  /// queued on), and the cycle is extracted from the resource graph.
  obs::DeadlockReport post_mortem() const {
    std::vector<obs::CreditWaitEdge> blocked;
    for (topo::ChannelId ch = 0; ch < topo_.num_channels(); ++ch) {
      const RefChannelState& st = channels_[static_cast<std::size_t>(ch)];
      for (std::int8_t vl = 0; vl < config_.num_vls; ++vl) {
        for (const std::int32_t pkt :
             st.queue[static_cast<std::size_t>(vl)]) {
          const RefPacket& p = packets_[static_cast<std::size_t>(pkt)];
          blocked.push_back(obs::CreditWaitEdge{pkt, p.msg, p.held, p.held_vl,
                                                ch, vl});
        }
      }
    }
    return obs::build_deadlock_report(std::move(blocked), config_.num_vls);
  }

  void inject(std::size_t m) { inject_segments(m, remaining_packets_[m]); }

  /// Injects the last `count` segments of message `m`'s segmentation --
  /// all of them on first injection, the unacknowledged remainder on a
  /// retransmission.  Sizes are count-1 full-MTU fills plus the message's
  /// tail segment, reproducing the historical forward walk bit-for-bit.
  void inject_segments(std::size_t m, std::int64_t count) {
    const PktMessage& msg = messages_[m];
    const bool pathless = msg.path.empty();
    const bool adaptive = pathless && config_.adaptive != nullptr;
    const bool table = pathless && !adaptive;
    const topo::ChannelId first =
        pathless ? topo_.terminal_up(msg.src) : msg.path[0];
    const std::int64_t mtu = config_.link.mtu;
    const std::int64_t total =
        std::max<std::int64_t>(1, (msg.bytes + mtu - 1) / mtu);
    const auto tail = static_cast<std::int32_t>(
        std::max<std::int64_t>(1, msg.bytes - (total - 1) * mtu));
    const std::int8_t vl = table ? table_vl(m) : (adaptive ? 0 : msg.vl);
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int32_t seg =
          i + 1 == count ? tail : static_cast<std::int32_t>(mtu);
      const auto pkt = static_cast<std::int32_t>(packets_.size());
      RefPacket p;
      p.msg = static_cast<std::int32_t>(m);
      p.size = seg;
      p.attempt = retry_on_ ? attempt_[m] : 0;
      p.vl = vl;
      p.adaptive = adaptive;
      p.table = table;
      packets_.push_back(p);
      if (channels_[static_cast<std::size_t>(first)].down) {
        // The NIC's uplink (or the path's first channel) is already dead.
        drop(pkt, obs::PktDropCause::kBlackhole);
      } else {
        enqueue(first, pkt);
      }
    }
    try_start(first);
    if (retry_on_)
      events_.schedule_in(online_->retry.timeout, [this, m] { timeout(m); });
  }

  /// Injection VL of a table-routed message: the active epoch's VL
  /// assignment at the source switch, clamped to the configured lanes.
  std::int8_t table_vl(std::size_t m) {
    const PktMessage& msg = messages_[m];
    const topo::SwitchId sw = topo_.attach_switch(msg.src);
    const PktRoutingEpoch& ep =
        online_->epochs[static_cast<std::size_t>(epoch_at(sw))];
    if (ep.vls == nullptr) return msg.vl;
    const std::int8_t vl = ep.vls->vl(sw, dlid_[m]);
    return (vl >= 0 && vl < config_.num_vls) ? vl : msg.vl;
  }

  /// Lazily advances switch `sw` to the highest epoch whose per-switch
  /// install time has passed (monotone: tables never roll back).
  std::int32_t epoch_at(topo::SwitchId sw) {
    std::int32_t e = cur_epoch_[static_cast<std::size_t>(sw)];
    const auto n = static_cast<std::int32_t>(online_->epochs.size());
    const double now = events_.now();
    while (e + 1 < n) {
      const std::vector<double>& inst =
          online_->epochs[static_cast<std::size_t>(e + 1)].install_time;
      const double t = inst.empty() ? 0.0 : inst[static_cast<std::size_t>(sw)];
      if (!(t <= now)) break;  // NaN-safe: unreachable installs never pass
      ++e;
    }
    cur_epoch_[static_cast<std::size_t>(sw)] = e;
    return e;
  }

  /// Next hop of a table-routed packet at `sw` by the switch's active
  /// epoch; kInvalidChannel when the LFT has no (usable) entry.
  topo::ChannelId table_next(topo::SwitchId sw, std::int32_t m) {
    const PktRoutingEpoch& ep =
        online_->epochs[static_cast<std::size_t>(epoch_at(sw))];
    const topo::ChannelId ch =
        ep.tables->next(sw, dlid_[static_cast<std::size_t>(m)]);
    return (ch >= 0 && ch < topo_.num_channels()) ? ch
                                                  : topo::kInvalidChannel;
  }

  /// The fault instant: the channels stop accepting and transmitting.
  /// Packets queued on them are re-arbitrated through the live fabric
  /// (channel feed order, VLs ascending, FIFO within a VL); packets on
  /// the wire are dropped when their arrival fires (kInFlight).
  void fault(std::size_t f) {
    for (const topo::ChannelId ch : online_->faults[f].channels) {
      RefChannelState& st = channels_[static_cast<std::size_t>(ch)];
      if (st.down) continue;  // overlapping faults: already dead
      st.down = true;
      for (std::int8_t vl = 0; vl < config_.num_vls; ++vl) {
        auto& q = st.queue[static_cast<std::size_t>(vl)];
        while (!q.empty()) {
          const std::int32_t pkt = q.front();
          q.pop_front();
          if (trace_ != nullptr) {
            trace_->on_queue_depth(ch, vl,
                                   static_cast<std::int32_t>(q.size()),
                                   events_.now());
            sync_stall(ch, vl);
          }
          redirect(ch, pkt);
        }
      }
    }
  }

  /// A packet queued on `dead` lost its output: route it again from the
  /// switch upstream of the dead channel, or drop it as blackholed
  /// (static paths cannot be re-planned; neither can terminal uplinks).
  void redirect(topo::ChannelId dead, std::int32_t pkt) {
    RefPacket& p = packets_[static_cast<std::size_t>(pkt)];
    const topo::Channel& c = topo_.channel(dead);
    topo::ChannelId next = topo::kInvalidChannel;
    if (c.src.is_switch()) {
      const topo::SwitchId sw = c.src.index;
      if (p.adaptive) {
        next = choose_adaptive(sw, p);
      } else if (p.table) {
        next = table_next(sw, p.msg);
      }
    }
    if (next == topo::kInvalidChannel ||
        channels_[static_cast<std::size_t>(next)].down) {
      drop(pkt, obs::PktDropCause::kBlackhole);
      return;
    }
    enqueue(next, pkt);
    try_start(next);
  }

  /// Drops a segment with cause accounting and vacates the upstream input
  /// buffer it still holds, waking that channel's arbiter.
  void drop(std::int32_t pkt, obs::PktDropCause cause) {
    RefPacket& p = packets_[static_cast<std::size_t>(pkt)];
    ++result_.packets_dropped;
    ++result_.dropped_by_cause[static_cast<std::size_t>(cause)];
    if (p.held != topo::kInvalidChannel) {
      RefChannelState& hst = channels_[static_cast<std::size_t>(p.held)];
      if (hst.downstream_is_switch) {
        ++hst.credits[static_cast<std::size_t>(p.held_vl)];
        sync_stall(p.held, p.held_vl);
        try_start(p.held);
      }
    }
    p.held = topo::kInvalidChannel;
  }

  /// End-host timer of one transmission attempt.  Stale (the message
  /// completed) => no-op; retries exhausted => the flow gives up; else
  /// bump the attempt (superseding every outstanding segment) and
  /// schedule the retransmission after backoff.
  void timeout(std::size_t m) {
    if (remaining_packets_[m] == 0) return;
    if (result_.message_status[m] == PktMessageStatus::kAbandoned) return;
    if (retries_left_[m] == 0) {
      result_.message_status[m] = PktMessageStatus::kAbandoned;
      ++result_.messages_abandoned;
      return;
    }
    --retries_left_[m];
    const std::int32_t attempt = ++attempt_[m];
    ++result_.retries;
    const double delay =
        backoff_delay(online_->retry, attempt, retry_rng_.uniform());
    events_.schedule_in(delay, [this, m] { retry(m); });
  }

  void retry(std::size_t m) {
    if (remaining_packets_[m] == 0) return;  // defensive; mirrored
    result_.packets_total += remaining_packets_[m];
    inject_segments(m, remaining_packets_[m]);
  }

  void enqueue(topo::ChannelId ch, std::int32_t pkt) {
    const std::int8_t vl = packets_[static_cast<std::size_t>(pkt)].vl;
    auto& q =
        channels_[static_cast<std::size_t>(ch)].queue[static_cast<std::size_t>(
            vl)];
    q.push_back(pkt);
    if (trace_ != nullptr) {
      trace_->on_queue_depth(ch, vl, static_cast<std::int32_t>(q.size()),
                             events_.now());
      sync_stall(ch, vl);
    }
  }

  /// Round-robin arbitration: start the next eligible packet on `ch`.
  void try_start(topo::ChannelId ch) {
    RefChannelState& st = channels_[static_cast<std::size_t>(ch)];
    if (st.busy) return;
    if (st.down) return;  // online fault: the channel transmits nothing
    const std::int32_t vls = config_.num_vls;
    for (std::int32_t i = 0; i < vls; ++i) {
      const std::int32_t vl = (st.rr_next + i) % vls;
      auto& q = st.queue[static_cast<std::size_t>(vl)];
      if (q.empty()) continue;
      if (st.downstream_is_switch &&
          st.credits[static_cast<std::size_t>(vl)] <= 0) {
        if (trace_ != nullptr)
          trace_->on_arb_skip(ch, static_cast<std::int8_t>(vl));
        continue;  // head blocked on credits; try another VL
      }
      const std::int32_t pkt = q.front();
      q.pop_front();
      if (trace_ != nullptr)
        trace_->on_queue_depth(ch, static_cast<std::int8_t>(vl),
                               static_cast<std::int32_t>(q.size()),
                               events_.now());
      st.rr_next = (vl + 1) % vls;
      start_crossing(ch, pkt);
      return;
    }
  }

  void start_crossing(topo::ChannelId ch, std::int32_t pkt) {
    RefChannelState& st = channels_[static_cast<std::size_t>(ch)];
    RefPacket& p = packets_[static_cast<std::size_t>(pkt)];

    if (st.downstream_is_switch) {
      --st.credits[static_cast<std::size_t>(p.vl)];
      sync_stall(ch, p.vl);
    }
    if (trace_ != nullptr) trace_->on_cross(ch, p.vl, p.size);

    // Starting to cross vacates the upstream input buffer: return the
    // held credit and wake that channel's arbiter.
    if (p.held != topo::kInvalidChannel) {
      RefChannelState& hst = channels_[static_cast<std::size_t>(p.held)];
      if (hst.downstream_is_switch) {
        ++hst.credits[static_cast<std::size_t>(p.held_vl)];
        sync_stall(p.held, p.held_vl);
        try_start(p.held);
      }
    }
    p.held = ch;
    p.held_vl = p.vl;

    st.busy = true;
    st.busy_vl = p.vl;
    const double ser = serialization_time(config_.link, p.size);
    events_.schedule_in(ser, [this, ch] {
      channels_[static_cast<std::size_t>(ch)].busy = false;
      try_start(ch);
    });
    events_.schedule_in(ser + config_.link.hop_latency,
                        [this, ch, pkt] { arrive(ch, pkt); });
  }

  /// Picks the adaptive candidate with the lowest congestion score:
  /// output occupancy on the packet's next VL, plus the deroute penalty
  /// for non-minimal hops, plus a large penalty when no credit is
  /// immediately available.  Candidates on channels that died mid-run are
  /// skipped (the adaptive escape); kInvalidChannel when none is alive.
  topo::ChannelId choose_adaptive(topo::SwitchId sw, RefPacket& p) {
    const PktMessage& msg = messages_[static_cast<std::size_t>(p.msg)];
    scratch_candidates_.clear();
    config_.adaptive->candidates(sw, msg.dst, p.astate, scratch_candidates_,
                                 rng_);
    if (scratch_candidates_.empty())
      throw std::runtime_error("PktSim: adaptive router returned no route");

    const auto vl = static_cast<std::int8_t>(std::min<std::int32_t>(
        p.astate.hops_taken, config_.num_vls - 1));
    const RouteCandidate* best = nullptr;
    std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
    for (const RouteCandidate& cand : scratch_candidates_) {
      const RefChannelState& st =
          channels_[static_cast<std::size_t>(cand.channel)];
      if (st.down) continue;
      std::int64_t score = st.occupancy(vl);
      if (!cand.minimal) score += config_.deroute_penalty;
      if (st.downstream_is_switch &&
          st.credits[static_cast<std::size_t>(vl)] <= 0)
        score += 1000;
      if (score < best_score ||
          (score == best_score && best && cand.channel < best->channel)) {
        best_score = score;
        best = &cand;
      }
    }
    if (best == nullptr) return topo::kInvalidChannel;  // every escape dead
    p.vl = vl;
    config_.adaptive->on_hop(*best, p.astate);
    return best->channel;
  }

  void arrive(topo::ChannelId ch, std::int32_t pkt) {
    RefPacket& p = packets_[static_cast<std::size_t>(pkt)];
    const PktMessage& msg = messages_[static_cast<std::size_t>(p.msg)];
    const topo::Channel& c = topo_.channel(ch);

    if (channels_[static_cast<std::size_t>(ch)].down) {
      // The channel died while the packet was on the wire.
      drop(pkt, obs::PktDropCause::kInFlight);
      return;
    }

    if (c.dst.is_terminal()) {
      if (retry_on_ &&
          (p.attempt != attempt_[static_cast<std::size_t>(p.msg)] ||
           result_.message_status[static_cast<std::size_t>(p.msg)] ==
               PktMessageStatus::kAbandoned)) {
        // The end host already retransmitted or gave up on this flow.
        drop(pkt, obs::PktDropCause::kSuperseded);
        return;
      }
      ++result_.packets_delivered;
      auto& left = remaining_packets_[static_cast<std::size_t>(p.msg)];
      if (--left == 0) {
        result_.completion[static_cast<std::size_t>(p.msg)] = events_.now();
        if (track_status_)
          result_.message_status[static_cast<std::size_t>(p.msg)] =
              PktMessageStatus::kDelivered;
      }
      return;
    }

    const topo::SwitchId sw = c.dst.index;
    topo::ChannelId next;
    if (p.adaptive) {
      if (sw == topo_.attach_switch(msg.dst)) {
        next = topo_.terminal_down(msg.dst);
      } else {
        next = choose_adaptive(sw, p);
        if (next == topo::kInvalidChannel) {
          drop(pkt, obs::PktDropCause::kBlackhole);
          return;
        }
      }
    } else if (p.table) {
      ++p.hop;
      if (p.hop > online_->ttl_hops) {
        // Transient routing loop between epochs: hop budget exhausted.
        drop(pkt, obs::PktDropCause::kTtl);
        return;
      }
      next = table_next(sw, p.msg);
      if (next == topo::kInvalidChannel) {
        drop(pkt, obs::PktDropCause::kBlackhole);
        return;
      }
    } else {
      ++p.hop;
      next = msg.path[static_cast<std::size_t>(p.hop)];
    }
    if (channels_[static_cast<std::size_t>(next)].down) {
      // Stale table, static path, or chosen hop onto a dead channel.
      drop(pkt, obs::PktDropCause::kBlackhole);
      return;
    }
    enqueue(next, pkt);
    try_start(next);
  }

  const topo::Topology& topo_;
  const PktSimConfig& config_;
  std::span<const PktMessage> messages_;
  EventQueue events_;
  std::vector<RefPacket> packets_;
  std::vector<RefChannelState> channels_;
  std::vector<std::int64_t> remaining_packets_;
  std::vector<RouteCandidate> scratch_candidates_;
  obs::PktTrace* trace_ = nullptr;  // nullptr: tracing off (the default)
  stats::Rng rng_;  // per-run adaptive-candidate stream
  stats::Rng retry_rng_;  // per-run retry-jitter stream (event order)
  // Online-fault state (see sim/online.hpp); all inert when online_ is
  // null or inactive.
  const PktOnlineConfig* online_ = nullptr;
  bool table_mode_ = false;
  bool retry_on_ = false;
  bool track_status_ = false;
  std::vector<std::int32_t> cur_epoch_;     // per switch (table mode)
  std::vector<routing::Lid> dlid_;          // per message (table mode)
  std::vector<std::int32_t> attempt_;       // per message (retry)
  std::vector<std::int32_t> retries_left_;  // per message (retry)
  PktSim::Result result_;
};

}  // namespace

sim::PktSim::Result reference_pkt_run(const topo::Topology& topo,
                                      const sim::PktSimConfig& config,
                                      std::span<const sim::PktMessage> messages,
                                      std::size_t max_events,
                                      std::uint64_t replication) {
  sim::detail::validate_config(topo, config);
  ReferenceEngine engine(topo, config, config.trace, messages, replication);
  return engine.run(max_events);
}

}  // namespace hxsim::audit
