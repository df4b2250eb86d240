#include "sim/pktsim.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "exec/exec.hpp"
#include "sim/event_queue.hpp"

namespace hxsim::sim {

namespace detail {

/// Typed POD event record.  `a` is the message index for
/// kInject/kTimeout/kRetry, the channel for kXmitDone/kArrive, and the
/// fault-feed index for kFault; `b` is the packet-pool index for kArrive.
/// kind and a share one word (kind in the low 3 bits) so a full heap entry
/// {when, seq, Ev} packs into 24 bytes -- the heap shuffles entries on
/// every sift, so entry size is directly memory traffic.
enum class EvKind : std::int8_t {
  kInject,
  kXmitDone,
  kArrive,
  kFault,    // online: a fault feed entry fires
  kTimeout,  // online: a message attempt's end-host timer expires
  kRetry,    // online: backoff elapsed, retransmit the remainder
};
struct Ev {
  std::uint32_t kind_a;  // a << 3 | kind
  std::int32_t b;

  static Ev make(EvKind kind, std::int32_t a, std::int32_t b) noexcept {
    return Ev{(static_cast<std::uint32_t>(a) << 3) |
                  static_cast<std::uint32_t>(kind),
              b};
  }
  [[nodiscard]] EvKind kind() const noexcept {
    return static_cast<EvKind>(kind_a & 7u);
  }
  [[nodiscard]] std::int32_t a() const noexcept {
    return static_cast<std::int32_t>(kind_a >> 3);
  }
};

/// One pooled packet.  `next` threads the intrusive per-channel x VL FIFO
/// the packet currently waits in (-1: tail / not queued).
struct PktNode {
  std::int32_t msg;
  std::int32_t size;  // bytes in this segment
  std::int32_t hop;   // path index (static) / switch visits (table: TTL)
  std::int32_t next;
  std::int32_t attempt;  // transmission attempt the segment belongs to
  topo::ChannelId held;  // channel whose downstream buffer the packet holds
  std::int8_t held_vl;
  std::int8_t vl;
  bool adaptive;
  bool table;  // forwarded hop-by-hop through the online epochs' LFTs
  AdaptiveState astate;
};

/// One VL's intrusive FIFO: head/tail pool indices (-1: empty) plus the
/// depth.  The three fields are always touched together, so they share a
/// record (one cache line per queue op) instead of three parallel arrays.
struct VlFifo {
  std::int32_t head;
  std::int32_t tail;
  std::int32_t len;
};

/// Engine scratch, reused across runs: the event core (heap and lanes) and
/// every flat array keep their capacity, so a warm run() allocates nothing
/// per event (and only the returned Result per run).  Channel state is
/// split SoA-style: per-channel arrays (busy/rr/q_mask) and per-channel x
/// VL arrays (credits, FIFOs) are contiguous, so try_start/arrive touch a
/// handful of cache lines instead of a vector-of-deques forest.
struct PktScratch {
  FlatEventHeap<Ev> events;
  std::vector<PktNode> pool;  // pre-sized: segments are countable up front

  // Per channel.
  std::vector<std::uint8_t> busy;
  std::vector<std::int8_t> busy_vl;  // VL of the in-flight packet
  std::vector<std::int32_t> rr_next;  // VL arbitration pointer
  std::vector<std::uint8_t> down_switch;
  /// Bit vl set: that VL's FIFO is non-empty.  try_start's round-robin
  /// scan walks only set bits, so an idle channel costs one load.
  std::vector<std::uint16_t> q_mask;

  // Per channel x VL, flat index ch * num_vls + vl.
  std::vector<std::int32_t> credits;
  std::vector<VlFifo> fifo;

  std::vector<std::int64_t> remaining;  // per message: undelivered segments
  std::vector<RouteCandidate> candidates;  // adaptive scratch

  // Online-fault state (sized per run; capacity reused like everything
  // else, so the inert-config warm path stays allocation-free).
  std::vector<std::uint8_t> chan_down;     // per channel: died mid-run
  std::vector<std::int32_t> cur_epoch;     // per switch (table mode)
  std::vector<routing::Lid> dlid;          // per message (table mode)
  std::vector<std::int32_t> attempt;       // per message (retry)
  std::vector<std::int32_t> retries_left;  // per message (retry)
};

}  // namespace detail

namespace {

[[noreturn]] void fail(std::size_t m, const char* why) {
  throw std::invalid_argument("PktSim: message " + std::to_string(m) + ": " +
                              why);
}

/// Static paths are walked blindly by arrive() (`++p.hop`), so anything
/// not ending in the destination's switch->terminal channel used to
/// index past the end of the path.  Reject malformed paths up front.
void validate_path(const topo::Topology& topo, std::size_t m,
                   const PktMessage& msg) {
  for (const topo::ChannelId ch : msg.path)
    if (ch < 0 || ch >= topo.num_channels())
      fail(m, "path channel id out of range");
  if (msg.path.front() != topo.terminal_up(msg.src))
    fail(m, "path must start with the source terminal's up channel");
  for (std::size_t i = 0; i + 1 < msg.path.size(); ++i) {
    const topo::Channel& c = topo.channel(msg.path[i]);
    if (!c.dst.is_switch())
      fail(m, "path reaches a terminal before its final channel");
    if (topo.channel(msg.path[i + 1]).src != c.dst)
      fail(m, "path is disconnected (consecutive channels do not meet)");
  }
  if (msg.path.back() != topo.terminal_down(msg.dst))
    fail(m, "path must end with the destination terminal's down channel");
}

}  // namespace

namespace detail {

void validate_config(const topo::Topology& topo, const PktSimConfig& config) {
  if (config.num_vls < 1 || config.num_vls > 15)
    throw std::invalid_argument("PktSim: num_vls out of range");
  if (config.vc_buffer_packets < 1)
    throw std::invalid_argument("PktSim: need at least one buffer slot");
  if (config.adaptive != nullptr &&
      config.adaptive->max_hops() > config.num_vls)
    throw std::invalid_argument(
        "PktSim: adaptive max_hops exceeds the VL budget (escalation "
        "would not be deadlock-free)");
  if (config.online != nullptr)
    validate_online(topo, *config.online, config.num_vls);
}

void validate_message(const topo::Topology& topo, const PktSimConfig& config,
                      std::size_t m, const PktMessage& msg) {
  if (msg.vl < 0 || msg.vl >= config.num_vls)
    throw std::invalid_argument("PktSim: message VL out of range");
  if (msg.src < 0 || msg.src >= topo.num_terminals() || msg.dst < 0 ||
      msg.dst >= topo.num_terminals())
    fail(m, "src/dst is not a terminal of this topology");
  // Path-less routing: an adaptive router wins when both are configured;
  // otherwise the online epochs' tables forward hop by hop (table mode).
  const bool pathless = msg.path.empty() && msg.src != msg.dst;
  const bool table_mode =
      config.online != nullptr && !config.online->epochs.empty();
  if (pathless && config.adaptive == nullptr && !table_mode)
    throw std::invalid_argument(
        "PktSim: path-less message without an adaptive router");
  if (!msg.path.empty()) validate_path(topo, m, msg);
}

std::uint64_t candidate_rng_seed(const PktSimConfig& config,
                                 std::uint64_t replication) {
  const std::uint64_t base =
      config.adaptive != nullptr ? config.adaptive->rng_seed() : 0;
  return base ^ (0x9e3779b97f4a7c15ULL * replication);
}

std::uint64_t retry_rng_seed(const PktSimConfig& config,
                             std::uint64_t replication) {
  const std::uint64_t base =
      config.online != nullptr ? config.online->retry.seed : 0;
  return base ^ (0x9e3779b97f4a7c15ULL * replication);
}

double backoff_delay(const PktRetryConfig& retry, std::int32_t attempt,
                     double u) {
  const double scale = static_cast<double>(
      1ULL << static_cast<std::uint32_t>(std::min(attempt - 1, 62)));
  return retry.backoff_base * scale * (1.0 + retry.jitter * u);
}

}  // namespace detail

namespace {

using detail::Ev;
using detail::EvKind;
using detail::PktNode;
using detail::PktScratch;
using detail::VlFifo;

// ---------------------------------------------------------------------------
// TypedEngine: the allocation-free data-oriented engine.  Control flow is a
// line-for-line mirror of the seed engine (audit/reference_pktsim.cpp) --
// same handler structure, same scheduling order inside every handler, same
// tie-breaks -- so the strict (when, seq) event order, and therefore every
// result bit, is identical.  What changed is purely representational: POD
// events dispatched by a switch, an intrusive FIFO per channel x VL
// threaded through the pre-sized packet pool, and flat SoA channel arrays.
// Packet features added after the seed (none yet) exist only here.
// ---------------------------------------------------------------------------

class TypedEngine {
 public:
  TypedEngine(const topo::Topology& topo, const PktSimConfig& config,
              obs::PktTrace* trace, std::span<const PktMessage> messages,
              PktScratch& s, std::uint64_t replication = 0)
      : topo_(topo), config_(config), messages_(messages), s_(s),
        trace_(trace), num_vls_(config.num_vls),
        rng_(detail::candidate_rng_seed(config, replication)),
        retry_rng_(detail::retry_rng_seed(config, replication)) {
    online_ = config.online;
    table_mode_ = online_ != nullptr && !online_->epochs.empty();
    retry_on_ = online_ != nullptr && online_->retry.enabled;
    track_status_ = online_ != nullptr && online_->active();

    const auto nch = static_cast<std::size_t>(topo.num_channels());
    const std::size_t nchvl = nch * static_cast<std::size_t>(num_vls_);
    s_.events.reset();
    s_.busy.assign(nch, 0);
    s_.busy_vl.assign(nch, 0);
    s_.rr_next.assign(nch, 0);
    s_.chan_down.assign(nch, 0);
    s_.down_switch.resize(nch);
    s_.credits.resize(nchvl);
    for (topo::ChannelId ch = 0; ch < topo.num_channels(); ++ch) {
      const bool down_switch = topo.channel(ch).dst.is_switch();
      s_.down_switch[static_cast<std::size_t>(ch)] = down_switch ? 1 : 0;
      const std::int32_t credit = down_switch ? config.vc_buffer_packets : 0;
      for (std::int32_t vl = 0; vl < num_vls_; ++vl)
        s_.credits[static_cast<std::size_t>(ch) *
                       static_cast<std::size_t>(num_vls_) +
                   static_cast<std::size_t>(vl)] = credit;
    }
    s_.q_mask.assign(nch, 0);
    s_.fifo.assign(nchvl, VlFifo{-1, -1, 0});
    if (trace_ != nullptr)
      trace_->reset(topo.num_channels(), config.num_vls);

    result_.completion.assign(messages.size(),
                              std::numeric_limits<double>::quiet_NaN());
    s_.remaining.assign(messages.size(), 0);
    if (track_status_)
      result_.message_status.assign(messages.size(),
                                    PktMessageStatus::kUndelivered);
    if (table_mode_) {
      s_.cur_epoch.assign(static_cast<std::size_t>(topo.num_switches()), 0);
      s_.dlid.assign(messages.size(), routing::kInvalidLid);
    }
    if (retry_on_) {
      s_.attempt.assign(messages.size(), 0);
      s_.retries_left.assign(messages.size(), online_->retry.max_retries);
    }

    // Reserve-ahead for the event core's heap.  It holds what is scheduled
    // at an absolute time -- the fault feed and one inject per message,
    // all scheduled below -- plus retry backoffs and segment delays that
    // find no free lane, which the slack of 64 covers until the heap grows
    // amortised.  The in-flight window of xmit-done and arrive events
    // rides the lanes.  Heap and lane rings keep their capacity across
    // runs, so a warm scratch never re-reserves.
    const std::size_t faults = online_ != nullptr ? online_->faults.size() : 0;
    s_.events.reserve(faults + messages.size() + 64);

    // Fault events are scheduled before any inject so they carry lower
    // sequence numbers: at an equal timestamp the channel dies first, then
    // traffic routes around it -- as in the reference engine.
    for (std::size_t f = 0; f < faults; ++f)
      s_.events.schedule(
          online_->faults[f].time,
          Ev::make(EvKind::kFault, static_cast<std::int32_t>(f), -1));

    std::int64_t total_segments = 0;
    for (std::size_t m = 0; m < messages.size(); ++m) {
      const PktMessage& msg = messages[m];
      detail::validate_message(topo, config, m, msg);
      const bool pathless = msg.path.empty() && msg.src != msg.dst;
      if (msg.path.empty() && msg.src == msg.dst) {
        result_.completion[m] = msg.inject_time;  // self-send
        if (track_status_)
          result_.message_status[m] = PktMessageStatus::kDelivered;
        continue;
      }
      if (pathless && config_.adaptive == nullptr)
        s_.dlid[m] = online_->lids->base_lid(msg.dst);
      const std::int64_t segments =
          std::max<std::int64_t>(1, (msg.bytes + config.link.mtu - 1) /
                                        config.link.mtu);
      s_.remaining[m] = segments;
      result_.packets_total += segments;
      total_segments += segments;
      s_.events.schedule(
          msg.inject_time,
          Ev::make(EvKind::kInject, static_cast<std::int32_t>(m), -1));
    }
    // Segments are countable up front, so the pool is sized exactly once
    // for the first transmission attempts; nodes are fully initialised at
    // inject time.  Retransmissions (and only they) grow it later.
    s_.pool.resize(static_cast<std::size_t>(total_segments));
    pool_used_ = 0;
  }

  PktSim::Result run(std::size_t max_events) {
    std::size_t executed = 0;
    while (executed < max_events && !s_.events.empty()) {
      const Ev ev = s_.events.pop();
      const std::int32_t a = ev.a();
      switch (ev.kind()) {
        case EvKind::kInject:
          inject(static_cast<std::size_t>(a));
          break;
        case EvKind::kXmitDone:
          s_.busy[static_cast<std::size_t>(a)] = 0;
          try_start(a);
          break;
        case EvKind::kArrive:
          arrive(a, ev.b);
          break;
        case EvKind::kFault:
          fault(static_cast<std::size_t>(a));
          break;
        case EvKind::kTimeout:
          timeout(static_cast<std::size_t>(a));
          break;
        case EvKind::kRetry:
          retry(static_cast<std::size_t>(a));
          break;
      }
      ++executed;
    }
    result_.events_executed = static_cast<std::int64_t>(executed);
    result_.end_time = s_.events.now();
    result_.truncated = !s_.events.empty();
    result_.deadlock =
        s_.events.empty() && result_.packets_delivered + result_.packets_dropped <
                                 result_.packets_total;
    if (result_.deadlock) result_.deadlock_report = post_mortem();
    if (trace_ != nullptr) {
      trace_->finalize(result_.end_time);
      for (topo::ChannelId ch = 0; ch < topo_.num_channels(); ++ch) {
        if (!s_.down_switch[static_cast<std::size_t>(ch)]) continue;
        for (std::int8_t vl = 0; vl < config_.num_vls; ++vl)
          trace_->set_final_credits(ch, vl, s_.credits[idx(ch, vl)]);
      }
    }
    return std::move(result_);
  }

 private:
  [[nodiscard]] std::size_t idx(topo::ChannelId ch,
                                std::int32_t vl) const noexcept {
    return static_cast<std::size_t>(ch) * static_cast<std::size_t>(num_vls_) +
           static_cast<std::size_t>(vl);
  }

  void sync_stall(topo::ChannelId ch, std::int8_t vl) {
    if (trace_ == nullptr) return;
    const std::size_t i = idx(ch, vl);
    const bool blocked = s_.down_switch[static_cast<std::size_t>(ch)] != 0 &&
                         s_.credits[i] <= 0 && s_.fifo[i].len > 0;
    trace_->on_blocked(ch, vl, blocked, s_.events.now());
  }

  obs::DeadlockReport post_mortem() const {
    std::vector<obs::CreditWaitEdge> blocked;
    for (topo::ChannelId ch = 0; ch < topo_.num_channels(); ++ch) {
      for (std::int8_t vl = 0; vl < config_.num_vls; ++vl) {
        for (std::int32_t pkt = s_.fifo[idx(ch, vl)].head; pkt >= 0;
             pkt = s_.pool[static_cast<std::size_t>(pkt)].next) {
          const PktNode& p = s_.pool[static_cast<std::size_t>(pkt)];
          blocked.push_back(obs::CreditWaitEdge{pkt, p.msg, p.held, p.held_vl,
                                                ch, vl});
        }
      }
    }
    return obs::build_deadlock_report(std::move(blocked), config_.num_vls);
  }

  void inject(std::size_t m) { inject_segments(m, s_.remaining[m]); }

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
    // The pool is pre-sized for every first attempt, so this grows it only
    // on a retransmission -- the warm no-retry path stays allocation-free.
    const std::size_t need =
        static_cast<std::size_t>(pool_used_) + static_cast<std::size_t>(count);
    if (need > s_.pool.size()) s_.pool.resize(need);
    for (std::int64_t i = 0; i < count; ++i) {
      const std::int32_t seg =
          i + 1 == count ? tail : static_cast<std::int32_t>(mtu);
      const std::int32_t pkt = pool_used_++;
      PktNode& p = s_.pool[static_cast<std::size_t>(pkt)];
      p.msg = static_cast<std::int32_t>(m);
      p.size = seg;
      p.hop = 0;
      p.next = -1;
      p.attempt = retry_on_ ? s_.attempt[m] : 0;
      p.held = topo::kInvalidChannel;
      p.held_vl = 0;
      p.vl = vl;
      p.adaptive = adaptive;
      p.table = table;
      p.astate = AdaptiveState{};
      if (s_.chan_down[static_cast<std::size_t>(first)]) {
        // The NIC's uplink (or the path's first channel) is already dead.
        drop(pkt, obs::PktDropCause::kBlackhole);
      } else {
        enqueue(first, pkt);
      }
    }
    try_start(first);
    if (retry_on_)
      s_.events.schedule_in(
          online_->retry.timeout,
          Ev::make(EvKind::kTimeout, static_cast<std::int32_t>(m), -1));
  }

  /// Injection VL of a table-routed message: the active epoch's VL
  /// assignment at the source switch, clamped to the configured lanes.
  std::int8_t table_vl(std::size_t m) {
    const PktMessage& msg = messages_[m];
    const topo::SwitchId sw = topo_.attach_switch(msg.src);
    const PktRoutingEpoch& ep =
        online_->epochs[static_cast<std::size_t>(epoch_at(sw))];
    if (ep.vls == nullptr) return msg.vl;
    const std::int8_t vl = ep.vls->vl(sw, s_.dlid[m]);
    return (vl >= 0 && vl < config_.num_vls) ? vl : msg.vl;
  }

  /// Lazily advances switch `sw` to the highest epoch whose per-switch
  /// install time has passed (monotone: tables never roll back).
  std::int32_t epoch_at(topo::SwitchId sw) {
    std::int32_t e = s_.cur_epoch[static_cast<std::size_t>(sw)];
    const auto n = static_cast<std::int32_t>(online_->epochs.size());
    const double now = s_.events.now();
    while (e + 1 < n) {
      const std::vector<double>& inst =
          online_->epochs[static_cast<std::size_t>(e + 1)].install_time;
      const double t = inst.empty() ? 0.0 : inst[static_cast<std::size_t>(sw)];
      if (!(t <= now)) break;  // NaN-safe: unreachable installs never pass
      ++e;
    }
    s_.cur_epoch[static_cast<std::size_t>(sw)] = e;
    return e;
  }

  /// Next hop of a table-routed packet at `sw` by the switch's active
  /// epoch; kInvalidChannel when the LFT has no (usable) entry.
  topo::ChannelId table_next(topo::SwitchId sw, std::int32_t m) {
    const PktRoutingEpoch& ep =
        online_->epochs[static_cast<std::size_t>(epoch_at(sw))];
    const topo::ChannelId ch =
        ep.tables->next(sw, s_.dlid[static_cast<std::size_t>(m)]);
    return (ch >= 0 && ch < topo_.num_channels()) ? ch
                                                  : topo::kInvalidChannel;
  }

  /// The fault instant: the channels stop accepting and transmitting.
  /// Packets queued on them are re-arbitrated through the live fabric
  /// (channel feed order, VLs ascending, FIFO within a VL); packets on
  /// the wire are dropped when their arrival fires (kInFlight).
  void fault(std::size_t f) {
    for (const topo::ChannelId ch : online_->faults[f].channels) {
      if (s_.chan_down[static_cast<std::size_t>(ch)])
        continue;  // overlapping faults: already dead
      s_.chan_down[static_cast<std::size_t>(ch)] = 1;
      for (std::int8_t vl = 0; vl < config_.num_vls; ++vl) {
        VlFifo& q = s_.fifo[idx(ch, vl)];
        while (q.head >= 0) {
          const std::int32_t pkt = q.head;
          q.head = s_.pool[static_cast<std::size_t>(pkt)].next;
          if (q.head < 0) {
            q.tail = -1;
            s_.q_mask[static_cast<std::size_t>(ch)] &=
                static_cast<std::uint16_t>(~(1u << vl));
          }
          const std::int32_t depth = --q.len;
          if (trace_ != nullptr) {
            trace_->on_queue_depth(ch, vl, depth, s_.events.now());
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
    PktNode& p = s_.pool[static_cast<std::size_t>(pkt)];
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
        s_.chan_down[static_cast<std::size_t>(next)]) {
      drop(pkt, obs::PktDropCause::kBlackhole);
      return;
    }
    enqueue(next, pkt);
    try_start(next);
  }

  /// Drops a segment with cause accounting and vacates the upstream input
  /// buffer it still holds, waking that channel's arbiter.
  void drop(std::int32_t pkt, obs::PktDropCause cause) {
    PktNode& p = s_.pool[static_cast<std::size_t>(pkt)];
    ++result_.packets_dropped;
    ++result_.dropped_by_cause[static_cast<std::size_t>(cause)];
    if (trace_ != nullptr) trace_->on_drop(cause);
    if (p.held != topo::kInvalidChannel) {
      if (s_.down_switch[static_cast<std::size_t>(p.held)]) {
        ++s_.credits[idx(p.held, p.held_vl)];
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
    if (s_.remaining[m] == 0) return;
    if (result_.message_status[m] == PktMessageStatus::kAbandoned) return;
    if (s_.retries_left[m] == 0) {
      result_.message_status[m] = PktMessageStatus::kAbandoned;
      ++result_.messages_abandoned;
      if (trace_ != nullptr) trace_->on_abandon();
      return;
    }
    --s_.retries_left[m];
    const std::int32_t attempt = ++s_.attempt[m];
    ++result_.retries;
    if (trace_ != nullptr) trace_->on_retry();
    const double delay =
        detail::backoff_delay(online_->retry, attempt, retry_rng_.uniform());
    s_.events.schedule_in(
        delay, Ev::make(EvKind::kRetry, static_cast<std::int32_t>(m), -1));
  }

  void retry(std::size_t m) {
    if (s_.remaining[m] == 0) return;  // defensive; mirrored
    result_.packets_total += s_.remaining[m];
    inject_segments(m, s_.remaining[m]);
  }

  void enqueue(topo::ChannelId ch, std::int32_t pkt) {
    PktNode& p = s_.pool[static_cast<std::size_t>(pkt)];
    const std::int8_t vl = p.vl;
    VlFifo& f = s_.fifo[idx(ch, vl)];
    p.next = -1;
    if (f.tail < 0) {
      f.head = pkt;
      s_.q_mask[static_cast<std::size_t>(ch)] |=
          static_cast<std::uint16_t>(1u << vl);
    } else {
      s_.pool[static_cast<std::size_t>(f.tail)].next = pkt;
    }
    f.tail = pkt;
    const std::int32_t depth = ++f.len;
    if (trace_ != nullptr) {
      trace_->on_queue_depth(ch, vl, depth, s_.events.now());
      sync_stall(ch, vl);
    }
  }

  /// Round-robin arbitration: start the next eligible packet on `ch`.
  /// The scan visits only non-empty VLs (q_mask rotated to rr order), so
  /// the overwhelmingly common cases -- channel busy, channel idle with
  /// nothing queued -- cost a load or two, and a loaded channel pays one
  /// iteration per *queued* VL instead of num_vls.  Identical visit order
  /// to the reference scan: empty VLs have no observable effect there.
  void try_start(topo::ChannelId ch) {
    if (s_.busy[static_cast<std::size_t>(ch)]) return;
    if (s_.chan_down[static_cast<std::size_t>(ch)])
      return;  // online fault: the channel transmits nothing
    const std::uint32_t mask = s_.q_mask[static_cast<std::size_t>(ch)];
    if (mask == 0) return;
    const std::int32_t vls = num_vls_;
    const std::int32_t rr = s_.rr_next[static_cast<std::size_t>(ch)];
    const std::size_t base =
        static_cast<std::size_t>(ch) * static_cast<std::size_t>(vls);
    const bool down_switch = s_.down_switch[static_cast<std::size_t>(ch)] != 0;
    // Rotate the mask so bit 0 is VL rr; countr_zero then yields VLs in
    // round-robin order.
    std::uint32_t rot =
        ((mask >> rr) | (mask << (vls - rr))) & ((1u << vls) - 1u);
    while (rot != 0) {
      std::int32_t vl = rr + std::countr_zero(rot);
      if (vl >= vls) vl -= vls;
      const std::size_t qi = base + static_cast<std::size_t>(vl);
      if (down_switch && s_.credits[qi] <= 0) {
        if (trace_ != nullptr)
          trace_->on_arb_skip(ch, static_cast<std::int8_t>(vl));
        rot &= rot - 1;  // head blocked on credits; try the next queued VL
        continue;
      }
      VlFifo& f = s_.fifo[qi];
      const std::int32_t pkt = f.head;
      f.head = s_.pool[static_cast<std::size_t>(pkt)].next;
      if (f.head < 0) {
        f.tail = -1;
        s_.q_mask[static_cast<std::size_t>(ch)] &=
            static_cast<std::uint16_t>(~(1u << vl));
      }
      const std::int32_t depth = --f.len;
      if (trace_ != nullptr)
        trace_->on_queue_depth(ch, static_cast<std::int8_t>(vl), depth,
                               s_.events.now());
      std::int32_t next_rr = vl + 1;
      if (next_rr == vls) next_rr = 0;
      s_.rr_next[static_cast<std::size_t>(ch)] = next_rr;
      start_crossing(ch, pkt);
      return;
    }
  }

  void start_crossing(topo::ChannelId ch, std::int32_t pkt) {
    PktNode& p = s_.pool[static_cast<std::size_t>(pkt)];

    if (s_.down_switch[static_cast<std::size_t>(ch)]) {
      --s_.credits[idx(ch, p.vl)];
      sync_stall(ch, p.vl);
    }
    if (trace_ != nullptr) trace_->on_cross(ch, p.vl, p.size);

    // Starting to cross vacates the upstream input buffer: return the
    // held credit and wake that channel's arbiter.
    if (p.held != topo::kInvalidChannel) {
      if (s_.down_switch[static_cast<std::size_t>(p.held)]) {
        ++s_.credits[idx(p.held, p.held_vl)];
        sync_stall(p.held, p.held_vl);
        try_start(p.held);
      }
    }
    p.held = ch;
    p.held_vl = p.vl;

    s_.busy[static_cast<std::size_t>(ch)] = 1;
    s_.busy_vl[static_cast<std::size_t>(ch)] = p.vl;
    const double ser = serialization_time(config_.link, p.size);
    s_.events.schedule_in(ser, Ev::make(EvKind::kXmitDone, ch, -1));
    s_.events.schedule_in(ser + config_.link.hop_latency,
                          Ev::make(EvKind::kArrive, ch, pkt));
  }

  /// Picks the adaptive candidate with the lowest congestion score; ties
  /// fall to the lowest channel id, independent of candidate order (the
  /// determinism contract tested across permuted candidate lists).
  /// Candidates on channels that died mid-run are skipped (the adaptive
  /// escape); kInvalidChannel when none is alive.
  topo::ChannelId choose_adaptive(topo::SwitchId sw, PktNode& p) {
    const PktMessage& msg = messages_[static_cast<std::size_t>(p.msg)];
    s_.candidates.clear();
    config_.adaptive->candidates(sw, msg.dst, p.astate, s_.candidates, rng_);
    if (s_.candidates.empty())
      throw std::runtime_error("PktSim: adaptive router returned no route");

    const auto vl = static_cast<std::int8_t>(std::min<std::int32_t>(
        p.astate.hops_taken, config_.num_vls - 1));
    const RouteCandidate* best = nullptr;
    std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
    for (const RouteCandidate& cand : s_.candidates) {
      if (s_.chan_down[static_cast<std::size_t>(cand.channel)]) continue;
      const std::size_t ci = idx(cand.channel, vl);
      std::int64_t score =
          s_.fifo[ci].len +
          ((s_.busy[static_cast<std::size_t>(cand.channel)] &&
            s_.busy_vl[static_cast<std::size_t>(cand.channel)] == vl)
               ? 1
               : 0);
      if (!cand.minimal) score += config_.deroute_penalty;
      if (s_.down_switch[static_cast<std::size_t>(cand.channel)] &&
          s_.credits[ci] <= 0)
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
    PktNode& p = s_.pool[static_cast<std::size_t>(pkt)];
    const PktMessage& msg = messages_[static_cast<std::size_t>(p.msg)];
    const topo::Channel& c = topo_.channel(ch);

    if (s_.chan_down[static_cast<std::size_t>(ch)]) {
      // The channel died while the packet was on the wire.
      drop(pkt, obs::PktDropCause::kInFlight);
      return;
    }

    if (c.dst.is_terminal()) {
      if (retry_on_ &&
          (p.attempt != s_.attempt[static_cast<std::size_t>(p.msg)] ||
           result_.message_status[static_cast<std::size_t>(p.msg)] ==
               PktMessageStatus::kAbandoned)) {
        // The end host already retransmitted or gave up on this flow.
        drop(pkt, obs::PktDropCause::kSuperseded);
        return;
      }
      ++result_.packets_delivered;
      auto& left = s_.remaining[static_cast<std::size_t>(p.msg)];
      if (--left == 0) {
        result_.completion[static_cast<std::size_t>(p.msg)] =
            s_.events.now();
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
    if (s_.chan_down[static_cast<std::size_t>(next)]) {
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
  PktScratch& s_;
  obs::PktTrace* trace_ = nullptr;
  std::int32_t num_vls_;
  stats::Rng rng_;  // per-run adaptive-candidate stream
  stats::Rng retry_rng_;  // per-run retry-jitter stream (event order)
  std::int32_t pool_used_ = 0;
  // Online-fault state (see sim/online.hpp); all inert when online_ is
  // null or inactive.
  const PktOnlineConfig* online_ = nullptr;
  bool table_mode_ = false;
  bool retry_on_ = false;
  bool track_status_ = false;
  PktSim::Result result_;
};

}  // namespace

PktSim::PktSim(const topo::Topology& topo, PktSimConfig config)
    : topo_(&topo), config_(config),
      scratch_(std::make_unique<detail::PktScratch>()) {
  detail::validate_config(topo, config);
}

PktSim::~PktSim() = default;
PktSim::PktSim(PktSim&&) noexcept = default;
PktSim& PktSim::operator=(PktSim&&) noexcept = default;

PktSim::Result PktSim::run(std::span<const PktMessage> messages,
                           std::size_t max_events,
                           std::uint64_t replication) {
  TypedEngine engine(*topo_, config_, config_.trace, messages, *scratch_,
                     replication);
  return engine.run(max_events);
}

std::vector<PktSim::Result> PktSim::run_batch(
    std::span<const std::vector<PktMessage>> replications,
    std::int32_t threads, std::span<obs::PktTrace* const> traces,
    std::size_t max_events) {
  if (config_.trace != nullptr)
    throw std::invalid_argument(
        "PktSim::run_batch: a shared PktSimConfig::trace would race across "
        "replications; pass per-replication sinks via `traces`");
  if (!traces.empty() && traces.size() != replications.size())
    throw std::invalid_argument(
        "PktSim::run_batch: traces must be empty or match replications");
  if (config_.adaptive != nullptr && !config_.adaptive->replicable())
    throw std::invalid_argument(
        "PktSim::run_batch: adaptive router reports replicable() == false "
        "(mutable router state would make results depend on execution "
        "order); draw randomness from the engine-supplied rng via "
        "rng_seed() instead, or run each replication through run() with "
        "its own router instance");

  exec::ThreadPool pool(threads);
  const auto workers = static_cast<std::size_t>(pool.num_threads());
  if (batch_scratch_.size() < workers) batch_scratch_.resize(workers);
  for (std::size_t w = 0; w < workers; ++w)
    if (!batch_scratch_[w])
      batch_scratch_[w] = std::make_unique<detail::PktScratch>();

  std::vector<Result> results(replications.size());
  pool.parallel_for(
      static_cast<std::int64_t>(replications.size()),
      [&](std::int64_t i, std::int32_t worker) {
        obs::PktTrace* trace =
            traces.empty() ? nullptr : traces[static_cast<std::size_t>(i)];
        const auto& messages = replications[static_cast<std::size_t>(i)];
        const auto replication = static_cast<std::uint64_t>(i);
        TypedEngine engine(*topo_, config_, trace, messages,
                           *batch_scratch_[static_cast<std::size_t>(worker)],
                           replication);
        results[static_cast<std::size_t>(i)] = engine.run(max_events);
      });
  return results;
}

std::string_view first_difference(const PktSim::Result& a,
                                  const PktSim::Result& b) noexcept {
  const auto same_bits = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (!std::equal(a.completion.begin(), a.completion.end(),
                  b.completion.begin(), b.completion.end(), same_bits))
    return "completion";
  if (a.deadlock != b.deadlock) return "deadlock";
  if (a.truncated != b.truncated) return "truncated";
  if (!same_bits(a.end_time, b.end_time)) return "end_time";
  if (a.packets_delivered != b.packets_delivered) return "packets_delivered";
  if (a.packets_total != b.packets_total) return "packets_total";
  if (a.events_executed != b.events_executed) return "events_executed";
  if (a.packets_dropped != b.packets_dropped) return "packets_dropped";
  if (a.dropped_by_cause != b.dropped_by_cause) return "dropped_by_cause";
  if (a.retries != b.retries) return "retries";
  if (a.messages_abandoned != b.messages_abandoned)
    return "messages_abandoned";
  if (a.message_status != b.message_status) return "message_status";
  if (a.deadlock_report.blocked != b.deadlock_report.blocked)
    return "deadlock_report.blocked";
  if (a.deadlock_report.cycle != b.deadlock_report.cycle)
    return "deadlock_report.cycle";
  return {};
}

}  // namespace hxsim::sim
