// Flat discrete-event and keyed heaps for the hot simulators.
//
//  - FlatEventHeap<Payload>: the packet engine's event core.  Entries are
//    {when, seq, Payload} PODs; the owner dispatches the popped payload
//    itself (a switch over an event-kind tag).  Events at equal timestamps
//    pop in scheduling order (a monotone sequence number breaks ties),
//    which keeps simulations deterministic.  A packet engine schedules
//    nearly every event at now() plus a delay fixed by segment size, and
//    within one delay (when, seq) order is scheduling order.  So the core
//    keeps a few FIFO ring "lanes", one per distinct schedule_in() delay,
//    with O(1) push and pop.  Absolute schedule() calls and delays that
//    find no free lane go to a flat 4-ary implicit heap, and pop() takes
//    the least (when, seq) among the heap top and the lane heads.
//    reserve() ahead of a run and the steady state performs zero heap
//    allocations per event; heap and lane storage persist across reset(),
//    so a warm engine never re-reserves.
//  - FlatKeyHeap: the same heap core keyed by re-keyable priorities (the
//    flow solver's channel quotients).
//
// The 4-ary heap layout trades slightly more comparisons per level for
// half the levels and contiguous child groups, which is a clear win once
// entries are small PODs.  The seed packet engine's std::function queue,
// which shares the ordering contract, lives with that engine in the audit
// library (audit/reference_pktsim.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace hxsim::sim {

namespace detail {

/// The shared flat 4-ary implicit-heap core: contiguous `Entry` records
/// ordered by `Earlier` (a strict total order -- every user breaks key
/// ties with a monotone or caller-controlled secondary field, so pops are
/// deterministic).  FlatEventHeap adds simulation-clock semantics on top;
/// FlatKeyHeap adds re-keyable priorities (the flow solver's channel
/// quotients).  Storage is reserved ahead and kept across clear(), so a
/// warm heap performs zero allocations per push/pop in the steady state.
template <typename Entry, typename Earlier>
class Flat4Heap {
 public:
  void reserve(std::size_t entries) { heap_.reserve(entries); }
  void clear() noexcept { heap_.clear(); }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return heap_.capacity();
  }

  /// The earliest entry.  Precondition: !empty().
  [[nodiscard]] const Entry& top() const noexcept { return heap_.front(); }

  void push(const Entry& e) {
    heap_.push_back(e);
    sift_up(heap_.size() - 1);
  }

  /// Removes and returns the earliest entry.  Precondition: !empty().
  Entry pop() {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      sift_down(0);
    }
    return top;
  }

 private:
  [[nodiscard]] static bool earlier(const Entry& a, const Entry& b) noexcept {
    return Earlier{}(a, b);
  }

  void sift_up(std::size_t i) noexcept {
    const Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) noexcept {
    const Entry e = heap_[i];
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c)
        if (earlier(heap_[c], heap_[best])) best = c;
      if (!earlier(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  std::vector<Entry> heap_;
};

}  // namespace detail

/// Typed allocation-free event core (see the header comment).  Payload must
/// be cheaply copyable and default-constructible (a small POD event
/// record).  Ordering is identical to audit::EventQueue: strictly by
/// (when, seq), so any two cores fed the same schedule() / schedule_in()
/// sequence pop in the same order -- the property the packet engine's
/// golden bit-identity suite rests on.  The lanes do not change that
/// order: a lane serves one delay d while it holds events, now() never
/// decreases, IEEE addition is monotone and seq only grows, so each lane
/// is sorted by construction and its head is its least entry.
template <typename Payload>
class FlatEventHeap {
 public:
  /// FIFO lanes for schedule_in() delays.  The packet engine schedules two
  /// delays per segment size in flight (serialization, and serialization
  /// plus hop latency), so four lanes hold the full-MTU segments' events
  /// and one tail size's.
  static constexpr std::size_t kLanes = 4;

  /// Pre-sizes the overflow heap; with `events` >= the peak count of
  /// heap-resident events (absolute schedules plus delays that found no
  /// free lane), schedule() never allocates.  Lane rings grow by doubling
  /// on first use and then stay warm.
  void reserve(std::size_t events) { heap_.reserve(events); }

  /// Drops all pending events and rewinds the clock; heap and lane
  /// capacity is kept, so a reset core is warm for the next run.
  void reset() noexcept {
    heap_.clear();
    for (Lane& lane : lanes_) lane.clear();
    pending_ = 0;
    now_ = 0.0;
    next_seq_ = 0;
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  /// The overflow heap's capacity (see reserve()).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return heap_.capacity();
  }

  /// Schedules `payload` at absolute time `when`, which must be >= now().
  void schedule(double when, const Payload& payload) {
    check(when);
    heap_.push(Entry{when, next_seq_++, payload});
    ++pending_;
  }

  /// Schedules `payload` at now() + delay, on the lane serving `delay`
  /// when one is bound to it or free, else on the heap.  The same
  /// contract as schedule(): a delay that lands before now() (negative,
  /// or NaN) throws.
  void schedule_in(double delay, const Payload& payload) {
    const double when = now_ + delay;
    check(when);
    const Entry e{when, next_seq_++, payload};
    if (Lane* lane = lane_for(delay)) {
      lane->push(e);
    } else {
      heap_.push(e);
    }
    ++pending_;
  }

  /// Pops the earliest event, advances now() to its timestamp, and returns
  /// its payload.  Precondition: !empty().
  Payload pop() {
    Lane* from = nullptr;
    const Entry* least = heap_.empty() ? nullptr : &heap_.top();
    for (Lane& lane : lanes_) {
      if (lane.empty()) continue;
      if (least == nullptr || EarlierEntry{}(lane.front(), *least)) {
        least = &lane.front();
        from = &lane;
      }
    }
    const Entry top = from != nullptr ? from->pop() : heap_.pop();
    --pending_;
    now_ = top.when;
    return top.payload;
  }

 private:
  struct Entry {
    double when;
    std::uint64_t seq;
    Payload payload;
  };
  struct EarlierEntry {
    [[nodiscard]] bool operator()(const Entry& a,
                                  const Entry& b) const noexcept {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
    }
  };

  /// One FIFO ring of entries, in (when, seq) order by construction.
  /// `delay` is the schedule_in() delay it serves: NaN (equal to nothing)
  /// until first bound; only an empty lane is rebound.
  struct Lane {
    std::vector<Entry> ring;  // power-of-two size once used
    std::size_t head = 0;
    std::size_t size = 0;
    double delay = std::numeric_limits<double>::quiet_NaN();

    [[nodiscard]] bool empty() const noexcept { return size == 0; }
    [[nodiscard]] const Entry& front() const noexcept { return ring[head]; }
    void clear() noexcept {
      head = 0;
      size = 0;
    }
    void push(const Entry& e) {
      if (size == ring.size()) grow();
      ring[(head + size) & (ring.size() - 1)] = e;
      ++size;
    }
    Entry pop() noexcept {
      const Entry e = ring[head];
      head = (head + 1) & (ring.size() - 1);
      --size;
      return e;
    }
    void grow() {
      std::vector<Entry> bigger(ring.empty() ? 64 : 2 * ring.size());
      for (std::size_t i = 0; i < size; ++i)
        bigger[i] = ring[(head + i) & (ring.size() - 1)];
      ring.swap(bigger);
      head = 0;
    }
  };

  /// The negated comparison also rejects NaN timestamps, which would
  /// silently corrupt the heap order.
  void check(double when) const {
    if (!(when >= now_))
      throw std::invalid_argument(
          "FlatEventHeap::schedule: event in the past (or NaN time)");
  }

  /// The lane for `delay`: the one bound to it, else an empty lane rebound
  /// to it (an empty lane constrains no order), else nullptr.
  Lane* lane_for(double delay) noexcept {
    Lane* idle = nullptr;
    for (Lane& lane : lanes_) {
      if (lane.delay == delay) return &lane;
      if (idle == nullptr && lane.empty()) idle = &lane;
    }
    if (idle != nullptr) idle->delay = delay;
    return idle;
  }

  detail::Flat4Heap<Entry, EarlierEntry> heap_;
  std::array<Lane, kLanes> lanes_;
  std::size_t pending_ = 0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// Keyed min-heap on the same flat 4-ary core as FlatEventHeap, ordered by
/// (key, tag).  No clock, no monotonicity requirement: unlike event
/// timestamps, keys may go up as well as down across pushes -- the flow
/// solver's channel fill quotients do exactly that as freezes land.  The
/// 64-bit tag carries the caller's payload *and* is the deterministic
/// tie-break (the role seq plays in FlatEventHeap); re-keying is done
/// lazily by pushing a fresh entry under a new tag and discarding stale
/// tags at pop time (the caller owns the validity test).
class FlatKeyHeap {
 public:
  struct Entry {
    double key;
    std::uint64_t tag;
  };

  void reserve(std::size_t entries) { heap_.reserve(entries); }
  void clear() noexcept { heap_.clear(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return heap_.capacity();
  }

  /// The minimum entry.  Precondition: !empty().
  [[nodiscard]] const Entry& top() const noexcept { return heap_.top(); }

  void push(double key, std::uint64_t tag) { heap_.push(Entry{key, tag}); }

  /// Removes and returns the minimum entry.  Precondition: !empty().
  Entry pop() { return heap_.pop(); }

 private:
  struct EarlierEntry {
    [[nodiscard]] bool operator()(const Entry& a,
                                  const Entry& b) const noexcept {
      if (a.key != b.key) return a.key < b.key;
      return a.tag < b.tag;
    }
  };

  detail::Flat4Heap<Entry, EarlierEntry> heap_;
};

}  // namespace hxsim::sim
