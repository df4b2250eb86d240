#include "routing/spf.hpp"

#include <algorithm>

namespace hxsim::routing {

namespace {

using detail::HeapEntry;
using detail::PathCost;

constexpr double kInf = std::numeric_limits<double>::infinity();

// See the PathCost comment in the header: hop count dominates, weights
// arbitrate among equal-hop alternatives (OpenSM SSSP/DFSSSP semantics; the
// paper relies on this: "available static routing for IB will only
// calculate routes along the minimal paths", Section 3.2.1).
constexpr PathCost kUnreached{std::numeric_limits<std::int32_t>::max(), kInf};

double weight_of(std::span<const double> w, topo::ChannelId ch) {
  return w.empty() ? 1.0 : w[static_cast<std::size_t>(ch)];
}

bool admitted(const topo::Topology& topo, const ChannelFilter& filter,
              topo::ChannelId ch) {
  if (!topo.channel(ch).enabled) return false;
  return !filter || filter(ch);
}

// Min-heap on cost only; equal-cost pop order is unspecified, which is safe
// because the relaxation below resolves ties by channel id, making the
// final tree independent of pop order (every switch relaxes its neighbours
// at its final cost at least once).
struct HeapLater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return b.cost < a.cost;
  }
};

void heap_push(std::vector<HeapEntry>& heap, HeapEntry e) {
  heap.push_back(e);
  std::push_heap(heap.begin(), heap.end(), HeapLater{});
}

HeapEntry heap_pop(std::vector<HeapEntry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), HeapLater{});
  const HeapEntry e = heap.back();
  heap.pop_back();
  return e;
}

}  // namespace

void spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
            std::span<const double> channel_weight,
            const ChannelFilter& filter, SpfScratch& scratch, SpfResult& out) {
  const auto n = static_cast<std::size_t>(topo.num_switches());
  auto& cost = scratch.cost0;
  auto& heap = scratch.heap;
  cost.assign(n, kUnreached);
  heap.clear();
  out.out_channel.assign(n, topo::kInvalidChannel);
  out.dist.assign(n, kInf);

  cost[static_cast<std::size_t>(dest_sw)] = PathCost{0, 0.0};
  heap_push(heap, HeapEntry{PathCost{0, 0.0}, 0, dest_sw});

  while (!heap.empty()) {
    const auto [c, state, u] = heap_pop(heap);
    (void)state;
    if (cost[static_cast<std::size_t>(u)] < c) continue;  // stale
    // Relax the *reverse* of each out-channel of u: the forward channel
    // v -> u extends v's path toward the destination.
    for (topo::ChannelId out_ch : topo.switch_out(u)) {
      const topo::Channel& oc = topo.channel(out_ch);
      if (!oc.dst.is_switch()) continue;
      const topo::ChannelId r = oc.reverse;  // v -> u
      if (!admitted(topo, filter, r)) continue;
      const auto v = static_cast<std::size_t>(oc.dst.index);
      const PathCost nc{c.hops + 1, c.weight + weight_of(channel_weight, r)};
      if (nc < cost[v] ||
          (nc == cost[v] && out.out_channel[v] != topo::kInvalidChannel &&
           r < out.out_channel[v])) {
        const bool improved = nc < cost[v];
        cost[v] = nc;
        out.out_channel[v] = r;
        if (improved) heap_push(heap, HeapEntry{nc, 0, oc.dst.index});
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    if (!(cost[v] == kUnreached)) out.dist[v] = static_cast<double>(cost[v].hops);
}

SpfResult spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
                 std::span<const double> channel_weight,
                 const ChannelFilter& filter) {
  SpfScratch scratch;
  SpfResult res;
  spf_to(topo, dest_sw, channel_weight, filter, scratch, res);
  return res;
}

void updown_spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
                   std::span<const std::int32_t> rank,
                   std::span<const double> channel_weight,
                   const ChannelFilter& filter, SpfScratch& scratch,
                   SpfResult& out) {
  const auto n = static_cast<std::size_t>(topo.num_switches());
  // State 0: still inside the forward-down segment (walking backward from
  // the destination); state 1: inside the forward-up segment.
  std::vector<PathCost>* cost[2] = {&scratch.cost0, &scratch.cost1};
  std::vector<topo::ChannelId>* parent[2] = {&scratch.parent0,
                                             &scratch.parent1};
  for (int s = 0; s < 2; ++s) {
    cost[s]->assign(n, kUnreached);
    parent[s]->assign(n, topo::kInvalidChannel);
  }
  auto& heap = scratch.heap;
  heap.clear();

  // Forward hop v->u is "up" iff it moves toward the roots.
  auto forward_is_up = [&](topo::SwitchId v, topo::SwitchId u) {
    const auto rv = rank[static_cast<std::size_t>(v)];
    const auto ru = rank[static_cast<std::size_t>(u)];
    if (ru != rv) return ru < rv;
    return u < v;  // deterministic orientation for equal ranks
  };

  (*cost[0])[static_cast<std::size_t>(dest_sw)] = PathCost{0, 0.0};
  heap_push(heap, HeapEntry{PathCost{0, 0.0}, 0, dest_sw});

  while (!heap.empty()) {
    const auto [c, state, u] = heap_pop(heap);
    if ((*cost[state])[static_cast<std::size_t>(u)] < c) continue;
    for (topo::ChannelId out_ch : topo.switch_out(u)) {
      const topo::Channel& oc = topo.channel(out_ch);
      if (!oc.dst.is_switch()) continue;
      const topo::ChannelId r = oc.reverse;  // forward channel v -> u
      if (!admitted(topo, filter, r)) continue;
      const topo::SwitchId v = oc.dst.index;
      const bool up_hop = forward_is_up(v, u);
      std::int8_t next_state;
      if (up_hop) {
        next_state = 1;  // entering (or continuing) the forward-up segment
      } else {
        if (state != 0) continue;  // a down hop after up hops is illegal
        next_state = 0;
      }
      const auto vi = static_cast<std::size_t>(v);
      const PathCost nc{c.hops + 1, c.weight + weight_of(channel_weight, r)};
      auto& dvec = *cost[next_state];
      auto& pvec = *parent[next_state];
      if (nc < dvec[vi] ||
          (nc == dvec[vi] && pvec[vi] != topo::kInvalidChannel &&
           r < pvec[vi])) {
        const bool improved = nc < dvec[vi];
        dvec[vi] = nc;
        pvec[vi] = r;
        if (improved) heap_push(heap, HeapEntry{nc, next_state, v});
      }
    }
  }

  out.out_channel.assign(n, topo::kInvalidChannel);
  out.dist.assign(n, kInf);
  out.dist[static_cast<std::size_t>(dest_sw)] = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (static_cast<topo::SwitchId>(v) == dest_sw) continue;
    // Table-consistency rule: a switch that *can* reach the destination
    // going only down must store that all-down path, even when an
    // up-then-down path would be shorter.  Destination-based forwarding
    // composes hop by hop: a predecessor that descends into this switch
    // assumed an all-down suffix, and an up-turn here would create a
    // down-up sequence -- illegal and (as the CDG test shows on irregular
    // fabrics) a potential deadlock cycle.  Prefixing an up hop to *any*
    // stored path is always legal, so state-1 switches may reference
    // either kind of successor.
    const std::int8_t best = !((*cost[0])[v] == kUnreached) ? 0 : 1;
    if ((*cost[best])[v] == kUnreached) continue;
    out.dist[v] = static_cast<double>((*cost[best])[v].hops);
    out.out_channel[v] = (*parent[best])[v];
  }
}

SpfResult updown_spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
                        std::span<const std::int32_t> rank,
                        std::span<const double> channel_weight,
                        const ChannelFilter& filter) {
  SpfScratch scratch;
  SpfResult res;
  updown_spf_to(topo, dest_sw, rank, channel_weight, filter, scratch, res);
  return res;
}

}  // namespace hxsim::routing
