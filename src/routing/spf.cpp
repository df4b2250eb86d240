#include "routing/spf.hpp"

#include <utility>

namespace hxsim::routing {

namespace {

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

bool admitted(const topo::Topology& topo, std::span<const char> admit,
              topo::ChannelId ch) {
  if (!topo.channel(ch).enabled) return false;
  return admit.empty() || admit[static_cast<std::size_t>(ch)] != 0;
}

/// Offers channel r (weight w, reaching a switch at hop `hops` - 1) to a
/// node whose cost and parent are `cost`/`parent`.  Returns true when
/// this is the node's first offer at `hops`, i.e. it joins the next layer.
/// A node settled at fewer hops ignores the offer; among offers at equal
/// hops the least (weight, channel id) wins.
bool offer(PathCost& cost, topo::ChannelId& parent, std::int32_t hops,
           double w, topo::ChannelId r) {
  if (cost.hops > hops) {
    cost = PathCost{hops, w};
    parent = r;
    return true;
  }
  if (cost.hops == hops &&
      (w < cost.weight || (w == cost.weight && r < parent))) {
    cost.weight = w;
    parent = r;
  }
  return false;
}

}  // namespace

void spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
            std::span<const double> channel_weight,
            std::span<const char> admit, SpfScratch& scratch, SpfResult& out) {
  const auto n = static_cast<std::size_t>(topo.num_switches());
  auto& cost = scratch.cost0;
  auto& layer = scratch.layer;
  auto& next = scratch.next_layer;
  cost.assign(n, kUnreached);
  out.out_channel.assign(n, topo::kInvalidChannel);
  out.dist.assign(n, kInf);

  cost[static_cast<std::size_t>(dest_sw)] = PathCost{0, 0.0};
  layer.assign(1, dest_sw);
  for (std::int32_t hops = 1; !layer.empty(); ++hops) {
    next.clear();
    for (const topo::SwitchId u : layer) {
      const double base = cost[static_cast<std::size_t>(u)].weight;
      // Offer the *reverse* of each out-channel of u: the forward channel
      // v -> u extends v's path toward the destination.
      for (const topo::ChannelId out_ch : topo.switch_out(u)) {
        const topo::Channel& oc = topo.channel(out_ch);
        if (!oc.dst.is_switch()) continue;
        const auto v = static_cast<std::size_t>(oc.dst.index);
        if (cost[v].hops < hops) continue;  // settled nearer the root
        const topo::ChannelId r = oc.reverse;  // v -> u
        if (!admitted(topo, admit, r)) continue;
        if (offer(cost[v], out.out_channel[v], hops,
                  base + weight_of(channel_weight, r), r))
          next.push_back(oc.dst.index);
      }
    }
    std::swap(layer, next);
  }
  for (std::size_t v = 0; v < n; ++v)
    if (cost[v].hops != kUnreached.hops)
      out.dist[v] = static_cast<double>(cost[v].hops);
}

void updown_spf_to(const topo::Topology& topo, topo::SwitchId dest_sw,
                   std::span<const std::int32_t> rank,
                   std::span<const double> channel_weight,
                   SpfScratch& scratch, SpfResult& out) {
  const auto n = static_cast<std::size_t>(topo.num_switches());
  // State 0: still inside the forward-down segment (walking backward from
  // the destination); state 1: inside the forward-up segment.  A layer
  // entry is 2 * switch + state.
  std::vector<PathCost>* cost[2] = {&scratch.cost0, &scratch.cost1};
  std::vector<topo::ChannelId>* parent[2] = {&scratch.parent0,
                                             &scratch.parent1};
  for (int s = 0; s < 2; ++s) {
    cost[s]->assign(n, kUnreached);
    parent[s]->assign(n, topo::kInvalidChannel);
  }
  auto& layer = scratch.layer;
  auto& next = scratch.next_layer;

  // Forward hop v->u is "up" iff it moves toward the roots.
  auto forward_is_up = [&](topo::SwitchId v, topo::SwitchId u) {
    const auto rv = rank[static_cast<std::size_t>(v)];
    const auto ru = rank[static_cast<std::size_t>(u)];
    if (ru != rv) return ru < rv;
    return u < v;  // deterministic orientation for equal ranks
  };

  (*cost[0])[static_cast<std::size_t>(dest_sw)] = PathCost{0, 0.0};
  layer.assign(1, 2 * dest_sw);
  for (std::int32_t hops = 1; !layer.empty(); ++hops) {
    next.clear();
    for (const std::int32_t entry : layer) {
      const topo::SwitchId u = entry / 2;
      const int state = entry % 2;
      const double base = (*cost[state])[static_cast<std::size_t>(u)].weight;
      for (const topo::ChannelId out_ch : topo.switch_out(u)) {
        const topo::Channel& oc = topo.channel(out_ch);
        if (!oc.dst.is_switch()) continue;
        const topo::SwitchId v = oc.dst.index;
        int next_state = 1;  // entering (or continuing) the forward-up segment
        if (!forward_is_up(v, u)) {
          if (state != 0) continue;  // a down hop after up hops is illegal
          next_state = 0;
        }
        const auto vi = static_cast<std::size_t>(v);
        PathCost& cv = (*cost[next_state])[vi];
        if (cv.hops < hops) continue;  // settled nearer the root
        const topo::ChannelId r = oc.reverse;  // forward channel v -> u
        if (!topo.channel(r).enabled) continue;
        if (offer(cv, (*parent[next_state])[vi], hops,
                  base + weight_of(channel_weight, r), r))
          next.push_back(2 * v + next_state);
      }
    }
    std::swap(layer, next);
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
    const int best = (*cost[0])[v].hops != kUnreached.hops ? 0 : 1;
    if ((*cost[best])[v].hops == kUnreached.hops) continue;
    out.dist[v] = static_cast<double>((*cost[best])[v].hops);
    out.out_channel[v] = (*parent[best])[v];
  }
}

}  // namespace hxsim::routing
