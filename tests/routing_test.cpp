// Unit and property tests for the routing library: LID spaces, forwarding
// tables, the SPF cores, all engines (ftree/updown/sssp/dfsssp), and the
// channel-dependency machinery (incremental DAG, VL layering).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "routing/cdg.hpp"
#include "routing/dfsssp.hpp"
#include "routing/engine.hpp"
#include "routing/forwarding.hpp"
#include "routing/ftree.hpp"
#include "routing/lid_space.hpp"
#include "routing/spf.hpp"
#include "routing/sssp.hpp"
#include "routing/updown.hpp"
#include "stats/rng.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::routing {
namespace {

using topo::ChannelId;
using topo::FatTree;
using topo::HyperX;
using topo::NodeId;
using topo::SwitchId;
using topo::Topology;

// --- shared verification helpers --------------------------------------------

/// Minimal switch-graph distance (hops) between two switches by BFS.
std::int32_t bfs_hops(const Topology& t, SwitchId from, SwitchId to) {
  if (from == to) return 0;
  std::vector<std::int32_t> dist(static_cast<std::size_t>(t.num_switches()),
                                 -1);
  std::vector<SwitchId> frontier{from};
  dist[static_cast<std::size_t>(from)] = 0;
  while (!frontier.empty()) {
    std::vector<SwitchId> next;
    for (SwitchId sw : frontier) {
      for (SwitchId nb : t.switch_neighbors(sw)) {
        auto& d = dist[static_cast<std::size_t>(nb)];
        if (d >= 0) continue;
        d = dist[static_cast<std::size_t>(sw)] + 1;
        if (nb == to) return d;
        next.push_back(nb);
      }
    }
    frontier = std::move(next);
  }
  return -1;
}

/// Asserts every (terminal, LID) pair is connected by a valid loop-free path.
void expect_full_reachability(const Topology& t, const LidSpace& lids,
                              const RouteResult& route) {
  for (NodeId src = 0; src < t.num_terminals(); ++src) {
    for (const Lid dlid : lids.all_lids()) {
      const auto path = route.tables.path(t, lids, src, dlid);
      ASSERT_TRUE(path.ok) << "src " << src << " dlid " << dlid;
    }
  }
}

/// Collects per-VL channel dependency edges of every path and checks each
/// VL's CDG is acyclic -- the deadlock-freedom oracle, independent of the
/// engines' own incremental layering.
void expect_deadlock_free(const Topology& t, const LidSpace& lids,
                          const RouteResult& route) {
  std::map<std::int8_t, std::set<std::pair<std::int32_t, std::int32_t>>>
      per_vl;
  for (NodeId src = 0; src < t.num_terminals(); ++src) {
    const SwitchId src_sw = t.attach_switch(src);
    for (const Lid dlid : lids.all_lids()) {
      const auto path = route.tables.path(t, lids, src, dlid);
      if (!path.ok) continue;
      const std::int8_t vl = route.vls.vl(src_sw, dlid);
      ASSERT_LT(vl, route.num_vls_used);
      // Dependencies between consecutive switch-to-switch channels.
      for (std::size_t i = 0; i + 1 < path.channels.size(); ++i) {
        const ChannelId a = path.channels[i];
        const ChannelId b = path.channels[i + 1];
        if (!t.is_switch_channel(a) || !t.is_switch_channel(b)) continue;
        per_vl[vl].insert({a, b});
      }
    }
  }
  for (const auto& [vl, edges] : per_vl) {
    std::vector<std::pair<std::int32_t, std::int32_t>> list(edges.begin(),
                                                            edges.end());
    EXPECT_TRUE(acyclic(t.num_channels(), list)) << "cycle on VL "
                                                 << static_cast<int>(vl);
  }
}

/// Asserts every routed path is a shortest path in switch hops.
void expect_minimal_paths(const Topology& t, const LidSpace& lids,
                          const RouteResult& route) {
  for (NodeId src = 0; src < t.num_terminals(); ++src) {
    for (const Lid dlid : lids.all_lids()) {
      const LidSpace::Owner owner = lids.owner(dlid);
      if (owner.node == src) continue;
      const auto path = route.tables.path(t, lids, src, dlid);
      ASSERT_TRUE(path.ok);
      const std::int32_t want =
          bfs_hops(t, t.attach_switch(src), t.attach_switch(owner.node));
      EXPECT_EQ(path.switch_hops(), want)
          << "src " << src << " -> dlid " << dlid;
    }
  }
}

// --- LidSpace ----------------------------------------------------------------

TEST(LidSpace, ConsecutiveAssignment) {
  const LidSpace lids = LidSpace::consecutive(4, 2);
  EXPECT_EQ(lids.lids_per_terminal(), 4);
  EXPECT_EQ(lids.base_lid(0), 0);
  EXPECT_EQ(lids.base_lid(3), 12);
  EXPECT_EQ(lids.lid(2, 3), 11);
  EXPECT_EQ(lids.max_lid(), 15);
  EXPECT_EQ(lids.all_lids().size(), 16u);
}

TEST(LidSpace, OwnerReverseLookup) {
  const LidSpace lids = LidSpace::consecutive(4, 1);
  const auto owner = lids.owner(5);
  EXPECT_EQ(owner.node, 2);
  EXPECT_EQ(owner.index, 1);
  EXPECT_FALSE(lids.owner(-1).valid());
  EXPECT_FALSE(lids.owner(99).valid());
}

TEST(LidSpace, GroupedPolicyMatchesPaperFootnote) {
  // Two groups with stride 1000: group recoverable as lid/1000.
  const std::vector<std::vector<NodeId>> groups{{0, 2}, {1, 3}};
  const LidSpace lids = LidSpace::grouped(groups, 2, 1000);
  EXPECT_EQ(lids.base_lid(0), 0);
  EXPECT_EQ(lids.base_lid(2), 4);
  EXPECT_EQ(lids.base_lid(1), 1000);
  EXPECT_EQ(lids.base_lid(3), 1004);
  EXPECT_EQ(lids.group_of(3), 1);
  EXPECT_EQ(lids.group_of_lid(1007), 1);
  EXPECT_EQ(lids.group_of_lid(3), 0);
  EXPECT_EQ(lids.all_lids().size(), 16u);
}

TEST(LidSpace, GroupedRejectsBadInput) {
  const std::vector<std::vector<NodeId>> dup{{0, 0}};
  EXPECT_THROW((void)LidSpace::grouped(dup, 0, 10), std::invalid_argument);
  const std::vector<std::vector<NodeId>> missing{{0}, {2}};
  EXPECT_THROW((void)LidSpace::grouped(missing, 0, 10), std::out_of_range);
  const std::vector<std::vector<NodeId>> overflow{{0, 1, 2}};
  EXPECT_THROW((void)LidSpace::grouped(overflow, 2, 8),
               std::invalid_argument);
}

TEST(LidSpace, LmcBoundsEnforced) {
  EXPECT_THROW((void)LidSpace::consecutive(2, -1), std::invalid_argument);
  EXPECT_THROW((void)LidSpace::consecutive(2, 8), std::invalid_argument);
}

// --- ForwardingTables --------------------------------------------------------

TEST(Forwarding, WalksAValidPath) {
  Topology t("walk");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const auto [ab, unused] = t.connect(a, b);
  (void)unused;
  const NodeId n0 = t.add_terminal(a);
  const NodeId n1 = t.add_terminal(b);
  const LidSpace lids = LidSpace::consecutive(2, 0);

  ForwardingTables lft(2, lids.max_lid());
  lft.set(a, lids.lid(n1), ab);
  lft.set(b, lids.lid(n1), t.terminal_down(n1));

  const auto path = lft.path(t, lids, n0, lids.lid(n1));
  ASSERT_TRUE(path.ok);
  ASSERT_EQ(path.channels.size(), 3u);
  EXPECT_EQ(path.channels[0], t.terminal_up(n0));
  EXPECT_EQ(path.channels[1], ab);
  EXPECT_EQ(path.switch_hops(), 1);
  EXPECT_TRUE(lft.reachable(t, lids, n0, lids.lid(n1)));
}

TEST(Forwarding, DetectsLoops) {
  Topology t("loop");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const auto [ab, ba] = t.connect(a, b);
  const NodeId n0 = t.add_terminal(a);
  t.add_terminal(b);
  const LidSpace lids = LidSpace::consecutive(2, 0);

  ForwardingTables lft(2, lids.max_lid());
  lft.set(a, 1, ab);
  lft.set(b, 1, ba);  // bounces back: forwarding loop
  EXPECT_FALSE(lft.path(t, lids, n0, 1).ok);
}

TEST(Forwarding, MissingEntryAndDisabledChannelFail) {
  Topology t("miss");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const auto [ab, unused] = t.connect(a, b);
  (void)unused;
  const NodeId n0 = t.add_terminal(a);
  const NodeId n1 = t.add_terminal(b);
  const LidSpace lids = LidSpace::consecutive(2, 0);

  ForwardingTables lft(2, lids.max_lid());
  EXPECT_FALSE(lft.path(t, lids, n0, lids.lid(n1)).ok);  // no entry
  lft.set(a, lids.lid(n1), ab);
  lft.set(b, lids.lid(n1), t.terminal_down(n1));
  t.disable_link(ab);
  EXPECT_FALSE(lft.path(t, lids, n0, lids.lid(n1)).ok);
}

TEST(Forwarding, SelfSendIsTrivial) {
  Topology t("self");
  const SwitchId a = t.add_switch();
  const NodeId n0 = t.add_terminal(a);
  const LidSpace lids = LidSpace::consecutive(1, 0);
  const ForwardingTables lft(1, lids.max_lid());
  const auto path = lft.path(t, lids, n0, lids.lid(n0));
  EXPECT_TRUE(path.ok);
  EXPECT_TRUE(path.channels.empty());
}

// --- SPF ---------------------------------------------------------------------

/// spf_to() on fresh scratch.
SpfResult spf(const Topology& t, SwitchId dest,
              std::span<const double> weight = {},
              std::span<const char> admit = {}) {
  SpfScratch scratch;
  SpfResult tree;
  spf_to(t, dest, weight, admit, scratch, tree);
  return tree;
}

/// updown_spf_to() on fresh scratch.
SpfResult updown_spf(const Topology& t, SwitchId dest,
                     std::span<const std::int32_t> rank,
                     std::span<const double> weight = {}) {
  SpfScratch scratch;
  SpfResult tree;
  updown_spf_to(t, dest, rank, weight, scratch, tree);
  return tree;
}

TEST(Spf, UnweightedDistancesMatchBfs) {
  const HyperX hx(topo::small_hyperx_params());
  const SpfResult tree = spf(hx.topo(), 0);
  for (SwitchId sw = 0; sw < hx.topo().num_switches(); ++sw)
    EXPECT_DOUBLE_EQ(tree.dist[static_cast<std::size_t>(sw)],
                     static_cast<double>(bfs_hops(hx.topo(), sw, 0)));
}

TEST(Spf, RespectsChannelFilter) {
  Topology t("filter");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const SwitchId c = t.add_switch();
  const auto [ab, unused1] = t.connect(a, b);
  t.connect(b, c);
  t.connect(a, c);
  (void)unused1;
  // Forbid the direct a->c channel: a must route via b.
  const ChannelId ac = ab + 4;  // channels: ab, ba, bc, cb, ac, ca
  std::vector<char> admit(static_cast<std::size_t>(t.num_channels()), 1);
  admit[static_cast<std::size_t>(ac)] = 0;
  const SpfResult tree = spf(t, c, {}, admit);
  EXPECT_DOUBLE_EQ(tree.dist[0], 2.0);
  const topo::Channel& first = t.channel(tree.out_channel[0]);
  EXPECT_EQ(first.dst.index, b);
}

TEST(Spf, HopCountDominatesWeights) {
  // InfiniBand static routing is minimal: even a heavily loaded direct
  // channel beats a lightly loaded detour (paper Section 3.2.1 -- this is
  // exactly why PARX must *remove* links to force non-minimal paths).
  Topology t("weights-minimal");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const SwitchId c = t.add_switch();
  t.connect(a, b);
  t.connect(b, c);
  const auto [ac, unused] = t.connect(a, c);
  (void)unused;
  std::vector<double> w(static_cast<std::size_t>(t.num_channels()), 1.0);
  w[static_cast<std::size_t>(ac)] = 1000.0;  // direct is heavily loaded
  const SpfResult tree = spf(t, c, w);
  EXPECT_DOUBLE_EQ(tree.dist[0], 1.0);  // still direct
  EXPECT_EQ(tree.out_channel[0], ac);
}

TEST(Spf, WeightsBreakTiesAmongMinimalPaths) {
  // Diamond a -> {b, c} -> d: both 2-hop; the lighter branch wins.
  Topology t("weights-tie");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const SwitchId c = t.add_switch();
  const SwitchId d = t.add_switch();
  const auto [ab, unused1] = t.connect(a, b);
  const auto [bd, unused2] = t.connect(b, d);
  const auto [ac, unused3] = t.connect(a, c);
  const auto [cd, unused4] = t.connect(c, d);
  (void)unused1;
  (void)unused2;
  (void)unused3;
  (void)unused4;
  std::vector<double> w(static_cast<std::size_t>(t.num_channels()), 1.0);
  w[static_cast<std::size_t>(ab)] = 5.0;  // load the b branch
  const SpfResult tree = spf(t, d, w);
  EXPECT_DOUBLE_EQ(tree.dist[0], 2.0);
  EXPECT_EQ(tree.out_channel[0], ac);
  (void)bd;
  (void)cd;
}

TEST(Spf, UnreachableIsInfinite) {
  Topology t("unreach");
  t.add_switch();
  t.add_switch();  // no links
  const SpfResult tree = spf(t, 0);
  EXPECT_TRUE(std::isinf(tree.dist[1]));
  EXPECT_FALSE(tree.reachable(1));
}

// The heap-Dijkstra SPF cores the hop-layered sweeps replaced, kept as the
// reference the sweeps must reproduce switch for switch: the same
// relaxation and tie rule, with the (hops, weight) order spelled out in
// less()/same() and the admission test reading a mask.
namespace heap_reference {

using detail::PathCost;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr PathCost kUnreached{std::numeric_limits<std::int32_t>::max(), kInf};

bool less(const PathCost& a, const PathCost& b) {
  if (a.hops != b.hops) return a.hops < b.hops;
  return a.weight < b.weight;
}
bool same(const PathCost& a, const PathCost& b) {
  return a.hops == b.hops && a.weight == b.weight;
}

struct HeapEntry {
  PathCost cost;
  std::int8_t state = 0;
  SwitchId sw = 0;
};

struct HeapLater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return less(b.cost, a.cost);
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

double weight_of(std::span<const double> w, ChannelId ch) {
  return w.empty() ? 1.0 : w[static_cast<std::size_t>(ch)];
}

bool admitted(const Topology& topo, std::span<const char> admit,
              ChannelId ch) {
  if (!topo.channel(ch).enabled) return false;
  return admit.empty() || admit[static_cast<std::size_t>(ch)] != 0;
}

SpfResult spf_to(const Topology& topo, SwitchId dest_sw,
                 std::span<const double> channel_weight,
                 std::span<const char> admit) {
  const auto n = static_cast<std::size_t>(topo.num_switches());
  std::vector<PathCost> cost(n, kUnreached);
  std::vector<HeapEntry> heap;
  SpfResult out;
  out.out_channel.assign(n, topo::kInvalidChannel);
  out.dist.assign(n, kInf);

  cost[static_cast<std::size_t>(dest_sw)] = PathCost{0, 0.0};
  heap_push(heap, HeapEntry{PathCost{0, 0.0}, 0, dest_sw});
  while (!heap.empty()) {
    const auto [c, state, u] = heap_pop(heap);
    (void)state;
    if (less(cost[static_cast<std::size_t>(u)], c)) continue;  // stale
    for (ChannelId out_ch : topo.switch_out(u)) {
      const topo::Channel& oc = topo.channel(out_ch);
      if (!oc.dst.is_switch()) continue;
      const ChannelId r = oc.reverse;  // v -> u
      if (!admitted(topo, admit, r)) continue;
      const auto v = static_cast<std::size_t>(oc.dst.index);
      const PathCost nc{c.hops + 1, c.weight + weight_of(channel_weight, r)};
      if (less(nc, cost[v]) ||
          (same(nc, cost[v]) && out.out_channel[v] != topo::kInvalidChannel &&
           r < out.out_channel[v])) {
        const bool improved = less(nc, cost[v]);
        cost[v] = nc;
        out.out_channel[v] = r;
        if (improved) heap_push(heap, HeapEntry{nc, 0, oc.dst.index});
      }
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    if (!same(cost[v], kUnreached))
      out.dist[v] = static_cast<double>(cost[v].hops);
  return out;
}

SpfResult updown_spf_to(const Topology& topo, SwitchId dest_sw,
                        std::span<const std::int32_t> rank,
                        std::span<const double> channel_weight) {
  const auto n = static_cast<std::size_t>(topo.num_switches());
  std::vector<PathCost> cost[2] = {std::vector<PathCost>(n, kUnreached),
                                   std::vector<PathCost>(n, kUnreached)};
  std::vector<ChannelId> parent[2] = {
      std::vector<ChannelId>(n, topo::kInvalidChannel),
      std::vector<ChannelId>(n, topo::kInvalidChannel)};
  std::vector<HeapEntry> heap;

  auto forward_is_up = [&](SwitchId v, SwitchId u) {
    const auto rv = rank[static_cast<std::size_t>(v)];
    const auto ru = rank[static_cast<std::size_t>(u)];
    if (ru != rv) return ru < rv;
    return u < v;
  };

  cost[0][static_cast<std::size_t>(dest_sw)] = PathCost{0, 0.0};
  heap_push(heap, HeapEntry{PathCost{0, 0.0}, 0, dest_sw});
  while (!heap.empty()) {
    const auto [c, state, u] = heap_pop(heap);
    if (less(cost[state][static_cast<std::size_t>(u)], c)) continue;
    for (ChannelId out_ch : topo.switch_out(u)) {
      const topo::Channel& oc = topo.channel(out_ch);
      if (!oc.dst.is_switch()) continue;
      const ChannelId r = oc.reverse;  // forward channel v -> u
      if (!admitted(topo, {}, r)) continue;
      const SwitchId v = oc.dst.index;
      std::int8_t next_state;
      if (forward_is_up(v, u)) {
        next_state = 1;
      } else {
        if (state != 0) continue;
        next_state = 0;
      }
      const auto vi = static_cast<std::size_t>(v);
      const PathCost nc{c.hops + 1, c.weight + weight_of(channel_weight, r)};
      auto& dvec = cost[next_state];
      auto& pvec = parent[next_state];
      if (less(nc, dvec[vi]) ||
          (same(nc, dvec[vi]) && pvec[vi] != topo::kInvalidChannel &&
           r < pvec[vi])) {
        const bool improved = less(nc, dvec[vi]);
        dvec[vi] = nc;
        pvec[vi] = r;
        if (improved) heap_push(heap, HeapEntry{nc, next_state, v});
      }
    }
  }

  SpfResult out;
  out.out_channel.assign(n, topo::kInvalidChannel);
  out.dist.assign(n, kInf);
  out.dist[static_cast<std::size_t>(dest_sw)] = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    if (static_cast<SwitchId>(v) == dest_sw) continue;
    const std::int8_t best = !same(cost[0][v], kUnreached) ? 0 : 1;
    if (same(cost[best][v], kUnreached)) continue;
    out.dist[v] = static_cast<double>(cost[best][v].hops);
    out.out_channel[v] = parent[best][v];
  }
  return out;
}

}  // namespace heap_reference

TEST(Spf, LayeredSweepsMatchHeapDijkstra) {
  // Faulted small HyperX and fat-tree fabrics (some cut apart), channel
  // weights from {1, 2, 3} so equal-weight ties are common, a random
  // admission mask for spf_to and random ranks for updown_spf_to: both
  // sweeps must pick the reference's out-channel and hop count at every
  // switch, for every destination.
  SpfScratch scratch;
  SpfResult got;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    stats::Rng rng(seed);
    const bool hyperx = seed % 2 == 1;
    std::optional<HyperX> hx;
    std::optional<FatTree> ft;
    if (hyperx) {
      hx.emplace(topo::random_hyperx_params(rng, 36, 72));
    } else {
      ft.emplace(topo::random_fat_tree_params(rng, 40, 64));
    }
    Topology& t = hyperx ? hx->topo() : ft->topo();
    const bool keep_connected = seed % 4 < 2;
    topo::inject_link_faults(t, 1 + static_cast<std::int32_t>(seed % 5), seed,
                             keep_connected);

    const auto channels = static_cast<std::size_t>(t.num_channels());
    std::vector<double> weight(channels);
    std::vector<char> admit(channels);
    for (std::size_t ch = 0; ch < channels; ++ch) {
      weight[ch] = static_cast<double>(rng.uniform_int(1, 3));
      admit[ch] = rng.uniform() < 0.85 ? 1 : 0;
    }
    std::vector<std::int32_t> rank(static_cast<std::size_t>(t.num_switches()));
    for (auto& r : rank) r = static_cast<std::int32_t>(rng.uniform_int(0, 3));

    for (SwitchId dest = 0; dest < t.num_switches(); ++dest) {
      const SpfResult want =
          heap_reference::spf_to(t, dest, weight, admit);
      spf_to(t, dest, weight, admit, scratch, got);
      ASSERT_EQ(got.out_channel, want.out_channel)
          << "spf_to seed " << seed << " dest " << dest;
      ASSERT_EQ(got.dist, want.dist)
          << "spf_to seed " << seed << " dest " << dest;

      const SpfResult want_ud =
          heap_reference::updown_spf_to(t, dest, rank, weight);
      updown_spf_to(t, dest, rank, weight, scratch, got);
      ASSERT_EQ(got.out_channel, want_ud.out_channel)
          << "updown_spf_to seed " << seed << " dest " << dest;
      ASSERT_EQ(got.dist, want_ud.dist)
          << "updown_spf_to seed " << seed << " dest " << dest;
    }
  }
}

TEST(UpdownSpf, ForbidsDownThenUp) {
  // Path chain: root r; leaves a, b under it; valley v under a and b.
  //   ranks: r=0, a=b=1, v=2.  a -> b legally goes a->r->b (up, down),
  //   NOT a->v->b (down, up).
  Topology t("valley");
  const SwitchId r = t.add_switch();
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const SwitchId v = t.add_switch();
  t.connect(a, r);
  t.connect(b, r);
  t.connect(a, v);
  t.connect(b, v);
  const std::vector<std::int32_t> rank{0, 1, 1, 2};
  const SpfResult tree = updown_spf(t, b, rank);
  ASSERT_TRUE(tree.reachable(a));
  EXPECT_EQ(t.channel(tree.out_channel[static_cast<std::size_t>(a)]).dst.index,
            r);
  // v itself routes up to either parent.
  ASSERT_TRUE(tree.reachable(v));
}


TEST(UpdownSpf, DownCapableSwitchesStoreTheDownPath) {
  // Table-consistency regression (found by the engine-matrix sweep on a
  // faulty Dragonfly): a switch with an all-down path to the destination
  // must store it even when an up-then-down path is shorter, because a
  // predecessor descending into it assumed an all-down suffix.
  //
  //   ranks:  r=0 | m=1 | a=b=2 | dest=3
  //   a -- dest (down), a -- m (up), m -- dest (down), b -- a (down? equal
  //   ranks break by id).  Construct: dest below a and m; a also below m.
  //   From a: all-down path a->dest (1 hop).  Up-then-down a->m->dest also
  //   2 hops.  a must store the down path.
  Topology t("consistency");
  const SwitchId r = t.add_switch();   // rank 0
  const SwitchId m = t.add_switch();   // rank 1
  const SwitchId a = t.add_switch();   // rank 2
  const SwitchId d = t.add_switch();   // rank 3 (destination)
  t.connect(r, m);
  t.connect(m, a);
  t.connect(m, d);
  const auto [ad, unused] = t.connect(a, d);
  (void)unused;
  const std::vector<std::int32_t> rank{0, 1, 2, 3};

  // Make the direct down hop a -> d expensive: a legal-but-greedy router
  // would prefer a -> m -> d (up, down).  Consistency demands a -> d.
  std::vector<double> w(static_cast<std::size_t>(t.num_channels()), 1.0);
  w[static_cast<std::size_t>(ad)] = 100.0;
  const SpfResult tree = updown_spf(t, d, rank, w);
  ASSERT_TRUE(tree.reachable(a));
  EXPECT_EQ(tree.out_channel[static_cast<std::size_t>(a)], ad);
}

// --- ftree engine ------------------------------------------------------------

TEST(Ftree, FullReachabilityOnIntactTree) {
  const FatTree ft(topo::small_fat_tree_params());
  const LidSpace lids = LidSpace::consecutive(ft.topo().num_terminals(), 0);
  FtreeEngine engine(ft);
  const RouteResult route = engine.compute(ft.topo(), lids);
  EXPECT_EQ(route.unreachable_entries, 0);
  expect_full_reachability(ft.topo(), lids, route);
  expect_minimal_paths(ft.topo(), lids, route);
  EXPECT_EQ(route.num_vls_used, 1);
}

TEST(Ftree, DeadlockFreeOnOneVl) {
  const FatTree ft(topo::small_fat_tree_params());
  const LidSpace lids = LidSpace::consecutive(ft.topo().num_terminals(), 0);
  FtreeEngine engine(ft);
  const RouteResult route = engine.compute(ft.topo(), lids);
  expect_deadlock_free(ft.topo(), lids, route);
}

TEST(Ftree, SpreadsDestinationsAcrossRoots) {
  // Destination-mod-k routing: different destinations on the same leaf use
  // different roots, so the 16 destinations cover all 4 top switches.
  const FatTree ft(topo::small_fat_tree_params());
  const LidSpace lids = LidSpace::consecutive(ft.topo().num_terminals(), 0);
  FtreeEngine engine(ft);
  const RouteResult route = engine.compute(ft.topo(), lids);

  std::set<SwitchId> roots_used;
  for (NodeId dst = 0; dst < ft.topo().num_terminals(); ++dst) {
    // Pick a source in a different subtree so the path crosses a root.
    const NodeId src = (dst + 4) % ft.topo().num_terminals();
    const auto path = route.tables.path(ft.topo(), lids, src,
                                        lids.lid(dst));
    ASSERT_TRUE(path.ok);
    for (ChannelId ch : path.channels) {
      const topo::Channel& c = ft.topo().channel(ch);
      if (c.dst.is_switch() && ft.level_of(c.dst.index) == ft.levels() - 1)
        roots_used.insert(c.dst.index);
    }
  }
  EXPECT_EQ(roots_used.size(), 4u);
}

TEST(Ftree, SurvivesLinkFaults) {
  FatTree ft(topo::small_fat_tree_params());
  topo::inject_link_faults(ft.topo(), 3, 123);
  const LidSpace lids = LidSpace::consecutive(ft.topo().num_terminals(), 0);
  FtreeEngine engine(ft);
  const RouteResult route = engine.compute(ft.topo(), lids);
  // Stranded *switch* entries are acceptable (a root that lost its only
  // down path); every terminal pair must still connect.
  expect_full_reachability(ft.topo(), lids, route);
  expect_deadlock_free(ft.topo(), lids, route);
}

TEST(Ftree, RejectsForeignTopology) {
  const FatTree ft(topo::small_fat_tree_params());
  const HyperX hx(topo::small_hyperx_params());
  const LidSpace lids = LidSpace::consecutive(hx.topo().num_terminals(), 0);
  FtreeEngine engine(ft);
  EXPECT_THROW((void)engine.compute(hx.topo(), lids), std::invalid_argument);
}


TEST(Ftree, RoutesTaperedTrees) {
  topo::FatTreeParams p;
  p.arity = 4;
  p.levels = 3;
  p.leaf_terminals = 4;
  p.taper = 2;  // 2:1 oversubscription at the leaves
  const FatTree ft(p);
  const LidSpace lids = LidSpace::consecutive(ft.topo().num_terminals(), 0);
  FtreeEngine engine(ft);
  const RouteResult route = engine.compute(ft.topo(), lids);
  expect_full_reachability(ft.topo(), lids, route);
  expect_deadlock_free(ft.topo(), lids, route);
}

// --- updown engine -----------------------------------------------------------

TEST(UpDown, FullReachabilityAndDeadlockFreedomOnHyperX) {
  const HyperX hx(topo::small_hyperx_params());
  const LidSpace lids = LidSpace::consecutive(hx.topo().num_terminals(), 0);
  UpDownEngine engine;
  const RouteResult route = engine.compute(hx.topo(), lids);
  EXPECT_EQ(route.unreachable_entries, 0);
  expect_full_reachability(hx.topo(), lids, route);
  expect_deadlock_free(hx.topo(), lids, route);
}

TEST(UpDown, WorksWithFaults) {
  HyperX hx(topo::small_hyperx_params());
  topo::inject_link_faults(hx.topo(), 6, 9);
  const LidSpace lids = LidSpace::consecutive(hx.topo().num_terminals(), 0);
  UpDownEngine engine;
  const RouteResult route = engine.compute(hx.topo(), lids);
  expect_full_reachability(hx.topo(), lids, route);
}

// --- sssp / dfsssp -----------------------------------------------------------

TEST(Sssp, MinimalAndReachableOnHyperX) {
  const HyperX hx(topo::small_hyperx_params());
  const LidSpace lids = LidSpace::consecutive(hx.topo().num_terminals(), 0);
  SsspEngine engine;
  const RouteResult route = engine.compute(hx.topo(), lids);
  EXPECT_EQ(route.unreachable_entries, 0);
  expect_full_reachability(hx.topo(), lids, route);
  expect_minimal_paths(hx.topo(), lids, route);
}

TEST(Sssp, BalancesLoadAcrossEquivalentLinks) {
  // On a HyperX the diagonal pairs have two minimal orders (x-then-y or
  // y-then-x); SSSP's weight updates must not send everything one way.
  const HyperX hx(topo::small_hyperx_params());
  const LidSpace lids = LidSpace::consecutive(hx.topo().num_terminals(), 0);
  SsspEngine engine;
  const RouteResult route = engine.compute(hx.topo(), lids);

  std::vector<std::int64_t> load(static_cast<std::size_t>(
                                     hx.topo().num_channels()),
                                 0);
  for (NodeId src = 0; src < hx.topo().num_terminals(); ++src) {
    for (const Lid dlid : lids.all_lids()) {
      const auto path = route.tables.path(hx.topo(), lids, src, dlid);
      for (ChannelId ch : path.channels)
        if (hx.topo().is_switch_channel(ch))
          ++load[static_cast<std::size_t>(ch)];
    }
  }
  std::int64_t max_load = 0;
  std::int64_t total = 0;
  std::int64_t used = 0;
  for (std::int64_t l : load) {
    max_load = std::max(max_load, l);
    total += l;
    used += (l > 0);
  }
  ASSERT_GT(used, 0);
  const double mean = static_cast<double>(total) / static_cast<double>(used);
  // Balanced routing keeps the hottest channel within a small factor of
  // the average; a single-order router would be ~2x the mean.
  EXPECT_LT(static_cast<double>(max_load), 1.8 * mean);
}

TEST(Dfsssp, DeadlockFreeWithinVlBudget) {
  const HyperX hx(topo::small_hyperx_params());
  const LidSpace lids = LidSpace::consecutive(hx.topo().num_terminals(), 0);
  DfssspEngine engine(8);
  const RouteResult route = engine.compute(hx.topo(), lids);
  expect_full_reachability(hx.topo(), lids, route);
  expect_deadlock_free(hx.topo(), lids, route);
  // The paper reports 3 VLs for DFSSSP on the 12x8; the 4x4 needs no more.
  EXPECT_LE(route.num_vls_used, 3);
  EXPECT_GE(route.num_vls_used, 1);
}

TEST(Dfsssp, HandlesFaultyHyperX) {
  HyperX hx(topo::small_hyperx_params());
  topo::inject_link_faults(hx.topo(), 5, 77);
  const LidSpace lids = LidSpace::consecutive(hx.topo().num_terminals(), 0);
  DfssspEngine engine(8);
  const RouteResult route = engine.compute(hx.topo(), lids);
  EXPECT_EQ(route.unreachable_entries, 0);
  expect_full_reachability(hx.topo(), lids, route);
  expect_deadlock_free(hx.topo(), lids, route);
}

TEST(Dfsssp, MultiLidPathsAreRouted) {
  const HyperX hx(topo::small_hyperx_params());
  const LidSpace lids = LidSpace::consecutive(hx.topo().num_terminals(), 2);
  DfssspEngine engine(8);
  const RouteResult route = engine.compute(hx.topo(), lids);
  expect_full_reachability(hx.topo(), lids, route);
  expect_deadlock_free(hx.topo(), lids, route);
}

// --- IncrementalDag / VlLayering ----------------------------------------------

using EdgeList = std::vector<std::pair<std::int32_t, std::int32_t>>;

/// Every (u, v) with has_edge(u, v) true, in row-major order.
EdgeList edges_of(const IncrementalDag& dag, std::int32_t nodes) {
  EdgeList edges;
  for (std::int32_t u = 0; u < nodes; ++u)
    for (std::int32_t v = 0; v < nodes; ++v)
      if (dag.has_edge(u, v)) edges.emplace_back(u, v);
  return edges;
}

TEST(IncrementalDag, AcceptsForwardEdges) {
  IncrementalDag dag(4);
  EXPECT_TRUE(dag.add_edge(0, 1));
  EXPECT_TRUE(dag.add_edge(1, 2));
  EXPECT_TRUE(dag.add_edge(2, 3));
  EXPECT_EQ(edges_of(dag, 4), (EdgeList{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(IncrementalDag, RejectsCycle) {
  IncrementalDag dag(3);
  EXPECT_TRUE(dag.add_edge(0, 1));
  EXPECT_TRUE(dag.add_edge(1, 2));
  EXPECT_FALSE(dag.add_edge(2, 0));
  EXPECT_EQ(edges_of(dag, 3), (EdgeList{{0, 1}, {1, 2}}));
  // The rejected edge must leave the DAG usable.
  EXPECT_TRUE(dag.add_edge(0, 2));
}

TEST(IncrementalDag, RangeChecksEveryPublicCall) {
  // A 4-node DAG holding 1->2: no call may reach past the node range, in
  // either argument; remove_edge(0, 6) must not touch 1->2.
  IncrementalDag dag(4);
  ASSERT_TRUE(dag.add_edge(1, 2));
  const EdgeList bad{{0, 6}, {6, 0}, {-1, 2}, {1, -1}, {4, 4}};
  for (const auto& [u, v] : bad) {
    EXPECT_THROW(dag.add_edge(u, v), std::out_of_range) << u << "->" << v;
    EXPECT_THROW((void)dag.has_edge(u, v), std::out_of_range)
        << u << "->" << v;
    EXPECT_THROW(dag.remove_edge(u, v), std::out_of_range) << u << "->" << v;
  }
  EXPECT_EQ(edges_of(dag, 4), (EdgeList{{1, 2}}));
}

TEST(IncrementalDag, RemovingAnAbsentEdgeChangesNothing) {
  IncrementalDag dag(4);
  ASSERT_TRUE(dag.add_edge(1, 2));
  dag.remove_edge(2, 1);
  dag.remove_edge(0, 3);
  EXPECT_EQ(edges_of(dag, 4), (EdgeList{{1, 2}}));
  EXPECT_FALSE(dag.add_edge(2, 1));
}

TEST(IncrementalDag, RejectsSelfLoop) {
  IncrementalDag dag(2);
  EXPECT_FALSE(dag.add_edge(1, 1));
}

TEST(IncrementalDag, ReordersAgainstInsertionOrder) {
  // Insert edges that contradict the initial 0..n-1 order.
  IncrementalDag dag(4);
  EXPECT_TRUE(dag.add_edge(3, 2));
  EXPECT_TRUE(dag.add_edge(2, 1));
  EXPECT_TRUE(dag.add_edge(1, 0));
  EXPECT_FALSE(dag.add_edge(0, 3));
  // Topological order must now be 3 < 2 < 1 < 0.
  EXPECT_LT(dag.order_of(3), dag.order_of(2));
  EXPECT_LT(dag.order_of(2), dag.order_of(1));
  EXPECT_LT(dag.order_of(1), dag.order_of(0));
}

TEST(IncrementalDag, RemoveEdgeAllowsReversal) {
  IncrementalDag dag(2);
  EXPECT_TRUE(dag.add_edge(0, 1));
  EXPECT_FALSE(dag.add_edge(1, 0));
  dag.remove_edge(0, 1);
  EXPECT_TRUE(dag.add_edge(1, 0));
}

TEST(IncrementalDag, RandomizedMatchesBatchChecker) {
  // Property sweep: every edge the incremental DAG accepts must keep the
  // batch checker happy; every rejection must be a real cycle.
  // After an accepted edge the order must be topological for every edge
  // so far; a rejected edge must leave every position where it was.
  stats::Rng rng(99);
  constexpr std::int32_t kNodes = 20;
  IncrementalDag dag(kNodes);
  EdgeList accepted;
  const auto order = [&] {
    std::vector<std::int32_t> ord;
    for (std::int32_t n = 0; n < kNodes; ++n) ord.push_back(dag.order_of(n));
    return ord;
  };
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<std::int32_t>(rng.next_below(kNodes));
    const auto v = static_cast<std::int32_t>(rng.next_below(kNodes));
    if (u == v) continue;
    auto trial = accepted;
    trial.emplace_back(u, v);
    const bool would_be_acyclic = acyclic(kNodes, trial);
    const std::vector<std::int32_t> before = order();
    const bool added = dag.add_edge(u, v);
    EXPECT_EQ(added, would_be_acyclic) << u << "->" << v;
    if (added) {
      if (std::find(accepted.begin(), accepted.end(), std::pair{u, v}) ==
          accepted.end())
        accepted.emplace_back(u, v);
      for (const auto& [a, b] : accepted)
        ASSERT_LT(dag.order_of(a), dag.order_of(b))
            << a << "->" << b << " after adding " << u << "->" << v;
    } else {
      ASSERT_EQ(order(), before) << "rejected " << u << "->" << v;
    }
  }
  std::sort(accepted.begin(), accepted.end());
  EXPECT_EQ(edges_of(dag, kNodes), accepted);
}

TEST(VlLayering, SplitsCyclicPathsAcrossLayers) {
  // Three paths forming a dependency triangle cannot share one layer.
  VlLayering layering(6, 8);
  // Channel ids 0..5; paths: (0,1), (1,2)... build a 3-cycle via paths
  // [0,1],[1,2],[2,0]? A path [a,b] adds edge a->b.
  EXPECT_EQ(layering.place_path(std::vector<std::int32_t>{0, 1}), 0);
  EXPECT_EQ(layering.place_path(std::vector<std::int32_t>{1, 2}), 0);
  // Edge 2->0 closes the cycle on layer 0; must land on layer 1.
  EXPECT_EQ(layering.place_path(std::vector<std::int32_t>{2, 0}), 1);
  EXPECT_EQ(layering.layers_used(), 2);
}

TEST(VlLayering, RemembersOnlyRefusalsOfCommittedDependencies) {
  VlLayering layering(3, 2);
  EXPECT_EQ(layering.place_path(std::vector<std::int32_t>{2, 0}), 0);
  // Lane 0 refuses 1->2 only because of this path's own trial edge 0->1
  // (1->2->0->1), so that refusal must not be remembered ...
  EXPECT_EQ(layering.place_path(std::vector<std::int32_t>{0, 1, 2}), 1);
  // ... and 1->2 alone fits lane 0, which holds just 2->0.
  EXPECT_EQ(layering.place_path(std::vector<std::int32_t>{1, 2}), 0);
}

TEST(VlLayering, ReturnsMinusOneWhenBudgetExceeded) {
  VlLayering layering(2, 1);
  EXPECT_EQ(layering.place_path(std::vector<std::int32_t>{0, 1}), 0);
  EXPECT_EQ(layering.place_path(std::vector<std::int32_t>{1, 0}), -1);
}

TEST(VlLayering, TrivialPathsUseLayerZero) {
  VlLayering layering(4, 2);
  EXPECT_EQ(layering.place_path(std::vector<std::int32_t>{7 % 4}), 0);
  EXPECT_EQ(layering.layers_used(), 1);
}

TEST(Acyclic, DetectsCyclesAndChains) {
  const std::vector<std::pair<std::int32_t, std::int32_t>> chain{{0, 1},
                                                                 {1, 2}};
  EXPECT_TRUE(acyclic(3, chain));
  const std::vector<std::pair<std::int32_t, std::int32_t>> cycle{
      {0, 1}, {1, 2}, {2, 0}};
  EXPECT_FALSE(acyclic(3, cycle));
}

}  // namespace
}  // namespace hxsim::routing
