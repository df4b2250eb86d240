// Tests for the paper's contribution: quadrant partitioning, Table 1,
// demand normalisation, and the PARX routing engine (Algorithm 1).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "core/demand.hpp"
#include "core/demand_io.hpp"
#include "core/lid_choice.hpp"
#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "routing/cdg.hpp"
#include "routing/dfsssp.hpp"
#include "topo/fault_injector.hpp"

namespace hxsim::core {
namespace {

using routing::Lid;
using routing::LidSpace;
using routing::RouteResult;
using topo::ChannelId;
using topo::HyperX;
using topo::NodeId;
using topo::SwitchId;

HyperX make_8x4() {
  topo::HyperXParams p;
  p.dims = {8, 4};
  p.terminals_per_switch = 2;
  p.name = "hyperx-8x4";
  return HyperX(p);
}

std::int32_t bfs_hops(const topo::Topology& t, SwitchId from, SwitchId to) {
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

// --- quadrants ---------------------------------------------------------------

TEST(Quadrant, OrientationMatchesTable1Consistency) {
  const HyperX hx(topo::small_hyperx_params());  // 4x4
  // Q0 top-left, Q1 bottom-left, Q2 bottom-right, Q3 top-right.
  EXPECT_EQ(quadrant_of_switch(hx, hx.switch_at(std::vector<std::int32_t>{0, 0})), 0);
  EXPECT_EQ(quadrant_of_switch(hx, hx.switch_at(std::vector<std::int32_t>{0, 3})), 1);
  EXPECT_EQ(quadrant_of_switch(hx, hx.switch_at(std::vector<std::int32_t>{3, 3})), 2);
  EXPECT_EQ(quadrant_of_switch(hx, hx.switch_at(std::vector<std::int32_t>{3, 0})), 3);
}

TEST(Quadrant, GroupsPartitionAllNodes) {
  const HyperX hx(topo::paper_hyperx_params());
  const auto groups = quadrant_groups(hx);
  ASSERT_EQ(groups.size(), 4u);
  std::size_t total = 0;
  for (const auto& g : groups) {
    EXPECT_EQ(g.size(), 168u);  // 672 / 4
    total += g.size();
  }
  EXPECT_EQ(total, 672u);
}

TEST(Quadrant, HalfMembership) {
  const HyperX hx(topo::paper_hyperx_params());
  const SwitchId sw = hx.switch_at(std::vector<std::int32_t>{5, 3});
  EXPECT_TRUE(in_half(hx, sw, Half::kLeft));
  EXPECT_FALSE(in_half(hx, sw, Half::kRight));
  EXPECT_TRUE(in_half(hx, sw, Half::kTop));
  const SwitchId sw2 = hx.switch_at(std::vector<std::int32_t>{6, 4});
  EXPECT_TRUE(in_half(hx, sw2, Half::kRight));
  EXPECT_TRUE(in_half(hx, sw2, Half::kBottom));
}

TEST(Quadrant, ValidationRejectsOddDimensions) {
  topo::HyperXParams p;
  p.dims = {3, 4};
  p.terminals_per_switch = 1;
  const HyperX odd(p);
  EXPECT_THROW(validate_parx_topology(odd), std::invalid_argument);
}

TEST(Quadrant, PruneFilterRemovesOnlyIntraHalfLinks) {
  const HyperX hx(topo::small_hyperx_params());
  const std::vector<char> admit = parx_prune_mask(hx, 0);  // R1: left half
  ASSERT_EQ(admit.size(), static_cast<std::size_t>(hx.topo().num_channels()));
  std::int32_t removed = 0;
  std::int32_t kept = 0;
  for (ChannelId ch = 0; ch < hx.topo().num_channels(); ++ch) {
    const bool admitted = admit[static_cast<std::size_t>(ch)] != 0;
    if (!hx.topo().is_switch_channel(ch)) {
      EXPECT_TRUE(admitted);  // terminal links never pruned
      continue;
    }
    const topo::Channel& c = hx.topo().channel(ch);
    const bool both_left = in_half(hx, c.src.index, Half::kLeft) &&
                           in_half(hx, c.dst.index, Half::kLeft);
    EXPECT_EQ(admitted, !both_left);
    (both_left ? removed : kept) += 1;
  }
  // 4x4 left half = 2x4 sub-lattice: dim0 cables 1*4=4, dim1 cables
  // 2*C(4,2)=12 -> 16 cables = 32 directed channels removed.
  EXPECT_EQ(removed, 32);
  EXPECT_GT(kept, 0);
}

TEST(Quadrant, ParxLidSpaceUsesStride1000) {
  const HyperX hx(topo::small_hyperx_params());
  const LidSpace lids = make_parx_lid_space(hx);
  EXPECT_EQ(lids.lmc(), 2);
  EXPECT_EQ(lids.group_stride(), 1000);
  for (NodeId n = 0; n < hx.topo().num_terminals(); ++n) {
    EXPECT_EQ(lids.group_of_lid(lids.base_lid(n)), quadrant_of_node(hx, n));
  }
}

TEST(Quadrant, RuleMapping) {
  EXPECT_EQ(removed_half_for_lid_index(0), Half::kLeft);
  EXPECT_EQ(removed_half_for_lid_index(1), Half::kRight);
  EXPECT_EQ(removed_half_for_lid_index(2), Half::kTop);
  EXPECT_EQ(removed_half_for_lid_index(3), Half::kBottom);
  EXPECT_THROW((void)removed_half_for_lid_index(4), std::out_of_range);
}

// --- Table 1 -----------------------------------------------------------------

TEST(LidChoice, TableVerbatimSpotChecks) {
  // Table 1a row Q0: 1|3, 1, 0|2, 3.
  EXPECT_TRUE(parx_lid_options(0, 0, MsgClass::kSmall).contains(1));
  EXPECT_TRUE(parx_lid_options(0, 0, MsgClass::kSmall).contains(3));
  EXPECT_EQ(parx_lid_options(0, 1, MsgClass::kSmall).count, 1);
  EXPECT_TRUE(parx_lid_options(0, 1, MsgClass::kSmall).contains(1));
  EXPECT_TRUE(parx_lid_options(0, 2, MsgClass::kSmall).contains(0));
  EXPECT_TRUE(parx_lid_options(0, 2, MsgClass::kSmall).contains(2));
  EXPECT_TRUE(parx_lid_options(0, 3, MsgClass::kSmall).contains(3));
  // Table 1b row Q2: 1|3, 3, 1|3, 1.
  EXPECT_TRUE(parx_lid_options(2, 0, MsgClass::kLarge).contains(1));
  EXPECT_TRUE(parx_lid_options(2, 0, MsgClass::kLarge).contains(3));
  EXPECT_TRUE(parx_lid_options(2, 1, MsgClass::kLarge).contains(3));
  EXPECT_TRUE(parx_lid_options(2, 3, MsgClass::kLarge).contains(1));
}

struct QuadrantPair {
  std::int32_t src;
  std::int32_t dst;
};

class Table1Property : public ::testing::TestWithParam<QuadrantPair> {
 protected:
  static bool quadrant_in_half(std::int32_t q, Half h) {
    switch (q) {
      case 0:
        return h == Half::kLeft || h == Half::kTop;
      case 1:
        return h == Half::kLeft || h == Half::kBottom;
      case 2:
        return h == Half::kRight || h == Half::kBottom;
      default:
        return h == Half::kRight || h == Half::kTop;
    }
  }
};

/// Structural soundness of Table 1a: a *small*-message LID never prunes a
/// half containing both endpoints' quadrants (that would force a detour,
/// contradicting criterion (1): small messages take shortest paths).
TEST_P(Table1Property, SmallLidsNeverPruneTheCommonHalf) {
  const auto [sq, dq] = GetParam();
  const LidChoice choice = parx_lid_options(sq, dq, MsgClass::kSmall);
  for (std::int8_t i = 0; i < choice.count; ++i) {
    const Half pruned = removed_half_for_lid_index(
        choice.options[static_cast<std::size_t>(i)]);
    EXPECT_FALSE(quadrant_in_half(sq, pruned) && quadrant_in_half(dq, pruned))
        << "small lid " << static_cast<int>(choice.options[i])
        << " prunes the common half of Q" << sq << "->Q" << dq;
  }
}

/// Structural soundness of Table 1b: for *intra-quadrant* large messages
/// every listed LID prunes a half containing the quadrant (that is the
/// whole point: force the detour).
TEST_P(Table1Property, LargeIntraQuadrantLidsForceDetours) {
  const auto [sq, dq] = GetParam();
  if (sq != dq) GTEST_SKIP() << "intra-quadrant property";
  const LidChoice choice = parx_lid_options(sq, dq, MsgClass::kLarge);
  for (std::int8_t i = 0; i < choice.count; ++i) {
    const Half pruned = removed_half_for_lid_index(
        choice.options[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(quadrant_in_half(sq, pruned));
  }
}

std::vector<QuadrantPair> all_pairs() {
  std::vector<QuadrantPair> pairs;
  for (std::int32_t s = 0; s < 4; ++s)
    for (std::int32_t d = 0; d < 4; ++d) pairs.push_back({s, d});
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(AllQuadrantPairs, Table1Property,
                         ::testing::ValuesIn(all_pairs()),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param.src) + "toQ" +
                                  std::to_string(info.param.dst);
                         });

TEST(LidChoice, ClassifierUses512ByteThreshold) {
  EXPECT_EQ(classify_message(0), MsgClass::kSmall);
  EXPECT_EQ(classify_message(512), MsgClass::kSmall);
  EXPECT_EQ(classify_message(513), MsgClass::kLarge);
  EXPECT_EQ(classify_message(1 << 20), MsgClass::kLarge);
}

TEST(LidChoice, RandomPickCoversBothOptions) {
  stats::Rng rng(4);
  std::set<std::int8_t> seen;
  for (int i = 0; i < 100; ++i)
    seen.insert(pick_parx_lid(0, 0, MsgClass::kSmall, rng));
  EXPECT_EQ(seen, (std::set<std::int8_t>{1, 3}));
}

TEST(LidChoice, RejectsBadQuadrants) {
  EXPECT_THROW((void)parx_lid_options(-1, 0, MsgClass::kSmall),
               std::out_of_range);
  EXPECT_THROW((void)parx_lid_options(0, 4, MsgClass::kLarge),
               std::out_of_range);
}

// --- demand matrix -----------------------------------------------------------

TEST(Demand, NormalisationMapsToByteRange) {
  const std::vector<std::int64_t> bytes{0,       100,  //
                                        1000000, 0};
  const DemandMatrix m = DemandMatrix::from_bytes(2, bytes);
  EXPECT_EQ(m.at(0, 0), 0);
  EXPECT_EQ(m.at(0, 1), 1);    // tiny but non-zero -> at least 1
  EXPECT_EQ(m.at(1, 0), 255);  // the maximum
  EXPECT_EQ(m.at(1, 1), 0);
}

TEST(Demand, ListedDestinations) {
  DemandMatrix m(3);
  m.set(0, 2, 10);
  EXPECT_TRUE(m.is_listed_destination(2));
  EXPECT_FALSE(m.is_listed_destination(0));
  EXPECT_FALSE(m.is_listed_destination(1));
  EXPECT_EQ(m.column_sum(2), 10);
}

TEST(Demand, AllZeroStaysEmptyOfDemand) {
  const std::vector<std::int64_t> bytes(9, 0);
  const DemandMatrix m = DemandMatrix::from_bytes(3, bytes);
  for (NodeId d = 0; d < 3; ++d) EXPECT_FALSE(m.is_listed_destination(d));
}

TEST(Demand, SizeMismatchThrows) {
  const std::vector<std::int64_t> bytes(3, 0);
  EXPECT_THROW((void)DemandMatrix::from_bytes(2, bytes),
               std::invalid_argument);
}

// --- PARX engine --------------------------------------------------------------

class ParxSuite : public ::testing::Test {
 protected:
  ParxSuite() : hx_(make_8x4()), lids_(make_parx_lid_space(hx_)) {}

  HyperX hx_;
  LidSpace lids_;
};

TEST_F(ParxSuite, AllLidsReachableOnIntactFabric) {
  ParxEngine engine(hx_);
  const RouteResult route = engine.compute(hx_.topo(), lids_);
  EXPECT_EQ(route.unreachable_entries, 0);
  for (NodeId src = 0; src < hx_.topo().num_terminals(); ++src)
    for (const Lid dlid : lids_.all_lids())
      EXPECT_TRUE(route.tables.reachable(hx_.topo(), lids_, src, dlid))
          << src << " -> " << dlid;
}

TEST_F(ParxSuite, DeadlockFreeAcrossAllVirtualLids) {
  ParxEngine engine(hx_);
  const RouteResult route = engine.compute(hx_.topo(), lids_);
  // Independent CDG check per VL.
  std::map<std::int8_t, std::set<std::pair<std::int32_t, std::int32_t>>>
      per_vl;
  for (NodeId src = 0; src < hx_.topo().num_terminals(); ++src) {
    const SwitchId src_sw = hx_.topo().attach_switch(src);
    for (const Lid dlid : lids_.all_lids()) {
      const auto path = route.tables.path(hx_.topo(), lids_, src, dlid);
      if (!path.ok) continue;
      const std::int8_t vl = route.vls.vl(src_sw, dlid);
      for (std::size_t i = 0; i + 1 < path.channels.size(); ++i) {
        if (!hx_.topo().is_switch_channel(path.channels[i]) ||
            !hx_.topo().is_switch_channel(path.channels[i + 1]))
          continue;
        per_vl[vl].insert({path.channels[i], path.channels[i + 1]});
      }
    }
  }
  for (const auto& [vl, edges] : per_vl) {
    std::vector<std::pair<std::int32_t, std::int32_t>> list(edges.begin(),
                                                            edges.end());
    EXPECT_TRUE(routing::acyclic(hx_.topo().num_channels(), list))
        << "VL " << static_cast<int>(vl);
  }
  EXPECT_LE(route.num_vls_used, 8);  // QDR hardware budget (paper: 5-8)
}

TEST_F(ParxSuite, PrunedLidsAvoidRemovedHalves) {
  // Property: the path toward LIDx never uses a link internal to the half
  // removed by rule R(x+1).
  ParxEngine engine(hx_);
  const RouteResult route = engine.compute(hx_.topo(), lids_);
  for (NodeId src = 0; src < hx_.topo().num_terminals(); ++src) {
    for (NodeId dst = 0; dst < hx_.topo().num_terminals(); ++dst) {
      if (src == dst) continue;
      for (std::int32_t x = 0; x < 4; ++x) {
        const auto path =
            route.tables.path(hx_.topo(), lids_, src, lids_.lid(dst, x));
        ASSERT_TRUE(path.ok);
        const Half pruned = removed_half_for_lid_index(x);
        for (ChannelId ch : path.channels) {
          if (!hx_.topo().is_switch_channel(ch)) continue;
          const topo::Channel& c = hx_.topo().channel(ch);
          EXPECT_FALSE(in_half(hx_, c.src.index, pruned) &&
                       in_half(hx_, c.dst.index, pruned))
              << "lid index " << x << " crossed the pruned half";
        }
      }
    }
  }
}

TEST_F(ParxSuite, IntraHalfLargeLidsDetour) {
  // Two nodes on different switches of the same quadrant: the large-class
  // LIDs must yield strictly longer-than-minimal paths (Figure 3b), the
  // small-class LIDs minimal ones (Figure 3c).
  ParxEngine engine(hx_);
  const RouteResult route = engine.compute(hx_.topo(), lids_);

  const SwitchId s00 = hx_.switch_at(std::vector<std::int32_t>{0, 0});
  const SwitchId s10 = hx_.switch_at(std::vector<std::int32_t>{1, 0});
  const NodeId src = hx_.topo().switch_terminals(s00)[0];
  const NodeId dst = hx_.topo().switch_terminals(s10)[0];
  ASSERT_EQ(quadrant_of_node(hx_, src), 0);
  ASSERT_EQ(quadrant_of_node(hx_, dst), 0);
  const std::int32_t minimal = bfs_hops(hx_.topo(), s00, s10);
  ASSERT_EQ(minimal, 1);

  const LidChoice large = parx_lid_options(0, 0, MsgClass::kLarge);
  for (std::int8_t i = 0; i < large.count; ++i) {
    const auto path = route.tables.path(
        hx_.topo(), lids_, src,
        lids_.lid(dst, large.options[static_cast<std::size_t>(i)]));
    ASSERT_TRUE(path.ok);
    EXPECT_GT(path.switch_hops(), minimal);
  }
  const LidChoice small = parx_lid_options(0, 0, MsgClass::kSmall);
  for (std::int8_t i = 0; i < small.count; ++i) {
    const auto path = route.tables.path(
        hx_.topo(), lids_, src,
        lids_.lid(dst, small.options[static_cast<std::size_t>(i)]));
    ASSERT_TRUE(path.ok);
    EXPECT_EQ(path.switch_hops(), minimal);
  }
}

TEST_F(ParxSuite, DemandWeightingSeparatesHotPaths) {
  // Heavy demand between column-0 and column-1 switches: with demand
  // weights the hot flows must not overlap more than with the oblivious
  // +1 update.
  DemandMatrix demands(hx_.topo().num_terminals());
  std::vector<std::pair<NodeId, NodeId>> hot;
  for (std::int32_t y = 0; y < 4; ++y) {
    const SwitchId a = hx_.switch_at(std::vector<std::int32_t>{0, y});
    const SwitchId b = hx_.switch_at(std::vector<std::int32_t>{1, y});
    for (NodeId na : hx_.topo().switch_terminals(a))
      for (NodeId nb : hx_.topo().switch_terminals(b)) {
        demands.set(na, nb, 255);
        hot.emplace_back(na, nb);
      }
  }

  auto max_overlap = [&](const RouteResult& route) {
    std::map<ChannelId, std::int32_t> load;
    for (const auto& [src, dst] : hot) {
      const auto path =
          route.tables.path(hx_.topo(), lids_, src, lids_.lid(dst, 0));
      for (ChannelId ch : path.channels)
        if (hx_.topo().is_switch_channel(ch)) ++load[ch];
    }
    std::int32_t worst = 0;
    for (const auto& [ch, l] : load) worst = std::max(worst, l);
    return worst;
  };

  ParxOptions without;
  without.use_demand_weights = false;
  ParxEngine aware(hx_, demands, ParxOptions{});
  ParxEngine oblivious(hx_, DemandMatrix(hx_.topo().num_terminals()),
                       without);
  const std::int32_t aware_overlap =
      max_overlap(aware.compute(hx_.topo(), lids_));
  const std::int32_t oblivious_overlap =
      max_overlap(oblivious.compute(hx_.topo(), lids_));
  EXPECT_LE(aware_overlap, oblivious_overlap);
}

TEST_F(ParxSuite, SurvivesFaultyFabricWithFallbacks) {
  topo::inject_link_faults(hx_.topo(), 4, 2024);
  ParxEngine engine(hx_);
  const RouteResult route = engine.compute(hx_.topo(), lids_);
  // Some (switch, lid) entries may be unreachable (footnote 7), but every
  // node pair must keep at least one reachable LID for the MPI fallback.
  for (NodeId src = 0; src < hx_.topo().num_terminals(); ++src) {
    for (NodeId dst = 0; dst < hx_.topo().num_terminals(); ++dst) {
      if (src == dst) continue;
      bool any = false;
      for (std::int32_t x = 0; x < 4 && !any; ++x)
        any = route.tables.reachable(hx_.topo(), lids_, src,
                                     lids_.lid(dst, x));
      EXPECT_TRUE(any) << src << " -> " << dst;
    }
  }
}

TEST_F(ParxSuite, AblationWithoutPruningIsMinimalEverywhere) {
  ParxOptions opts;
  opts.use_link_pruning = false;
  ParxEngine engine(hx_, DemandMatrix{}, opts);
  const RouteResult route = engine.compute(hx_.topo(), lids_);
  for (NodeId src = 0; src < hx_.topo().num_terminals(); ++src) {
    const SwitchId ssw = hx_.topo().attach_switch(src);
    for (NodeId dst = 0; dst < hx_.topo().num_terminals(); ++dst) {
      if (dst == src) continue;
      const std::int32_t minimal =
          bfs_hops(hx_.topo(), ssw, hx_.topo().attach_switch(dst));
      for (std::int32_t x = 0; x < 4; ++x) {
        const auto path =
            route.tables.path(hx_.topo(), lids_, src, lids_.lid(dst, x));
        ASSERT_TRUE(path.ok);
        EXPECT_EQ(path.switch_hops(), minimal);
      }
    }
  }
}

TEST_F(ParxSuite, RejectsWrongLidSpace) {
  ParxEngine engine(hx_);
  const LidSpace wrong =
      LidSpace::consecutive(hx_.topo().num_terminals(), 0);
  EXPECT_THROW((void)engine.compute(hx_.topo(), wrong),
               std::invalid_argument);
}

TEST_F(ParxSuite, PhaseTimingsAreObservationalOnly) {
  // A phase sink never changes what an engine ships: DFSSSP and PARX
  // return the untimed RouteResult, and the PARX sink names its phases.
  const LidSpace flat = LidSpace::consecutive(hx_.topo().num_terminals(), 0);
  routing::DfssspEngine dfsssp(8);
  const RouteResult dfsssp_plain = dfsssp.compute(hx_.topo(), flat);
  obs::PhaseTimings dfsssp_phases;
  dfsssp.set_timings(&dfsssp_phases);
  EXPECT_EQ(dfsssp.compute(hx_.topo(), flat), dfsssp_plain);
  EXPECT_FALSE(dfsssp_phases.entries().empty());

  ParxEngine parx(hx_);
  const RouteResult parx_plain = parx.compute(hx_.topo(), lids_);
  obs::PhaseTimings parx_phases;
  parx.set_timings(&parx_phases);
  EXPECT_EQ(parx.compute(hx_.topo(), lids_), parx_plain);
  const std::vector<std::string> kPhases{"spf_trees", "parx_load",
                                         "vl_path_extraction", "vl_placement"};
  std::vector<std::string> names;
  for (const auto& [name, seconds] : parx_phases.entries()) {
    names.push_back(name);
    EXPECT_GE(seconds, 0.0) << name;
  }
  EXPECT_EQ(names, kPhases);
}

TEST(Parx, RejectsOddTopology) {
  topo::HyperXParams p;
  p.dims = {3, 4};
  p.terminals_per_switch = 1;
  const HyperX odd(p);
  EXPECT_THROW(ParxEngine{odd}, std::invalid_argument);
}

TEST(Parx, PaperScaleVlBudget) {
  // The full 12x8 with LMC=2: the paper observes 5-8 VLs; our layering
  // must fit the 8-VL QDR budget.
  const HyperX hx(topo::paper_hyperx_params());
  const LidSpace lids = make_parx_lid_space(hx);
  ParxEngine engine(hx);
  const RouteResult route = engine.compute(hx.topo(), lids);
  EXPECT_LE(route.num_vls_used, 8);
  EXPECT_GE(route.num_vls_used, 2);
  EXPECT_EQ(route.unreachable_entries, 0);
}


// --- demand file I/O -----------------------------------------------------------

TEST(DemandIo, RoundTripsThroughText) {
  DemandMatrix m(4);
  m.set(0, 1, 255);
  m.set(2, 3, 1);
  m.set(3, 0, 77);
  std::stringstream buffer;
  write_demands(buffer, m);
  const DemandMatrix back = read_demands(buffer);
  ASSERT_EQ(back.num_nodes(), 4);
  for (NodeId s = 0; s < 4; ++s)
    for (NodeId d = 0; d < 4; ++d) EXPECT_EQ(back.at(s, d), m.at(s, d));
}

TEST(DemandIo, IgnoresCommentsAndBlankLines) {
  std::stringstream in("# header\n\n  3\n# entry\n0 2 10\n");
  const DemandMatrix m = read_demands(in);
  EXPECT_EQ(m.num_nodes(), 3);
  EXPECT_EQ(m.at(0, 2), 10);
}

TEST(DemandIo, RejectsMalformedInput) {
  {
    std::stringstream in("2\n0 5 10\n");  // dst out of range
    EXPECT_THROW((void)read_demands(in), std::invalid_argument);
  }
  {
    std::stringstream in("2\n0 1 0\n");  // zero demand is never written
    EXPECT_THROW((void)read_demands(in), std::invalid_argument);
  }
  {
    std::stringstream in("2\n0 1 300\n");  // demand > 255
    EXPECT_THROW((void)read_demands(in), std::invalid_argument);
  }
  {
    std::stringstream in("0 1 3\n");  // missing header: '0 1 3' parses as
                                       // count 0 with trailing junk
    EXPECT_THROW((void)read_demands(in), std::invalid_argument);
  }
  {
    std::stringstream in("2\n0 1\n");  // incomplete triple
    EXPECT_THROW((void)read_demands(in), std::invalid_argument);
  }
}

TEST(DemandIo, FileRoundTrip) {
  DemandMatrix m(3);
  m.set(1, 2, 128);
  const std::string path = ::testing::TempDir() + "/hxsim_demands.txt";
  write_demands_file(path, m);
  const DemandMatrix back = read_demands_file(path);
  EXPECT_EQ(back.at(1, 2), 128);
  std::remove(path.c_str());
  EXPECT_THROW((void)read_demands_file("/nonexistent/demands"),
               std::runtime_error);
}

TEST(DemandIo, FeedsParxEndToEnd) {
  // Profile -> file -> PARX: the paper's full toolchain shape.
  const HyperX hx(topo::small_hyperx_params());
  DemandMatrix demands(hx.topo().num_terminals());
  demands.set(0, 8, 200);
  std::stringstream buffer;
  write_demands(buffer, demands);
  ParxEngine engine(hx, read_demands(buffer));
  const LidSpace lids = make_parx_lid_space(hx);
  const RouteResult route = engine.compute(hx.topo(), lids);
  EXPECT_EQ(route.unreachable_entries, 0);
}
}  // namespace
}  // namespace hxsim::core
