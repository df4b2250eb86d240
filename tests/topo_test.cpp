// Unit tests for the topology library: graph invariants, the fat-tree and
// HyperX builders (checked against the paper's published counts), fault
// injection and bisection analysis.
#include <gtest/gtest.h>

#include <set>

#include "topo/bisection.hpp"
#include "topo/dragonfly.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"
#include "topo/topology.hpp"

namespace hxsim::topo {
namespace {

TEST(Topology, ChannelsComeInReversiblePairs) {
  Topology t("pair");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const auto [ab, ba] = t.connect(a, b);
  EXPECT_EQ(t.channel(ab).reverse, ba);
  EXPECT_EQ(t.channel(ba).reverse, ab);
  EXPECT_EQ(t.channel(ab).src.index, a);
  EXPECT_EQ(t.channel(ab).dst.index, b);
}

TEST(Topology, TerminalAttachment) {
  Topology t("term");
  const SwitchId s = t.add_switch();
  const NodeId n = t.add_terminal(s);
  EXPECT_EQ(t.attach_switch(n), s);
  EXPECT_EQ(t.channel(t.terminal_up(n)).dst.index, s);
  EXPECT_EQ(t.channel(t.terminal_down(n)).src.index, s);
  ASSERT_EQ(t.switch_terminals(s).size(), 1u);
  EXPECT_EQ(t.switch_terminals(s)[0], n);
}

TEST(Topology, DisableLinkAffectsBothDirections) {
  Topology t("disable");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const auto [ab, ba] = t.connect(a, b);
  t.disable_link(ab);
  EXPECT_FALSE(t.channel(ab).enabled);
  EXPECT_FALSE(t.channel(ba).enabled);
  t.enable_link(ba);
  EXPECT_TRUE(t.channel(ab).enabled);
}

TEST(Topology, ConnectivityDetection) {
  Topology t("conn");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const SwitchId c = t.add_switch();
  const auto [ab, unused1] = t.connect(a, b);
  const auto [bc, unused2] = t.connect(b, c);
  (void)unused1;
  (void)unused2;
  EXPECT_TRUE(t.switches_connected());
  t.disable_link(bc);
  EXPECT_FALSE(t.switches_connected());
  t.enable_link(bc);
  t.disable_link(ab);
  EXPECT_FALSE(t.switches_connected());
}

TEST(Topology, SelfLoopAndBadIdsRejected) {
  Topology t("bad");
  const SwitchId a = t.add_switch();
  EXPECT_THROW(t.connect(a, a), std::invalid_argument);
  EXPECT_THROW(t.connect(a, 99), std::out_of_range);
  EXPECT_THROW(t.add_terminal(99), std::out_of_range);
}

TEST(Topology, DotOutputMentionsEveryCableOnce) {
  Topology t("dot");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  t.connect(a, b);
  t.add_terminal(a);
  const std::string dot = t.to_dot();
  EXPECT_NE(dot.find("s0 -- s1"), std::string::npos);
  EXPECT_NE(dot.find("t0"), std::string::npos);
}

// --- fat-tree ---------------------------------------------------------------

TEST(FatTree, SmallTreeCounts) {
  // Figure 2a: 4-ary 2-tree, 16 nodes, 2 x 4 switches, 16 inter-switch
  // cables (every leaf to every root).
  const FatTree ft(small_fat_tree_params());
  EXPECT_EQ(ft.topo().num_terminals(), 16);
  EXPECT_EQ(ft.topo().num_switches(), 8);
  EXPECT_EQ(ft.topo().num_switch_links(), 16);
}

TEST(FatTree, PaperTreeCounts) {
  const FatTree ft(paper_fat_tree_params());
  EXPECT_EQ(ft.topo().num_terminals(), 672);  // 48 leaves x 14 nodes
  EXPECT_EQ(ft.topo().num_switches(), 3 * 324);
  // Two inter-level stages of 324 x 18 cables each.
  EXPECT_EQ(ft.topo().num_switch_links(), 2LL * 324 * 18);
  EXPECT_TRUE(ft.topo().switches_connected());
}

TEST(FatTree, LevelAndWordRoundTrip) {
  const FatTree ft(small_fat_tree_params());
  for (SwitchId sw = 0; sw < ft.topo().num_switches(); ++sw) {
    EXPECT_EQ(ft.switch_id(ft.level_of(sw), ft.word_of(sw)), sw);
  }
}

TEST(FatTree, DigitManipulation) {
  FatTreeParams p;
  p.arity = 3;
  p.levels = 3;
  p.leaf_terminals = 3;
  const FatTree ft(p);
  // word 7 in base 3 = (1, 2): digit 0 = 1, digit 1 = 2.
  EXPECT_EQ(ft.digit(7, 0), 1);
  EXPECT_EQ(ft.digit(7, 1), 2);
  EXPECT_EQ(ft.with_digit(7, 0, 0), 6);
  EXPECT_EQ(ft.with_digit(7, 1, 0), 1);
}

TEST(FatTree, UpDownChannelsAreConsistent) {
  const FatTree ft(small_fat_tree_params());
  const std::int32_t k = ft.arity();
  for (SwitchId sw = 0; sw < ft.topo().num_switches(); ++sw) {
    const std::int32_t level = ft.level_of(sw);
    if (level < ft.levels() - 1) {
      std::set<SwitchId> parents;
      for (std::int32_t v = 0; v < k; ++v) {
        const ChannelId up = ft.up_channel(sw, v);
        ASSERT_NE(up, kInvalidChannel);
        const Channel& c = ft.topo().channel(up);
        EXPECT_EQ(c.src.index, sw);
        EXPECT_EQ(ft.level_of(c.dst.index), level + 1);
        // The up-port index is the parent's digit at this level.
        EXPECT_EQ(ft.digit(ft.word_of(c.dst.index), level), v);
        parents.insert(c.dst.index);
      }
      EXPECT_EQ(parents.size(), static_cast<std::size_t>(k));
    }
    if (level > 0) {
      for (std::int32_t v = 0; v < k; ++v) {
        const ChannelId down = ft.down_channel(sw, v);
        ASSERT_NE(down, kInvalidChannel);
        const Channel& c = ft.topo().channel(down);
        EXPECT_EQ(ft.level_of(c.dst.index), level - 1);
        EXPECT_EQ(ft.digit(ft.word_of(c.dst.index), level - 1), v);
      }
    }
  }
}

TEST(FatTree, SubtreeMembership) {
  const FatTree ft(small_fat_tree_params());
  // A leaf contains exactly its own terminals.
  const NodeId n0 = 0;
  const SwitchId leaf = ft.leaf_of(n0);
  EXPECT_TRUE(ft.in_subtree(leaf, n0));
  const SwitchId other_leaf = ft.switch_id(0, (ft.word_of(leaf) + 1) % 4);
  EXPECT_FALSE(ft.in_subtree(other_leaf, n0));
  // Every root contains every terminal.
  for (std::int32_t w = 0; w < ft.switches_per_level(); ++w)
    EXPECT_TRUE(ft.in_subtree(ft.switch_id(ft.levels() - 1, w), n0));
}


TEST(FatTree, TaperRemovesLeafUplinks) {
  FatTreeParams p = small_fat_tree_params();  // 4-ary 2-tree
  p.taper = 2;
  const FatTree ft(p);
  // Each of the 4 leaves keeps 2 of 4 uplinks: 8 cables instead of 16.
  EXPECT_EQ(ft.topo().num_switch_links(), 8);
  for (SwitchId leaf = 0; leaf < 4; ++leaf) {
    EXPECT_NE(ft.up_channel(leaf, 0), kInvalidChannel);
    EXPECT_NE(ft.up_channel(leaf, 1), kInvalidChannel);
    EXPECT_EQ(ft.up_channel(leaf, 2), kInvalidChannel);
    EXPECT_EQ(ft.up_channel(leaf, 3), kInvalidChannel);
  }
}

TEST(FatTree, TaperMustDivideArity) {
  FatTreeParams p = small_fat_tree_params();
  p.taper = 3;  // does not divide 4
  EXPECT_THROW(FatTree{p}, std::invalid_argument);
}

TEST(FatTree, RejectsBadParameters) {
  FatTreeParams p;
  p.arity = 1;
  EXPECT_THROW(FatTree{p}, std::invalid_argument);
  p = small_fat_tree_params();
  p.leaf_terminals = 5;  // > arity
  EXPECT_THROW(FatTree{p}, std::invalid_argument);
  p = small_fat_tree_params();
  p.populated_leaves = 5;  // > leaves
  EXPECT_THROW(FatTree{p}, std::invalid_argument);
}

// --- HyperX -----------------------------------------------------------------

TEST(HyperX, SmallCounts) {
  // Figure 2b: 4x4, 2 nodes per switch.
  const HyperX hx(small_hyperx_params());
  EXPECT_EQ(hx.topo().num_switches(), 16);
  EXPECT_EQ(hx.topo().num_terminals(), 32);
  // Per dimension: 4 rows x C(4,2) = 24 cables; two dimensions.
  EXPECT_EQ(hx.topo().num_switch_links(), 48);
}

TEST(HyperX, PaperCounts) {
  const HyperX hx(paper_hyperx_params());
  EXPECT_EQ(hx.topo().num_switches(), 96);
  EXPECT_EQ(hx.topo().num_terminals(), 672);
  // 8 x C(12,2) + 12 x C(8,2) = 528 + 336.
  EXPECT_EQ(hx.topo().num_switch_links(), 864);
  EXPECT_TRUE(hx.topo().switches_connected());
}

TEST(HyperX, CoordinateRoundTrip) {
  const HyperX hx(paper_hyperx_params());
  for (SwitchId sw = 0; sw < hx.topo().num_switches(); ++sw) {
    const std::int32_t c[2] = {hx.coord(sw, 0), hx.coord(sw, 1)};
    EXPECT_EQ(hx.switch_at(c), sw);
  }
}

TEST(HyperX, DimChannelsReachTheRightPeers) {
  const HyperX hx(small_hyperx_params());
  for (SwitchId sw = 0; sw < hx.topo().num_switches(); ++sw) {
    for (std::int32_t d = 0; d < hx.num_dims(); ++d) {
      for (std::int32_t v = 0; v < hx.dim_size(d); ++v) {
        const ChannelId ch = hx.dim_channel(sw, d, v);
        if (v == hx.coord(sw, d)) {
          EXPECT_EQ(ch, kInvalidChannel);
          continue;
        }
        ASSERT_NE(ch, kInvalidChannel);
        const Channel& c = hx.topo().channel(ch);
        EXPECT_EQ(c.src.index, sw);
        EXPECT_EQ(hx.coord(c.dst.index, d), v);
        const std::int32_t other = 1 - d;
        EXPECT_EQ(hx.coord(c.dst.index, other), hx.coord(sw, other));
      }
    }
  }
}

TEST(HyperX, EverySwitchPairDiffersInOneDimIsCabled) {
  const HyperX hx(small_hyperx_params());
  for (SwitchId a = 0; a < hx.topo().num_switches(); ++a) {
    const auto neighbors = hx.topo().switch_neighbors(a);
    // 4x4: 3 peers per dimension.
    EXPECT_EQ(neighbors.size(), 6u);
  }
}

TEST(HyperX, PaperBisectionIs57Percent) {
  const HyperX hx(paper_hyperx_params());
  EXPECT_NEAR(hx.bisection_ratio(), 4.0 / 7.0, 1e-12);
}

TEST(HyperX, SmallBisection) {
  // 4x4 with T=2: cut 2*2*4 = 16 links over 16 terminals in a half -> 1.0.
  const HyperX hx(small_hyperx_params());
  EXPECT_NEAR(hx.bisection_ratio(), 1.0, 1e-12);
}

TEST(HyperX, RejectsBadParameters) {
  HyperXParams p;
  p.dims = {};
  EXPECT_THROW(HyperX{p}, std::invalid_argument);
  p.dims = {1, 4};
  EXPECT_THROW(HyperX{p}, std::invalid_argument);
  p.dims = {4, 4};
  p.terminals_per_switch = -1;
  EXPECT_THROW(HyperX{p}, std::invalid_argument);
}


// --- Dragonfly ---------------------------------------------------------------

TEST(Dragonfly, PaperMatchedCounts) {
  const Dragonfly df(paper_matched_dragonfly_params());
  EXPECT_EQ(df.topo().num_switches(), 96);   // same as the 12x8 HyperX
  EXPECT_EQ(df.topo().num_terminals(), 672); // same node count
  // Local: 12 groups x C(8,2) = 336; global: 12 x 16 / 2 = 96.
  EXPECT_EQ(df.topo().num_switch_links(), 336 + 96);
  EXPECT_TRUE(df.topo().switches_connected());
}

TEST(Dragonfly, EveryGroupPairIsConnected) {
  const Dragonfly df(paper_matched_dragonfly_params());
  for (std::int32_t a = 0; a < df.num_groups(); ++a)
    for (std::int32_t b = 0; b < df.num_groups(); ++b) {
      if (a == b) continue;
      EXPECT_GE(df.global_links_between(a, b), 1) << a << "," << b;
    }
}

TEST(Dragonfly, BalancedCaseHasExactlyOneLinkPerPair) {
  // g == a*h + 1: one global link per group pair.
  DragonflyParams p;
  p.terminals_per_switch = 1;
  p.switches_per_group = 4;
  p.global_ports = 1;
  p.groups = 5;
  const Dragonfly df(p);
  for (std::int32_t a = 0; a < 5; ++a)
    for (std::int32_t b = 0; b < 5; ++b) {
      if (a != b) {
        EXPECT_EQ(df.global_links_between(a, b), 1);
      }
    }
  // Local 5 x C(4,2) = 30 + global C(5,2) = 10.
  EXPECT_EQ(df.topo().num_switch_links(), 40);
}

TEST(Dragonfly, GlobalPortBudgetRespected) {
  const Dragonfly df(paper_matched_dragonfly_params());
  const auto& p = df.params();
  // Per switch: p terminals + (a-1) local + at most h global channels.
  for (SwitchId sw = 0; sw < df.topo().num_switches(); ++sw) {
    std::int32_t global = 0;
    for (ChannelId ch : df.topo().switch_out(sw)) {
      const Channel& c = df.topo().channel(ch);
      if (!c.dst.is_switch()) continue;
      if (df.group_of(c.dst.index) != df.group_of(sw)) ++global;
    }
    EXPECT_LE(global, p.global_ports + 1);  // +1: uneven tail slots
  }
}

TEST(Dragonfly, GroupHelpers) {
  const Dragonfly df(paper_matched_dragonfly_params());
  EXPECT_EQ(df.group_of(0), 0);
  EXPECT_EQ(df.group_of(8), 1);
  EXPECT_EQ(df.switch_in_group(3, 2), 26);
}

TEST(Dragonfly, RejectsUnreachableGroupCounts) {
  DragonflyParams p;
  p.switches_per_group = 2;
  p.global_ports = 1;
  p.groups = 9;  // > a*h + 1 = 3
  EXPECT_THROW(Dragonfly{p}, std::invalid_argument);
}

// --- fault injection --------------------------------------------------------

TEST(FaultInjector, DisablesRequestedCount) {
  HyperX hx(paper_hyperx_params());
  const auto before = hx.topo().num_switch_links();
  const FaultReport report =
      inject_link_faults(hx.topo(), kPaperHyperXMissingLinks, 42);
  EXPECT_EQ(static_cast<std::int32_t>(report.disabled_links.size()),
            kPaperHyperXMissingLinks);
  EXPECT_EQ(hx.topo().num_switch_links(), before - kPaperHyperXMissingLinks);
  EXPECT_TRUE(hx.topo().switches_connected());
}

TEST(FaultInjector, DeterministicForSeed) {
  HyperX a(small_hyperx_params());
  HyperX b(small_hyperx_params());
  const auto ra = inject_link_faults(a.topo(), 5, 7);
  const auto rb = inject_link_faults(b.topo(), 5, 7);
  EXPECT_EQ(ra.disabled_links, rb.disabled_links);
}

TEST(FaultInjector, KeepsConnectivityEvenWhenAggressive) {
  // A 2x2 HyperX has 4 cables; removing 3 could disconnect -- the injector
  // must refuse the cuts that would.
  HyperXParams p;
  p.dims = {2, 2};
  p.terminals_per_switch = 1;
  HyperX hx(p);
  inject_link_faults(hx.topo(), 3, 1);
  EXPECT_TRUE(hx.topo().switches_connected());
}

TEST(FaultInjector, ZeroCountIsNoop) {
  HyperX hx(small_hyperx_params());
  const auto report = inject_link_faults(hx.topo(), 0, 1);
  EXPECT_TRUE(report.disabled_links.empty());
  EXPECT_EQ(hx.topo().num_switch_links(), 48);
}

// --- bisection --------------------------------------------------------------

TEST(Bisection, CutLinksCountsCrossingCables) {
  Topology t("cut");
  const SwitchId a = t.add_switch();
  const SwitchId b = t.add_switch();
  const SwitchId c = t.add_switch();
  t.connect(a, b);
  t.connect(b, c);
  t.connect(a, c);
  const std::int8_t side[3] = {0, 0, 1};
  EXPECT_EQ(cut_links(t, side), 2);
}

TEST(Bisection, ExactMatchesAnalyticOnSmallHyperX) {
  // 2x4 HyperX with T=1: dim-1 bisector cuts 2*2*2 = 8?  dims {2,4}:
  // cutting dim 1 (size 4) into 2+2: 2 columns... verified against the
  // brute force below.
  HyperXParams p;
  p.dims = {2, 4};
  p.terminals_per_switch = 1;
  const HyperX hx(p);
  const std::int64_t exact = exact_bisection_links(hx.topo());
  // Analytic candidates: cut dim0: 1*1*4 = 4; cut dim1: 2*2*2 = 8.
  EXPECT_EQ(exact, 4);
}

TEST(Bisection, ExactOnSmallFatTreeIsHalfTheUplinks) {
  // 2-ary 2-tree: 2 leaves, 2 roots, 4 cables; balanced min cut = 2.
  FatTreeParams p;
  p.arity = 2;
  p.levels = 2;
  p.leaf_terminals = 2;
  const FatTree ft(p);
  EXPECT_EQ(exact_bisection_links(ft.topo()), 2);
}

TEST(Bisection, TerminalRatio) {
  HyperXParams p;
  p.dims = {2, 2};
  p.terminals_per_switch = 2;
  const HyperX hx(p);
  // Split by dim 0: cut = 1*1*2 = 2 cables; half terminals = 4 -> 0.5.
  std::vector<std::int8_t> side(4);
  for (SwitchId sw = 0; sw < 4; ++sw)
    side[static_cast<std::size_t>(sw)] =
        static_cast<std::int8_t>(hx.coord(sw, 0));
  EXPECT_DOUBLE_EQ(terminal_bisection_ratio(hx.topo(), side), 0.5);
}

TEST(Bisection, TooLargeForExactThrows) {
  const HyperX hx(paper_hyperx_params());
  EXPECT_THROW((void)exact_bisection_links(hx.topo()), std::invalid_argument);
}

}  // namespace
}  // namespace hxsim::topo
