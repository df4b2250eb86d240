// Tests for the MPI layer: placements, collective-schedule correctness
// (verified by knowledge propagation), the Table-1 LID selection in the
// cluster, transport timing, and communication profiles.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "core/lid_choice.hpp"
#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "exec/exec.hpp"
#include "mpi/cluster.hpp"
#include "mpi/collectives.hpp"
#include "mpi/placement.hpp"
#include "routing/dfsssp.hpp"
#include "routing/sssp.hpp"
#include "topo/hyperx.hpp"
#include "workloads/paper_system.hpp"

namespace hxsim::mpi {
namespace {

namespace col = collectives;
using topo::HyperX;
using topo::NodeId;

// --- placements ----------------------------------------------------------------

TEST(Placement, LinearIsIdentityOnThePool) {
  const auto pool = Placement::whole_machine(10);
  const Placement p = Placement::linear(5, pool);
  for (std::int32_t r = 0; r < 5; ++r) EXPECT_EQ(p.node_of(r), r);
}

TEST(Placement, AllKindsProduceDistinctNodes) {
  const auto pool = Placement::whole_machine(64);
  stats::Rng rng(3);
  for (const auto kind : {PlacementKind::kLinear, PlacementKind::kClustered,
                          PlacementKind::kRandom}) {
    const Placement p = Placement::make(kind, 48, pool, rng);
    std::set<NodeId> nodes(p.nodes().begin(), p.nodes().end());
    EXPECT_EQ(nodes.size(), 48u) << to_string(kind);
    for (NodeId n : nodes) {
      EXPECT_GE(n, 0);
      EXPECT_LT(n, 64);
    }
  }
}

TEST(Placement, ClusteredStridesAreMostlySmall) {
  // With p = 0.8 the expected stride is 1.25, so consecutive-node pairs
  // dominate (this is what makes the allocation "clustered").
  const auto pool = Placement::whole_machine(1000);
  stats::Rng rng(1);
  const Placement p = Placement::clustered(500, pool, rng);
  std::int32_t adjacent = 0;
  for (std::int32_t r = 1; r < 500; ++r)
    adjacent += (p.node_of(r) - p.node_of(r - 1) == 1);
  EXPECT_GT(adjacent, 300);
}

TEST(Placement, RandomDiffersFromLinearAndIsSeeded) {
  const auto pool = Placement::whole_machine(64);
  stats::Rng rng1(7), rng2(7), rng3(8);
  const Placement a = Placement::random(32, pool, rng1);
  const Placement b = Placement::random(32, pool, rng2);
  const Placement c = Placement::random(32, pool, rng3);
  EXPECT_TRUE(std::equal(a.nodes().begin(), a.nodes().end(),
                         b.nodes().begin()));
  EXPECT_FALSE(std::equal(a.nodes().begin(), a.nodes().end(),
                          c.nodes().begin()));
}

TEST(Placement, RejectsOversizedJobs) {
  const auto pool = Placement::whole_machine(4);
  stats::Rng rng(0);
  EXPECT_THROW((void)Placement::linear(5, pool), std::invalid_argument);
  EXPECT_THROW((void)Placement::random(5, pool, rng), std::invalid_argument);
}

// --- collective correctness by knowledge propagation ----------------------------

/// Simulates "who holds whose data" through a schedule: a message s -> d
/// merges s's knowledge (as of the round start) into d.
std::vector<std::set<std::int32_t>> propagate(const Schedule& schedule,
                                              std::int32_t n) {
  std::vector<std::set<std::int32_t>> know(static_cast<std::size_t>(n));
  for (std::int32_t r = 0; r < n; ++r)
    know[static_cast<std::size_t>(r)].insert(r);
  for (const Round& round : schedule) {
    const auto snapshot = know;
    for (const RankMsg& m : round) {
      const auto& src = snapshot[static_cast<std::size_t>(m.src_rank)];
      know[static_cast<std::size_t>(m.dst_rank)].insert(src.begin(),
                                                        src.end());
    }
  }
  return know;
}

class CollectiveSizes : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(CollectiveSizes, BcastReachesEveryRank) {
  const std::int32_t n = GetParam();
  const auto know = propagate(col::bcast_binomial(n, 8), n);
  for (std::int32_t r = 0; r < n; ++r)
    EXPECT_TRUE(know[static_cast<std::size_t>(r)].contains(0)) << r;
}

TEST_P(CollectiveSizes, BcastFromNonZeroRoot) {
  const std::int32_t n = GetParam();
  const std::int32_t root = n / 2;
  const auto know = propagate(col::bcast_binomial(n, 8, root), n);
  for (std::int32_t r = 0; r < n; ++r)
    EXPECT_TRUE(know[static_cast<std::size_t>(r)].contains(root));
}

TEST_P(CollectiveSizes, ReduceGathersEverythingAtRoot) {
  const std::int32_t n = GetParam();
  const auto know = propagate(col::reduce_binomial(n, 8), n);
  EXPECT_EQ(know[0].size(), static_cast<std::size_t>(n));
}

TEST_P(CollectiveSizes, GatherBinomialCollectsAllBlocks) {
  const std::int32_t n = GetParam();
  const auto know = propagate(col::gather_binomial(n, 8), n);
  EXPECT_EQ(know[0].size(), static_cast<std::size_t>(n));
  // Total bytes must equal every non-root block travelling to the root
  // through log-depth aggregation: sum over edges == sum of subtree sizes.
  std::int64_t total = 0;
  for (const Round& round : col::gather_binomial(n, 8))
    for (const RankMsg& m : round) total += m.bytes;
  EXPECT_GE(total, 8LL * (n - 1));
}

TEST_P(CollectiveSizes, AllreduceRecursiveDoublingIsComplete) {
  const std::int32_t n = GetParam();
  const auto know = propagate(col::allreduce_recursive_doubling(n, 8), n);
  for (std::int32_t r = 0; r < n; ++r)
    EXPECT_EQ(know[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(n))
        << "rank " << r;
}

TEST_P(CollectiveSizes, AllreduceRingIsComplete) {
  const std::int32_t n = GetParam();
  const auto know = propagate(col::allreduce_ring(n, 1024), n);
  for (std::int32_t r = 0; r < n; ++r)
    EXPECT_EQ(know[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(n));
}

TEST_P(CollectiveSizes, AllgatherRingIsComplete) {
  // The allgather half of allreduce_ring must complete on its own: the
  // reduce-scatter half already spreads every rank's knowledge, so
  // AllreduceRingIsComplete cannot tell.
  const std::int32_t n = GetParam();
  const Schedule ring = col::allreduce_ring(n, 1024);
  const Schedule allgather(ring.begin() + static_cast<std::ptrdiff_t>(
                                              ring.size() / 2),
                           ring.end());
  const auto know = propagate(allgather, n);
  for (std::int32_t r = 0; r < n; ++r)
    EXPECT_EQ(know[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(n));
}

TEST_P(CollectiveSizes, AlltoallSendsEveryPairDirectly) {
  const std::int32_t n = GetParam();
  std::set<std::pair<std::int32_t, std::int32_t>> pairs;
  for (const Round& round : col::alltoall_pairwise(n, 8))
    for (const RankMsg& m : round) {
      EXPECT_TRUE(pairs.insert({m.src_rank, m.dst_rank}).second)
          << "duplicate pair";
      EXPECT_EQ(m.bytes, 8);
    }
  EXPECT_EQ(pairs.size(), static_cast<std::size_t>(n) * (n - 1));
}

TEST_P(CollectiveSizes, ScatterDeliversToEveryRank) {
  const std::int32_t n = GetParam();
  const auto know = propagate(col::scatter_binomial(n, 8), n);
  for (std::int32_t r = 1; r < n; ++r)
    EXPECT_TRUE(know[static_cast<std::size_t>(r)].contains(0));
  // Root never receives anything in a scatter.
  for (const Round& round : col::scatter_binomial(n, 8))
    for (const RankMsg& m : round) EXPECT_NE(m.dst_rank, 0);
}

TEST_P(CollectiveSizes, BarrierSynchronisesAllRanks) {
  // Dissemination property: after ceil(log2 n) rounds every rank has
  // (transitively) heard from every other rank.
  const std::int32_t n = GetParam();
  const auto know = propagate(col::barrier_dissemination(n), n);
  for (std::int32_t r = 0; r < n; ++r)
    EXPECT_EQ(know[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(n));
}

TEST_P(CollectiveSizes, RoundCountsAreLogarithmic) {
  const std::int32_t n = GetParam();
  auto ceil_log2 = [](std::int32_t v) {
    std::int32_t k = 0;
    while ((1 << k) < v) ++k;
    return k;
  };
  EXPECT_EQ(static_cast<std::int32_t>(col::barrier_dissemination(n).size()),
            ceil_log2(n));
  EXPECT_EQ(static_cast<std::int32_t>(col::bcast_binomial(n, 8).size()),
            ceil_log2(n));
  if (n > 1) {
    EXPECT_EQ(static_cast<std::int32_t>(col::allreduce_ring(n, 8).size()),
              2 * (n - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 28,
                                           31, 32, 56),
                         ::testing::PrintToStringParamName());

TEST(Collectives, MultiPingPongPairsUp) {
  const Schedule s = col::multi_pingpong(8, 64, 1);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].size(), 4u);
  for (const RankMsg& m : s[0]) EXPECT_EQ(m.dst_rank, m.src_rank + 4);
  for (const RankMsg& m : s[1]) EXPECT_EQ(m.src_rank, m.dst_rank + 4);
}

TEST(Collectives, RejectsNonPositiveRankCounts) {
  EXPECT_THROW((void)col::bcast_binomial(0, 8), std::invalid_argument);
  EXPECT_THROW((void)col::alltoall_pairwise(-1, 8), std::invalid_argument);
}

// --- cluster / transport ---------------------------------------------------------

/// DFSSSP-routed HyperX cluster (ob1, LMC 0).
Cluster make_dfsssp_cluster(const HyperX& hx) {
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  routing::RouteResult route = engine.compute(hx.topo(), lids);
  return Cluster(hx.topo(), std::move(lids), std::move(route), make_ob1());
}

/// PARX-routed HyperX cluster (bfo, LMC 2, quadrant policy).
Cluster make_parx_cluster(const HyperX& hx) {
  routing::LidSpace lids = core::make_parx_lid_space(hx);
  core::ParxEngine engine(hx);
  routing::RouteResult route = engine.compute(hx.topo(), lids);
  return Cluster(hx.topo(), std::move(lids), std::move(route), make_bfo());
}

TEST(Cluster, Ob1AlwaysUsesBaseLid) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  stats::Rng rng(1);
  for (NodeId src = 0; src < 8; ++src)
    for (NodeId dst = 8; dst < 16; ++dst) {
      EXPECT_EQ(cluster.select_dlid(src, dst, 64, rng),
                cluster.lids().base_lid(dst));
      EXPECT_EQ(cluster.select_dlid(src, dst, 1 << 20, rng),
                cluster.lids().base_lid(dst));
    }
}

TEST(Cluster, ParxSelectionFollowsTable1) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_parx_cluster(hx);
  stats::Rng rng(1);
  for (NodeId src = 0; src < hx.topo().num_terminals(); ++src) {
    for (NodeId dst = 0; dst < hx.topo().num_terminals(); ++dst) {
      if (src == dst) continue;
      const std::int32_t sq = core::quadrant_of_node(hx, src);
      const std::int32_t dq = core::quadrant_of_node(hx, dst);
      for (const std::int64_t bytes : {64LL, 1LL << 20}) {
        const routing::Lid lid = cluster.select_dlid(src, dst, bytes, rng);
        ASSERT_NE(lid, routing::kInvalidLid);
        const auto owner = cluster.lids().owner(lid);
        EXPECT_EQ(owner.node, dst);
        const core::LidChoice choice = core::parx_lid_options(
            sq, dq, core::classify_message(bytes));
        EXPECT_TRUE(choice.contains(static_cast<std::int8_t>(owner.index)))
            << "src Q" << sq << " dst Q" << dq << " bytes " << bytes;
      }
    }
  }
}

TEST(Cluster, RouteMessageSelfSendHasEmptyPath) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  stats::Rng rng(1);
  const auto msg = cluster.route_message(3, 3, 100, rng);
  ASSERT_TRUE(msg.has_value());
  EXPECT_TRUE(msg->path.empty());
}

TEST(Cluster, RoutedPathsEndAtTheDestination) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_parx_cluster(hx);
  stats::Rng rng(9);
  for (NodeId src = 0; src < 16; ++src) {
    for (NodeId dst = 16; dst < 32; ++dst) {
      const auto msg = cluster.route_message(src, dst, 4096, rng);
      ASSERT_TRUE(msg.has_value());
      ASSERT_FALSE(msg->path.empty());
      const topo::Channel& last = hx.topo().channel(msg->path.back());
      EXPECT_TRUE(last.dst.is_terminal());
      EXPECT_EQ(last.dst.index, dst);
      EXPECT_LT(msg->vl, cluster.route().num_vls_used);
    }
  }
}

TEST(Transport, PingPongTimeMatchesModel) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  // Ranks 0 and 1 are both on switch 0 (2 terminals per switch): the path
  // is up + down = 2 channels, no switch hop.
  Transport transport(cluster,
                      Placement::linear(2, Placement::whole_machine(2)), 1);
  const std::int64_t bytes = 1024;
  const double t =
      transport.execute({{RankMsg{0, 1, bytes}}, {RankMsg{1, 0, bytes}}});
  const PmlConfig& pml = cluster.pml();
  const double per_leg =
      pml.per_message_overhead + bytes * pml.per_byte_overhead +
      2.0 * cluster.link().hop_latency +
      static_cast<double>(bytes) / cluster.link().bandwidth;
  EXPECT_NEAR(t, 2.0 * per_leg, 1e-12);
}

TEST(Transport, MoreRanksSlowBarrierDown) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const auto pool = Placement::whole_machine(32);
  Transport t8(cluster, Placement::linear(8, pool), 1);
  Transport t32(cluster, Placement::linear(32, pool), 1);
  EXPECT_LT(t8.execute(col::barrier_dissemination(8)),
            t32.execute(col::barrier_dissemination(32)));
}

TEST(Transport, BfoIsSlowerThanOb1OnBarrier) {
  // The paper's 2.8x-6.9x PARX/bfo Barrier regression (Figure 5b).
  const HyperX hx(topo::small_hyperx_params());
  const Cluster ob1 = make_dfsssp_cluster(hx);
  const Cluster bfo = make_parx_cluster(hx);
  const auto pool = Placement::whole_machine(32);
  Transport t_ob1(ob1, Placement::linear(16, pool), 1);
  Transport t_bfo(bfo, Placement::linear(16, pool), 1);
  const double a = t_ob1.execute(col::barrier_dissemination(16));
  const double b = t_bfo.execute(col::barrier_dissemination(16));
  EXPECT_GT(b / a, 2.0);
  EXPECT_LT(b / a, 7.0);
}

TEST(Transport, ExecuteRoundsSumsToExecute) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  Transport transport(cluster,
                      Placement::linear(16, Placement::whole_machine(16)), 1);
  const Schedule s = col::allreduce_recursive_doubling(16, 4096);
  const auto rounds = transport.execute_rounds(s);
  EXPECT_EQ(rounds.size(), s.size());
  double sum = 0.0;
  for (double r : rounds) sum += r;
  Transport transport2(cluster,
                       Placement::linear(16, Placement::whole_machine(16)), 1);
  EXPECT_NEAR(transport2.execute(s), sum, 1e-12);
}


TEST(Transport, LinearGatherIncastSerialisesOnTheRootLink) {
  // n-1 concurrent senders share the root's single ejection channel: the
  // round takes ~(n-1) x bytes / C.
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const std::int32_t n = 16;
  Transport transport(cluster,
                      Placement::linear(n, Placement::whole_machine(32)), 1);
  const std::int64_t bytes = 1 << 20;
  Round incast;
  for (std::int32_t r = 1; r < n; ++r) incast.push_back(RankMsg{r, 0, bytes});
  const double t = transport.execute({incast});
  const double serialized =
      static_cast<double>(n - 1) * static_cast<double>(bytes) /
      cluster.link().bandwidth;
  EXPECT_GT(t, 0.9 * serialized);
  EXPECT_LT(t, 1.5 * serialized);
}

TEST(Cluster, ParxThresholdBoundaryAt512Bytes) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_parx_cluster(hx);
  stats::Rng rng(2);
  // Pick an intra-quadrant pair on different switches: small uses {1,3},
  // large uses {0,2} (row Q0 of Table 1) -- disjoint sets, so the chosen
  // LID index reveals the classification.
  const NodeId src = 0;
  NodeId dst = topo::kInvalidNode;
  for (NodeId cand = 0; cand < hx.topo().num_terminals(); ++cand) {
    if (core::quadrant_of_node(hx, cand) == core::quadrant_of_node(hx, src) &&
        hx.topo().attach_switch(cand) != hx.topo().attach_switch(src)) {
      dst = cand;
      break;
    }
  }
  ASSERT_NE(dst, topo::kInvalidNode);
  const std::int32_t q = core::quadrant_of_node(hx, src);
  for (int trial = 0; trial < 20; ++trial) {
    const auto at_threshold = cluster.select_dlid(src, dst, 512, rng);
    const auto above = cluster.select_dlid(src, dst, 513, rng);
    const auto small_x = cluster.lids().owner(at_threshold).index;
    const auto large_x = cluster.lids().owner(above).index;
    EXPECT_TRUE(core::parx_lid_options(q, q, core::MsgClass::kSmall)
                    .contains(static_cast<std::int8_t>(small_x)));
    EXPECT_TRUE(core::parx_lid_options(q, q, core::MsgClass::kLarge)
                    .contains(static_cast<std::int8_t>(large_x)));
  }
}

TEST(Transport, UnroutableMessageThrows) {
  // A cluster with empty tables cannot route: execute must fail loudly.
  const HyperX hx(topo::small_hyperx_params());
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::RouteResult empty;
  empty.tables = routing::ForwardingTables(hx.topo().num_switches(),
                                           lids.max_lid());
  const Cluster broken(hx.topo(), lids, std::move(empty), make_ob1());
  Transport transport(broken,
                      Placement::linear(4, Placement::whole_machine(4)), 1);
  EXPECT_THROW((void)transport.execute(col::bcast_binomial(4, 8)),
               std::runtime_error);
}

TEST(Transport, RejectsOutOfRangeRanks) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const Placement placement =
      Placement::linear(4, Placement::whole_machine(32));
  const Schedule good = col::allreduce_recursive_doubling(4, 4096);
  Transport fresh(cluster, placement, 1);
  const std::vector<double> want = fresh.execute_rounds(good);

  Transport transport(cluster, placement, 1);
  for (const RankMsg bad : {RankMsg{0, -1, 8}, RankMsg{-1, 0, 8},
                            RankMsg{0, 4, 8}, RankMsg{4, 0, 8}}) {
    // The bad message is the round's second: the error names index 1.
    const Schedule schedule{{RankMsg{0, 1, 8}, bad}};
    try {
      (void)transport.execute(schedule);
      ADD_FAILURE() << "rank " << bad.src_rank << " -> " << bad.dst_rank
                    << " accepted";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find("message 1"), std::string::npos)
          << e.what();
    }
  }
  // A rejected round leaves no trace: the transport still times rounds as
  // a fresh one does (same RNG state, per-rank counters back at zero).
  const std::vector<double> got = transport.execute_rounds(good);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

TEST(Transport, ErrorsSurfaceInScheduleOrder) {
  // Empty tables route nothing: rounds 0 and 2 share a transport block,
  // and whichever fails first in schedule order decides the error.
  const HyperX hx(topo::small_hyperx_params());
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::RouteResult empty;
  empty.tables = routing::ForwardingTables(hx.topo().num_switches(),
                                           lids.max_lid());
  const Cluster broken(hx.topo(), lids, std::move(empty), make_ob1());
  Transport transport(broken,
                      Placement::linear(4, Placement::whole_machine(4)), 1);
  const Schedule unroutable_first{
      {RankMsg{0, 1, 8}}, {}, {RankMsg{0, 9, 8}}};
  EXPECT_THROW((void)transport.execute(unroutable_first), std::runtime_error);
  const Schedule out_of_range_first{
      {RankMsg{2, 2, 8}}, {RankMsg{0, 9, 8}}, {RankMsg{0, 1, 8}}};
  EXPECT_THROW((void)transport.execute(out_of_range_first), std::out_of_range);
}

TEST(Transport, RejectsPlacementsOutsideTheFabric) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const NodeId n = cluster.num_nodes();
  for (const NodeId bad : {n, NodeId{-1}}) {
    const std::vector<NodeId> pool{0, bad};
    try {
      const Transport transport(cluster, Placement::linear(2, pool), 1);
      ADD_FAILURE() << "node " << bad << " accepted";
    } catch (const std::out_of_range& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
      EXPECT_NE(what.find("node " + std::to_string(bad)), std::string::npos)
          << what;
    }
  }
}

TEST(Transport, CountsRoundsThatReuseThePreviousRates) {
  // On ob1 every ring step routes the same pairs over the same paths, so
  // each step after the first hits the memo -- across the block boundary
  // too (62 rounds).  Pairwise Alltoall rounds differ from each other, but
  // the first (i -> i + 1) walks exactly a ring step: one more hit.
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const std::int32_t n = 32;
  Transport transport(cluster,
                      Placement::linear(n, Placement::whole_machine(n)), 1);
  (void)transport.execute(col::allreduce_ring(n, 1 << 20));
  EXPECT_EQ(transport.reused_rounds(), 2 * (n - 1) - 1);
  (void)transport.execute(col::alltoall_pairwise(n, 1 << 20));
  EXPECT_EQ(transport.reused_rounds(), 2 * (n - 1));
}

// --- the fused LFT walk ----------------------------------------------------------

/// The transport's split route -- draw_lid_index() then walk_path() --
/// against the two-step route it replaces -- select_dlid() then
/// ForwardingTables::path() -- over every (src, dst) pair and both sides
/// of the 512-byte Table-1 threshold: same LID, same channels, and the
/// same RNG draws.  Counts the pairs that fell back past Table 1's listed
/// LIDs and those with no routable LID at all.
void expect_fused_walk_matches(const Cluster& cluster, const std::string& name,
                               std::int64_t& past_table1,
                               std::int64_t& unroutable) {
  const std::int32_t n = cluster.num_nodes();
  stats::Rng two_step_rng(17);
  stats::Rng split_rng(17);
  std::vector<topo::ChannelId> path;
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      for (const std::int64_t bytes : {8LL, 512LL, 513LL, 128LL << 10}) {
        const routing::Lid want =
            cluster.select_dlid(src, dst, bytes, two_step_rng);
        const std::int8_t first =
            cluster.draw_lid_index(src, dst, bytes, split_rng);
        ASSERT_EQ(cluster.walk_path(src, dst, bytes, first, path), want)
            << name << " " << src << " -> " << dst << " " << bytes << " B";
        if (want == routing::kInvalidLid) {
          EXPECT_TRUE(path.empty()) << name;
          ++unroutable;
          continue;
        }
        const routing::ForwardingTables::Path walked =
            cluster.route().tables.path(cluster.topo(), cluster.lids(), src,
                                        want);
        ASSERT_TRUE(walked.ok) << name;
        ASSERT_EQ(path, walked.channels)
            << name << " " << src << " -> " << dst << " " << bytes << " B";
        if (cluster.lids().group_stride() > 0 && src != dst) {
          const auto group = [&](NodeId node) {
            return cluster.lids().group_of_lid(cluster.lids().base_lid(node));
          };
          const core::LidChoice choice = core::parx_lid_options(
              group(src), group(dst), core::classify_message(bytes));
          if (!choice.contains(static_cast<std::int8_t>(
                  cluster.lids().owner(want).index)))
            ++past_table1;
        }
      }
    }
  }
  EXPECT_EQ(split_rng.next(), two_step_rng.next()) << name << ": RNG state";
}

TEST(Cluster, FusedWalkMatchesSelectDlidThenPath) {
  workloads::SystemOptions options;
  options.small_scale = true;  // with the paper's missing cables
  const workloads::PaperSystem system(options);
  for (const auto& [name, cluster] :
       {std::pair<std::string, const Cluster*>{"ft/ftree", &system.ft_ftree()},
        {"ft/sssp", &system.ft_sssp()},
        {"hx/dfsssp", &system.hx_dfsssp()},
        {"hx/parx", &system.hx_parx()}}) {
    std::int64_t past_table1 = 0;
    std::int64_t unroutable = 0;
    expect_fused_walk_matches(*cluster, name, past_table1, unroutable);
  }
}

TEST(Cluster, FusedWalkMatchesOnFallbackBranches) {
  // The PARX plane with LFT entries torn out: destination d loses every
  // LID index x whose bit is set in d % 16, at every switch.  Table 1's
  // random pick is then often unreachable, so both fallbacks run (the
  // other listed LID, then any LID), and d % 16 == 15 leaves no LID.
  workloads::SystemOptions options;
  options.small_scale = true;
  const workloads::PaperSystem system(options);
  const Cluster& parx = system.hx_parx();
  routing::RouteResult route = parx.route();
  const routing::LidSpace& lids = parx.lids();
  for (NodeId dst = 0; dst < parx.num_nodes(); ++dst)
    for (std::int32_t x = 0; x < lids.lids_per_terminal(); ++x)
      if ((dst % 16) & (1 << x))
        for (topo::SwitchId sw = 0; sw < parx.topo().num_switches(); ++sw)
          route.tables.set(sw, lids.lid(dst, x), topo::kInvalidChannel);
  const Cluster broken(parx.topo(), lids, std::move(route), parx.pml(),
                       parx.link());
  std::int64_t past_table1 = 0;
  std::int64_t unroutable = 0;
  expect_fused_walk_matches(broken, "hx/parx, torn LFT", past_table1,
                            unroutable);
  EXPECT_GT(past_table1, 0);
  EXPECT_GT(unroutable, 0);
}

/// Transport::execute_rounds as the seed wrote it: route_message per
/// message, per-rank counts in maps, a fresh Flow vector per round solved
/// by fair_rates on the reference filler.
std::vector<double> seed_execute_rounds(const Cluster& cluster,
                                        const Placement& placement,
                                        std::uint64_t seed,
                                        const Schedule& schedule) {
  const PmlConfig& pml = cluster.pml();
  const sim::LinkModel& link = cluster.link();
  stats::Rng rng(seed);
  const sim::FlowSim solver(cluster.topo(), link,
                            sim::FlowSim::SolverEngine::kReference);
  std::vector<double> times;
  for (const Round& round : schedule) {
    if (round.empty()) {
      times.push_back(0.0);
      continue;
    }
    std::vector<NetMessage> msgs;
    std::vector<double> offset;
    std::map<std::int32_t, std::int32_t> src_count;
    std::map<std::int32_t, std::int32_t> dst_count;
    for (const RankMsg& rm : round) {
      auto routed = cluster.route_message(placement.node_of(rm.src_rank),
                                          placement.node_of(rm.dst_rank),
                                          rm.bytes, rng);
      if (!routed) throw std::runtime_error("unroutable");
      const std::int32_t si = src_count[rm.src_rank]++;
      const std::int32_t di = dst_count[rm.dst_rank]++;
      offset.push_back(static_cast<double>(std::max(si, di)) *
                       pml.per_message_overhead);
      msgs.push_back(std::move(*routed));
    }
    std::vector<sim::Flow> flows;
    for (const NetMessage& m : msgs)
      flows.push_back(sim::Flow{m.path, m.bytes});
    const std::vector<double> rate = solver.fair_rates(flows);
    double time = 0.0;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const NetMessage& m = msgs[i];
      double t = offset[i] + pml.per_message_overhead +
                 static_cast<double>(m.bytes) * pml.per_byte_overhead;
      t += static_cast<double>(m.path.size()) * link.hop_latency;
      if (m.bytes > 0 && !m.path.empty())
        t += static_cast<double>(m.bytes) / rate[i];
      time = std::max(time, t);
    }
    times.push_back(time);
  }
  return times;
}

/// Restores exec's default thread count when the scope ends.
class DefaultThreadsGuard {
 public:
  DefaultThreadsGuard() = default;
  DefaultThreadsGuard(const DefaultThreadsGuard&) = delete;
  DefaultThreadsGuard& operator=(const DefaultThreadsGuard&) = delete;
  ~DefaultThreadsGuard() { exec::set_default_threads(saved_); }

 private:
  std::int32_t saved_ = exec::default_threads();
};

/// Appends `tail`'s rounds to `head`.
Schedule concat(Schedule head, const Schedule& tail) {
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

TEST(Transport, ExecuteRoundsBitIdenticalToSeedLoop) {
  // The seed loop solves every round fresh on the reference core, so it
  // is also the oracle for the transport's blocks and memo hits.
  workloads::SystemOptions options;
  options.small_scale = true;
  const workloads::PaperSystem system(options);
  const auto pool = Placement::whole_machine(system.num_nodes());
  const std::int32_t n = 48;
  // Ring steps repeat their predecessor's pairs; empty rounds sit between
  // some repeats, and some steps come again with another byte count
  // (rates reusable, times not).  108 non-empty rounds: over three blocks.
  Schedule repeats;
  const Schedule ring = col::allreduce_ring(n, 1 << 20);
  for (std::size_t r = 0; r < ring.size(); ++r) {
    repeats.push_back(ring[r]);
    if (r % 5 == 0) repeats.emplace_back();
    if (r % 7 == 0) {
      Round resized = ring[r];
      for (RankMsg& m : resized) m.bytes = 4096;
      repeats.push_back(std::move(resized));
    }
  }
  // A Graph500 level and the next one's Alltoall: each round of the
  // second Alltoall repeats one 54 rounds earlier, in an earlier block.
  const Schedule alltoall = col::alltoall_pairwise(n, 32 << 10);
  const Schedule graph500 = concat(
      concat(alltoall, col::allreduce_recursive_doubling(n, 8)), alltoall);
  // Each case runs its schedules in turn on one transport; the seed loop
  // runs them as one, so the Table-1 draws continue across them.
  const std::vector<std::pair<std::string, std::vector<Schedule>>> cases = {
      {"allreduce_ring 1 MiB", {col::allreduce_ring(n, 1 << 20)}},
      {"alltoall 64 B", {col::alltoall_pairwise(n, 64)}},
      {"alltoall 64 KiB", {col::alltoall_pairwise(n, 64 << 10)}},
      {"ring repeats", {std::move(repeats)}},
      {"graph500 levels", {graph500}},
      {"alltoall 64 B, then 64 KiB",
       {col::alltoall_pairwise(n, 64), col::alltoall_pairwise(n, 64 << 10)}}};
  const DefaultThreadsGuard guard;
  for (const std::int32_t threads : {1, 4}) {
    exec::set_default_threads(threads);
    std::int64_t reused = 0;
    for (const auto& config : system.configs()) {
      stats::Rng placement_rng(5);
      const Placement placement =
          Placement::make(config.placement, n, pool, placement_rng);
      for (const auto& [label, schedules] : cases) {
        Schedule all;
        for (const Schedule& schedule : schedules) all = concat(all, schedule);
        const std::vector<double> want =
            seed_execute_rounds(*config.cluster, placement, 9, all);
        Transport transport(*config.cluster, placement, 9);
        std::vector<double> got;
        for (const Schedule& schedule : schedules) {
          const std::vector<double> times = transport.execute_rounds(schedule);
          got.insert(got.end(), times.begin(), times.end());
        }
        reused += transport.reused_rounds();
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(
            std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
            << config.name << ": " << label << ", " << threads << " threads";
      }
    }
    EXPECT_GT(reused, 0) << threads << " threads";
  }
}

TEST(Transport, MemoKeepsItsOlderHalfWhenFull) {
  // Rounds of kMemoMessages / 16 messages, each an ob1 shift with every
  // pair repeated: shifts 1..16 fill the memo exactly, and shift 17 then
  // finds no room.  Each execute_rounds call ends a block.
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const std::int32_t n = hx.topo().num_terminals();
  const Placement placement =
      Placement::linear(n, Placement::whole_machine(n));
  const std::size_t messages = RoundRunner::kMemoMessages / 16;
  const auto shift = [&](std::int32_t k) {
    Round round;
    for (std::size_t j = 0; j < messages; ++j) {
      const auto src = static_cast<std::int32_t>(j) % n;
      round.push_back(RankMsg{src, (src + k) % n, 4096});
    }
    return round;
  };
  Schedule fill;  // 16 misses, each repeated at once: 16 hits
  for (std::int32_t k = 1; k <= 16; ++k) {
    fill.push_back(shift(k));
    fill.push_back(shift(k));
  }
  // Hit; miss without room; miss again, although it repeats its
  // predecessor; hit -- the memo evicts only when the next block begins.
  const Schedule full{shift(3), shift(17), shift(17), shift(1)};
  // The eviction dropped shifts 9..16, the newer half, and kept 1..8:
  // miss, hit, hit, miss.
  const Schedule halved{shift(16), shift(16), shift(8), shift(17)};
  const auto self_sends = [&](std::size_t count) {
    Round round;
    for (std::size_t j = 0; j < count; ++j) {
      const auto rank = static_cast<std::int32_t>(j) % n;
      round.push_back(RankMsg{rank, rank, 8});
    }
    return round;
  };
  // A round larger than the whole memo is never stored, so its repeat
  // misses too, and it evicts nothing: both shifts then hit.
  const Round oversized = self_sends(RoundRunner::kMemoMessages + 1);
  const Schedule huge{oversized, oversized};
  const Schedule after{shift(1), shift(16)};
  // A round of three quarters of the memo finds no room beside shifts
  // 1..8, 16 and 17: two misses.  The eviction then keeps only shifts
  // 1..4, not the older half, so it fits: miss, hit, hit, hit, and shift
  // 5 misses without room.
  const Round wide = self_sends(RoundRunner::kMemoMessages / 4 * 3);
  const Schedule too_wide{wide, wide};
  const Schedule made_room{wide, wide, wide, shift(4), shift(5)};
  Transport transport(cluster, placement, 1);
  std::int64_t hits = 0;
  for (const auto& [schedule, block_hits] :
       std::vector<std::pair<const Schedule*, std::int64_t>>{
           {&fill, 16},
           {&full, 2},
           {&halved, 2},
           {&huge, 0},
           {&after, 2},
           {&too_wide, 0},
           {&made_room, 3}}) {
    const std::vector<double> want =
        seed_execute_rounds(cluster, placement, 1, *schedule);
    const std::vector<double> got = transport.execute_rounds(*schedule);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0);
    hits += block_hits;
    EXPECT_EQ(transport.reused_rounds(), hits);
  }
}

TEST(Transport, FailedBlockLeavesNoMemoEntry) {
  // Empty tables route nothing but self-sends.  The failing block's
  // self-send round walks, then its second round throws: neither may
  // stay in the memo, or a rerun would hit instead of walking.
  const HyperX hx(topo::small_hyperx_params());
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::RouteResult empty;
  empty.tables = routing::ForwardingTables(hx.topo().num_switches(),
                                           lids.max_lid());
  const Cluster broken(hx.topo(), lids, std::move(empty), make_ob1());
  const Placement placement = Placement::linear(4, Placement::whole_machine(4));
  Transport transport(broken, placement, 1);
  const Schedule unroutable{{RankMsg{2, 2, 8}}, {RankMsg{0, 1, 8}}};
  EXPECT_THROW((void)transport.execute(unroutable), std::runtime_error);
  EXPECT_THROW((void)transport.execute(unroutable), std::runtime_error);

  const Schedule self_sends{{RankMsg{2, 2, 8}},
                            {RankMsg{3, 3, 8}, RankMsg{2, 2, 8}}};
  Transport fresh(broken, placement, 1);
  const std::vector<double> want = fresh.execute_rounds(self_sends);
  const std::vector<double> got = transport.execute_rounds(self_sends);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
  EXPECT_EQ(transport.reused_rounds(), fresh.reused_rounds());
}

// --- profiles -------------------------------------------------------------------

TEST(Profile, AccumulatesScheduleBytes) {
  CommProfile profile(4);
  const Schedule s = col::allreduce_ring(4, 1024);  // chunks of 256
  Transport::accumulate(s, profile);
  // Ring: each rank sends 6 chunks of 256 to its successor.
  EXPECT_EQ(profile.bytes(0, 1), 6 * 256);
  EXPECT_EQ(profile.bytes(1, 2), 6 * 256);
  EXPECT_EQ(profile.bytes(0, 2), 0);
  EXPECT_EQ(profile.total_bytes(), 4LL * 6 * 256);
}

TEST(Profile, ToDemandsResolvesPlacement) {
  CommProfile profile(2);
  profile.record(0, 1, 1000);
  const auto pool = Placement::whole_machine(8);
  const Placement p = Placement::linear(2, pool);
  const core::DemandMatrix demands = profile.to_demands(p, 8);
  EXPECT_EQ(demands.at(0, 1), 255);
  EXPECT_TRUE(demands.is_listed_destination(1));
  EXPECT_FALSE(demands.is_listed_destination(0));
}

TEST(Profile, IntraNodeTrafficIsDropped) {
  CommProfile profile(2);
  profile.record(0, 1, 1000);
  // Both ranks on the same node: nothing enters the fabric.
  std::vector<NodeId> pool{5, 5};
  // Placement requires distinct pool entries for linear; emulate by a
  // 1-node pool with 2 ranks via direct construction path: use a pool of
  // two identical entries.
  const Placement p = Placement::linear(2, pool);
  const core::DemandMatrix demands = profile.to_demands(p, 8);
  EXPECT_FALSE(demands.is_listed_destination(5));
}

TEST(Profile, ToDemandsRejectsNodesOutsideTheMachine) {
  CommProfile profile(2);
  profile.record(0, 1, 1000);
  const std::vector<NodeId> pool{0, 8};
  const Placement p = Placement::linear(2, pool);
  try {
    (void)profile.to_demands(p, 8);
    ADD_FAILURE() << "node 8 of an 8-node machine accepted";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
    EXPECT_NE(what.find("node 8"), std::string::npos) << what;
  }
  EXPECT_THROW((void)profile.to_demands(p, 0), std::invalid_argument);
}

TEST(Profile, RejectsBadRanks) {
  CommProfile profile(2);
  EXPECT_THROW(profile.record(2, 0, 8), std::out_of_range);
  EXPECT_THROW(profile.record(0, 0, -1), std::invalid_argument);
}

}  // namespace
}  // namespace hxsim::mpi
