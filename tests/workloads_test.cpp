// Tests for the workload layer: IMB wrappers, mpiGraph, eBB, application
// skeletons, x500 metrics, and the capacity co-scheduler.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "exec/exec.hpp"
#include "mpi/cluster.hpp"
#include "routing/dfsssp.hpp"
#include "stats/units.hpp"
#include "topo/hyperx.hpp"
#include "workloads/apps.hpp"
#include "workloads/capacity.hpp"
#include "workloads/ebb.hpp"
#include "workloads/imb.hpp"
#include "workloads/mpigraph.hpp"
#include "workloads/paper_system.hpp"
#include "workloads/x500.hpp"

namespace hxsim::workloads {
namespace {

using mpi::Cluster;
using mpi::Placement;
using mpi::Transport;
using topo::HyperX;
using topo::NodeId;

Cluster make_dfsssp_cluster(const HyperX& hx) {
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  routing::RouteResult route = engine.compute(hx.topo(), lids);
  return Cluster(hx.topo(), std::move(lids), std::move(route),
                 mpi::make_ob1());
}

/// A plane whose tables are empty: no pair routes.
Cluster make_broken_cluster(const HyperX& hx) {
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::RouteResult empty;
  empty.tables = routing::ForwardingTables(hx.topo().num_switches(),
                                           lids.max_lid());
  return Cluster(hx.topo(), std::move(lids), std::move(empty),
                 mpi::make_ob1());
}

/// Ranks 0..21 on nodes 32..53 of the 32-node small HyperX.
Placement placement_past_the_fabric() {
  std::vector<NodeId> pool(22);
  std::iota(pool.begin(), pool.end(), NodeId{32});
  return Placement::linear(22, pool);
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

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The flows of one round routed by a loop of route_message calls.
std::vector<sim::Flow> route_round(
    const Cluster& cluster, const std::vector<std::pair<NodeId, NodeId>>& pairs,
    std::int64_t bytes, stats::Rng& rng) {
  std::vector<sim::Flow> flows;
  for (const auto& [src, dst] : pairs) {
    auto msg = cluster.route_message(src, dst, bytes, rng);
    if (!msg) throw std::runtime_error("oracle: unroutable pair");
    flows.push_back(sim::Flow{std::move(msg->path), bytes});
  }
  return flows;
}

/// mpigraph's cells, row-major, as a route_message + fair_rates loop
/// computes them: one shift after another on the calling thread.
std::vector<double> oracle_mpigraph(const Cluster& cluster,
                                    const Placement& placement,
                                    std::int32_t nodes,
                                    const MpiGraphOptions& options) {
  const auto n = static_cast<std::size_t>(nodes);
  std::vector<double> cells(n * n, 0.0);
  stats::Rng rng(options.seed);
  const sim::FlowSim solver(cluster.topo(), cluster.link());
  for (std::size_t shift = 1; shift < n; ++shift) {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (std::size_t i = 0; i < n; ++i)
      pairs.emplace_back(
          placement.node_of(static_cast<std::int32_t>(i)),
          placement.node_of(static_cast<std::int32_t>((i + shift) % n)));
    const std::vector<double> rate = solver.fair_rates(
        route_round(cluster, pairs, options.bytes, rng));
    for (std::size_t i = 0; i < n; ++i)
      cells[((i + shift) % n) * n + i] =
          rate[i] / static_cast<double>(stats::kGiB);
  }
  return cells;
}

/// eBB's sample means as a route_message + fair_rates loop computes them:
/// each sample's permutation, then its pairs' draws, on the calling thread.
std::vector<double> oracle_ebb(const Cluster& cluster,
                               const Placement& placement,
                               std::int32_t nodes, const EbbOptions& options) {
  std::vector<double> means;
  stats::Rng rng(options.seed);
  const sim::FlowSim solver(cluster.topo(), cluster.link());
  const std::int32_t half = nodes / 2;
  for (std::int32_t s = 0; s < options.samples; ++s) {
    const std::vector<std::int32_t> perm = rng.permutation(nodes);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (std::int32_t i = 0; i < half; ++i) {
      const NodeId a = placement.node_of(perm[static_cast<std::size_t>(i)]);
      const NodeId b =
          placement.node_of(perm[static_cast<std::size_t>(i + half)]);
      pairs.emplace_back(a, b);
      pairs.emplace_back(b, a);
    }
    const std::vector<double> rate = solver.fair_rates(
        route_round(cluster, pairs, options.bytes, rng));
    double mean = 0.0;
    for (const double r : rate) mean += r;
    mean /= static_cast<double>(rate.size());
    means.push_back(mean / static_cast<double>(stats::kGiB));
  }
  return means;
}

std::vector<double> cells_of(const stats::Heatmap& map) {
  std::vector<double> cells;
  for (std::size_t r = 0; r < map.rows(); ++r)
    for (std::size_t c = 0; c < map.cols(); ++c) cells.push_back(map.at(r, c));
  return cells;
}

/// The whole machine in random order.
Placement shuffled_machine(std::int32_t nodes) {
  stats::Rng rng(11);
  return Placement::random(nodes, Placement::whole_machine(nodes), rng);
}

// --- IMB ------------------------------------------------------------------------

TEST(Imb, EveryOpHasASchedule) {
  for (const ImbOp op :
       {ImbOp::kBarrier, ImbOp::kBcast, ImbOp::kGather, ImbOp::kScatter,
        ImbOp::kReduce, ImbOp::kAllreduce, ImbOp::kAlltoall}) {
    const mpi::Schedule s = imb_schedule(op, 8, 1024);
    EXPECT_FALSE(s.empty()) << to_string(op);
  }
}

TEST(Imb, AllreduceSwitchesAlgorithmAtThreshold) {
  // Recursive doubling: log2(8) = 3 rounds; ring: 2*(8-1) = 14 rounds.
  EXPECT_EQ(imb_schedule(ImbOp::kAllreduce, 8, 64 * 1024).size(), 3u);
  EXPECT_EQ(imb_schedule(ImbOp::kAllreduce, 8, 128 * 1024).size(), 14u);
}

TEST(Imb, MessageSizesMatchFigureAxes) {
  const auto bcast = imb_message_sizes(ImbOp::kBcast);
  EXPECT_EQ(bcast.front(), 1);
  EXPECT_EQ(bcast.back(), 4 * 1024 * 1024);
  EXPECT_EQ(bcast.size(), 23u);
  const auto reduce = imb_message_sizes(ImbOp::kReduce);
  EXPECT_EQ(reduce.front(), 4);
  EXPECT_EQ(reduce.size(), 21u);
  EXPECT_EQ(imb_message_sizes(ImbOp::kBarrier),
            (std::vector<std::int64_t>{0}));
}

TEST(Imb, CapabilityNodeCounts) {
  EXPECT_EQ(capability_node_counts(false, 672),
            (std::vector<std::int32_t>{7, 14, 28, 56, 112, 224, 448, 672}));
  EXPECT_EQ(capability_node_counts(true, 672),
            (std::vector<std::int32_t>{4, 8, 16, 32, 64, 128, 256, 512}));
}

// --- mpiGraph --------------------------------------------------------------------

TEST(MpiGraph, DiagonalStaysZeroAndCellsAreFilled) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const Placement p = Placement::linear(
      8, Placement::whole_machine(hx.topo().num_terminals()));
  const stats::Heatmap map = mpigraph(cluster, p, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(map.at(i, i), 0.0);
    for (std::size_t j = 0; j < 8; ++j) {
      if (i != j) {
        EXPECT_GT(map.at(i, j), 0.0);
      }
    }
  }
}

TEST(MpiGraph, IntraSwitchPairsSeeFullBandwidth) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const Placement p = Placement::linear(
      4, Placement::whole_machine(hx.topo().num_terminals()));
  const stats::Heatmap map = mpigraph(cluster, p, 4);
  // Nodes 0,1 share switch 0: their pair bandwidth is the full link rate.
  const double gib = cluster.link().bandwidth / (1024.0 * 1024.0 * 1024.0);
  EXPECT_NEAR(map.at(1, 0), gib, 1e-9);
}

TEST(MpiGraph, SharedCableCongestionShowsUp) {
  // All 7-per-switch nodes of two directly-linked switches: cross-switch
  // cells must be far below intra-switch cells (the Figure 1 effect).
  const HyperX hx(topo::paper_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const Placement p = Placement::linear(
      14, Placement::whole_machine(hx.topo().num_terminals()));
  const stats::Heatmap map = mpigraph(cluster, p, 14);
  // Node 0 (switch 0) -> node 7 (switch 1): crosses the single cable.
  // Node 0 -> node 1: intra-switch.
  EXPECT_LT(map.at(7, 0), map.at(1, 0) / 2.0);
}

TEST(MpiGraph, BitIdenticalToRouteAndSolveLoop) {
  // The 96-node system: 95 shifts, three blocks of the round runner, on
  // the PARX plane (bfo LIDs are drawn) and on the DFSSSP plane.
  SystemOptions system_options;
  system_options.small_scale = true;
  const PaperSystem system(system_options);
  const std::int32_t n = system.num_nodes();
  const Placement placement = shuffled_machine(n);
  MpiGraphOptions options;
  options.seed = 7;
  const DefaultThreadsGuard guard;
  for (const Cluster* cluster : {&system.hx_parx(), &system.hx_dfsssp()}) {
    const std::vector<double> want =
        oracle_mpigraph(*cluster, placement, n, options);
    for (const std::int32_t threads : {1, 4}) {
      exec::set_default_threads(threads);
      const stats::Heatmap map = mpigraph(*cluster, placement, n, options);
      EXPECT_TRUE(bitwise_equal(cells_of(map), want))
          << cluster->pml().name() << ", " << threads << " threads";
    }
  }
}

TEST(MpiGraph, UnroutablePairThrows) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster broken = make_broken_cluster(hx);
  const Placement p = Placement::linear(
      4, Placement::whole_machine(hx.topo().num_terminals()));
  EXPECT_THROW((void)mpigraph(broken, p, 4), std::runtime_error);
}

TEST(MpiGraph, RejectsPlacementsOutsideTheFabric) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  try {
    (void)mpigraph(cluster, placement_past_the_fabric(), 22);
    ADD_FAILURE() << "nodes 32-53 accepted on a 32-node fabric";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("node 32"), std::string::npos) << what;
  }
  // Only the ranks in use must sit on the fabric.
  const std::vector<NodeId> pool{0, 1, 2, 3, 40};
  EXPECT_NO_THROW((void)mpigraph(cluster, Placement::linear(5, pool), 4));
}

// --- eBB -------------------------------------------------------------------------

TEST(Ebb, ProducesRequestedSamples) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const Placement p = Placement::linear(
      16, Placement::whole_machine(hx.topo().num_terminals()));
  EbbOptions opts;
  opts.samples = 25;
  const EbbResult result = effective_bisection_bandwidth(cluster, p, 16, opts);
  EXPECT_EQ(result.sample_means.size(), 25u);
  for (double m : result.sample_means) {
    EXPECT_GT(m, 0.0);
    EXPECT_LE(m, cluster.link().bandwidth / (1024.0 * 1024.0 * 1024.0) + 1e-9);
  }
}

TEST(Ebb, RejectsOddNodeCounts) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const Placement p = Placement::linear(
      16, Placement::whole_machine(hx.topo().num_terminals()));
  EXPECT_THROW(
      (void)effective_bisection_bandwidth(cluster, p, 15, EbbOptions{}),
      std::invalid_argument);
}

TEST(Ebb, RejectsNonPositiveSampleCounts) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const Placement p = Placement::linear(
      16, Placement::whole_machine(hx.topo().num_terminals()));
  for (const std::int32_t samples : {0, -1}) {
    EbbOptions opts;
    opts.samples = samples;
    EXPECT_THROW((void)effective_bisection_bandwidth(cluster, p, 16, opts),
                 std::invalid_argument)
        << samples << " samples";
  }
}

TEST(Ebb, BitIdenticalToRouteAndSolveLoop) {
  // 70 samples of the 96-node system: three blocks of the round runner.
  SystemOptions system_options;
  system_options.small_scale = true;
  const PaperSystem system(system_options);
  const std::int32_t n = system.num_nodes();
  const Placement placement = shuffled_machine(n);
  EbbOptions options;
  options.samples = 70;
  options.seed = 7;
  const DefaultThreadsGuard guard;
  for (const Cluster* cluster : {&system.hx_parx(), &system.hx_dfsssp()}) {
    const std::vector<double> want =
        oracle_ebb(*cluster, placement, n, options);
    for (const std::int32_t threads : {1, 4}) {
      exec::set_default_threads(threads);
      const EbbResult got =
          effective_bisection_bandwidth(*cluster, placement, n, options);
      EXPECT_TRUE(bitwise_equal(got.sample_means, want))
          << cluster->pml().name() << ", " << threads << " threads";
    }
  }
}

TEST(Ebb, UnroutablePairThrows) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster broken = make_broken_cluster(hx);
  const Placement p = Placement::linear(
      4, Placement::whole_machine(hx.topo().num_terminals()));
  EbbOptions opts;
  opts.samples = 3;
  EXPECT_THROW((void)effective_bisection_bandwidth(broken, p, 4, opts),
               std::runtime_error);
}

TEST(Ebb, RejectsPlacementsOutsideTheFabric) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  EbbOptions opts;
  opts.samples = 3;
  try {
    (void)effective_bisection_bandwidth(cluster, placement_past_the_fabric(),
                                        22, opts);
    ADD_FAILURE() << "nodes 32-53 accepted on a 32-node fabric";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("node 32"), std::string::npos) << what;
  }
  const std::vector<NodeId> pool{0, 1, 2, 3, 40};
  EXPECT_NO_THROW((void)effective_bisection_bandwidth(
      cluster, Placement::linear(5, pool), 4, opts));
}

// --- app skeletons ----------------------------------------------------------------

TEST(Apps, Dims3MultiplyBack) {
  for (const std::int32_t n : {1, 4, 7, 8, 12, 28, 56, 64, 112, 224, 448,
                               512, 672}) {
    const auto d = dims3(n);
    EXPECT_EQ(d[0] * d[1] * d[2], n) << n;
    EXPECT_LE(d[0], d[1]);
    EXPECT_LE(d[1], d[2]);
  }
}

TEST(Apps, Dims2MultiplyBack) {
  for (const std::int32_t n : {1, 7, 16, 56, 672}) {
    const auto d = dims2(n);
    EXPECT_EQ(d[0] * d[1], n);
    EXPECT_LE(d[0], d[1]);
  }
}

TEST(Apps, Halo3dHasSixNeighborRoundsAndSymmetricTraffic) {
  const mpi::Schedule s = halo3d(8, 1000);  // 2x2x2 grid
  EXPECT_EQ(s.size(), 6u);                  // +/- per dimension
  for (const mpi::Round& round : s) {
    EXPECT_EQ(round.size(), 8u);
    std::set<std::int32_t> senders, receivers;
    for (const mpi::RankMsg& m : round) {
      senders.insert(m.src_rank);
      receivers.insert(m.dst_rank);
      EXPECT_EQ(m.bytes, 1000);
      EXPECT_NE(m.src_rank, m.dst_rank);
    }
    EXPECT_EQ(senders.size(), 8u);
    EXPECT_EQ(receivers.size(), 8u);  // a permutation
  }
}

TEST(Apps, HaloSkipsDegenerateDimensions) {
  // 7 ranks -> 1x1x7: only one real dimension -> 2 rounds.
  const mpi::Schedule s = halo3d(7, 8);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Apps, GroupedAlltoallStaysInsideGroups) {
  const mpi::Schedule s = grouped_alltoall(8, 4, 64);
  EXPECT_EQ(s.size(), 3u);  // group - 1 rounds
  for (const mpi::Round& round : s)
    for (const mpi::RankMsg& m : round)
      EXPECT_EQ(m.src_rank / 4, m.dst_rank / 4);
  EXPECT_THROW((void)grouped_alltoall(8, 3, 64), std::invalid_argument);
}

TEST(Apps, EveryAppBuildsAtTypicalScales) {
  for (const AppId id : capacity_apps()) {
    for (const std::int32_t n : {7, 32, 56}) {
      const AppWorkload app = make_app(id, n);
      EXPECT_FALSE(app.name.empty());
      EXPECT_GT(app.iterations, 0);
      EXPECT_GE(app.compute_per_iteration, 0.0);
      for (const mpi::Round& round : app.iteration_comm)
        for (const mpi::RankMsg& m : round) {
          EXPECT_GE(m.src_rank, 0);
          EXPECT_LT(m.src_rank, n);
          EXPECT_GE(m.dst_rank, 0);
          EXPECT_LT(m.dst_rank, n);
          EXPECT_GE(m.bytes, 0);
        }
    }
  }
}

TEST(Apps, NtchemIsStrongScaled) {
  // Strong scaling: total compute shrinks with more ranks.
  const AppWorkload small = make_app(AppId::kNtchem, 8);
  const AppWorkload big = make_app(AppId::kNtchem, 64);
  EXPECT_GT(small.compute_per_iteration, big.compute_per_iteration * 4);
}

TEST(Apps, FfvcInputReductionAbove64Nodes) {
  const AppWorkload full = make_app(AppId::kFfvc, 64);
  const AppWorkload reduced = make_app(AppId::kFfvc, 128);
  EXPECT_GT(full.compute_per_iteration, reduced.compute_per_iteration);
}

TEST(Apps, RunWorkloadAccountsComputeAndComm) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  Transport transport(
      cluster,
      Placement::linear(8, Placement::whole_machine(
                               hx.topo().num_terminals())),
      1);
  const AppWorkload app = make_app(AppId::kComd, 8);
  const double runtime = run_workload(app, transport);
  EXPECT_GT(runtime, app.compute_per_iteration * app.iterations);
}


TEST(Apps, Halo4dUsesEightNeighborRounds) {
  // 16 ranks -> 2x2x2x2: MILC's eight halo directions.
  const mpi::Schedule s = halo4d(16, 64);
  EXPECT_EQ(s.size(), 8u);
  for (const mpi::Round& round : s) EXPECT_EQ(round.size(), 16u);
}

TEST(Apps, MuppVolumeMatchesTheImbSweep) {
  // ~8 GB per pair per run (23 size blocks x 85 reps x 2 legs x 2 MiB).
  const AppWorkload app = make_app(AppId::kMultiPingPong, 8);
  std::int64_t per_pair = 0;
  for (const mpi::Round& round : app.iteration_comm)
    for (const mpi::RankMsg& m : round)
      if (m.src_rank == 0 || m.dst_rank == 0) per_pair += m.bytes;
  per_pair *= app.iterations;
  EXPECT_NEAR(static_cast<double>(per_pair), 8.0e9, 1.0e9);
}

TEST(Apps, QboxWeakStarReductionAt672) {
  const AppWorkload full = make_app(AppId::kQbox, 448);
  const AppWorkload reduced = make_app(AppId::kQbox, 672);
  EXPECT_GT(full.compute_per_iteration, reduced.compute_per_iteration);
}

TEST(Apps, HplWeakStarReductionAt224) {
  const AppWorkload full = make_app(AppId::kHpl, 112);
  const AppWorkload reduced = make_app(AppId::kHpl, 224);
  // Total flops per node shrink when the matrix is cut to 0.25 GiB/rank.
  EXPECT_GT(full.total_flops / 112.0, reduced.total_flops / 224.0);
}

// --- x500 metrics ------------------------------------------------------------------

TEST(X500, MetricsScaleInverselyWithRuntime) {
  const AppWorkload hpl = make_app(AppId::kHpl, 8);
  EXPECT_GT(hpl.total_flops, 0.0);
  EXPECT_DOUBLE_EQ(gflops(hpl, 100.0), hpl.total_flops / 100.0 / 1e9);
  EXPECT_GT(gflops(hpl, 50.0), gflops(hpl, 100.0));
  const AppWorkload g500 = make_app(AppId::kGraph500, 8);
  EXPECT_GT(g500.total_edges, 0.0);
  EXPECT_DOUBLE_EQ(gteps(g500, 10.0), g500.total_edges / 10.0 / 1e9);
  EXPECT_THROW((void)gflops(hpl, 0.0), std::invalid_argument);
}

// --- capacity ----------------------------------------------------------------------

TEST(Capacity, MixCoversAllAppsAndFitsPool) {
  const HyperX hx(topo::paper_hyperx_params());
  stats::Rng rng(1);
  const auto pool = Placement::whole_machine(hx.topo().num_terminals());
  const auto jobs =
      paper_capacity_mix(pool, mpi::PlacementKind::kLinear, rng);
  EXPECT_EQ(jobs.size(), 14u);
  std::int32_t total_nodes = 0;
  std::set<NodeId> used;
  for (const auto& job : jobs) {
    total_nodes += job.placement.num_ranks();
    for (NodeId n : job.placement.nodes()) EXPECT_TRUE(used.insert(n).second);
  }
  EXPECT_EQ(total_nodes, 664);  // the paper's 98.8 % occupancy
}

TEST(Capacity, CompletesRunsWithinWindow) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  stats::Rng rng(1);
  // Two small jobs on the 32-node machine.
  const auto pool = Placement::whole_machine(hx.topo().num_terminals());
  std::vector<CapacityJob> jobs;
  jobs.push_back(CapacityJob{
      AppId::kMultiPingPong,
      Placement::linear(16, std::span(pool).subspan(0, 16))});
  jobs.push_back(CapacityJob{
      AppId::kEmDl, Placement::linear(16, std::span(pool).subspan(16, 16))});
  CapacityOptions opts;
  opts.duration = 300.0;  // 5 simulated minutes
  opts.launch_overhead = 1.0;
  const CapacityResult result = run_capacity(cluster, jobs, opts);
  ASSERT_EQ(result.runs_completed.size(), 2u);
  EXPECT_GT(result.total(), 0);
  EXPECT_EQ(result.app_names[0], "MuPP");
  EXPECT_EQ(result.app_names[1], "EmDL");
}

TEST(Capacity, LongerWindowCompletesMoreRuns) {
  const HyperX hx(topo::small_hyperx_params());
  const Cluster cluster = make_dfsssp_cluster(hx);
  const auto pool = Placement::whole_machine(hx.topo().num_terminals());
  std::vector<CapacityJob> jobs;
  jobs.push_back(CapacityJob{
      AppId::kEmDl, Placement::linear(16, std::span(pool).subspan(0, 16))});
  CapacityOptions short_opts;
  short_opts.duration = 120.0;
  CapacityOptions long_opts;
  long_opts.duration = 600.0;
  const auto a = run_capacity(cluster, jobs, short_opts);
  const auto b = run_capacity(cluster, jobs, long_opts);
  EXPECT_GE(b.runs_completed[0], a.runs_completed[0]);
  EXPECT_GT(b.runs_completed[0], 0);
}


// --- PaperSystem -------------------------------------------------------------

TEST(PaperSystem, SmallScaleBuildsAllFiveConfigs) {
  workloads::SystemOptions opts;
  opts.small_scale = true;
  const workloads::PaperSystem system(opts);
  ASSERT_EQ(system.configs().size(), 5u);
  EXPECT_EQ(system.baseline().name, "Fat-Tree / ftree / linear");
  EXPECT_EQ(system.num_nodes(), 96);
  for (const auto& config : system.configs()) {
    ASSERT_NE(config.cluster, nullptr);
    EXPECT_FALSE(config.name.empty());
    EXPECT_LE(config.cluster->route().num_vls_used, 8);
  }
  // Configs 3 and 4 share the DFSSSP cluster; 5 is the PARX/bfo plane.
  EXPECT_EQ(system.configs()[2].cluster, system.configs()[3].cluster);
  EXPECT_EQ(system.hx_parx().pml().kind, mpi::PmlKind::kBfo);
  EXPECT_EQ(system.ft_ftree().pml().kind, mpi::PmlKind::kOb1);
}

TEST(PaperSystem, AllConfigsRouteRandomTraffic) {
  workloads::SystemOptions opts;
  opts.small_scale = true;
  const workloads::PaperSystem system(opts);
  stats::Rng rng(3);
  for (const auto& config : system.configs()) {
    for (int trial = 0; trial < 200; ++trial) {
      const auto src = static_cast<NodeId>(rng.next_below(96));
      const auto dst = static_cast<NodeId>(rng.next_below(96));
      const auto msg = config.cluster->route_message(src, dst, 4096, rng);
      EXPECT_TRUE(msg.has_value()) << config.name;
    }
  }
}

TEST(PaperSystem, MakeParxClusterReroutesWithDemands) {
  workloads::SystemOptions opts;
  opts.small_scale = true;
  const workloads::PaperSystem system(opts);
  core::DemandMatrix demands(system.num_nodes());
  demands.set(0, 10, 255);
  const mpi::Cluster rerouted = system.make_parx_cluster(demands);
  stats::Rng rng(1);
  const auto msg = rerouted.route_message(0, 10, 1 << 20, rng);
  ASSERT_TRUE(msg.has_value());
  EXPECT_LE(rerouted.route().num_vls_used, 8);
}
}  // namespace
}  // namespace hxsim::workloads
