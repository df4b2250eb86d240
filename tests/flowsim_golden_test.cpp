// Golden bit-identity contract of the FlowSim solver engines.
//
// The adaptive default and the forced kIndexed core must reproduce
// kReference *bit for bit* -- rates and every FlowSolveRecord field -- on
// both paper fabrics (small HyperX under DFSSSP, small fat-tree under
// ftree), three traffic shapes (uniform random permutations, mpiGraph-
// style shifts, eBB-style bisections), at 1 and 4 solver threads, through
// the cold fair_rates path and the warm solve path (a set shrinking stage
// by stage on one scratch per core).  Comparisons go through the audit's
// bitwise comparator, audit::check_flowsim_engines_identical.
// Merged permutations drive the adaptive core across its rescan-to-indexed
// handoff.  The saturation-epsilon regression scenarios from sim_test.cpp
// are re-run here on every core and compared bitwise against kReference:
// the 1e-12 saturation slack, the max(0, .) fully-frozen-load clamp and
// the denormal-level rounds must take the *same* branch in all of them.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include "audit/oracles.hpp"
#include "obs/flow_trace.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::sim {
namespace {

using topo::ChannelId;
using topo::NodeId;
using topo::SwitchId;
using topo::Topology;

/// The audit's bitwise comparator as a gtest assertion: rates and solve
/// records against the reference core's, and the compared record's levels
/// ascending.  Empty records compare rates only.
::testing::AssertionResult identical(
    std::span<const double> reference_rates, std::span<const double> rates,
    const obs::FlowSolveRecord& reference_record = {},
    const obs::FlowSolveRecord& record = {}) {
  audit::OracleResult check = audit::check_flowsim_engines_identical(
      reference_rates, rates, reference_record, record);
  if (check.pass) check = audit::check_flow_levels_monotone(record);
  if (check.pass) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << check.detail;
}

// --- paper fabrics ------------------------------------------------------------

struct GoldenFabric {
  std::string name;
  std::unique_ptr<topo::HyperX> hx;
  std::unique_ptr<topo::FatTree> ft;
  const Topology* topo = nullptr;
  routing::LidSpace lids = routing::LidSpace::consecutive(1, 0);
  routing::RouteResult route;
};

GoldenFabric hyperx_fabric(
    const topo::HyperXParams& params = topo::small_hyperx_params()) {
  GoldenFabric f;
  f.name = "hyperx+dfsssp";
  f.hx = std::make_unique<topo::HyperX>(params);
  f.topo = &f.hx->topo();
  f.lids = routing::LidSpace::consecutive(f.topo->num_terminals(), 0);
  f.route = routing::DfssspEngine().compute(*f.topo, f.lids);
  return f;
}

GoldenFabric fat_tree_fabric() {
  GoldenFabric f;
  f.name = "fat-tree+ftree";
  f.ft = std::make_unique<topo::FatTree>(topo::small_fat_tree_params());
  f.topo = &f.ft->topo();
  f.lids = routing::LidSpace::consecutive(f.topo->num_terminals(), 0);
  f.route = routing::FtreeEngine(*f.ft).compute(*f.topo, f.lids);
  return f;
}

std::vector<GoldenFabric> paper_fabrics() {
  std::vector<GoldenFabric> fabrics;
  fabrics.push_back(hyperx_fabric());
  fabrics.push_back(fat_tree_fabric());
  return fabrics;
}

// --- traffic shapes -----------------------------------------------------------

Flow routed_flow(const GoldenFabric& f, NodeId src, NodeId dst) {
  auto path = f.route.tables.path(*f.topo, f.lids, src, f.lids.base_lid(dst));
  EXPECT_TRUE(path.ok) << f.name << ": " << src << " -> " << dst;
  return Flow{std::move(path.channels), 1 << 20};
}

/// One uniform-random permutation (fixed points become self-sends, which
/// exercises the +inf branch of both engines).
std::vector<Flow> uniform_set(const GoldenFabric& f, stats::Rng& rng) {
  const auto n = f.topo->num_terminals();
  const std::vector<std::int32_t> perm = rng.permutation(n);
  std::vector<Flow> flows;
  for (NodeId src = 0; src < n; ++src) {
    const auto dst = static_cast<NodeId>(perm[static_cast<std::size_t>(src)]);
    if (dst == src)
      flows.push_back(Flow{{}, 1 << 20});  // self-send
    else
      flows.push_back(routed_flow(f, src, dst));
  }
  return flows;
}

/// mpiGraph shift r: every node i streams to (i + r) mod N.
std::vector<Flow> shift_set(const GoldenFabric& f, std::int32_t r) {
  const auto n = f.topo->num_terminals();
  std::vector<Flow> flows;
  for (NodeId src = 0; src < n; ++src)
    flows.push_back(routed_flow(f, src, static_cast<NodeId>((src + r) % n)));
  return flows;
}

/// eBB bisection: random halves paired across the cut, both directions.
std::vector<Flow> ebb_set(const GoldenFabric& f, stats::Rng& rng) {
  const auto n = f.topo->num_terminals();
  std::vector<std::int32_t> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  rng.shuffle(nodes);
  std::vector<Flow> flows;
  for (std::int32_t i = 0; i < n / 2; ++i) {
    const auto a = static_cast<NodeId>(nodes[static_cast<std::size_t>(i)]);
    const auto b =
        static_cast<NodeId>(nodes[static_cast<std::size_t>(i + n / 2)]);
    flows.push_back(routed_flow(f, a, b));
    flows.push_back(routed_flow(f, b, a));
  }
  return flows;
}

/// `k` uniform-random permutations overlaid in one set (self-sends
/// dropped): channels are shared unevenly, so the filling passes through
/// many levels -- the congested regime that hands the adaptive core over
/// to the indexed loop.
std::vector<Flow> merged_permutations_set(const GoldenFabric& f,
                                          stats::Rng& rng, std::int32_t k) {
  std::vector<Flow> flows;
  for (std::int32_t i = 0; i < k; ++i)
    for (Flow& flow : uniform_set(f, rng))
      if (!flow.channels.empty()) flows.push_back(std::move(flow));
  return flows;
}

/// The full traffic matrix for one fabric: a few samples per shape.
std::vector<std::vector<Flow>> traffic_sets(const GoldenFabric& f) {
  stats::Rng rng(0x90fdu);
  std::vector<std::vector<Flow>> sets;
  for (int sample = 0; sample < 3; ++sample) sets.push_back(uniform_set(f, rng));
  for (const std::int32_t r : {1, 3, f.topo->num_terminals() / 2})
    sets.push_back(shift_set(f, r));
  for (int sample = 0; sample < 3; ++sample) sets.push_back(ebb_set(f, rng));
  return sets;
}

// --- the golden contract ------------------------------------------------------

TEST(FlowSimGolden, EnginesBitIdenticalAcrossFabricsTrafficAndThreads) {
  for (const GoldenFabric& f : paper_fabrics()) {
    const FlowSim reference(*f.topo, {}, FlowSim::SolverEngine::kReference);
    const FlowSim indexed(*f.topo, {}, FlowSim::SolverEngine::kIndexed);
    const FlowSim adaptive(*f.topo);

    const std::vector<std::vector<Flow>> sets = traffic_sets(f);

    // Per-set serial path with solver traces: rates and records.
    for (std::size_t i = 0; i < sets.size(); ++i) {
      obs::FlowSolveTrace ref_trace;
      const auto ref_rates = reference.fair_rates(sets[i], &ref_trace);
      ASSERT_EQ(ref_trace.solves.size(), 1u);
      for (const FlowSim* other : {&indexed, &adaptive}) {
        obs::FlowSolveTrace trace;
        const auto rates = other->fair_rates(sets[i], &trace);
        ASSERT_EQ(trace.solves.size(), 1u);
        EXPECT_TRUE(identical(ref_rates, rates, ref_trace.solves[0],
                              trace.solves[0]))
            << f.name << " set " << i;
      }
    }

    // Batched path at 1 and 4 threads: every run bitwise identical.
    const auto ref_batch1 = reference.solve_batch(sets, 1);
    for (const std::int32_t threads : {1, 4}) {
      const auto ref_batch = reference.solve_batch(sets, threads);
      const auto idx_batch = indexed.solve_batch(sets, threads);
      const auto ada_batch = adaptive.solve_batch(sets, threads);
      ASSERT_EQ(ref_batch.size(), sets.size());
      ASSERT_EQ(idx_batch.size(), sets.size());
      ASSERT_EQ(ada_batch.size(), sets.size());
      for (std::size_t i = 0; i < sets.size(); ++i) {
        EXPECT_TRUE(identical(ref_batch1[i], ref_batch[i]))
            << f.name << " set " << i << " threads " << threads
            << " (reference thread-variance)";
        EXPECT_TRUE(identical(ref_batch1[i], idx_batch[i]))
            << f.name << " set " << i << " threads " << threads;
        EXPECT_TRUE(identical(ref_batch1[i], ada_batch[i]))
            << f.name << " set " << i << " threads " << threads;
      }
    }
  }
}

TEST(FlowSimGolden, WarmSolveStagesBitIdentical) {
  for (const GoldenFabric& f : paper_fabrics()) {
    const FlowSim reference(*f.topo, {}, FlowSim::SolverEngine::kReference);
    const FlowSim indexed(*f.topo, {}, FlowSim::SolverEngine::kIndexed);
    const FlowSim adaptive(*f.topo);
    const FlowSim* const cores[] = {&reference, &indexed, &adaptive};
    FlowSim::SolveScratch scratch[3];  // caller-owned, warm across stages

    stats::Rng rng(7);
    const std::vector<Flow> flows = uniform_set(f, rng);
    std::vector<char> dropped(flows.size(), 0);
    // Stage 0 solves every flow; each later stage drops another third of
    // them, the way a fault campaign loses pairs, and solves the rest.
    for (int stage = 0; stage < 4; ++stage) {
      if (stage > 0)
        for (std::size_t i = stage - 1; i < flows.size(); i += 3)
          dropped[i] = 1;
      std::vector<Flow> kept;
      for (std::size_t i = 0; i < flows.size(); ++i)
        if (!dropped[i]) kept.push_back(flows[i]);
      std::vector<double> rates[3];
      obs::FlowSolveRecord records[3];
      for (std::size_t c = 0; c < 3; ++c) {
        rates[c].assign(kept.size(), -1.0);
        cores[c]->solve(kept, rates[c], scratch[c], &records[c]);
      }
      for (std::size_t c = 1; c < 3; ++c)
        EXPECT_TRUE(identical(rates[0], rates[c], records[0], records[c]))
            << f.name << " stage " << stage << " core " << c;
    }
  }
}

TEST(FlowSimGolden, AdaptiveHandoffBitIdentical) {
  // The 6x4 HyperX with 4 nodes per switch (the shape of the scaled-down
  // paper plane): overlaid permutations there take ~100+ filling levels,
  // far past the adaptive core's handoff.
  topo::HyperXParams params = topo::small_hyperx_params();
  params.dims = {6, 4};
  params.terminals_per_switch = 4;
  const GoldenFabric f = hyperx_fabric(params);
  const FlowSim reference(*f.topo, {}, FlowSim::SolverEngine::kReference);
  const FlowSim indexed(*f.topo, {}, FlowSim::SolverEngine::kIndexed);
  const FlowSim adaptive(*f.topo);

  stats::Rng rng(0x3e7du);
  for (const std::int32_t k : {8, 16}) {
    const std::vector<Flow> flows = merged_permutations_set(f, rng, k);
    std::vector<double> ref_rates(flows.size());
    std::vector<double> idx_rates(flows.size());
    std::vector<double> ada_rates(flows.size());
    FlowSim::SolveScratch ref_scratch;
    FlowSim::SolveScratch idx_scratch;
    FlowSim::SolveScratch ada_scratch;
    obs::FlowSolveRecord ref_record;
    obs::FlowSolveRecord idx_record;
    obs::FlowSolveRecord ada_record;
    reference.solve(flows, ref_rates, ref_scratch, &ref_record);
    indexed.solve(flows, idx_rates, idx_scratch, &idx_record);
    adaptive.solve(flows, ada_rates, ada_scratch, &ada_record);
    // The adaptive core handed over mid-solve; the forced cores never do.
    EXPECT_EQ(ada_scratch.handoffs, 1) << "k " << k;
    EXPECT_EQ(ref_scratch.handoffs, 0);
    EXPECT_EQ(idx_scratch.handoffs, 0);
    EXPECT_GT(ref_record.num_levels(), 50) << "k " << k;
    EXPECT_TRUE(identical(ref_rates, idx_rates, ref_record, idx_record))
        << "k " << k;
    EXPECT_TRUE(identical(ref_rates, ada_rates, ref_record, ada_record))
        << "k " << k;
  }
}

// --- saturation-epsilon regressions on every core ---------------------------

/// Two switches, one cable, `terminals` nodes per switch (as in
/// sim_test.cpp; the epsilon regressions live on this shape).
struct Dumbbell {
  Topology topo{"dumbbell"};
  ChannelId ab = topo::kInvalidChannel;
  ChannelId ba = topo::kInvalidChannel;

  explicit Dumbbell(std::int32_t terminals = 4) {
    const SwitchId a = topo.add_switch();
    const SwitchId b = topo.add_switch();
    std::tie(ab, ba) = topo.connect(a, b);
    for (std::int32_t i = 0; i < terminals; ++i) topo.add_terminal(a);
    for (std::int32_t i = 0; i < terminals; ++i) topo.add_terminal(b);
  }

  Flow flow(NodeId src, NodeId dst, std::int64_t bytes) const {
    return Flow{{topo.terminal_up(src), ab, topo.terminal_down(dst)}, bytes};
  }
};

/// Solves `flows` on every core and asserts bitwise parity with the
/// reference; returns the adaptive rates for scenario-specific assertions.
std::vector<double> solve_every_core(const Dumbbell& d, double bandwidth,
                                     double cable_capacity,
                                     const std::vector<Flow>& flows) {
  LinkModel link;
  link.bandwidth = bandwidth;
  FlowSim reference(d.topo, link, FlowSim::SolverEngine::kReference);
  reference.set_capacity(d.ab, cable_capacity);
  obs::FlowSolveTrace ref_trace;
  const auto ref_rates = reference.fair_rates(flows, &ref_trace);

  std::vector<double> rates;
  for (const auto engine :
       {FlowSim::SolverEngine::kIndexed, FlowSim::SolverEngine::kAdaptive}) {
    FlowSim other(d.topo, link, engine);
    other.set_capacity(d.ab, cable_capacity);
    obs::FlowSolveTrace trace;
    rates = other.fair_rates(flows, &trace);
    EXPECT_TRUE(identical(ref_rates, rates, ref_trace.solves.at(0),
                          trace.solves.at(0)));
  }
  return rates;
}

TEST(FlowSimGolden, SaturationEpsilonDenormalCapacityMatches) {
  const Dumbbell d(2);
  std::vector<Flow> flows;
  flows.push_back(Flow{{d.topo.terminal_up(0), d.topo.terminal_down(1)}, 1});
  flows.push_back(
      Flow{{d.topo.terminal_up(0), d.ab, d.topo.terminal_down(2)}, 1});
  const auto rates = solve_every_core(d, 1.0, 1e-300, flows);
  EXPECT_DOUBLE_EQ(rates[1], 1e-300);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
}

TEST(FlowSimGolden, SaturationEpsilonFullyFrozenLoadedChannelMatches) {
  const Dumbbell d(2);
  std::vector<Flow> flows;
  flows.push_back(Flow{{d.topo.terminal_up(0), d.topo.terminal_down(1)}, 1});
  flows.push_back(
      Flow{{d.topo.terminal_up(0), d.ab, d.topo.terminal_down(2)}, 1});
  flows.push_back(
      Flow{{d.topo.terminal_up(1), d.ab, d.topo.terminal_down(3)}, 1});
  const auto rates = solve_every_core(d, 1.0, 1.5, flows);
  EXPECT_DOUBLE_EQ(rates[0], 0.5);
  EXPECT_DOUBLE_EQ(rates[1], 0.5);
  EXPECT_DOUBLE_EQ(rates[2], 1.0);
}

TEST(FlowSimGolden, SaturationEpsilonNonRepresentableSharesMatch) {
  const Dumbbell d(4);
  std::vector<Flow> flows;
  for (NodeId i = 0; i < 4; ++i) flows.push_back(d.flow(i, 4 + i, 1));
  flows.push_back(Flow{{d.topo.terminal_up(0), d.topo.terminal_down(1)}, 1});
  flows.push_back(Flow{{d.topo.terminal_up(0), d.topo.terminal_down(2)}, 1});
  const auto rates = solve_every_core(d, 0.3, 0.1, flows);
  for (NodeId i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(rates[i], 0.1 / 4.0);
}

}  // namespace
}  // namespace hxsim::sim
