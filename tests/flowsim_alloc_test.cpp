// Steady-state allocation audit of the max-min flow solver and of the MPI
// transport round that drives it.
//
// The solver contract: after a first (cold) solve sizes the SolveScratch
// -- CSR incidence arrays, version/dirty marks, the quotient heap -- a
// warm solve through solve_active performs ZERO heap allocations, traced
// or untraced alike (the record's vectors are caller-reused), on the
// forced indexed core and on both sides of the adaptive core's handoff.
// Asserted with a counting global operator new; also pinned: the warm
// count stays zero when the flow set quadruples, i.e. nothing allocates
// per flow, per channel or per filling round once warm.  The transport
// contract: a warm Transport::execute_rounds allocates only the vector it
// returns.
//
// This test lives in its own binary because the operator new/delete
// replacement is global to the process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/parx.hpp"
#include "mpi/cluster.hpp"
#include "mpi/collectives.hpp"
#include "obs/flow_trace.hpp"
#include "routing/dfsssp.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"
#include "topo/hyperx.hpp"
#include "topo/topology.hpp"

namespace {
std::atomic<long long> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
// Out of line: inlined into a caller, GCC pairs the free() with the
// operator new call it cannot see through and warns
// (-Wmismatched-new-delete), although both sides use malloc/free.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hxsim::sim {
namespace {

using topo::ChannelId;
using topo::NodeId;
using topo::SwitchId;
using topo::Topology;

/// Allocations performed by `fn` (callable returning void).
template <typename Fn>
long long allocs_during(Fn&& fn) {
  const long long before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

/// A chain of `switches` switches with `terminals` nodes each; flows
/// shift across the chain so cables are shared unevenly and the solve
/// takes many filling rounds (every round's bookkeeping must be
/// allocation-free, not just the first).
struct Chain {
  Topology topo{"chain"};
  std::vector<ChannelId> right;  // cable i: switch i -> i+1

  Chain(std::int32_t switches, std::int32_t terminals) {
    std::vector<SwitchId> sw;
    for (std::int32_t i = 0; i < switches; ++i) sw.push_back(topo.add_switch());
    for (std::int32_t i = 0; i + 1 < switches; ++i)
      right.push_back(topo.connect(sw[static_cast<std::size_t>(i)],
                                   sw[static_cast<std::size_t>(i + 1)])
                          .first);
    for (std::int32_t i = 0; i < switches; ++i)
      for (std::int32_t t = 0; t < terminals; ++t)
        topo.add_terminal(sw[static_cast<std::size_t>(i)]);
  }

  /// All flows from every terminal of switch s to its peer `hops`
  /// switches to the right.
  void add_shift(std::vector<Flow>& flows, std::int32_t hops) const {
    const auto n = topo.num_terminals();
    for (NodeId src = 0; src < n; ++src) {
      const auto switches =
          static_cast<std::int32_t>(right.size()) + 1;
      const std::int32_t terminals = n / switches;
      const std::int32_t s = src / terminals;
      if (s + hops >= switches) continue;
      Flow f;
      f.channels.push_back(topo.terminal_up(src));
      for (std::int32_t h = 0; h < hops; ++h)
        f.channels.push_back(right[static_cast<std::size_t>(s + h)]);
      f.channels.push_back(
          topo.terminal_down(static_cast<NodeId>(src + hops * terminals)));
      f.bytes = 1 << 20;
      flows.push_back(std::move(f));
    }
  }
};

TEST(FlowSimAllocations, WarmIndexedSolveActiveIsAllocationFree) {
  const Chain chain(9, 4);
  const FlowSim sim(chain.topo, {}, FlowSim::SolverEngine::kIndexed);

  std::vector<Flow> small_flows;
  chain.add_shift(small_flows, 1);
  std::vector<Flow> large_flows = small_flows;
  for (const std::int32_t hops : {2, 3, 4}) chain.add_shift(large_flows, hops);
  ASSERT_GE(large_flows.size(), 3 * small_flows.size());

  const std::vector<char> small_active(small_flows.size(), 1);
  const std::vector<char> large_active(large_flows.size(), 1);
  std::vector<double> small_rates(small_flows.size());
  std::vector<double> large_rates(large_flows.size());
  FlowSim::SolveScratch scratch;
  obs::FlowSolveRecord record;
  // The solver appends to the record (one record per solve); a reusing
  // caller clears between solves, which keeps the vectors' capacity.
  const auto reset = [&record] {
    record.levels.clear();
    record.freezes_per_level.clear();
    record.saturated.clear();
  };

  // Cold solves size the scratch (and the record) for the largest set.
  sim.solve_active(large_flows, large_active, large_rates, scratch, &record);
  reset();
  sim.solve_active(small_flows, small_active, small_rates, scratch, &record);

  // Warm solves: ZERO allocations, traced and untraced, at both sizes.
  const long long warm_small = allocs_during([&] {
    reset();
    sim.solve_active(small_flows, small_active, small_rates, scratch, &record);
  });
  const long long warm_large = allocs_during([&] {
    reset();
    sim.solve_active(large_flows, large_active, large_rates, scratch, &record);
  });
  const long long warm_untraced = allocs_during([&] {
    sim.solve_active(large_flows, large_active, large_rates, scratch);
  });
  EXPECT_EQ(warm_small, 0);
  EXPECT_EQ(warm_large, 0);
  EXPECT_EQ(warm_untraced, 0);

  // The solve did real work: multiple filling levels, channels saturated.
  EXPECT_GT(record.levels.size(), 1u);
  EXPECT_FALSE(record.saturated.empty());
  for (const double r : large_rates) EXPECT_GT(r, 0.0);
}

TEST(FlowSimAllocations, DeactivationStagesStayAllocationFreeWhenWarm) {
  const Chain chain(6, 4);
  const FlowSim sim(chain.topo, {}, FlowSim::SolverEngine::kIndexed);

  std::vector<Flow> flows;
  for (const std::int32_t hops : {1, 2, 3}) chain.add_shift(flows, hops);
  std::vector<char> active(flows.size(), 1);
  std::vector<double> rates(flows.size());
  FlowSim::SolveScratch scratch;

  sim.solve_active(flows, active, rates, scratch);  // cold
  for (int stage = 0; stage < 4; ++stage) {
    for (std::size_t i = stage; i < flows.size(); i += 5) active[i] = 0;
    const long long warm = allocs_during(
        [&] { sim.solve_active(flows, active, rates, scratch); });
    EXPECT_EQ(warm, 0) << "stage " << stage;
  }
}

TEST(FlowSimAllocations, WarmScratchTakesMoreDistinctChannelsWithoutAllocating) {
  // A scratch reused across rounds of one size meets differing channel
  // sets (the transport's solver stripes under random LIDs).  Warmed on
  // 32 copies of one 3-channel path, it solves 32 flows over 72 distinct
  // channels: the first solve reserved the per-channel rescan state to
  // the fabric's channel count.
  const Chain chain(9, 4);
  const FlowSim sim(chain.topo);
  std::vector<Flow> wide;
  chain.add_shift(wide, 1);
  const std::vector<Flow> narrow(wide.size(), wide.front());
  const std::vector<char> active(wide.size(), 1);
  std::vector<double> rates(wide.size());
  FlowSim::SolveScratch scratch;

  sim.solve_active(narrow, active, rates, scratch);  // cold
  const long long warm =
      allocs_during([&] { sim.solve_active(wide, active, rates, scratch); });
  EXPECT_EQ(warm, 0);
  EXPECT_EQ(scratch.handoffs, 0) << "left the rescan regime";
}

TEST(FlowSimAllocations, WarmAdaptiveSolveIsAllocationFreeAcrossTheHandoff) {
  // A 6x4 HyperX under DFSSSP: one permutation is a light set (a few
  // filling levels, solved in rescan rounds); eight overlaid permutations
  // take ~100 levels and hand over to the indexed loop mid-solve.
  topo::HyperXParams params = topo::small_hyperx_params();
  params.dims = {6, 4};
  params.terminals_per_switch = 4;
  const topo::HyperX hx(params);
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  const routing::RouteResult route =
      routing::DfssspEngine().compute(hx.topo(), lids);
  stats::Rng rng(0x3e7du);
  const auto permutations = [&](std::int32_t k) {
    std::vector<Flow> flows;
    for (std::int32_t i = 0; i < k; ++i) {
      const auto perm = rng.permutation(hx.topo().num_terminals());
      for (NodeId src = 0; src < hx.topo().num_terminals(); ++src) {
        const auto dst =
            static_cast<NodeId>(perm[static_cast<std::size_t>(src)]);
        if (dst == src) continue;
        flows.push_back(Flow{
            route.tables.path(hx.topo(), lids, src, lids.base_lid(dst))
                .channels,
            1 << 20});
      }
    }
    return flows;
  };
  const std::vector<Flow> light = permutations(1);
  const std::vector<Flow> heavy = permutations(8);
  const std::vector<char> light_active(light.size(), 1);
  const std::vector<char> heavy_active(heavy.size(), 1);
  std::vector<double> light_rates(light.size());
  std::vector<double> heavy_rates(heavy.size());

  const FlowSim sim(hx.topo());
  FlowSim::SolveScratch scratch;
  obs::FlowSolveRecord record;
  const auto reset = [&record] {
    record.levels.clear();
    record.freezes_per_level.clear();
    record.saturated.clear();
  };
  // Cold solves size the scratch and the record.
  sim.solve_active(heavy, heavy_active, heavy_rates, scratch, &record);
  reset();
  sim.solve_active(light, light_active, light_rates, scratch, &record);

  const std::int64_t before = scratch.handoffs;
  const long long warm_light = allocs_during([&] {
    reset();
    sim.solve_active(light, light_active, light_rates, scratch, &record);
  });
  EXPECT_EQ(scratch.handoffs, before) << "the light set handed over";
  const long long warm_heavy = allocs_during([&] {
    reset();
    sim.solve_active(heavy, heavy_active, heavy_rates, scratch, &record);
  });
  EXPECT_EQ(scratch.handoffs, before + 1) << "the heavy set stayed on rescan";
  const long long warm_untraced = allocs_during(
      [&] { sim.solve_active(heavy, heavy_active, heavy_rates, scratch); });
  EXPECT_EQ(warm_light, 0);
  EXPECT_EQ(warm_heavy, 0);
  EXPECT_EQ(warm_untraced, 0);
}

TEST(TransportAllocations, WarmRoundsAllocateOnlyTheReturnedVector) {
  // Rounds of several sizes (so the reused buffers see a prefix shrink
  // and regrow) on both PML flavours: ob1 over DFSSSP, and bfo with
  // Table-1 LID selection over PARX.
  const topo::HyperX hx(topo::small_hyperx_params());
  const std::int32_t n = hx.topo().num_terminals();
  routing::LidSpace dfsssp_lids = routing::LidSpace::consecutive(n, 0);
  routing::RouteResult dfsssp_route =
      routing::DfssspEngine().compute(hx.topo(), dfsssp_lids);
  const mpi::Cluster ob1(hx.topo(), std::move(dfsssp_lids),
                         std::move(dfsssp_route), mpi::make_ob1());
  routing::LidSpace parx_lids = core::make_parx_lid_space(hx);
  routing::RouteResult parx_route =
      core::ParxEngine(hx).compute(hx.topo(), parx_lids);
  const mpi::Cluster bfo(hx.topo(), std::move(parx_lids),
                         std::move(parx_route), mpi::make_bfo());

  namespace col = mpi::collectives;
  mpi::Schedule schedule = col::alltoall_pairwise(n, 64 << 10);
  for (mpi::Round& round : col::allreduce_recursive_doubling(n, 256))
    schedule.push_back(std::move(round));
  for (mpi::Round& round : col::bcast_binomial(n, 1 << 20))
    schedule.push_back(std::move(round));

  for (const mpi::Cluster* cluster : {&ob1, &bfo}) {
    mpi::Transport transport(
        *cluster, mpi::Placement::linear(n, mpi::Placement::whole_machine(n)),
        1);
    (void)transport.execute_rounds(schedule);  // cold: sizes the buffers
    (void)transport.execute_rounds(schedule);
    std::vector<double> times;
    const long long warm =
        allocs_during([&] { times = transport.execute_rounds(schedule); });
    EXPECT_EQ(warm, 1) << cluster->pml().name();  // the returned vector
    EXPECT_EQ(times.size(), schedule.size());
  }
}

}  // namespace
}  // namespace hxsim::sim
