// Engine microbenchmarks (google-benchmark): wall-clock cost of the
// routing engines, the CDG machinery, and the two simulators -- the
// components whose performance limits reproduction turnaround.
#include <benchmark/benchmark.h>

#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "mpi/collectives.hpp"
#include "routing/cdg.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "routing/sssp.hpp"
#include "sim/flowsim.hpp"
#include "sim/pktsim.hpp"
#include "stats/rng.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"

namespace {

using namespace hxsim;

void BM_FtreeRoutePaperTree(benchmark::State& state) {
  const topo::FatTree ft(topo::paper_fat_tree_params());
  const auto lids =
      routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
  for (auto _ : state) {
    routing::FtreeEngine engine(ft);
    benchmark::DoNotOptimize(engine.compute(ft.topo(), lids));
  }
}
BENCHMARK(BM_FtreeRoutePaperTree)->Unit(benchmark::kMillisecond);

void BM_SsspRoutePaperHyperX(benchmark::State& state) {
  const topo::HyperX hx(topo::paper_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  for (auto _ : state) {
    routing::SsspEngine engine;
    benchmark::DoNotOptimize(engine.compute(hx.topo(), lids));
  }
}
BENCHMARK(BM_SsspRoutePaperHyperX)->Unit(benchmark::kMillisecond);

void BM_DfssspRoutePaperHyperX(benchmark::State& state) {
  const topo::HyperX hx(topo::paper_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  for (auto _ : state) {
    routing::DfssspEngine engine(8);
    benchmark::DoNotOptimize(engine.compute(hx.topo(), lids));
  }
}
BENCHMARK(BM_DfssspRoutePaperHyperX)->Unit(benchmark::kMillisecond);

// Thread scaling of the full-fabric DFSSSP route compute (the acceptance
// path of the exec/ layer; the exec_scaling experiment records it in
// REPRO.json).
void BM_DfssspRouteThreads(benchmark::State& state) {
  const auto threads = static_cast<std::int32_t>(state.range(0));
  const topo::HyperX hx(topo::paper_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  for (auto _ : state) {
    routing::DfssspEngine engine(8, threads);
    benchmark::DoNotOptimize(engine.compute(hx.topo(), lids));
  }
}
BENCHMARK(BM_DfssspRouteThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_FtreeRouteThreads(benchmark::State& state) {
  const auto threads = static_cast<std::int32_t>(state.range(0));
  const topo::FatTree ft(topo::paper_fat_tree_params());
  const auto lids =
      routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
  for (auto _ : state) {
    routing::FtreeEngine engine(ft, threads);
    benchmark::DoNotOptimize(engine.compute(ft.topo(), lids));
  }
}
BENCHMARK(BM_FtreeRouteThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParxRoutePaperHyperX(benchmark::State& state) {
  const topo::HyperX hx(topo::paper_hyperx_params());
  const auto lids = core::make_parx_lid_space(hx);
  for (auto _ : state) {
    core::ParxEngine engine(hx);
    benchmark::DoNotOptimize(engine.compute(hx.topo(), lids));
  }
}
BENCHMARK(BM_ParxRoutePaperHyperX)->Unit(benchmark::kMillisecond);

void BM_FlowSimFairRates(benchmark::State& state) {
  const auto flows_count = static_cast<std::int32_t>(state.range(0));
  const topo::HyperX hx(topo::paper_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  const auto route = engine.compute(hx.topo(), lids);

  stats::Rng rng(1);
  std::vector<sim::Flow> flows;
  for (std::int32_t i = 0; i < flows_count; ++i) {
    const auto src = static_cast<topo::NodeId>(rng.next_below(672));
    const auto dst = static_cast<topo::NodeId>(rng.next_below(672));
    if (src == dst) continue;
    auto path = route.tables.path(hx.topo(), lids, src, lids.base_lid(dst));
    flows.push_back(sim::Flow{std::move(path.channels), 1 << 20});
  }
  const sim::FlowSim sim(hx.topo());
  for (auto _ : state) benchmark::DoNotOptimize(sim.fair_rates(flows));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_FlowSimFairRates)->Arg(64)->Arg(672)->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_PktSimPermutation(benchmark::State& state) {
  const topo::HyperX hx(topo::paper_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  const auto route = engine.compute(hx.topo(), lids);

  std::vector<sim::PktMessage> msgs;
  const std::int32_t n = 64;
  for (std::int32_t i = 0; i < n; ++i) {
    const topo::NodeId src = i;
    const topo::NodeId dst = (i + 17) % n;
    auto path = route.tables.path(hx.topo(), lids, src, lids.base_lid(dst));
    sim::PktMessage m;
    m.src = src;
    m.dst = dst;
    m.bytes = 64 * 1024;
    m.path = std::move(path.channels);
    msgs.push_back(std::move(m));
  }
  sim::PktSim sim(hx.topo(), sim::PktSimConfig{});
  std::int64_t packets = 0;
  for (auto _ : state) {
    auto result = sim.run(msgs);
    packets += result.packets_delivered;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(packets);
}
BENCHMARK(BM_PktSimPermutation)->Unit(benchmark::kMillisecond);

void BM_IncrementalDagInsertions(benchmark::State& state) {
  const auto nodes = static_cast<std::int32_t>(state.range(0));
  stats::Rng rng(7);
  for (auto _ : state) {
    routing::IncrementalDag dag(nodes);
    for (std::int32_t i = 0; i < nodes * 4; ++i) {
      const auto u = static_cast<std::int32_t>(rng.next_below(nodes));
      const auto v = static_cast<std::int32_t>(rng.next_below(nodes));
      if (u != v) benchmark::DoNotOptimize(dag.add_edge(u, v));
    }
  }
  state.SetItemsProcessed(state.iterations() * nodes * 4);
}
BENCHMARK(BM_IncrementalDagInsertions)->Arg(256)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_TransportAlltoall672(benchmark::State& state) {
  const topo::HyperX hx(topo::paper_hyperx_params());
  const auto lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  mpi::Cluster cluster(hx.topo(), lids, engine.compute(hx.topo(), lids),
                       mpi::make_ob1());
  const auto placement =
      mpi::Placement::linear(672, mpi::Placement::whole_machine(672));
  const auto schedule = mpi::collectives::alltoall_pairwise(672, 4096);
  for (auto _ : state) {
    mpi::Transport transport(cluster, placement, 1);
    benchmark::DoNotOptimize(transport.execute(schedule));
  }
}
BENCHMARK(BM_TransportAlltoall672)->Unit(benchmark::kMillisecond);

}  // namespace
