// Repo-level experiment: the max-min flow solver's cores against the seed
// reference filler, the one measurement core of the flow-solver contract.
//
//  - Engine phases, single thread: the reference, indexed and adaptive
//    cores take turns pass by pass over a phase's flow sets, through
//    solve_active on caller scratch (mpi::RoundRunner's path), and each
//    keeps its fastest warm pass -- light sets solve in well under a millisecond,
//    where a burst of host noise would otherwise land on whichever core
//    happened to be running.  The congested phases (several permutations
//    or eBB samples overlaid into one set, hundreds of filling levels)
//    form the "speedup" table the committed claims gate: the indexed
//    core's reason to exist.  The light uniform / shift / eBB phases are
//    the regime most figures solve, where the rescan filler is cheap and
//    the adaptive default must keep up with it.
//  - solve_batch scaling: uniform sets at 1..8 threads, every batch
//    bitwise equal to the 1-thread batch.
//
// Every indexed and adaptive rate vector and FlowSolveRecord must be
// bitwise equal to the reference's (audit::check_flowsim_engines_identical)
// at any scale; a divergence throws, naming the phase.  Every phase's
// numbers land in the long-form "phases" table.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/oracles.hpp"
#include "experiments/experiments.hpp"
#include "obs/flow_trace.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"
#include "stats/units.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::bench {

namespace {

using Engine = sim::FlowSim::SolverEngine;

// --- flow sets: both paper fabrics routed by their paper engines, with
// the traffic shapes the campaign layer solves (uniform random
// permutations, mpiGraph shifts, eBB bisections) plus merged overlays ---

struct FlowFabric {
  std::unique_ptr<topo::HyperX> hx;
  std::unique_ptr<topo::FatTree> ft;
  const topo::Topology* topo = nullptr;
  routing::LidSpace lids = routing::LidSpace::consecutive(1, 0);
  routing::RouteResult route;
};

FlowFabric flow_hyperx_fabric(bool quick) {
  FlowFabric f;
  f.hx = std::make_unique<topo::HyperX>(quick ? topo::small_hyperx_params()
                                              : topo::paper_hyperx_params());
  f.topo = &f.hx->topo();
  f.lids = routing::LidSpace::consecutive(f.topo->num_terminals(), 0);
  f.route = routing::DfssspEngine(8).compute(*f.topo, f.lids);
  return f;
}

FlowFabric flow_fat_tree_fabric(bool quick) {
  FlowFabric f;
  f.ft = std::make_unique<topo::FatTree>(quick ? topo::small_fat_tree_params()
                                               : topo::paper_fat_tree_params());
  f.topo = &f.ft->topo();
  f.lids = routing::LidSpace::consecutive(f.topo->num_terminals(), 0);
  f.route = routing::FtreeEngine(*f.ft).compute(*f.topo, f.lids);
  return f;
}

sim::Flow routed_flow(const FlowFabric& f, topo::NodeId src,
                      topo::NodeId dst) {
  auto path = f.route.tables.path(*f.topo, f.lids, src, f.lids.base_lid(dst));
  return sim::Flow{std::move(path.channels), 1 << 20};
}

/// One uniform-random permutation (fixed points dropped).
std::vector<sim::Flow> uniform_flow_set(const FlowFabric& f,
                                        stats::Rng& rng) {
  const auto n = f.topo->num_terminals();
  const std::vector<std::int32_t> perm = rng.permutation(n);
  std::vector<sim::Flow> flows;
  for (topo::NodeId src = 0; src < n; ++src) {
    const auto dst =
        static_cast<topo::NodeId>(perm[static_cast<std::size_t>(src)]);
    if (dst != src) flows.push_back(routed_flow(f, src, dst));
  }
  return flows;
}

/// mpiGraph shift r: every node i streams to (i + r) mod N.
std::vector<sim::Flow> shift_flow_set(const FlowFabric& f, std::int32_t r) {
  const auto n = f.topo->num_terminals();
  std::vector<sim::Flow> flows;
  for (topo::NodeId src = 0; src < n; ++src)
    flows.push_back(routed_flow(f, src, static_cast<topo::NodeId>(
                                            (src + r) % n)));
  return flows;
}

/// eBB bisection: random halves paired across the cut, both directions.
std::vector<sim::Flow> ebb_flow_set(const FlowFabric& f, stats::Rng& rng) {
  const auto n = f.topo->num_terminals();
  std::vector<std::int32_t> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  rng.shuffle(nodes);
  std::vector<sim::Flow> flows;
  for (std::int32_t i = 0; i < n / 2; ++i) {
    const auto a =
        static_cast<topo::NodeId>(nodes[static_cast<std::size_t>(i)]);
    const auto b =
        static_cast<topo::NodeId>(nodes[static_cast<std::size_t>(i + n / 2)]);
    flows.push_back(routed_flow(f, a, b));
    flows.push_back(routed_flow(f, b, a));
  }
  return flows;
}

/// `overlays` permutations overlaid into ONE flow set: heterogeneous
/// channel sharing drives the filling through many distinct levels, the
/// regime where the reference's per-round full rescan is most expensive.
std::vector<sim::Flow> merged_permutations_set(const FlowFabric& f,
                                               stats::Rng& rng,
                                               std::int32_t overlays) {
  std::vector<sim::Flow> flows;
  for (std::int32_t o = 0; o < overlays; ++o) {
    std::vector<sim::Flow> one = uniform_flow_set(f, rng);
    for (auto& flow : one) flows.push_back(std::move(flow));
  }
  return flows;
}

[[noreturn]] void fail(const std::string& phase, const std::string& what) {
  throw std::runtime_error(phase + ": " + what);
}

struct EngineTiming {
  double seconds = std::numeric_limits<double>::infinity();
  double freezes_per_sec = 0.0;
  std::vector<std::vector<double>> rates;  // last pass, one per set
  obs::FlowSolveTrace trace;               // one untimed solve per set
};

/// Times `reps` warm passes over all `sets` on each engine, interleaved
/// pass by pass; each engine keeps its fastest pass.
std::vector<EngineTiming> time_engines(
    const topo::Topology& topo, std::span<const Engine> engines,
    const std::vector<std::vector<sim::Flow>>& sets, std::int32_t reps) {
  std::vector<sim::FlowSim> solvers;
  for (const Engine engine : engines)
    solvers.emplace_back(topo, sim::LinkModel{}, engine);
  std::vector<sim::FlowSim::SolveScratch> scratch(engines.size());
  std::vector<EngineTiming> t(engines.size());
  std::vector<std::vector<char>> active(sets.size());
  std::int64_t freezes = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    active[i].assign(sets[i].size(), 1);
    freezes += static_cast<std::int64_t>(sets[i].size());
  }
  const auto pass = [&](std::size_t e) {
    for (std::size_t i = 0; i < sets.size(); ++i)
      solvers[e].solve_active(sets[i], active[i], t[e].rates[i], scratch[e]);
  };
  for (std::size_t e = 0; e < engines.size(); ++e) {
    t[e].rates.resize(sets.size());
    for (std::size_t i = 0; i < sets.size(); ++i)
      t[e].rates[i].assign(sets[i].size(), 0.0);
    pass(e);  // warm-up
  }
  for (std::int32_t r = 0; r < reps; ++r) {
    for (std::size_t e = 0; e < engines.size(); ++e) {
      PhaseClock clock;
      pass(e);
      t[e].seconds = std::min(t[e].seconds, clock.lap());
    }
  }
  for (std::size_t e = 0; e < engines.size(); ++e) {
    if (t[e].seconds > 0.0)
      t[e].freezes_per_sec = static_cast<double>(freezes) / t[e].seconds;
    for (const std::vector<sim::Flow>& set : sets)
      (void)solvers[e].fair_rates(set, &t[e].trace);
  }
  return t;
}

struct Phase {
  const char* name;  // "phases" record
  const char* key;   // metric prefix + "speedup" row; nullptr: none
  const char* label;
  const topo::Topology* topo;
  std::vector<std::vector<sim::Flow>> sets;
};

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const std::int32_t reps = options.quick ? 2 : std::max(options.reps, 50);
  report::ResultTable phase_table{"phases", {"phase", "metric", "value"}, {}};
  add_phase(phase_table, "machine",
            {{"hardware_threads",
              static_cast<double>(exec::hardware_threads())}});

  const FlowFabric hx = flow_hyperx_fabric(options.quick);
  const FlowFabric ft = flow_fat_tree_fabric(options.quick);
  const std::int32_t samples = options.quick ? 2 : 4;

  // The congested phases the claims gate, drawn from the seed's stream.
  std::vector<Phase> phases;
  stats::Rng rng(options.seed);
  {
    Phase p{"hx_merged", "hx_merged", "hyperx merged perms x8", hx.topo, {}};
    for (std::int32_t s = 0; s < samples / 2 + 1; ++s)
      p.sets.push_back(merged_permutations_set(hx, rng, 8));
    phases.push_back(std::move(p));
  }
  {
    Phase p{"hx_merged_ebb", "hx_merged_ebb", "hyperx merged eBB x8",
            hx.topo, {}};
    std::vector<sim::Flow> merged;
    for (std::int32_t s = 0; s < 8; ++s) {
      std::vector<sim::Flow> one = ebb_flow_set(hx, rng);
      for (auto& flow : one) merged.push_back(std::move(flow));
    }
    p.sets.push_back(std::move(merged));
    phases.push_back(std::move(p));
  }
  {
    Phase p{"ft_merged", "ft_merged", "ftree merged perms x8", ft.topo, {}};
    for (std::int32_t s = 0; s < samples / 2 + 1; ++s)
      p.sets.push_back(merged_permutations_set(ft, rng, 8));
    phases.push_back(std::move(p));
  }

  // The light phases, one merged set per fabric and the batch sets draw
  // from their own stream, so the claimed phases' flow sets stay fixed.
  stats::Rng extra_rng = stats::Rng(options.seed).fork();
  const auto add_light_phase = [&](const char* name, const FlowFabric& f,
                                   std::int32_t count, const auto& make) {
    Phase p{name, nullptr, name, f.topo, {}};
    for (std::int32_t s = 0; s < count; ++s) p.sets.push_back(make());
    phases.push_back(std::move(p));
  };
  const std::int32_t overlays = options.quick ? 4 : 8;
  add_light_phase("hyperx_uniform", hx, samples,
                  [&] { return uniform_flow_set(hx, extra_rng); });
  {
    Phase p{"hyperx_shift", nullptr, "hyperx_shift", hx.topo, {}};
    for (const std::int32_t r : {1, 7, hx.topo->num_terminals() / 2})
      p.sets.push_back(shift_flow_set(hx, r));
    phases.push_back(std::move(p));
  }
  add_light_phase("hyperx_ebb", hx, samples,
                  [&] { return ebb_flow_set(hx, extra_rng); });
  add_light_phase("hyperx_merged_perms", hx, 1, [&] {
    return merged_permutations_set(hx, extra_rng, overlays);
  });
  add_light_phase("ftree_uniform", ft, samples,
                  [&] { return uniform_flow_set(ft, extra_rng); });
  add_light_phase("ftree_merged_perms", ft, 1, [&] {
    return merged_permutations_set(ft, extra_rng, overlays);
  });

  report::ResultTable& out =
      rs.table("speedup", {"workload", "flows", "ref Mfz/s", "indexed Mfz/s",
                           "speedup", "bit-identical"});
  const Engine engines[] = {Engine::kReference, Engine::kIndexed,
                            Engine::kAdaptive};
  double min_speedup = 0.0;
  for (const Phase& phase : phases) {
    const std::vector<EngineTiming> timings =
        time_engines(*phase.topo, engines, phase.sets, reps);
    const EngineTiming& ref = timings[0];
    const EngineTiming& idx = timings[1];
    const EngineTiming& ada = timings[2];
    std::int64_t flows = 0;
    std::int64_t levels = 0;
    for (std::size_t i = 0; i < phase.sets.size(); ++i) {
      flows += static_cast<std::int64_t>(phase.sets[i].size());
      levels += static_cast<std::int64_t>(ref.trace.solves[i].levels.size());
      for (std::size_t e = 1; e < timings.size(); ++e) {
        const audit::OracleResult check =
            audit::check_flowsim_engines_identical(
                ref.rates[i], timings[e].rates[i], ref.trace.solves[i],
                timings[e].trace.solves[i]);
        if (!check.pass)
          fail(phase.name, std::string(e == 1 ? "indexed" : "adaptive") +
                               " core vs reference, set " +
                               std::to_string(i) + ": " + check.detail);
      }
    }
    const double speedup = idx.seconds > 0.0 ? ref.seconds / idx.seconds : 0.0;
    // > 1: adaptive is slower than the faster pure core by that factor.
    const double adaptive_vs_best =
        ada.seconds / std::min(ref.seconds, idx.seconds);
    add_phase(phase_table, phase.name,
              {{"flows", static_cast<double>(flows)},
               {"levels", static_cast<double>(levels)},
               {"old_freezes_per_sec", ref.freezes_per_sec},
               {"new_freezes_per_sec", idx.freezes_per_sec},
               {"speedup", speedup},
               {"adaptive_freezes_per_sec", ada.freezes_per_sec},
               {"adaptive_time_vs_best", adaptive_vs_best}});
    if (phase.key == nullptr) continue;
    out.add_row({phase.label, std::to_string(flows),
                 stats::format_fixed(ref.freezes_per_sec / 1e6, 2),
                 stats::format_fixed(idx.freezes_per_sec / 1e6, 2),
                 stats::format_fixed(speedup, 2) + "x", "yes"});
    min_speedup = min_speedup > 0.0 ? std::min(min_speedup, speedup)
                                    : speedup;
    rs.set(std::string(phase.key) + "_speedup", speedup);
    rs.set(std::string(phase.key) + "_indexed_freezes_per_sec",
           idx.freezes_per_sec);
  }

  // --- solve_batch scaling: uniform sets, 1..8 threads ---------------------
  {
    std::vector<std::vector<sim::Flow>> sets;
    const std::int32_t batches = options.quick ? 8 : 16;
    for (std::int32_t s = 0; s < batches; ++s)
      sets.push_back(uniform_flow_set(hx, extra_rng));
    const sim::FlowSim solver(*hx.topo);
    const std::int32_t max_threads = std::min<std::int32_t>(
        8, options.threads > 0 ? options.threads : exec::hardware_threads());
    std::vector<std::vector<double>> reference;
    double base_seconds = 0.0;
    for (std::int32_t t = 1; t <= max_threads; t *= 2) {
      PhaseClock clock;
      auto batch = solver.solve_batch(sets, t);
      const double seconds = clock.lap();
      if (t == 1) {
        base_seconds = seconds;
        reference = std::move(batch);
      } else {
        // Rates only: solve_batch records no FlowSolveRecord.
        for (std::size_t i = 0; i < reference.size(); ++i)
          if (const audit::OracleResult check =
                  audit::check_flowsim_engines_identical(
                      reference[i], batch[i], {}, {});
              !check.pass)
            fail("solve_batch_uniform",
                 std::to_string(t) + "-thread set " + std::to_string(i) +
                     " vs 1-thread: " + check.detail);
      }
      const double speedup = seconds > 0.0 ? base_seconds / seconds : 0.0;
      add_phase(phase_table, "solve_batch_uniform",
                {{"threads", static_cast<double>(t)},
                 {"sets", static_cast<double>(batches)},
                 {"seconds", seconds},
                 {"speedup", speedup}});
    }
  }

  // Reaching here means every identity check above held.
  rs.set("indexed_min_speedup", min_speedup);
  rs.set("indexed_identical", 1.0);
  rs.set("adaptive_identical", 1.0);
  rs.tables.push_back(std::move(phase_table));
  return rs;
}

}  // namespace

report::Experiment flowsim_speedup_experiment() {
  return {"flowsim_speedup",
          "Indexed flow-solver speedup and bitwise identity vs reference",
          "repo (flow-solver contract)", run};
}

}  // namespace hxsim::bench
