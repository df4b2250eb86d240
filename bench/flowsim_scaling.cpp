// Flow-solver throughput bench: the adaptive default and the forced
// indexed max-min core vs the seed reference core (single thread), plus
// batch scaling through FlowSim::solve_batch at 1..8 threads.
//
//   ./flowsim_scaling [--quick] [--threads n] [--reps n] [--seed n]
//
// Check mode is built in: every indexed and adaptive rate vector and
// FlowSolveRecord is verified bitwise against the reference core, and
// every parallel batch against the 1-thread batch; any mismatch exits
// non-zero, so CI runs this binary as a correctness gate as well as a
// perf probe.  Results (freeze events/sec per core, indexed-vs-reference
// speedup, adaptive time against the faster pure core, batch speedups)
// are recorded in BENCH_flowsim.json (committed, tracking the perf
// trajectory per PR).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "experiments/flow_workloads.hpp"
#include "obs/flow_trace.hpp"
#include "sim/flowsim.hpp"

namespace {

using namespace hxsim;

/// Bitwise rate-vector equality (inf/NaN-safe); the check-mode comparator.
bool rates_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool records_equal(const obs::FlowSolveRecord& a,
                   const obs::FlowSolveRecord& b) {
  return a.active_flows == b.active_flows &&
         a.levels.size() == b.levels.size() &&
         (a.levels.empty() ||
          std::memcmp(a.levels.data(), b.levels.data(),
                      a.levels.size() * sizeof(double)) == 0) &&
         a.freezes_per_level == b.freezes_per_level &&
         a.saturated == b.saturated;
}

struct EngineTiming {
  double seconds = std::numeric_limits<double>::infinity();
  double freezes_per_sec = 0.0;
  std::int64_t levels = 0;
  std::vector<std::vector<double>> rates;  // one vector per set
};

/// Times `reps` warm passes over all `sets` on each engine through the
/// solve_active fault-stage path (caller scratch, exactly as the
/// resilience campaign drives it).  The engines take turns pass by pass,
/// and each keeps its fastest pass: light sets solve in well under a
/// millisecond, where a burst of host noise would otherwise land on
/// whichever engine happened to be running.  Rates of the last pass are
/// kept for the identity check.
std::vector<EngineTiming> time_engines(
    const topo::Topology& topo,
    std::span<const sim::FlowSim::SolverEngine> engines,
    const std::vector<std::vector<sim::Flow>>& sets, std::int32_t reps) {
  std::vector<sim::FlowSim> solvers;
  for (const sim::FlowSim::SolverEngine engine : engines)
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
      bench::PhaseClock clock;
      pass(e);
      t[e].seconds = std::min(t[e].seconds, clock.lap());
    }
  }
  for (std::size_t e = 0; e < engines.size(); ++e) {
    if (t[e].seconds > 0.0)
      t[e].freezes_per_sec = static_cast<double>(freezes) / t[e].seconds;
    // Untimed traced solve per set: the record is part of the contract.
    obs::FlowSolveTrace trace;
    for (std::size_t i = 0; i < sets.size(); ++i)
      (void)solvers[e].fair_rates(sets[i], &trace);
    for (const auto& solve : trace.solves)
      t[e].levels += static_cast<std::int64_t>(solve.levels.size());
  }
  return t;
}

/// Single-thread comparison of the three cores on one workload; exits
/// non-zero on any rate or record divergence from the reference.
void compare_engines(const char* phase, const topo::Topology& topo,
                     const std::vector<std::vector<sim::Flow>>& sets,
                     std::int32_t reps, obs::BenchJson& json) {
  using Engine = sim::FlowSim::SolverEngine;
  const Engine engines[] = {Engine::kReference, Engine::kIndexed,
                            Engine::kAdaptive};
  const std::vector<EngineTiming> timings =
      time_engines(topo, engines, sets, reps);
  const EngineTiming& ref = timings[0];
  const EngineTiming& idx = timings[1];
  const EngineTiming& ada = timings[2];
  std::int64_t flows = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    flows += static_cast<std::int64_t>(sets[i].size());
    if (!rates_equal(ref.rates[i], idx.rates[i]) ||
        !rates_equal(ref.rates[i], ada.rates[i])) {
      std::fprintf(stderr, "%s: a core differs from the reference "
                   "(set %zu)!\n", phase, i);
      std::exit(1);
    }
  }
  // Traced records: re-solve set 0 on every core and compare fields.
  {
    const sim::FlowSim reference(topo, {}, Engine::kReference);
    obs::FlowSolveTrace rt;
    (void)reference.fair_rates(sets[0], &rt);
    for (const Engine engine : {Engine::kIndexed, Engine::kAdaptive}) {
      const sim::FlowSim other(topo, {}, engine);
      obs::FlowSolveTrace ot;
      (void)other.fair_rates(sets[0], &ot);
      if (!records_equal(rt.solves.at(0), ot.solves.at(0))) {
        std::fprintf(stderr, "%s: FlowSolveRecord differs between cores!\n",
                     phase);
        std::exit(1);
      }
    }
  }
  const double speedup = idx.seconds > 0.0 ? ref.seconds / idx.seconds : 0.0;
  // > 1: adaptive is slower than the faster pure core by that factor.
  const double adaptive_vs_best =
      ada.seconds / std::min(ref.seconds, idx.seconds);
  std::printf(
      "%-24s flows=%-7lld levels=%-5lld old %8.2f Mfz/s | new %8.2f Mfz/s | "
      "speedup %.2fx | adaptive %8.2f Mfz/s, %.2fx best\n",
      phase, static_cast<long long>(flows),
      static_cast<long long>(idx.levels), ref.freezes_per_sec / 1e6,
      idx.freezes_per_sec / 1e6, speedup, ada.freezes_per_sec / 1e6,
      adaptive_vs_best);
  json.add(phase,
           {{"flows", static_cast<double>(flows)},
            {"levels", static_cast<double>(idx.levels)},
            {"old_freezes_per_sec", ref.freezes_per_sec},
            {"new_freezes_per_sec", idx.freezes_per_sec},
            {"speedup", speedup},
            {"adaptive_freezes_per_sec", ada.freezes_per_sec},
            {"adaptive_time_vs_best", adaptive_vs_best}});
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  const std::int32_t reps = args.quick ? 2 : std::max(args.reps, 50);
  obs::BenchJson json("flowsim");
  json.add("machine", {{"hardware_threads",
                        static_cast<double>(exec::hardware_threads())}});

  const bench::FlowFabric hx = bench::flow_hyperx_fabric(args.quick);
  const bench::FlowFabric ft = bench::flow_fat_tree_fabric(args.quick);
  stats::Rng rng(args.seed);

  // --- phase 1: old vs new, single thread -------------------------------
  const std::int32_t samples = args.quick ? 2 : 4;
  {
    std::vector<std::vector<sim::Flow>> uniform;
    for (std::int32_t s = 0; s < samples; ++s)
      uniform.push_back(bench::uniform_flow_set(hx, rng));
    compare_engines("hyperx_uniform", *hx.topo, uniform, reps, json);

    std::vector<std::vector<sim::Flow>> shifts;
    for (const std::int32_t r : {1, 7, hx.topo->num_terminals() / 2})
      shifts.push_back(bench::shift_flow_set(hx, r));
    compare_engines("hyperx_shift", *hx.topo, shifts, reps, json);

    std::vector<std::vector<sim::Flow>> ebb;
    for (std::int32_t s = 0; s < samples; ++s)
      ebb.push_back(bench::ebb_flow_set(hx, rng));
    compare_engines("hyperx_ebb", *hx.topo, ebb, reps, json);

    // The congested regime the rewrite targets: several permutations
    // overlaid share channels unevenly, so the filling passes through
    // many levels and the reference rescans everything at each one.
    std::vector<std::vector<sim::Flow>> merged;
    merged.push_back(
        bench::merged_permutations_set(hx, rng, args.quick ? 4 : 8));
    compare_engines("hyperx_merged_perms", *hx.topo, merged, reps, json);

    std::vector<std::vector<sim::Flow>> ft_uniform;
    for (std::int32_t s = 0; s < samples; ++s)
      ft_uniform.push_back(bench::uniform_flow_set(ft, rng));
    compare_engines("ftree_uniform", *ft.topo, ft_uniform, reps, json);

    std::vector<std::vector<sim::Flow>> ft_merged;
    ft_merged.push_back(
        bench::merged_permutations_set(ft, rng, args.quick ? 4 : 8));
    compare_engines("ftree_merged_perms", *ft.topo, ft_merged, reps, json);
  }

  // --- phase 2: batch scaling through solve_batch -----------------------
  {
    std::vector<std::vector<sim::Flow>> sets;
    const std::int32_t batches = args.quick ? 8 : 16;
    for (std::int32_t s = 0; s < batches; ++s)
      sets.push_back(bench::uniform_flow_set(hx, rng));

    const sim::FlowSim solver(*hx.topo);
    const std::int32_t max_threads = std::min<std::int32_t>(
        8, args.threads > 0 ? args.threads : exec::hardware_threads());
    std::vector<std::vector<double>> reference;
    double base_seconds = 0.0;
    for (std::int32_t t = 1; t <= max_threads; t *= 2) {
      bench::PhaseClock clock;
      auto batch = solver.solve_batch(sets, t);
      const double seconds = clock.lap();
      if (t == 1) {
        base_seconds = seconds;
        reference = std::move(batch);
      } else {
        for (std::size_t i = 0; i < reference.size(); ++i)
          if (!rates_equal(reference[i], batch[i])) {
            std::fprintf(stderr,
                         "solve_batch: %d-thread set %zu differs from "
                         "1-thread!\n",
                         t, i);
            std::exit(1);
          }
      }
      const double speedup = seconds > 0.0 ? base_seconds / seconds : 0.0;
      std::printf("solve_batch_uniform      threads=%-2d  %8.1f ms  speedup "
                  "%.2fx\n",
                  t, seconds * 1e3, speedup);
      json.add("solve_batch_uniform",
               {{"threads", static_cast<double>(t)},
                {"sets", static_cast<double>(batches)},
                {"seconds", seconds},
                {"speedup", speedup}});
    }
  }

  json.write(".");
  std::printf(
      "OK: indexed and adaptive cores bit-identical to reference on all "
      "phases\n");
  return 0;
}
