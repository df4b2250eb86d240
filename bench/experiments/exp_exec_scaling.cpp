// Repo-level experiment: thread scaling of full-fabric route computation
// and of the MPI transport on the exec/ layer.  DFSSSP on the 12x8 HyperX and ftree on the paper
// fat-tree (the small CI fabrics in quick mode) are timed at 1, 2, 4, ...
// threads up to --threads (default: every hardware thread).  Every
// N-thread RouteResult must equal the 1-thread one; a difference throws,
// naming the phase.  Wall times and speedups land in the long-form
// "phases" table after a "machine" row recording the hardware they ran
// on.  A "parx_hyperx_12x8" row splits one PARX compute on the same
// HyperX (default threads, mean of --reps runs) into the engine's phases:
// spf_trees, parx_load, vl_path_extraction and vl_placement, plus the
// whole compute's wall time ("total"), all in seconds.  A
// "transport_alltoall_parx" row times one 128 KiB IMB Alltoall at full
// machine size (the 96-node system in quick mode) through mpi::Transport
// on the PARX plane, whose bfo LID draws the transport makes serially, at
// each thread point set through exec::set_default_threads; the round
// times must equal the 1-thread ones bit for bit, and the row records
// seconds, speedup and the rounds that reused the previous round's
// rates.  An "mpigraph_parx" row does the same for one full-machine
// mpiGraph on that plane, whose heatmap cells must equal the 1-thread
// cells bit for bit.  The flow solver's batch scaling is timed and
// identity-checked by flowsim_speedup.
#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parx.hpp"
#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "workloads/imb.hpp"
#include "workloads/mpigraph.hpp"

namespace hxsim::bench {

namespace {

std::vector<std::int32_t> thread_points(std::int32_t max_threads) {
  std::vector<std::int32_t> pts{1};
  for (std::int32_t t = 2; t < max_threads; t *= 2) pts.push_back(t);
  if (max_threads > 1) pts.push_back(max_threads);
  return pts;
}

/// Times `route(threads)` at every thread point, throws unless each result
/// equals the 1-thread one, and records the phase's rows.
template <typename Route>
void sweep(const char* phase, const std::vector<std::int32_t>& points,
           std::int32_t reps, report::ResultTable& phase_table,
           const Route& route) {
  double base_seconds = 0.0;
  routing::RouteResult reference;
  for (const std::int32_t t : points) {
    PhaseClock clock;
    routing::RouteResult result;
    for (std::int32_t r = 0; r < reps; ++r) result = route(t);
    const double seconds = clock.lap() / reps;
    if (t == 1) {
      base_seconds = seconds;
      reference = std::move(result);
    } else if (result != reference) {
      throw std::runtime_error(std::string(phase) + ": " + std::to_string(t) +
                               "-thread routes differ from the 1-thread "
                               "routes");
    }
    const double speedup = seconds > 0.0 ? base_seconds / seconds : 0.0;
    add_phase(phase_table, phase,
              {{"threads", static_cast<double>(t)},
               {"seconds", seconds},
               {"speedup", speedup}});
  }
}

/// Runs `run` at each thread point as the process default, `reps` times
/// per point, and throws unless every run's output equals the 1-thread
/// output bit for bit.  Each point's row records threads, seconds,
/// speedup and the metrics `extra()` reports after its last run.
template <typename Run, typename Extra>
void default_threads_sweep(const char* phase,
                           const std::vector<std::int32_t>& points,
                           std::int32_t reps, report::ResultTable& phase_table,
                           const Run& run, const Extra& extra) {
  const std::int32_t saved_threads = exec::default_threads();
  double base_seconds = 0.0;
  std::vector<double> reference;
  std::int32_t mismatch = 0;  // first thread count whose output differs
  for (const std::int32_t t : points) {
    exec::set_default_threads(t);
    std::vector<double> output;
    PhaseClock clock;
    for (std::int32_t r = 0; r < reps; ++r) output = run();
    const double seconds = clock.lap() / reps;
    if (t == 1) {
      base_seconds = seconds;
      reference = output;
    } else if (mismatch == 0 &&
               (output.size() != reference.size() ||
                std::memcmp(output.data(), reference.data(),
                            output.size() * sizeof(double)) != 0)) {
      mismatch = t;
    }
    const double speedup = seconds > 0.0 ? base_seconds / seconds : 0.0;
    std::vector<std::pair<std::string, double>> metrics{
        {"threads", static_cast<double>(t)},
        {"seconds", seconds},
        {"speedup", speedup}};
    for (auto& [name, value] : extra())
      metrics.emplace_back(std::move(name), value);
    add_phase(phase_table, phase, metrics);
  }
  exec::set_default_threads(saved_threads);
  if (mismatch != 0)
    throw std::runtime_error(std::string(phase) + ": " +
                             std::to_string(mismatch) +
                             "-thread results differ from the 1-thread "
                             "results");
}

/// The PARX plane at full machine size through the round runner's
/// callers: one 128 KiB IMB Alltoall through mpi::Transport (round
/// times, and the rounds that reused the previous round's rates), and
/// one mpiGraph (heatmap cells).
void round_runner_sweeps(const report::Options& options,
                         const std::vector<std::int32_t>& points,
                         std::int32_t reps, report::ResultTable& phase_table) {
  const workloads::PaperSystem& system = shared_system(options.quick);
  const std::int32_t n = system.num_nodes();
  const mpi::Placement placement =
      mpi::Placement::linear(n, mpi::Placement::whole_machine(n));

  const mpi::Schedule schedule =
      workloads::imb_schedule(workloads::ImbOp::kAlltoall, n, 128 << 10);
  std::int64_t reused = 0;
  default_threads_sweep(
      "transport_alltoall_parx", points, reps, phase_table,
      [&] {
        mpi::Transport transport(system.hx_parx(), placement, options.seed);
        std::vector<double> times = transport.execute_rounds(schedule);
        reused = transport.reused_rounds();
        return times;
      },
      [&] {
        return std::vector<std::pair<std::string, double>>{
            {"reused_rounds", static_cast<double>(reused)}};
      });

  workloads::MpiGraphOptions graph;
  graph.seed = options.seed;
  default_threads_sweep(
      "mpigraph_parx", points, reps, phase_table,
      [&] {
        const stats::Heatmap map =
            workloads::mpigraph(system.hx_parx(), placement, n, graph);
        std::vector<double> cells;
        cells.reserve(map.rows() * map.cols());
        for (std::size_t r = 0; r < map.rows(); ++r)
          for (std::size_t c = 0; c < map.cols(); ++c)
            cells.push_back(map.at(r, c));
        return cells;
      },
      [] { return std::vector<std::pair<std::string, double>>{}; });
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const std::int32_t max_threads =
      options.threads > 0 ? options.threads : exec::hardware_threads();
  const auto points = thread_points(max_threads);
  const std::int32_t reps = options.quick ? 1 : std::max(options.reps, 1);
  report::ResultTable phase_table{"phases", {"phase", "metric", "value"}, {}};
  add_phase(phase_table, "machine",
            {{"hardware_threads",
              static_cast<double>(exec::hardware_threads())},
             {"max_threads", static_cast<double>(max_threads)}});

  // --- full-fabric DFSSSP on the 12x8 HyperX (paper default routing) ----
  const topo::HyperX hx(options.quick ? topo::small_hyperx_params()
                                      : topo::paper_hyperx_params());
  const auto hx_lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  sweep("dfsssp_hyperx_12x8", points, reps, phase_table,
        [&](std::int32_t t) {
          routing::DfssspEngine engine(8, t);
          return engine.compute(hx.topo(), hx_lids);
        });

  // --- PARX on the same HyperX, split into its phases -------------------
  {
    const routing::LidSpace parx_lids = core::make_parx_lid_space(hx);
    core::ParxEngine engine(hx);
    obs::PhaseTimings timings;
    engine.set_timings(&timings);
    PhaseClock clock;
    for (std::int32_t r = 0; r < reps; ++r)
      (void)engine.compute(hx.topo(), parx_lids);
    const double total = clock.lap() / reps;
    std::vector<std::pair<std::string, double>> metrics;
    for (const auto& [phase, seconds] : timings.entries())
      metrics.emplace_back(phase, seconds / reps);
    metrics.emplace_back("total", total);
    add_phase(phase_table, "parx_hyperx_12x8", metrics);
  }

  // --- full-fabric ftree on the 3-level fat-tree ------------------------
  const topo::FatTree ft(options.quick ? topo::small_fat_tree_params()
                                       : topo::paper_fat_tree_params());
  const auto ft_lids =
      routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
  sweep("ftree_paper_tree", points, reps, phase_table, [&](std::int32_t t) {
    routing::FtreeEngine engine(ft, t);
    return engine.compute(ft.topo(), ft_lids);
  });

  round_runner_sweeps(options, points, reps, phase_table);

  // Reaching here means every N-thread result matched (the sweeps throw).
  rs.set("threads_identical", 1.0);
  rs.tables.push_back(std::move(phase_table));
  return rs;
}

}  // namespace

report::Experiment exec_scaling_experiment() {
  return {"exec_scaling",
          "Route-computation and transport thread scaling and 1 vs N-thread "
          "identity",
          "repo (exec-layer contract)", run};
}

}  // namespace hxsim::bench
