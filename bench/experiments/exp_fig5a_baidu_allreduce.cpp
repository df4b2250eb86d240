// Figure 5a experiment: Baidu DeepBench ring allreduce, average latency
// per array length (4-byte floats, 0 ... 512 Mi elements), relative gain
// over the Fat-Tree/ftree/linear baseline for the other four combinations
// (the long-form `gains` table).
#include <map>

#include "experiments/experiments.hpp"
#include "mpi/collectives.hpp"
#include "stats/gain.hpp"
#include "stats/units.hpp"
#include "workloads/imb.hpp"

namespace hxsim::bench {

namespace {

/// The x-axis of Figure 5a (array lengths in floats).
std::vector<std::int64_t> array_lengths(bool quick) {
  std::vector<std::int64_t> lengths{0,       32,       256,      1024,
                                    4096,    16384,    65536,    262144,
                                    1048576, 8388608,  67108864, 536870912};
  if (quick) lengths.resize(6);
  return lengths;
}

/// Metric key per non-baseline config index (fixed PaperSystem order).
const char* config_key(std::size_t cfg) {
  switch (cfg) {
    case 1: return "ft_sssp_clustered";
    case 2: return "hx_dfsssp_linear";
    case 3: return "hx_dfsssp_random";
    case 4: return "hx_parx_clustered";
  }
  return "baseline";
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const workloads::PaperSystem& system = shared_system(options.quick);
  const std::int32_t machine = system.num_nodes();

  std::vector<std::int32_t> node_counts =
      workloads::capability_node_counts(false, machine);
  if (options.quick) node_counts.assign({7, 14, 28});
  const auto lengths = array_lengths(options.quick);

  report::ResultTable gains{
      "gains",
      {"config", "nodes", "array_len", "tavg_s", "gain_vs_baseline"},
      {}};

  std::map<std::tuple<std::size_t, std::int32_t, std::int64_t>, double> best;
  for (std::size_t cfg = 0; cfg < system.configs().size(); ++cfg) {
    const auto& config = system.configs()[cfg];
    const std::int32_t reps = reps_for(config, options);
    for (const std::int32_t n : node_counts) {
      for (std::int32_t rep = 0; rep < reps; ++rep) {
        const mpi::Placement placement =
            place(config, n, machine, options.seed + 131 * rep);
        mpi::Transport transport(*config.cluster, placement,
                                 options.seed + rep);
        for (const std::int64_t len : lengths) {
          const double t = transport.execute(
              mpi::collectives::allreduce_ring(n, len * 4));
          auto [it, inserted] = best.try_emplace({cfg, n, len}, t);
          if (!inserted && t < it->second) it->second = t;
        }
      }
    }
  }

  // The figure's asymptote: gain at the largest array on the largest
  // allocation, per combination.
  const std::int32_t n_top = node_counts.back();
  const std::int64_t len_top = lengths.back();
  report::ResultTable& largest =
      rs.table("largest", {"configuration",
                           "gain @ largest array, full allocation"});

  for (std::size_t cfg = 1; cfg < system.configs().size(); ++cfg) {
    const auto& config = system.configs()[cfg];
    for (const std::int64_t len : lengths) {
      for (const std::int32_t n : node_counts) {
        const double base = best.at({std::size_t{0}, n, len});
        const double cand = best.at({cfg, n, len});
        const double gain = stats::relative_gain(
            base, cand, stats::Direction::kLowerIsBetter);
        gains.add_row({config.name, std::to_string(n), std::to_string(len),
                       stats::format_fixed(cand, 6),
                       stats::format_gain(gain)});
      }
    }

    const double top_gain = stats::relative_gain(
        best.at({std::size_t{0}, n_top, len_top}),
        best.at({cfg, n_top, len_top}), stats::Direction::kLowerIsBetter);
    largest.add_row({config.name, stats::format_gain(top_gain)});
    rs.set(std::string(config_key(cfg)) + "_gain_largest", top_gain);
  }
  rs.tables.push_back(std::move(gains));
  return rs;
}

}  // namespace

report::Experiment fig5a_baidu_allreduce_experiment() {
  return {"fig5a_baidu_allreduce",
          "Baidu DeepBench ring-allreduce gains over the baseline",
          "Fig. 5a", run};
}

}  // namespace hxsim::bench
