// Figure 5c experiment: Netgauge effective bisection bandwidth -- random
// bisections with 1 MiB streams, whiskers over the sample distribution,
// per node count and combination.  The paper's headline: PARX nearly
// doubles the 14-node dense-allocation eBB and wins 2-6 % in the mid
// range, but loses at full scale where global detours add congestion.
// The whiskers of every (combination, node count) are the `whiskers`
// table.
#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "experiments/experiments.hpp"
#include "stats/gain.hpp"
#include "stats/summary.hpp"
#include "stats/units.hpp"
#include "workloads/ebb.hpp"
#include "workloads/imb.hpp"

namespace hxsim::bench {

namespace {

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const workloads::PaperSystem& system = shared_system(options.quick);
  const std::int32_t machine = system.num_nodes();

  // The figure mixes both capability sequences (4, 8, 14, 16, 28, ...).
  std::vector<std::int32_t> node_counts;
  {
    const auto a = workloads::capability_node_counts(false, machine);
    const auto b = workloads::capability_node_counts(true, machine);
    node_counts.insert(node_counts.end(), a.begin(), a.end());
    node_counts.insert(node_counts.end(), b.begin(), b.end());
    std::sort(node_counts.begin(), node_counts.end());
    node_counts.erase(
        std::unique(node_counts.begin(), node_counts.end()),
        node_counts.end());
  }
  if (options.quick) node_counts.assign({8, 14, 16, 28});

  workloads::EbbOptions ebb_opts;
  ebb_opts.samples = options.quick ? 50 : 250;  // paper: 1000 (slow but exact)
  ebb_opts.seed = options.seed;

  report::ResultTable whiskers{"whiskers",
                               {"config", "nodes", "median_gibs", "min", "max",
                                "gain_vs_baseline", "q25", "q75"},
                               {}};

  // medians[cfg] and counts align row-by-row across configs (the same
  // even-count filter applies everywhere).
  std::vector<std::int32_t> even_counts;
  std::vector<std::vector<double>> medians(system.configs().size());
  std::vector<double> baseline_median;
  for (std::size_t cfg = 0; cfg < system.configs().size(); ++cfg) {
    const auto& config = system.configs()[cfg];
    std::size_t row_idx = 0;
    for (const std::int32_t n : node_counts) {
      if (n % 2 != 0 && n != 7) continue;  // eBB needs even node counts
      const std::int32_t even_n = n - (n % 2);
      const mpi::Placement placement =
          place(config, even_n, machine, options.seed);
      const workloads::EbbResult result =
          workloads::effective_bisection_bandwidth(*config.cluster, placement,
                                                   even_n, ebb_opts);
      const stats::Summary s = result.summary();
      if (cfg == 0) {
        baseline_median.push_back(s.median);
        even_counts.push_back(even_n);
      }
      medians[cfg].push_back(s.median);
      const double base = baseline_median[row_idx++];
      const double gain = stats::relative_gain(
          base, s.median, stats::Direction::kHigherIsBetter);
      whiskers.add_row({config.name, std::to_string(even_n),
                        stats::format_fixed(s.median, 4),
                        stats::format_fixed(s.min, 4),
                        stats::format_fixed(s.max, 4),
                        stats::format_gain(gain),
                        stats::format_fixed(s.q25, 4),
                        stats::format_fixed(s.q75, 4)});
    }
  }

  // The figure's observations, machine-checked.  Row index of the 14-node
  // allocation and the full system:
  auto row_of = [&](std::int32_t n) -> std::int32_t {
    for (std::size_t i = 0; i < even_counts.size(); ++i)
      if (even_counts[i] == n) return static_cast<std::int32_t>(i);
    return -1;
  };
  auto gain_at = [&](std::size_t cfg, std::size_t row) {
    return stats::relative_gain(baseline_median[row], medians[cfg][row],
                                stats::Direction::kHigherIsBetter);
  };
  const std::int32_t r14 = row_of(14);
  const std::size_t last = even_counts.size() - 1;
  report::ResultTable& out =
      rs.table("observations", {"observation", "paper", "measured"});
  if (r14 >= 0) {
    const double dip = gain_at(2, static_cast<std::size_t>(r14));
    const double ratio = medians[4][static_cast<std::size_t>(r14)] /
                         medians[2][static_cast<std::size_t>(r14)];
    rs.set("hx_linear_14n_gain", dip);
    rs.set("parx_over_dfsssp_14n", ratio);
    out.add_row({"HX/DFSSSP/linear dip at 14 nodes", "large negative",
                 stats::format_gain(dip)});
    out.add_row({"PARX recovers the 14-node eBB (x over DFSSSP)", "~1.9x",
                 stats::format_fixed(ratio, 2) + "x"});
  }
  // Mid-range random placement (28 <= n < full system).
  double mid_min = std::numeric_limits<double>::infinity();
  double mid_max = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < even_counts.size(); ++i) {
    if (even_counts[i] < 28 || i == last) continue;
    const double g = gain_at(3, i);
    mid_min = std::min(mid_min, g);
    mid_max = std::max(mid_max, g);
  }
  if (std::isfinite(mid_min)) {
    rs.set("hx_random_midrange_min_gain", mid_min);
    rs.set("hx_random_midrange_max_gain", mid_max);
    out.add_row({"HX/DFSSSP/random mid-range gain", "+0.02 .. +0.06",
                 stats::format_gain(mid_min) + " .. " +
                     stats::format_gain(mid_max)});
  }
  const double full_gain = gain_at(4, last);
  rs.set("parx_fullsystem_gain", full_gain);
  out.add_row({"PARX at full system (global detours congest)", "negative",
               stats::format_gain(full_gain)});
  rs.set("ft_ebb_smallest_gibs", baseline_median.front());
  rs.set("ft_ebb_largest_gibs", baseline_median.back());
  out.add_row({"Fat-tree eBB, smallest -> largest allocation",
               "slow decline",
               stats::format_fixed(baseline_median.front(), 2) + " -> " +
                   stats::format_fixed(baseline_median.back(), 2) +
                   " GiB/s"});
  rs.tables.push_back(std::move(whiskers));
  return rs;
}

}  // namespace

report::Experiment fig5c_ebb_experiment() {
  return {"fig5c_ebb",
          "Effective bisection bandwidth whiskers per combination",
          "Fig. 5c", run};
}

}  // namespace hxsim::bench
