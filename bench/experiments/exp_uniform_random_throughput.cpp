// Section 2.2 experiment: saturation throughput per traffic matrix.
// Measures the design claims ("a HyperX with only 50% bisection can still
// provide ~100% throughput for uniform random traffic; worst-case traffic
// only achieves ~50%") on the un-degraded planes.
#include <algorithm>
#include <vector>

#include "core/quadrant.hpp"
#include "experiments/experiments.hpp"
#include "sim/flowsim.hpp"
#include "stats/units.hpp"
#include "workloads/paper_system.hpp"

namespace hxsim::bench {

namespace {

struct Demand {
  topo::NodeId src;
  topo::NodeId dst;
  double weight;  // fraction of the source's unit injection
};

/// alpha = min over channels of capacity / load (capacity == 1 unit).
double saturation_throughput(const mpi::Cluster& cluster,
                             const std::vector<Demand>& demands,
                             std::uint64_t seed) {
  std::vector<double> load(
      static_cast<std::size_t>(cluster.topo().num_channels()), 0.0);
  stats::Rng rng(seed);
  for (const Demand& d : demands) {
    auto msg = cluster.route_message(d.src, d.dst, 1 << 20, rng);
    if (!msg) continue;
    for (topo::ChannelId ch : msg->path)
      load[static_cast<std::size_t>(ch)] += d.weight;
  }
  double worst = 0.0;
  for (double l : load) worst = std::max(worst, l);
  return worst > 0.0 ? std::min(1.0, 1.0 / worst) : 1.0;
}

/// Complementary metric: mean max-min fair rate (fraction of injection
/// bandwidth) -- less pessimistic than the worst-channel alpha, because
/// uncongested flows keep their full share.
double mean_fair_throughput(const mpi::Cluster& cluster,
                            const std::vector<Demand>& demands,
                            std::uint64_t seed) {
  sim::FlowSim flowsim(cluster.topo(), cluster.link());
  stats::Rng rng(seed);
  std::vector<sim::Flow> flows;
  for (const Demand& d : demands) {
    if (d.weight < 1.0) continue;  // per-flow metric: permutation rows only
    auto msg = cluster.route_message(d.src, d.dst, 1 << 20, rng);
    if (!msg) continue;
    flows.push_back(sim::Flow{std::move(msg->path), 1 << 20});
  }
  if (flows.empty()) return 0.0;
  const auto rates = flowsim.fair_rates(flows);
  double mean = 0.0;
  for (double r : rates) mean += r;
  return mean / static_cast<double>(rates.size()) / cluster.link().bandwidth;
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  // Not the shared system: this experiment measures the *design*, not the
  // degradation, so faults are off.
  workloads::SystemOptions opts;
  opts.small_scale = options.quick;
  opts.with_faults = false;
  const workloads::PaperSystem system(opts);
  const std::int32_t n = system.num_nodes();
  const auto& hx = system.hyperx();
  stats::Rng rng(options.seed);

  auto uniform = [&] {
    std::vector<Demand> demands;
    demands.reserve(static_cast<std::size_t>(n) * (n - 1));
    const double w = 1.0 / static_cast<double>(n - 1);
    for (topo::NodeId i = 0; i < n; ++i)
      for (topo::NodeId j = 0; j < n; ++j)
        if (i != j) demands.push_back(Demand{i, j, w});
    return demands;
  };
  auto permutation = [&] {
    std::vector<Demand> demands;
    const auto perm = rng.permutation(n);
    for (topo::NodeId i = 0; i < n; ++i)
      if (perm[static_cast<std::size_t>(i)] != i)
        demands.push_back(Demand{i, perm[static_cast<std::size_t>(i)], 1.0});
    return demands;
  };
  auto bisector = [&] {
    std::vector<topo::NodeId> top;
    std::vector<topo::NodeId> bottom;
    for (topo::NodeId i = 0; i < n; ++i) {
      const topo::SwitchId sw = hx.topo().attach_switch(i);
      (core::in_half(hx, sw, core::Half::kTop) ? top : bottom).push_back(i);
    }
    rng.shuffle(top);
    rng.shuffle(bottom);
    std::vector<Demand> demands;
    for (std::size_t i = 0; i < top.size() && i < bottom.size(); ++i) {
      demands.push_back(Demand{top[i], bottom[i], 1.0});
      demands.push_back(Demand{bottom[i], top[i], 1.0});
    }
    return demands;
  };

  rs.set("hx_bisection_ratio", hx.bisection_ratio());

  report::ResultTable& out =
      rs.table("matrix", {"traffic matrix", "FT alpha", "HX alpha",
                          "FT mean", "HX mean", "paper's expectation"});
  struct Row {
    const char* name;
    const char* key;
    std::vector<Demand> demands;
    const char* expect;
  };
  std::vector<Row> rows;
  rows.push_back({"uniform (design point)", "uniform", uniform(),
                  "HyperX ~1.0 despite 57% bisection"});
  rows.push_back({"random permutation", "perm", permutation(),
                  "mean high; worst channel collides [30]"});
  rows.push_back({"bisector adversarial", "bisector", bisector(),
                  "HX mean capped near its 0.57 cut"});
  for (Row& row : rows) {
    const double ft_a =
        saturation_throughput(system.ft_ftree(), row.demands, options.seed);
    const double hx_a =
        saturation_throughput(system.hx_dfsssp(), row.demands, options.seed);
    const double ft_m =
        mean_fair_throughput(system.ft_ftree(), row.demands, options.seed);
    const double hx_m =
        mean_fair_throughput(system.hx_dfsssp(), row.demands, options.seed);
    auto fmt = [](double v) {
      return v > 0.0 ? stats::format_fixed(v, 2) : std::string("-");
    };
    out.add_row({row.name, fmt(ft_a), fmt(hx_a), fmt(ft_m), fmt(hx_m),
                 row.expect});
    rs.set(std::string(row.key) + "_ft_alpha", ft_a);
    rs.set(std::string(row.key) + "_hx_alpha", hx_a);
    if (ft_m > 0.0) rs.set(std::string(row.key) + "_ft_mean", ft_m);
    if (hx_m > 0.0) rs.set(std::string(row.key) + "_hx_mean", hx_m);
  }
  return rs;
}

}  // namespace

report::Experiment uniform_random_throughput_experiment() {
  return {"uniform_random_throughput",
          "Saturation throughput per traffic matrix on both planes",
          "SS2.2", run};
}

}  // namespace hxsim::bench
