// Figure 1 experiment: mpiGraph observable bandwidth for 28 nodes, three
// planes (Fat-Tree/ftree 2.26 GiB/s, HyperX/DFSSSP 0.84 GiB/s, HyperX/
// PARX 1.39 GiB/s in the paper).  Fills the `planes` table and per-plane
// mean metrics the claims bind to, then every heatmap cell as the
// long-form `heatmaps` table.
#include <algorithm>
#include <string>
#include <vector>

#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "sim/flowsim.hpp"
#include "stats/units.hpp"
#include "workloads/mpigraph.hpp"

namespace hxsim::bench {

namespace {

struct Plane {
  const char* label;
  const char* key;  // metric prefix, e.g. "ft_ftree"
  const mpi::Cluster* cluster;
};

/// Observability export of the congested plane into `trace`: peak
/// per-channel utilisation across all mpiGraph shifts, flow-solver
/// metrics of every shift, and the DFSSSP routing phase timers.
void export_trace(std::uint64_t seed, const workloads::PaperSystem& system,
                  const mpi::Placement& placement, std::int32_t nodes,
                  std::int64_t bytes, report::ResultSet& trace) {
  const mpi::Cluster& hx = system.hx_dfsssp();
  sim::FlowSim flows(hx.topo(), hx.link());
  obs::FlowSolveTrace ftrace;
  std::vector<double> peak(static_cast<std::size_t>(hx.topo().num_channels()),
                           0.0);
  stats::Rng rng(seed);
  for (std::int32_t shift = 1; shift < nodes; ++shift) {
    std::vector<sim::Flow> round;
    round.reserve(static_cast<std::size_t>(nodes));
    for (std::int32_t i = 0; i < nodes; ++i) {
      const topo::NodeId src = placement.node_of(i);
      const topo::NodeId dst = placement.node_of((i + shift) % nodes);
      auto msg = hx.route_message(src, dst, bytes, rng);
      if (!msg) continue;
      round.push_back(sim::Flow{std::move(msg->path), bytes});
    }
    const std::vector<double> util = flows.channel_utilisation(round, &ftrace);
    for (std::size_t ch = 0; ch < util.size(); ++ch)
      peak[ch] = std::max(peak[ch], util[ch]);
  }
  ftrace.publish(trace, "flow_solves");

  auto& table = trace.table("hx_channel_util", {"channel", "src_switch",
                                                "dst_switch", "switch_link",
                                                "peak_util"});
  const auto endpoint = [](topo::Endpoint e) {
    return e.is_switch() ? std::to_string(e.index) : std::string("-1");
  };
  for (topo::ChannelId ch = 0; ch < hx.topo().num_channels(); ++ch) {
    const std::size_t c = static_cast<std::size_t>(ch);
    if (peak[c] <= 0.0) continue;
    const topo::Channel& chan = hx.topo().channel(ch);
    table.add_row({std::to_string(ch), endpoint(chan.src), endpoint(chan.dst),
                   hx.topo().is_switch_channel(ch) ? "1" : "0",
                   report::format_metric(peak[c])});
  }

  obs::PhaseTimings timings;
  routing::DfssspEngine engine;
  engine.set_timings(&timings);
  const routing::RouteResult rr = engine.compute(hx.topo(), hx.lids());
  for (const auto& [phase, seconds] : timings.entries())
    trace.set("dfsssp_" + phase + "_s", seconds);
  trace.set("dfsssp_num_vls_used", static_cast<double>(rr.num_vls_used));
}

report::ResultSet run(const report::Options& options) {
  const workloads::PaperSystem& system = shared_system(options.quick);
  const std::int32_t nodes = options.quick ? 16 : 28;
  report::ResultSet rs;

  const Plane planes[] = {
      {"Fat-Tree with ftree routing", "ft_ftree", &system.ft_ftree()},
      {"HyperX with DFSSSP routing", "hx_dfsssp", &system.hx_dfsssp()},
      {"HyperX with PARX routing", "hx_parx", &system.hx_parx()},
  };

  const mpi::Placement placement =
      mpi::Placement::linear(nodes,
                             mpi::Placement::whole_machine(system.num_nodes()));

  report::ResultTable& out = rs.table("planes", {"plane",
                                                 "mean GiB/s (off-diag)",
                                                 "min", "max",
                                                 "paper GiB/s"});
  const char* paper_values[] = {"2.26", "0.84", "1.39"};
  report::ResultTable heatmaps{
      "heatmaps", {"plane", "sender", "receiver", "gib_per_s"}, {}};

  int idx = 0;
  double means[3] = {0.0, 0.0, 0.0};
  for (const Plane& plane : planes) {
    workloads::MpiGraphOptions opts;
    opts.seed = options.seed;
    const stats::Heatmap map =
        workloads::mpigraph(*plane.cluster, placement, nodes, opts);
    const double mean = map.mean_off_diagonal();
    means[idx] = mean;
    out.add_row({plane.label, stats::format_fixed(mean, 2),
                 stats::format_fixed(map.min_value(), 2),
                 stats::format_fixed(map.max_value(), 2),
                 paper_values[idx]});
    rs.set(std::string(plane.key) + "_mean_gibs", mean);
    ++idx;
    for (std::size_t r = 0; r < map.rows(); ++r)
      for (std::size_t c = 0; c < map.cols(); ++c)
        heatmaps.add_row({plane.label, std::to_string(c), std::to_string(r),
                          stats::format_fixed(map.at(r, c), 4)});
  }
  rs.tables.push_back(std::move(heatmaps));
  // The figure's headline: PARX recovers bandwidth DFSSSP loses to the
  // shared-cable hotspot.
  rs.set("parx_gain_over_dfsssp", means[2] / means[1]);

  if (options.trace != nullptr) {
    workloads::MpiGraphOptions opts;
    export_trace(options.seed, system, placement, nodes, opts.bytes,
                 *options.trace);
  }
  return rs;
}

}  // namespace

report::Experiment fig1_mpigraph_experiment() {
  return {"fig1_mpigraph",
          "mpiGraph bandwidth heatmaps across the three planes",
          "Fig. 1", run};
}

}  // namespace hxsim::bench
