// Section 3.2.4 calibration experiment: at which message size does
// congestion on the single cable between two HyperX switches start to
// dominate latency?  Multi-PingPong on the packet simulator, k = 1..7
// pairs per switch pair; the knee behind the paper's 512-byte threshold.
// Every (size, pairs) slowdown is a row of the `slowdown` table; `knee`
// holds its 7-pair column.
#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "sim/pktsim.hpp"
#include "stats/units.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::bench {

namespace {

// Deterministic and cheap at paper scale: ignores every option.
report::ResultSet run(const report::Options&) {
  report::ResultSet rs;

  const topo::HyperX hx(topo::paper_hyperx_params());
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine engine(8);
  const routing::RouteResult route = engine.compute(hx.topo(), lids);

  sim::PktSimConfig cfg;
  sim::PktSim pktsim(hx.topo(), cfg);

  std::vector<std::int64_t> sizes;
  for (std::int64_t b = 64; b <= 64 * 1024; b *= 2) sizes.push_back(b);

  report::ResultTable& knee =
      rs.table("knee", {"msg size", "7-pair slowdown"});
  report::ResultTable slowdown{
      "slowdown", {"msg size", "pairs", "slowdown"}, {}};

  for (const std::int64_t bytes : sizes) {
    double solo_latency = 0.0;
    double full_contention = 0.0;
    for (std::int32_t pairs = 1; pairs <= 7; ++pairs) {
      std::vector<sim::PktMessage> msgs;
      for (std::int32_t p = 0; p < pairs; ++p) {
        // Node p on switch 0 streams to node p on switch 1 (7 per switch).
        const topo::NodeId src = hx.topo().switch_terminals(0)[p];
        const topo::NodeId dst = hx.topo().switch_terminals(1)[p];
        const auto path = route.tables.path(hx.topo(), lids, src,
                                            lids.base_lid(dst));
        sim::PktMessage m;
        m.src = src;
        m.dst = dst;
        m.bytes = bytes;
        m.path = path.channels;
        msgs.push_back(std::move(m));
      }
      const auto result = pktsim.run(msgs);
      double worst = 0.0;
      for (double t : result.completion) worst = std::max(worst, t);
      if (pairs == 1) solo_latency = worst;
      full_contention = worst / solo_latency;
      slowdown.add_row({stats::format_bytes(bytes), std::to_string(pairs),
                        stats::format_fixed(full_contention, 2) + "x"});
    }
    knee.add_row({stats::format_bytes(bytes),
                  stats::format_fixed(full_contention, 2) + "x"});
    // Metric names stay byte-count keyed: slowdown_7p_512B etc.
    std::string size_key =
        bytes < 1024 ? std::to_string(bytes) + "B"
                     : std::to_string(bytes / 1024) + "KiB";
    rs.set("slowdown_7p_" + size_key, full_contention);
  }
  rs.tables.push_back(std::move(slowdown));
  return rs;
}

}  // namespace

report::Experiment threshold_calibration_experiment() {
  return {"threshold_calibration",
          "Multi-PingPong knee behind the 512-byte PARX threshold",
          "SS3.2.4", run};
}

}  // namespace hxsim::bench
