// Future-work experiment the paper could not run: adaptive routing on the
// HyperX (Section 2.3 / footnote 3).  Compares static DFSSSP, static
// PARX, minimal-adaptive, VAL and DAL on the packet simulator, on the
// shared-cable hotspot and the 28-node half-shift permutation.
#include <cmath>

#include "core/lid_choice.hpp"
#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "sim/adaptive.hpp"
#include "sim/pktsim.hpp"
#include "stats/units.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::bench {

namespace {

double worst_completion(const sim::PktSim::Result& r) {
  double worst = 0.0;
  for (double t : r.completion)
    if (!std::isnan(t)) worst = std::max(worst, t);
  return worst;
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const topo::HyperX hx(topo::paper_hyperx_params());
  const std::int64_t bytes = options.quick ? 64 * 1024 : 512 * 1024;

  // Static planes.
  routing::LidSpace dlids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine dfsssp(8);
  const routing::RouteResult dfsssp_route = dfsssp.compute(hx.topo(), dlids);
  routing::LidSpace plids = core::make_parx_lid_space(hx);
  core::ParxEngine parx(hx);
  const routing::RouteResult parx_route = parx.compute(hx.topo(), plids);

  // Adaptive routers.
  const sim::DalRouter dal(hx);
  const sim::DalRouter minimal_adaptive = sim::make_minimal_adaptive(hx);
  const sim::ValiantRouter valiant(hx, options.seed);

  // Scenario traffic as (src, dst) pairs.
  struct Scenario {
    std::string name;
    std::string key;  // metric suffix: hotspot / shift
    std::vector<std::pair<topo::NodeId, topo::NodeId>> pairs;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario hotspot{"(a) 7 streams, adjacent switches", "hotspot", {}};
    for (std::int32_t i = 0; i < 7; ++i)
      hotspot.pairs.emplace_back(hx.topo().switch_terminals(0)[i],
                                 hx.topo().switch_terminals(1)[i]);
    scenarios.push_back(std::move(hotspot));

    Scenario shift{"(b) 28-node half-shift permutation", "shift", {}};
    for (std::int32_t i = 0; i < 28; ++i)
      shift.pairs.emplace_back(i, (i + 14) % 28);
    scenarios.push_back(std::move(shift));
  }

  auto static_messages = [&](const Scenario& sc,
                             const routing::LidSpace& lids,
                             const routing::RouteResult& route,
                             bool parx_selection) {
    stats::Rng rng(options.seed);
    std::vector<sim::PktMessage> msgs;
    for (const auto& [src, dst] : sc.pairs) {
      routing::Lid dlid = lids.base_lid(dst);
      if (parx_selection) {
        const auto src_q = lids.group_of_lid(lids.base_lid(src));
        const auto dst_q = lids.group_of_lid(lids.base_lid(dst));
        dlid = lids.lid(dst, core::pick_parx_lid(
                                 src_q, dst_q,
                                 core::classify_message(bytes), rng));
      }
      auto path = route.tables.path(hx.topo(), lids, src, dlid);
      sim::PktMessage m;
      m.src = src;
      m.dst = dst;
      m.bytes = bytes;
      m.path = std::move(path.channels);
      m.vl = route.vls.vl(hx.topo().attach_switch(src), dlid);
      msgs.push_back(std::move(m));
    }
    return msgs;
  };
  auto adaptive_messages = [&](const Scenario& sc) {
    std::vector<sim::PktMessage> msgs;
    for (const auto& [src, dst] : sc.pairs) {
      sim::PktMessage m;
      m.src = src;
      m.dst = dst;
      m.bytes = bytes;
      msgs.push_back(std::move(m));
    }
    return msgs;
  };

  report::ResultTable& out =
      rs.table("speedups", {"scenario", "routing", "slowest stream [ms]",
                            "vs DFSSSP"});
  for (const Scenario& sc : scenarios) {
    double base = 0.0;
    struct Run {
      const char* name;
      const char* key;
      double time;
    };
    std::vector<Run> runs;
    {
      sim::PktSim pkt(hx.topo(), sim::PktSimConfig{});
      runs.push_back({"static DFSSSP (minimal)", "dfsssp",
                      worst_completion(pkt.run(
                          static_messages(sc, dlids, dfsssp_route, false)))});
      base = runs.back().time;
    }
    {
      sim::PktSim pkt(hx.topo(), sim::PktSimConfig{});
      runs.push_back({"static PARX (Table 1)", "parx",
                      worst_completion(pkt.run(
                          static_messages(sc, plids, parx_route, true)))});
    }
    {
      sim::PktSimConfig cfg;
      cfg.adaptive = &minimal_adaptive;
      sim::PktSim pkt(hx.topo(), cfg);
      runs.push_back({"minimal-adaptive", "min_adaptive",
                      worst_completion(pkt.run(adaptive_messages(sc)))});
    }
    {
      sim::PktSimConfig cfg;
      cfg.adaptive = &valiant;
      sim::PktSim pkt(hx.topo(), cfg);
      runs.push_back({"VAL (random intermediate)", "val",
                      worst_completion(pkt.run(adaptive_messages(sc)))});
    }
    {
      sim::PktSimConfig cfg;
      cfg.adaptive = &dal;
      sim::PktSim pkt(hx.topo(), cfg);
      runs.push_back({"DAL (adaptive, 1 deroute/dim)", "dal",
                      worst_completion(pkt.run(adaptive_messages(sc)))});
    }
    for (const Run& run : runs) {
      const double speedup = base / run.time;
      out.add_row({sc.name, run.name,
                   stats::format_fixed(run.time * 1e3, 2),
                   stats::format_fixed(speedup, 2) + "x"});
      rs.set(std::string(run.key) + "_speedup_" + sc.key, speedup);
    }
  }
  return rs;
}

}  // namespace

report::Experiment adaptive_routing_experiment() {
  return {"adaptive_routing",
          "Static vs adaptive routing (DFSSSP/PARX/min-adaptive/VAL/DAL)",
          "SS2.3 / footnote 3", run};
}

}  // namespace hxsim::bench
