// Table 1 experiment: the valid virtual destination LIDx per (source
// quadrant, destination quadrant, message class) from the implementation
// (the long-form `lids` table), and the measured path-length consequence
// on the HyperX lattice (minimal for small, forced detour for large).
#include "core/lid_choice.hpp"
#include "core/quadrant.hpp"
#include "experiments/experiments.hpp"
#include "stats/units.hpp"

namespace hxsim::bench {

namespace {

/// Adds one class's 16 (source, destination quadrant) cells to `lids`;
/// returns the total option count over them (the machine-checked shape of
/// Table 1: small-class cells offer two quadrant-local choices,
/// large-class cells pin one detour).
std::int32_t add_class(core::MsgClass cls, const char* name,
                       report::ResultTable& lids) {
  const char* const quadrants[] = {"Q0", "Q1", "Q2", "Q3"};
  std::int32_t options_total = 0;
  for (std::int32_t s = 0; s < 4; ++s) {
    for (std::int32_t d = 0; d < 4; ++d) {
      const core::LidChoice c = core::parx_lid_options(s, d, cls);
      std::string x = std::to_string(c.options[0]);
      if (c.count == 2) x.append(" | ").append(std::to_string(c.options[1]));
      lids.add_row({name, quadrants[s], quadrants[d], std::move(x)});
      options_total += c.count;
    }
  }
  return options_total;
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  report::ResultTable lids{
      "lids", {"message class", "source", "destination", "LIDx"}, {}};
  const std::int32_t small_options =
      add_class(core::MsgClass::kSmall, "small", lids);
  const std::int32_t large_options =
      add_class(core::MsgClass::kLarge, "large", lids);
  rs.set("small_lid_options_total", small_options);
  rs.set("large_lid_options_total", large_options);

  // Demonstrate the consequence on the real lattice: average switch hops
  // per class between two same-quadrant switches.
  const workloads::PaperSystem& system = shared_system(options.quick);
  const auto& hx = system.hyperx();
  const auto& cluster = system.hx_parx();
  stats::Rng rng(options.seed);

  double small_hops = 0.0;
  double large_hops = 0.0;
  std::int32_t pairs = 0;
  for (topo::NodeId src = 0; src < 14; ++src) {
    for (topo::NodeId dst = 0; dst < 14; ++dst) {
      if (hx.topo().attach_switch(src) == hx.topo().attach_switch(dst))
        continue;
      const auto s = cluster.route_message(src, dst, 256, rng);
      const auto l = cluster.route_message(src, dst, 1 << 20, rng);
      small_hops += s ? s->path.size() - 2.0 : 0.0;
      large_hops += l ? l->path.size() - 2.0 : 0.0;
      ++pairs;
    }
  }
  const double small_avg = small_hops / pairs;
  const double large_avg = large_hops / pairs;
  rs.set("small_avg_switch_hops", small_avg);
  rs.set("large_avg_switch_hops", large_avg);

  report::ResultTable& out =
      rs.table("consequence", {"message class", "avg switch hops",
                               "LID options over the 16 quadrant cells",
                               "paper"});
  out.add_row({"small (<= threshold)", stats::format_fixed(small_avg, 2),
               std::to_string(small_options), "minimal (1 hop adjacent)"});
  out.add_row({"large", stats::format_fixed(large_avg, 2),
               std::to_string(large_options), "forced detour"});
  rs.tables.push_back(std::move(lids));
  return rs;
}

}  // namespace

report::Experiment table1_rules_experiment() {
  return {"table1_rules",
          "PARX virtual destination LID selection rules and consequences",
          "Table 1 / SS3.2.1", run};
}

}  // namespace hxsim::bench
