// Table 1 experiment: the valid virtual destination LIDx per (source
// quadrant, destination quadrant, message class) from the implementation,
// the R1-R4 rule list, and the measured path-length consequence on the
// HyperX lattice (minimal for small, forced detour for large).
#include <cstdio>

#include "core/lid_choice.hpp"
#include "core/quadrant.hpp"
#include "experiments/experiments.hpp"
#include "stats/table.hpp"
#include "stats/units.hpp"

namespace hxsim::bench {

namespace {

std::string cell(std::int32_t s, std::int32_t d, core::MsgClass cls) {
  const core::LidChoice c = core::parx_lid_options(s, d, cls);
  std::string out = std::to_string(c.options[0]);
  if (c.count == 2) out += " | " + std::to_string(c.options[1]);
  return out;
}

/// Prints one class's 4x4 LID table; returns the total option count over
/// the 16 cells (the machine-checked shape of Table 1: small-class cells
/// offer two quadrant-local choices, large-class cells pin one detour).
std::int32_t print_table(core::MsgClass cls, const char* title) {
  std::printf("%s\n", title);
  stats::TextTable t({"s \\ d", "Q0", "Q1", "Q2", "Q3"});
  std::int32_t options_total = 0;
  for (std::int32_t s = 0; s < 4; ++s) {
    std::vector<std::string> row{"Q" + std::to_string(s)};
    for (std::int32_t d = 0; d < 4; ++d) {
      row.push_back(cell(s, d, cls));
      options_total += core::parx_lid_options(s, d, cls).count;
    }
    t.add_row(row);
  }
  std::printf("%s\n", t.to_string().c_str());
  return options_total;
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  std::printf("== Table 1: virtual destination LIDx selection ==\n\n");
  std::printf("Rules (Section 3.2.1):\n"
              "  R1: LID0 -> remove all links within the left half\n"
              "  R2: LID1 -> remove all links within the right half\n"
              "  R3: LID2 -> remove all links within the top half\n"
              "  R4: LID3 -> remove all links within the bottom half\n"
              "Threshold: small <= %lld bytes (Section 3.2.4)\n\n",
              static_cast<long long>(core::kParxSmallLargeThreshold));
  const std::int32_t small_options =
      print_table(core::MsgClass::kSmall, "(a) x for small messages");
  const std::int32_t large_options =
      print_table(core::MsgClass::kLarge, "(b) x for large messages");
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
  std::printf("Measured consequence (adjacent same-quadrant switches, %d "
              "pairs):\n  small-class avg switch hops: %.2f (minimal = 1)\n"
              "  large-class avg switch hops: %.2f (forced detour)\n",
              pairs, small_avg, large_avg);
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
  return rs;
}

}  // namespace

report::Experiment table1_rules_experiment() {
  return {"table1_rules",
          "PARX virtual destination LID selection rules and consequences",
          "Table 1 / SS3.2.1", run};
}

}  // namespace hxsim::bench
