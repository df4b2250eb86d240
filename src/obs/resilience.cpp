#include "obs/resilience.hpp"

#include <map>
#include <utility>

#include "report/result.hpp"

namespace hxsim::obs {

void DegradationSeries::add(DegradationSample sample) {
  samples_.push_back(std::move(sample));
}

const DegradationSample* DegradationSeries::first_retention_rise() const {
  std::map<std::pair<std::string, std::string>, double> last;
  for (const DegradationSample& s : samples_) {
    const auto key = std::make_pair(s.fabric, s.engine);
    const auto it = last.find(key);
    if (it != last.end() && s.retention > it->second + 1e-12) return &s;
    last[key] = s.retention;
  }
  return nullptr;
}

const DegradationSample* DegradationSeries::first_cyclic(
    std::string_view engine) const {
  for (const DegradationSample& s : samples_)
    if (s.engine == engine && !s.cdg_acyclic) return &s;
  return nullptr;
}

void DegradationSeries::publish(report::ResultSet& rs) const {
  for (const DegradationSample& s : samples_) {
    const std::string name = "resilience_" + s.fabric + "_" + s.engine;
    report::ResultTable& table = rs.table(
        name, {"stage", "cables_failed", "switches_failed", "reachability",
               "lost_pairs", "mean_switch_hops", "hop_inflation",
               "throughput", "retention", "cdg_acyclic", "vls_used",
               "blackhole_columns"});
    table.add_row({std::to_string(s.stage), std::to_string(s.cables_failed),
                   std::to_string(s.switches_failed),
                   report::format_metric(s.reachability),
                   std::to_string(s.lost_pairs),
                   report::format_metric(s.mean_switch_hops),
                   report::format_metric(s.hop_inflation),
                   report::format_metric(s.throughput),
                   report::format_metric(s.retention),
                   s.cdg_acyclic ? "1" : "0", std::to_string(s.vls_used),
                   std::to_string(s.blackhole_columns)});
    // Overwritten by later stages of the same group: the metric ends up
    // holding the final (worst) envelope value.
    rs.set(name + "_final_retention", s.retention);
  }
}

}  // namespace hxsim::obs
