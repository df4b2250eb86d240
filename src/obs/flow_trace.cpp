#include "obs/flow_trace.hpp"

#include <numeric>
#include <string>

#include "report/result.hpp"

namespace hxsim::obs {

void FlowSolveTrace::publish(report::ResultSet& rs,
                             std::string_view table_name) const {
  report::ResultTable& table = rs.table(
      table_name,
      {"solve", "active_flows", "levels", "flows_frozen", "saturated_channels",
       "first_level", "last_level"});
  std::int64_t total_levels = 0;
  for (std::size_t s = 0; s < solves.size(); ++s) {
    const FlowSolveRecord& r = solves[s];
    total_levels += r.num_levels();
    const std::int64_t frozen = std::accumulate(
        r.freezes_per_level.begin(), r.freezes_per_level.end(),
        static_cast<std::int64_t>(0));
    const double first = r.levels.empty() ? 0.0 : r.levels.front();
    const double last = r.levels.empty() ? 0.0 : r.levels.back();
    table.add_row({std::to_string(s), std::to_string(r.active_flows),
                   std::to_string(r.num_levels()), std::to_string(frozen),
                   std::to_string(r.saturated.size()),
                   report::format_metric(first), report::format_metric(last)});
  }
  rs.set("flow_solver_solves", static_cast<double>(solves.size()));
  rs.set("flow_solver_levels", static_cast<double>(total_levels));
}

}  // namespace hxsim::obs
