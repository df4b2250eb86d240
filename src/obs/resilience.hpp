// Degradation metrics of the resilience campaign.
//
// A campaign produces one DegradationSample per (fabric, engine, fault
// stage): how much of the fabric is gone, what the rerouted engine still
// reaches, how far paths inflated, how much throughput the traffic retains,
// and whether the shipped tables are still deadlock-free.  The series is
// plain data; publish() exports it into a report::ResultSet (one table per
// fabric x engine plus headline metrics), the one result surface every
// other counter in the repo uses.
//
// Two throughput columns, on purpose:
//  - `throughput`: delivered fraction of injection bandwidth measured at
//    this stage (raw; may wiggle upward when a reroute happens to spread
//    load better).
//  - `retention`: the non-increasing envelope min(throughput / intact
//    throughput) over all stages so far -- the operator-facing "capacity
//    we can still guarantee after k failures" curve.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hxsim::report {
struct ResultSet;
}

namespace hxsim::obs {

struct DegradationSample {
  std::string fabric;   // e.g. "hyperx-12x8"
  std::string engine;   // e.g. "dfsssp"
  std::int32_t stage = 0;  // 0 = intact fabric
  // Cumulative damage at this stage.
  std::int32_t cables_failed = 0;
  std::int32_t switches_failed = 0;
  // Routability (route_census over all ordered terminal pairs).
  double reachability = 1.0;
  std::int64_t lost_pairs = 0;
  std::int64_t lost_lid_paths = 0;
  // Path-length inflation vs the intact fabric's mean.
  double mean_switch_hops = 0.0;
  double hop_inflation = 1.0;
  // Throughput (see header comment).
  double throughput = 0.0;
  double retention = 1.0;
  // Deadlock audit of the shipped tables.
  bool cdg_acyclic = true;
  std::int32_t vls_used = 1;
  /// LFT entries forwarding onto a disabled channel (route_census); must be
  /// zero after every reroute stage -- a non-zero value is a shipped
  /// blackhole.
  std::int64_t blackhole_columns = 0;
  /// True when the engine failed outright at this stage (threw); all
  /// metrics above are zeroed.
  bool engine_failed = false;
};

class DegradationSeries {
 public:
  void add(DegradationSample sample);

  [[nodiscard]] const std::vector<DegradationSample>& samples() const noexcept {
    return samples_;
  }

  /// First sample whose `retention` exceeds the previous sample of its
  /// (fabric, engine) in insertion (= stage) order; nullptr when every
  /// envelope is non-increasing, the campaign's acceptance property.
  [[nodiscard]] const DegradationSample* first_retention_rise() const;

  /// First sample of `engine` (any fabric) with a cyclic CDG, or nullptr.
  [[nodiscard]] const DegradationSample* first_cyclic(
      std::string_view engine) const;

  /// Exports one table "resilience_<fabric>_<engine>" per group (columns:
  /// stage, cables_failed, switches_failed, reachability, lost_pairs,
  /// mean_switch_hops, hop_inflation, throughput, retention, cdg_acyclic,
  /// vls_used, blackhole_columns) plus "<table>_final_retention" metrics.
  void publish(report::ResultSet& rs) const;

 private:
  std::vector<DegradationSample> samples_;
};

}  // namespace hxsim::obs
