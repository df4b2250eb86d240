// Degraded-fabric resilience campaign driver.
//
// The question the paper's testbed raises but never answers at scale
// (its fabrics were *already* degraded, Section 2.3 / footnote 7): how much
// routability and bandwidth does each routing engine lose as the fabric
// fails underneath it, and do its tables stay deadlock-free?
//
// run_resilience_campaign() executes the operational loop "fail, reroute,
// measure" end to end: it plans a seeded FaultSchedule, and at every stage
// (stage 0 = intact baseline) re-runs each engine on the degraded fabric,
// audits the shipped tables (CDG acyclicity per VL, all-pairs path census)
// and measures delivered throughput on synthetic traffic with the max-min
// flow solver.  Lost pairs count as zero throughput: the metric is
// "fraction of attempted injection bandwidth delivered", so losing nodes
// cannot masquerade as a faster fabric.  All randomness is seeded and all
// parallel pieces (route computation, census, flow solves) are
// deterministic at any thread count, so a campaign is replayable
// bit-for-bit.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "obs/resilience.hpp"
#include "routing/engine.hpp"
#include "sim/flowsim.hpp"
#include "sim/link_model.hpp"
#include "topo/fault_injector.hpp"

namespace hxsim::workloads {

/// Traffic the retention metric is measured on.
enum class ResilienceTraffic : std::int8_t {
  kUniformRandom,  // random permutations (one flow per non-fixed point)
  kMpiGraphShift,  // mpiGraph-style shifts i -> (i + r) mod N
  kEbbBisection,   // random bisections, paired across the cut (eBB-style)
};

[[nodiscard]] const char* to_string(ResilienceTraffic traffic);

/// One engine entered into the campaign.  The engine is re-run via
/// compute() at every stage (not owned; must outlive the campaign).
struct ResilienceEngine {
  std::string name;
  routing::RoutingEngine* engine = nullptr;
  routing::LidSpace lids;
};

struct ResilienceOptions {
  topo::FaultSchedule::Options schedule;
  ResilienceTraffic traffic = ResilienceTraffic::kUniformRandom;
  /// Traffic rounds averaged per stage (permutations / shifts / bisections).
  std::int32_t traffic_samples = 8;
  std::uint64_t traffic_seed = 1;
  std::int32_t threads = 0;  // 0: exec::default_threads()
  sim::LinkModel link = {};
};

/// Plans `options.schedule` on `topo`, appends `extra_stages` (e.g. plane
/// faults from hyperx_plane_fault) after the planned ones, and runs the
/// stage x engine campaign.  `topo` is mutated stage by stage and fully
/// restored (every scheduled cable re-enabled) before returning, so the
/// fabric object the engines reference ends up intact.
///
/// An engine that throws at some stage (e.g. PARX exceeding its VL budget
/// on a heavily degraded fabric) is recorded as a failed sample (zero
/// reachability/throughput, retention envelope drops to 0) and the
/// campaign continues.
[[nodiscard]] obs::DegradationSeries run_resilience_campaign(
    topo::Topology& topo, const std::string& fabric_name,
    std::span<ResilienceEngine> engines, const ResilienceOptions& options,
    std::span<const topo::FaultStage> extra_stages = {});

}  // namespace hxsim::workloads
