#include "workloads/resilience.hpp"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "routing/verify.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"

namespace hxsim::workloads {

namespace {

using topo::NodeId;

std::vector<std::pair<NodeId, NodeId>> make_pairs(ResilienceTraffic traffic,
                                                  std::int32_t n,
                                                  std::int32_t round,
                                                  stats::Rng& rng) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  switch (traffic) {
    case ResilienceTraffic::kUniformRandom: {
      const std::vector<std::int32_t> perm = rng.permutation(n);
      for (NodeId i = 0; i < n; ++i)
        if (perm[static_cast<std::size_t>(i)] != i)
          pairs.emplace_back(i, perm[static_cast<std::size_t>(i)]);
      break;
    }
    case ResilienceTraffic::kMpiGraphShift: {
      const std::int32_t r = 1 + (round % std::max(1, n - 1));
      for (NodeId i = 0; i < n; ++i) pairs.emplace_back(i, (i + r) % n);
      break;
    }
    case ResilienceTraffic::kEbbBisection: {
      const std::vector<std::int32_t> perm = rng.permutation(n);
      const std::int32_t half = n / 2;
      for (std::int32_t i = 0; i < half; ++i)
        pairs.emplace_back(perm[static_cast<std::size_t>(i)],
                           perm[static_cast<std::size_t>(i + half)]);
      break;
    }
  }
  return pairs;
}

/// Shortest surviving LID path of a pair; !ok when every LID is lost.
routing::ForwardingTables::Path best_lid_path(
    const topo::Topology& topo, const routing::LidSpace& lids,
    const routing::ForwardingTables& tables, NodeId src, NodeId dst) {
  routing::ForwardingTables::Path best;
  for (std::int32_t x = 0; x < lids.lids_per_terminal(); ++x) {
    auto path = tables.path(topo, lids, src, lids.lid(dst, x));
    if (!path.ok) continue;
    if (!best.ok || path.switch_hops() < best.switch_hops())
      best = std::move(path);
  }
  return best;
}

/// Delivered fraction of injection bandwidth: mean over *attempted* pairs
/// of (max-min rate / line rate), lost pairs contributing zero.  Every
/// stage walks each sample's pairs afresh on `tables`, leaves the lost
/// ones out and solves the samples' flow sets together.
double delivered_throughput(
    const topo::Topology& topo, const routing::LidSpace& lids,
    const routing::ForwardingTables& tables, const ResilienceOptions& options,
    const std::vector<std::vector<std::pair<NodeId, NodeId>>>& sample_pairs,
    std::int64_t attempted, const sim::FlowSim& flowsim) {
  if (attempted == 0) return 0.0;
  std::vector<std::vector<sim::Flow>> sets(sample_pairs.size());
  for (std::size_t s = 0; s < sample_pairs.size(); ++s) {
    for (const auto& [src, dst] : sample_pairs[s]) {
      auto path = best_lid_path(topo, lids, tables, src, dst);
      if (path.ok) sets[s].push_back(sim::Flow{std::move(path.channels), 1});
    }
  }

  double delivered = 0.0;
  for (const std::vector<double>& rates :
       flowsim.solve_batch(sets, options.threads))
    for (const double rate : rates)
      delivered += std::min(rate, options.link.bandwidth) /
                   options.link.bandwidth;
  return delivered / static_cast<double>(attempted);
}

}  // namespace

const char* to_string(ResilienceTraffic traffic) {
  switch (traffic) {
    case ResilienceTraffic::kUniformRandom:
      return "uniform-random";
    case ResilienceTraffic::kMpiGraphShift:
      return "mpigraph-shift";
    case ResilienceTraffic::kEbbBisection:
      return "ebb-bisection";
  }
  return "?";
}

obs::DegradationSeries run_resilience_campaign(
    topo::Topology& topo, const std::string& fabric_name,
    std::span<ResilienceEngine> engines, const ResilienceOptions& options,
    std::span<const topo::FaultStage> extra_stages) {
  topo::FaultSchedule schedule =
      topo::FaultSchedule::plan(topo, options.schedule);
  for (const topo::FaultStage& stage : extra_stages)
    schedule.append_stage(stage);
  // The shared fabric is restored however this function exits: a throw
  // outside the per-engine catch below (apply_stage, the flow solver, an
  // allocation failure) must not leak a faulted topology to later callers.
  const topo::ScheduleRevertGuard revert_guard(topo, schedule);

  // Traffic pairs are a pure function of (traffic kind, seed, terminal
  // count, sample index) -- identical for every stage and engine -- so
  // draw them once, consuming the RNG stream exactly as the historical
  // per-stage rebuild did.
  stats::Rng rng(options.traffic_seed);
  const std::int32_t n = topo.num_terminals();
  std::vector<std::vector<std::pair<NodeId, NodeId>>> sample_pairs;
  sample_pairs.reserve(static_cast<std::size_t>(options.traffic_samples));
  std::int64_t attempted = 0;
  for (std::int32_t s = 0; s < options.traffic_samples; ++s) {
    sample_pairs.push_back(make_pairs(options.traffic, n, s, rng));
    attempted += static_cast<std::int64_t>(sample_pairs.back().size());
  }

  obs::DegradationSeries series;
  const std::size_t num_engines = engines.size();
  std::vector<double> intact_throughput(num_engines, 0.0);
  std::vector<double> intact_hops(num_engines, 0.0);
  std::vector<double> retention(num_engines, 1.0);
  std::int32_t cables_failed = 0;
  std::int32_t switches_failed = 0;

  const sim::FlowSim flowsim(topo, options.link);

  // Stage 0 measures the intact fabric; stage s > 0 applies schedule
  // stage s-1 first ("fail k, reroute, fail k more").
  for (std::int32_t stage = 0; stage <= schedule.num_stages(); ++stage) {
    if (stage > 0) {
      const topo::FaultReport report = schedule.apply_stage(topo, stage - 1);
      // Both failure tallies come from the *applied* report: events the
      // planner kept but that disabled nothing new (overlapping appended
      // stages) count in neither, so samples never double-count damage.
      cables_failed += static_cast<std::int32_t>(report.disabled_links.size());
      switches_failed += report.switches_failed;
    }
    for (std::size_t e = 0; e < num_engines; ++e) {
      const ResilienceEngine& re = engines[e];
      obs::DegradationSample sample;
      sample.fabric = fabric_name;
      sample.engine = re.name;
      sample.stage = stage;
      sample.cables_failed = cables_failed;
      sample.switches_failed = switches_failed;
      try {
        const routing::RouteResult route = re.engine->compute(topo, re.lids);
        const routing::RouteAudit audit =
            routing::audit_route(topo, re.lids, route, options.threads);
        sample.reachability = audit.census.reachability();
        sample.lost_pairs = audit.census.lost_pairs;
        sample.lost_lid_paths = audit.census.lost_lid_paths;
        sample.mean_switch_hops = audit.census.mean_switch_hops();
        sample.blackhole_columns = audit.census.blackhole_entries;
        sample.cdg_acyclic = audit.cdg.acyclic;
        sample.vls_used = route.num_vls_used;
        sample.throughput =
            delivered_throughput(topo, re.lids, route.tables, options,
                                 sample_pairs, attempted, flowsim);
      } catch (const std::exception&) {
        // e.g. PARX exceeding its VL budget on a heavily degraded fabric:
        // the engine cannot route this fabric at all.
        sample.engine_failed = true;
        sample.reachability = 0.0;
        sample.cdg_acyclic = false;
        sample.vls_used = 0;
      }
      if (stage == 0) {
        intact_throughput[e] = sample.throughput;
        intact_hops[e] = sample.mean_switch_hops;
        sample.retention = sample.engine_failed ? 0.0 : 1.0;
        retention[e] = sample.retention;
      } else {
        const double normalised =
            intact_throughput[e] > 0.0
                ? sample.throughput / intact_throughput[e]
                : 0.0;
        retention[e] = std::min(retention[e], normalised);
        sample.retention = retention[e];
      }
      sample.hop_inflation = intact_hops[e] > 0.0
                                 ? sample.mean_switch_hops / intact_hops[e]
                                 : 1.0;
      series.add(std::move(sample));
    }
  }

  return series;  // revert_guard restores the fabric
}

}  // namespace hxsim::workloads
