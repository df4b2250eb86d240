#include "workloads/resilience.hpp"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "exec/exec.hpp"
#include "routing/delta.hpp"
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

/// One traffic sample's flow set, kept alive across fault stages.  Slot f
/// corresponds to attempted pair f of the sample: a routable pair holds
/// its current best path, a lost pair parks as an inactive slot (empty
/// channels, rate 0) so it re-enters cheaply if a later reroute restores
/// its destination column.
struct TrafficSet {
  std::vector<sim::Flow> flows;
  std::vector<char> active;
  std::vector<double> rates;
};

/// Per-engine cross-stage state: the incremental router owning the patched
/// RouteResult, plus the cached traffic sets derived from its tables.
struct EngineState {
  routing::DeltaRouter router;
  std::vector<TrafficSet> sets;
  bool traffic_valid = false;

  explicit EngineState(routing::RoutingEngine& engine) : router(engine) {}
};

/// Delivered fraction of injection bandwidth: mean over *attempted* pairs
/// of (max-min rate / line rate), lost pairs contributing zero.
///
/// Incremental across stages: a pair is re-pathed only when the reroute
/// reported its destination's LFT columns dirty (stats->dirty_lids), or
/// when its cached active path crosses a channel this stage disabled --
/// unchanged columns provably walk to the identical path.  A sample set
/// whose pairs all survived untouched keeps last stage's rates verbatim
/// (rates are a pure function of paths and static capacities); changed
/// sets re-solve in place via FlowSim::solve_active, whose rates over the
/// active subset are bit-identical to a fresh compacted solve_batch --
/// so the campaign's numbers match the historical full rebuild exactly.
double delivered_throughput(
    const topo::Topology& topo, const routing::LidSpace& lids,
    const routing::ForwardingTables& tables, const ResilienceOptions& options,
    const std::vector<std::vector<std::pair<NodeId, NodeId>>>& sample_pairs,
    std::int64_t attempted, EngineState& state,
    const routing::DeltaStats* stats, std::span<const char> chan_down,
    const sim::FlowSim& flowsim, exec::ThreadPool& pool,
    exec::ScratchArena<sim::FlowSim::SolveScratch>& arena) {
  if (attempted == 0) return 0.0;
  const bool full =
      !state.traffic_valid || stats == nullptr || stats->full_recompute;

  std::vector<char> dst_dirty;
  if (!full) {
    dst_dirty.assign(static_cast<std::size_t>(topo.num_terminals()), 0);
    for (const routing::Lid lid : stats->dirty_lids)
      dst_dirty[static_cast<std::size_t>(lids.owner(lid).node)] = 1;
  }

  if (state.sets.size() != sample_pairs.size())
    state.sets.assign(sample_pairs.size(), {});

  std::vector<std::size_t> resolve;
  for (std::size_t s = 0; s < sample_pairs.size(); ++s) {
    const auto& pairs = sample_pairs[s];
    TrafficSet& set = state.sets[s];
    bool changed = false;
    if (set.flows.size() != pairs.size()) {
      set.flows.assign(pairs.size(), {});
      set.active.assign(pairs.size(), 0);
      set.rates.assign(pairs.size(), 0.0);
      changed = true;
    }
    for (std::size_t f = 0; f < pairs.size(); ++f) {
      const auto [src, dst] = pairs[f];
      bool repath = full || dst_dirty[static_cast<std::size_t>(dst)];
      if (!repath && set.active[f]) {
        for (const topo::ChannelId ch : set.flows[f].channels) {
          if (chan_down[static_cast<std::size_t>(ch)]) {
            repath = true;
            break;
          }
        }
      }
      if (!repath) continue;
      auto path = best_lid_path(topo, lids, tables, src, dst);
      const char now_ok = path.ok ? 1 : 0;
      if (now_ok != set.active[f] ||
          (now_ok && path.channels != set.flows[f].channels)) {
        set.active[f] = now_ok;
        set.flows[f].channels = now_ok ? std::move(path.channels)
                                       : std::vector<topo::ChannelId>{};
        set.flows[f].bytes = 1;
        changed = true;
      }
    }
    if (changed) resolve.push_back(s);
  }

  // Re-solve only the changed sets, concurrently with per-worker scratch;
  // each index writes its own set's rates, so the result is thread-count
  // invariant like solve_batch.
  pool.parallel_for(
      static_cast<std::int64_t>(resolve.size()),
      [&](std::int64_t j, std::int32_t worker) {
        TrafficSet& set = state.sets[resolve[static_cast<std::size_t>(j)]];
        std::fill(set.rates.begin(), set.rates.end(), 0.0);
        flowsim.solve_active(set.flows, set.active, set.rates,
                             arena.local(worker));
      });
  state.traffic_valid = true;

  double delivered = 0.0;
  for (const TrafficSet& set : state.sets)
    for (std::size_t f = 0; f < set.flows.size(); ++f)
      if (set.active[f])
        delivered +=
            std::min(set.rates[f], options.link.bandwidth) /
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

  std::vector<EngineState> states;
  states.reserve(num_engines);
  for (const ResilienceEngine& re : engines) states.emplace_back(*re.engine);

  const sim::FlowSim flowsim(topo, options.link);
  exec::ThreadPool pool(options.threads);
  exec::ScratchArena<sim::FlowSim::SolveScratch> arena(pool);
  std::vector<char> chan_down(static_cast<std::size_t>(topo.num_channels()),
                              0);

  // Stage 0 measures the intact fabric; stage s > 0 applies schedule
  // stage s-1 first ("fail k, reroute, fail k more").
  for (std::int32_t stage = 0; stage <= schedule.num_stages(); ++stage) {
    routing::DeltaUpdate update;
    if (stage > 0) {
      topo::FaultReport report = schedule.apply_stage(topo, stage - 1);
      // Both failure tallies come from the *applied* report: events the
      // planner kept but that disabled nothing new (overlapping appended
      // stages) count in neither, so samples never double-count damage.
      cables_failed += static_cast<std::int32_t>(report.disabled_links.size());
      switches_failed += report.switches_failed;
      update.disabled = std::move(report.disabled_channels);
      std::fill(chan_down.begin(), chan_down.end(), 0);
      for (const topo::ChannelId ch : update.disabled)
        chan_down[static_cast<std::size_t>(ch)] = 1;
    }
    for (std::size_t e = 0; e < num_engines; ++e) {
      const ResilienceEngine& re = engines[e];
      EngineState& st = states[e];
      obs::DegradationSample sample;
      sample.fabric = fabric_name;
      sample.engine = re.name;
      sample.stage = stage;
      sample.cables_failed = cables_failed;
      sample.switches_failed = switches_failed;
      try {
        routing::DeltaStats dstats;
        const routing::DeltaStats* stats = nullptr;
        const routing::RouteResult* route;
        if (stage == 0) {
          route = &st.router.reroute_full(topo, re.lids);
        } else {
          route = &st.router.reroute(topo, re.lids, update, &dstats);
          stats = &dstats;
        }
        const routing::RouteAudit audit =
            routing::audit_route(topo, re.lids, *route, options.threads);
        sample.reachability = audit.census.reachability();
        sample.lost_pairs = audit.census.lost_pairs;
        sample.lost_lid_paths = audit.census.lost_lid_paths;
        sample.mean_switch_hops = audit.census.mean_switch_hops();
        sample.blackhole_columns = audit.census.blackhole_entries;
        sample.cdg_acyclic = audit.cdg.acyclic;
        sample.vls_used = route->num_vls_used;
        sample.throughput = delivered_throughput(
            topo, re.lids, route->tables, options, sample_pairs, attempted,
            st, stats, chan_down, flowsim, pool, arena);
      } catch (const std::exception&) {
        // e.g. PARX exceeding its VL budget on a heavily degraded fabric:
        // the engine cannot route this fabric at all.  Its incremental
        // state may be torn mid-patch, so both the router and the cached
        // traffic are invalidated; the next stage recomputes from scratch.
        st.router.invalidate();
        st.traffic_valid = false;
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
