#include "workloads/online_resilience.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "routing/verify.hpp"
#include "sim/online.hpp"
#include "stats/rng.hpp"
#include "topo/fault_injector.hpp"

namespace hxsim::workloads {

namespace {

/// Seeded path-less message set: uniform random pairs (self-sends
/// redrawn), inject times spread evenly over the window.
std::vector<sim::PktMessage> build_messages(
    const topo::Topology& topo, const OnlineResilienceOptions& options,
    std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(topo.num_terminals());
  const double spacing =
      options.inject_window / static_cast<double>(options.messages);
  std::vector<sim::PktMessage> messages;
  messages.reserve(static_cast<std::size_t>(options.messages));
  for (std::int32_t i = 0; i < options.messages; ++i) {
    sim::PktMessage m;
    m.src = static_cast<topo::NodeId>(rng.next_below(n));
    do {
      m.dst = static_cast<topo::NodeId>(rng.next_below(n));
    } while (m.dst == m.src);
    m.bytes = options.bytes;
    m.inject_time = spacing * static_cast<double>(i);
    messages.push_back(std::move(m));
  }
  return messages;
}

struct ArmOutcome {
  sim::PktSim::Result result;
  bool engines_identical = false;
};

/// Runs one arm on both engines and certifies their bitwise agreement.
ArmOutcome run_arm(const topo::Topology& topo,
                   std::span<const sim::PktMessage> messages,
                   const sim::PktOnlineConfig* online,
                   const sim::AdaptiveRouter* adaptive,
                   const OnlineResilienceOptions& options) {
  sim::PktSimConfig config;
  config.num_vls = options.num_vls;
  config.adaptive = adaptive;
  config.online = online;
  config.engine = sim::PktSimConfig::Engine::kTyped;
  sim::PktSim typed(topo, config);
  ArmOutcome out;
  out.result = typed.run(messages, options.max_events);
  config.engine = sim::PktSimConfig::Engine::kReference;
  sim::PktSim reference(topo, config);
  out.engines_identical =
      sim::first_difference(out.result,
                            reference.run(messages, options.max_events))
          .empty();
  return out;
}

OnlineResilienceRow make_row(std::string arm,
                             std::span<const sim::PktMessage> messages,
                             const ArmOutcome& out, double delay, bool faulted,
                             bool retry, bool adaptive) {
  const sim::PktSim::Result& r = out.result;
  OnlineResilienceRow row;
  row.arm = std::move(arm);
  row.propagation_delay = delay;
  row.faulted = faulted;
  row.retry = retry;
  row.adaptive = adaptive;
  row.engines_identical = out.engines_identical;
  row.deadlock = r.deadlock;
  row.messages = static_cast<std::int64_t>(messages.size());
  row.packets_total = r.packets_total;
  row.packets_delivered = r.packets_delivered;
  row.packets_dropped = r.packets_dropped;
  row.dropped_by_cause = r.dropped_by_cause;
  row.retries = r.retries;
  row.messages_abandoned = r.messages_abandoned;

  std::int64_t offered_bytes = 0;
  std::int64_t delivered_bytes = 0;
  double last = 0.0;
  for (std::size_t m = 0; m < messages.size(); ++m) {
    offered_bytes += messages[m].bytes;
    const bool delivered =
        r.message_status.empty()
            ? !std::isnan(r.completion[m])
            : r.message_status[m] == sim::PktMessageStatus::kDelivered;
    if (!delivered) continue;
    ++row.messages_delivered;
    delivered_bytes += messages[m].bytes;
    last = std::max(last, r.completion[m]);
  }
  row.makespan = row.messages_delivered > 0 ? last : r.end_time;
  row.delivered_fraction =
      offered_bytes > 0 ? static_cast<double>(delivered_bytes) /
                              static_cast<double>(offered_bytes)
                        : 1.0;
  return row;
}

}  // namespace

OnlineResilienceReport run_online_resilience_campaign(
    topo::Topology& topo, routing::RoutingEngine& engine,
    const routing::LidSpace& lids, const sim::AdaptiveRouter* adaptive,
    const OnlineResilienceOptions& options) {
  if (options.messages < 1)
    throw std::invalid_argument("online campaign: need at least one message");
  if (!(options.inject_window > 0.0))
    throw std::invalid_argument("online campaign: inject_window must be > 0");
  if (options.propagation_delays.empty())
    throw std::invalid_argument(
        "online campaign: need at least one propagation delay");

  OnlineResilienceReport report;

  // Epoch 0: the intact fabric's tables.  reroute_and_verify throws on any
  // blackhole column, so the recorded counts double as proof they were 0.
  const routing::RerouteOutcome e0 =
      routing::reroute_and_verify(engine, topo, lids, options.threads);
  report.blackhole_columns_epoch0 = e0.census.blackhole_entries;

  // One seeded link-fault stage, timed mid-run.
  topo::FaultSchedule::Options fault_options;
  fault_options.stages = 1;
  fault_options.links_per_stage = options.links_failed;
  fault_options.seed = options.fault_seed;
  topo::FaultSchedule schedule = topo::FaultSchedule::plan(topo, fault_options);
  schedule.set_stage_time(0, options.fault_time);
  const std::vector<sim::PktTimedFault> feed = sim::timed_faults(topo, schedule);
  if (feed.empty())
    throw std::runtime_error("online campaign: fault stage disabled nothing");

  // Epoch 1: the repaired tables, computed on the faulted fabric inside a
  // revert guard -- however reroute_and_verify exits (including its
  // blackhole-column throw), the shared fabric is restored intact before
  // any packet run sees it.
  routing::RerouteOutcome e1;
  {
    const topo::ScheduleRevertGuard revert_guard(topo, schedule);
    const topo::FaultReport applied = schedule.apply_stage(topo, 0);
    report.cables_failed =
        static_cast<std::int32_t>(applied.disabled_links.size());
    e1 = routing::reroute_and_verify(engine, topo, lids, options.threads);
  }
  report.blackhole_columns_epoch1 = e1.census.blackhole_entries;

  const std::vector<sim::PktMessage> messages =
      build_messages(topo, options, options.traffic_seed);

  // Off-switch contract: the same traffic pinned to its epoch-0 static
  // paths runs bit-identically with an *inert* attached config and with
  // online = nullptr.
  {
    std::vector<sim::PktMessage> static_messages = messages;
    for (sim::PktMessage& m : static_messages) {
      auto path = e0.route.tables.path(topo, lids, m.src, lids.base_lid(m.dst));
      if (!path.ok)
        throw std::runtime_error("online campaign: intact fabric lost a path");
      m.path = std::move(path.channels);
      m.vl = e0.route.vls.vl(topo.attach_switch(m.src), lids.base_lid(m.dst));
    }
    const sim::PktOnlineConfig inert;  // active() == false
    const ArmOutcome with_inert =
        run_arm(topo, static_messages, &inert, nullptr, options);
    const ArmOutcome without =
        run_arm(topo, static_messages, nullptr, nullptr, options);
    report.nofault_identical =
        with_inert.engines_identical && without.engines_identical &&
        sim::first_difference(with_inert.result, without.result).empty();
  }

  sim::PktRoutingEpoch epoch0;
  epoch0.tables = &e0.route.tables;
  epoch0.vls = &e0.route.vls;
  sim::PktRoutingEpoch epoch1_from_start;
  epoch1_from_start.tables = &e1.route.tables;
  epoch1_from_start.vls = &e1.route.vls;

  bool engines_ok = true;
  const auto run_row = [&](std::string name, const sim::PktOnlineConfig& cfg,
                           const sim::AdaptiveRouter* arm_adaptive,
                           double delay, bool faulted,
                           bool retry) -> OnlineResilienceRow& {
    const ArmOutcome out =
        run_arm(topo, messages, &cfg, arm_adaptive, options);
    engines_ok &= out.engines_identical;
    report.rows.push_back(make_row(std::move(name), messages, out, delay,
                                   faulted, retry, arm_adaptive != nullptr));
    return report.rows.back();
  };

  // Baseline: intact fabric, epoch-0 tables, no faults.
  sim::PktOnlineConfig baseline_cfg;
  baseline_cfg.epochs = {epoch0};
  baseline_cfg.lids = &lids;
  baseline_cfg.ttl_hops = options.ttl_hops;
  const OnlineResilienceRow baseline =
      run_row("baseline", baseline_cfg, nullptr, 0.0, false, false);
  const double baseline_fraction = baseline.delivered_fraction;
  const double baseline_makespan = baseline.makespan;

  // Static-reroute envelope: the repaired tables installed from t = 0.
  // Epoch 1 never forwards onto a cut cable, so only packets physically on
  // a dying wire can be lost -- the best any offline reroute could do.
  sim::PktOnlineConfig envelope_cfg;
  envelope_cfg.faults = feed;
  envelope_cfg.epochs = {epoch1_from_start};
  envelope_cfg.lids = &lids;
  envelope_cfg.ttl_hops = options.ttl_hops;
  run_row("static-reroute", envelope_cfg, nullptr, 0.0, true, false);

  // Propagation-delay sweep: epoch 0 everywhere, epoch 1 installed
  // per-switch at fault_time + delay; with and without end-host retry.
  const auto nsw = static_cast<std::size_t>(topo.num_switches());
  std::vector<sim::PktOnlineConfig> sweep_cfgs;  // stable addresses for runs
  sweep_cfgs.reserve(options.propagation_delays.size() * 2);
  report.retry_retention_gain = 1.0;
  for (const double delay : options.propagation_delays) {
    sim::PktRoutingEpoch epoch1 = epoch1_from_start;
    epoch1.install_time.assign(nsw, options.fault_time + delay);
    sim::PktOnlineConfig cfg;
    cfg.faults = feed;
    cfg.epochs = {epoch0, epoch1};
    cfg.lids = &lids;
    cfg.ttl_hops = options.ttl_hops;
    sweep_cfgs.push_back(cfg);
    const OnlineResilienceRow off = run_row(
        "delay-sweep", sweep_cfgs.back(), nullptr, delay, true, false);
    const double off_fraction = off.delivered_fraction;
    cfg.retry = options.retry;
    cfg.retry.enabled = true;
    sweep_cfgs.push_back(std::move(cfg));
    const OnlineResilienceRow on = run_row(
        "delay-sweep", sweep_cfgs.back(), nullptr, delay, true, true);
    const double gain = (baseline_fraction > 0.0
                             ? (on.delivered_fraction - off_fraction) /
                                   baseline_fraction
                             : 0.0);
    report.retry_retention_gain =
        std::min(report.retry_retention_gain, gain);
  }

  // Adaptive escape: per-hop DAL/PARX routing through the same faults.
  sim::PktOnlineConfig adaptive_cfg;
  if (adaptive != nullptr) {
    adaptive_cfg.faults = feed;
    adaptive_cfg.retry = options.retry;
    adaptive_cfg.retry.enabled = true;
    run_row("adaptive-escape", adaptive_cfg, adaptive, 0.0, true, true);
  }

  // Normalise the goodput-retention column against the baseline arm.
  for (OnlineResilienceRow& row : report.rows) {
    row.retention = baseline_fraction > 0.0
                        ? row.delivered_fraction / baseline_fraction
                        : 0.0;
    row.recovery_time = std::max(0.0, row.makespan - baseline_makespan);
  }
  report.all_engines_identical = engines_ok;

  // Thread-count invariance of the retry jitter stream: the hardest sweep
  // arm (longest stale window, retry on) replayed through run_batch at one
  // worker and at options.threads workers must agree bitwise.
  {
    const sim::PktOnlineConfig& cfg = sweep_cfgs.back();
    sim::PktSimConfig config;
    config.num_vls = options.num_vls;
    config.online = &cfg;
    std::vector<std::vector<sim::PktMessage>> replications;
    for (std::uint64_t r = 0; r < 4; ++r)
      replications.push_back(
          build_messages(topo, options, options.traffic_seed + 1 + r));
    sim::PktSim sim(topo, config);
    const auto serial = sim.run_batch(replications, 1, {}, options.max_events);
    const auto fanned = sim.run_batch(
        replications, options.threads > 0 ? options.threads : 4, {},
        options.max_events);
    report.threads_identical = serial.size() == fanned.size();
    for (std::size_t i = 0; report.threads_identical && i < serial.size(); ++i)
      report.threads_identical =
          sim::first_difference(serial[i], fanned[i]).empty();
  }

  return report;
}

}  // namespace hxsim::workloads
