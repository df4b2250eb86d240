// Repo-level experiment: the online fault layer.  One seeded link-fault
// stage cuts cables mid-run on the HyperX/DFSSSP fabric, and the packet
// engine replays one message set through a ladder of arms -- baseline
// (intact fabric, epoch-0 tables), static-reroute (repaired tables from
// t = 0: the envelope an offline reroute achieves), delay-sweep (epoch 0,
// then the repaired epoch installed per switch a propagation delay after
// the fault, retry off and on) and adaptive-escape (DAL through the
// faults, retry on) -- to measure what the transient costs: delivered
// goodput by drop cause, end-host retries and recovery time.
//
// Contracts, each throwing and naming itself when broken: every arm's
// Result equals the reference engine's (audit::reference_pkt_run) bit for
// bit; an inert PktOnlineConfig leaves static-path runs bit-identical to
// online = nullptr; run_batch with retry on is thread-count invariant;
// neither routing epoch ships a blackhole column; the fault stage
// disables something.  The committed claims bind nofault_identical,
// engines_identical and the retry retention gain (retransmission never
// loses delivered goodput); every arm's record lands in "phases".
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "audit/reference_pktsim.hpp"
#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "routing/verify.hpp"
#include "sim/adaptive.hpp"
#include "sim/online.hpp"
#include "sim/pktsim.hpp"
#include "stats/rng.hpp"
#include "stats/units.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::bench {

namespace {

// Fixed campaign knobs.  The fabric, the cable count, the seeds, the
// message count, the sweep delays and the thread count come from
// report::Options and its quick/full split.
constexpr double kFaultTime = 10e-6;  // the cables die mid-window [s]
constexpr std::int64_t kMessageBytes = 8 * 1024;
constexpr double kInjectWindow = 20e-6;  // inject times span [0, window)
/// Retry model of the retry-on arms (`enabled` is set per arm).
constexpr sim::PktRetryConfig kRetry{/*enabled=*/false, /*timeout=*/50e-6,
                                     /*backoff_base=*/5e-6, /*jitter=*/0.5,
                                     /*max_retries=*/6, /*seed=*/1};
/// Lanes of both the DFSSSP layering and the packet engine.
constexpr std::int32_t kNumVls = 8;
constexpr std::int32_t kTtlHops = 64;

void require(bool holds, const char* contract) {
  if (!holds) throw std::runtime_error(contract);
}

/// Seeded path-less message set: uniform random pairs (self-sends
/// redrawn), inject times spread evenly over the window.
std::vector<sim::PktMessage> build_messages(const topo::Topology& topo,
                                            std::int32_t count,
                                            std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(topo.num_terminals());
  const double spacing = kInjectWindow / static_cast<double>(count);
  std::vector<sim::PktMessage> messages;
  messages.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) {
    sim::PktMessage m;
    m.src = static_cast<topo::NodeId>(rng.next_below(n));
    do {
      m.dst = static_cast<topo::NodeId>(rng.next_below(n));
    } while (m.dst == m.src);
    m.bytes = kMessageBytes;
    m.inject_time = spacing * static_cast<double>(i);
    messages.push_back(std::move(m));
  }
  return messages;
}

/// Runs one arm on the typed engine; throws unless the reference engine
/// produces the identical Result.
sim::PktSim::Result run_arm(const topo::Topology& topo,
                            std::span<const sim::PktMessage> messages,
                            const sim::PktOnlineConfig* online,
                            const sim::AdaptiveRouter* adaptive) {
  sim::PktSimConfig config;
  config.num_vls = kNumVls;
  config.adaptive = adaptive;
  config.online = online;
  sim::PktSim typed(topo, config);
  sim::PktSim::Result result = typed.run(messages);
  require(sim::first_difference(
              result, audit::reference_pkt_run(topo, config, messages))
              .empty(),
          "typed and reference engines differ on an arm");
  return result;
}

/// One arm's outcome: the typed engine's Result and what the tables
/// derive from it.
struct Arm {
  std::string name;
  double delay = 0.0;  // repaired tables' install delay after the fault [s]
  bool retry = false;
  bool adaptive = false;
  sim::PktSim::Result result;
  /// Messages whose final attempt fully arrived, their share of the
  /// offered bytes, and the last one's completion (end_time if none).
  std::int64_t messages_delivered = 0;
  double delivered_fraction = 0.0;
  double makespan = 0.0;
  /// delivered_fraction over the baseline's; makespan minus the
  /// baseline's, >= 0.
  double retention = 0.0;
  double recovery_time = 0.0;
};

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;

  topo::HyperX hx(workloads::PaperSystem::hyperx_params(options.quick));
  topo::Topology& topo = hx.topo();
  const routing::LidSpace lids =
      routing::LidSpace::consecutive(topo.num_terminals(), 0);
  routing::DfssspEngine dfsssp(kNumVls);
  const sim::DalRouter dal(hx);
  const std::int32_t links_failed = options.quick ? 4 : 8;
  const std::int32_t message_count = options.quick ? 64 : 192;
  const std::vector<double> delays =
      options.quick ? std::vector<double>{0.0, 10e-6, 50e-6}
                    : std::vector<double>{0.0, 5e-6, 20e-6, 50e-6};

  // Epoch 0: the intact fabric's tables.
  const routing::RerouteOutcome e0 =
      routing::reroute_and_verify(dfsssp, topo, lids, options.threads);

  // One seeded link-fault stage, timed mid-run.
  topo::FaultSchedule::Options fault_options;
  fault_options.stages = 1;
  fault_options.links_per_stage = links_failed;
  fault_options.seed = options.seed;
  topo::FaultSchedule schedule = topo::FaultSchedule::plan(topo, fault_options);
  schedule.set_stage_time(0, kFaultTime);
  const std::vector<sim::PktTimedFault> feed = sim::timed_faults(topo, schedule);
  require(!feed.empty(), "the fault stage disabled nothing");

  // Epoch 1: the repaired tables, computed on the faulted fabric inside a
  // revert guard -- however reroute_and_verify exits (including its
  // blackhole-column throw), the shared fabric is restored intact before
  // any packet run sees it.
  routing::RerouteOutcome e1;
  std::int32_t cables_failed = 0;
  {
    const topo::ScheduleRevertGuard revert_guard(topo, schedule);
    const topo::FaultReport applied = schedule.apply_stage(topo, 0);
    cables_failed = static_cast<std::int32_t>(applied.disabled_links.size());
    e1 = routing::reroute_and_verify(dfsssp, topo, lids, options.threads);
  }
  require(e0.census.blackhole_entries == 0 &&
              e1.census.blackhole_entries == 0,
          "a routing epoch shipped blackhole columns");

  const std::vector<sim::PktMessage> messages =
      build_messages(topo, message_count, options.seed);

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
    require(sim::first_difference(
                run_arm(topo, static_messages, &inert, nullptr),
                run_arm(topo, static_messages, nullptr, nullptr))
                .empty(),
            "an inert online config changed a static-path run");
  }

  sim::PktRoutingEpoch epoch0;
  epoch0.tables = &e0.route.tables;
  epoch0.vls = &e0.route.vls;
  sim::PktRoutingEpoch epoch1_from_start;
  epoch1_from_start.tables = &e1.route.tables;
  epoch1_from_start.vls = &e1.route.vls;

  std::vector<Arm> arms;
  const auto run_row = [&](std::string name, const sim::PktOnlineConfig& cfg,
                           const sim::AdaptiveRouter* adaptive, double delay,
                           bool retry) -> const Arm& {
    Arm& arm = arms.emplace_back();
    arm.name = std::move(name);
    arm.delay = delay;
    arm.retry = retry;
    arm.adaptive = adaptive != nullptr;
    arm.result = run_arm(topo, messages, &cfg, adaptive);
    const sim::PktSim::Result& r = arm.result;
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
      ++arm.messages_delivered;
      delivered_bytes += messages[m].bytes;
      last = std::max(last, r.completion[m]);
    }
    arm.makespan = arm.messages_delivered > 0 ? last : r.end_time;
    arm.delivered_fraction =
        offered_bytes > 0 ? static_cast<double>(delivered_bytes) /
                                static_cast<double>(offered_bytes)
                          : 1.0;
    return arm;
  };
  // A table-routed config: `epochs` forward, `faults` cut cables.
  const auto tables_cfg = [&](std::vector<sim::PktTimedFault> faults,
                              std::vector<sim::PktRoutingEpoch> epochs) {
    sim::PktOnlineConfig cfg;
    cfg.faults = std::move(faults);
    cfg.epochs = std::move(epochs);
    cfg.lids = &lids;
    cfg.ttl_hops = kTtlHops;
    return cfg;
  };

  // Baseline: intact fabric, epoch-0 tables, no faults.
  const double baseline_fraction =
      run_row("baseline", tables_cfg({}, {epoch0}), nullptr, 0.0, false)
          .delivered_fraction;
  const double baseline_makespan = arms.front().makespan;

  // Static-reroute envelope: the repaired tables installed from t = 0.
  // Epoch 1 never forwards onto a cut cable, so only packets physically on
  // a dying wire can be lost -- the best any offline reroute could do.
  run_row("static-reroute", tables_cfg(feed, {epoch1_from_start}), nullptr,
          0.0, false);

  // Propagation-delay sweep: epoch 0 everywhere, epoch 1 installed
  // per-switch at kFaultTime + delay; with and without end-host retry.
  // sweep_cfg ends as the last (longest-delay, retry-on) arm's config.
  const auto nsw = static_cast<std::size_t>(topo.num_switches());
  sim::PktOnlineConfig sweep_cfg;
  double retry_retention_gain = 1.0;
  for (const double delay : delays) {
    sim::PktRoutingEpoch epoch1 = epoch1_from_start;
    epoch1.install_time.assign(nsw, kFaultTime + delay);
    sweep_cfg = tables_cfg(feed, {epoch0, epoch1});
    const double off_fraction =
        run_row("delay-sweep", sweep_cfg, nullptr, delay, false)
            .delivered_fraction;
    sweep_cfg.retry = kRetry;
    sweep_cfg.retry.enabled = true;
    const double on_fraction =
        run_row("delay-sweep", sweep_cfg, nullptr, delay, true)
            .delivered_fraction;
    const double gain =
        (baseline_fraction > 0.0
             ? (on_fraction - off_fraction) / baseline_fraction
             : 0.0);
    retry_retention_gain = std::min(retry_retention_gain, gain);
  }

  // Adaptive escape: per-hop DAL routing through the same faults.
  sim::PktOnlineConfig adaptive_cfg;
  adaptive_cfg.faults = feed;
  adaptive_cfg.retry = kRetry;
  adaptive_cfg.retry.enabled = true;
  run_row("adaptive-escape", adaptive_cfg, &dal, 0.0, true);

  // Normalise the goodput-retention column against the baseline arm.
  for (Arm& arm : arms) {
    arm.retention = baseline_fraction > 0.0
                        ? arm.delivered_fraction / baseline_fraction
                        : 0.0;
    arm.recovery_time = std::max(0.0, arm.makespan - baseline_makespan);
  }

  // Thread-count invariance of the retry jitter stream: the hardest sweep
  // arm (longest stale window, retry on) replayed through run_batch at one
  // worker and at options.threads workers must agree bitwise.
  {
    sim::PktSimConfig config;
    config.num_vls = kNumVls;
    config.online = &sweep_cfg;
    std::vector<std::vector<sim::PktMessage>> replications;
    for (std::uint64_t r = 0; r < 4; ++r)
      replications.push_back(
          build_messages(topo, message_count, options.seed + 1 + r));
    sim::PktSim batch(topo, config);
    const auto serial = batch.run_batch(replications, 1);
    const auto fanned = batch.run_batch(
        replications, options.threads > 0 ? options.threads : 4);
    require(std::equal(serial.begin(), serial.end(), fanned.begin(),
                       fanned.end(),
                       [](const auto& a, const auto& b) {
                         return sim::first_difference(a, b).empty();
                       }),
            "run_batch with retry on differs between 1 and N threads");
  }

  report::ResultTable& out =
      rs.table("retention", {"arm", "delay [us]", "retry", "delivered",
                             "in-flight", "blackhole", "ttl", "retries",
                             "retention", "recovery [us]"});
  const auto drops = [](const Arm& arm, obs::PktDropCause cause) {
    return arm.result.dropped_by_cause[static_cast<std::size_t>(cause)];
  };
  for (const Arm& arm : arms) {
    out.add_row({
        arm.name,
        stats::format_fixed(arm.delay * 1e6, 1),
        arm.retry ? "on" : "off",
        std::to_string(arm.messages_delivered) + "/" +
            std::to_string(messages.size()),
        std::to_string(drops(arm, obs::PktDropCause::kInFlight)),
        std::to_string(drops(arm, obs::PktDropCause::kBlackhole)),
        std::to_string(drops(arm, obs::PktDropCause::kTtl)),
        std::to_string(arm.result.retries),
        stats::format_fixed(arm.retention, 3),
        stats::format_fixed(arm.recovery_time * 1e6, 1)});
  }

  // Every contract above threw if it broke, so the identity records read 1.
  report::ResultTable phase_table{"phases", {"phase", "metric", "value"}, {}};
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const Arm& arm = arms[i];
    const sim::PktSim::Result& r = arm.result;
    std::vector<std::pair<std::string, double>> metrics = {
        {"propagation_delay", arm.delay},
        {"retry", arm.retry ? 1.0 : 0.0},
        {"adaptive", arm.adaptive ? 1.0 : 0.0},
        {"engines_identical", 1.0},
        {"deadlock", r.deadlock ? 1.0 : 0.0},
        {"messages_delivered", static_cast<double>(arm.messages_delivered)},
        {"messages", static_cast<double>(messages.size())},
        {"messages_abandoned", static_cast<double>(r.messages_abandoned)},
        {"packets_dropped", static_cast<double>(r.packets_dropped)},
        {"retries", static_cast<double>(r.retries)},
        {"delivered_fraction", arm.delivered_fraction},
        {"retention", arm.retention},
        {"recovery_time", arm.recovery_time},
        {"makespan", arm.makespan},
    };
    for (std::size_t c = 0; c < obs::kNumPktDropCauses; ++c)
      metrics.emplace_back(
          "drops_" + std::string(obs::to_string(
                         static_cast<obs::PktDropCause>(c))),
          static_cast<double>(r.dropped_by_cause[c]));
    add_phase(phase_table, arm.name + "/delay" +
                  std::to_string(static_cast<long long>(arm.delay * 1e9)) +
                  "ns/retry-" + (arm.retry ? "on" : "off") + "/" +
                  std::to_string(i),
              metrics);
  }
  add_phase(phase_table, "contracts",
            {{"nofault_identical", 1.0},
             {"all_engines_identical", 1.0},
             {"threads_identical", 1.0},
             {"retry_retention_gain", retry_retention_gain},
             {"blackhole_columns_epoch0",
              static_cast<double>(e0.census.blackhole_entries)},
             {"blackhole_columns_epoch1",
              static_cast<double>(e1.census.blackhole_entries)},
             {"cables_failed", static_cast<double>(cables_failed)}});

  rs.set("nofault_identical", 1.0);
  rs.set("engines_identical", 1.0);
  rs.set("retry_retention_gain", retry_retention_gain);
  rs.set("cables_failed", static_cast<double>(cables_failed));
  rs.tables.push_back(std::move(phase_table));
  return rs;
}

}  // namespace

report::Experiment online_resilience_experiment() {
  return {"online_resilience",
          "Mid-run link faults: stale-table transient, epoch propagation "
          "and end-host retry",
          "repo (online-fault contract)", run};
}

}  // namespace hxsim::bench
