// Repo-level experiment: the online fault layer.  Cables die mid-run on
// the HyperX/DFSSSP fabric, the repaired LFTs install per switch after
// each sweep delay, and the packet engine measures what the transient
// costs -- delivered goodput by drop cause, end-host retries and recovery
// time -- against the no-fault baseline, the static-reroute envelope and
// a DAL adaptive-escape arm (workloads::run_online_resilience_campaign).
//
// The contracts the campaign exists to enforce: every arm's typed and
// reference engine Results agree bitwise, an inert PktOnlineConfig leaves
// static-path runs bit-identical, run_batch is thread-count invariant with
// retry on, and neither routing epoch ships a blackhole column.  A broken
// contract throws, naming it; the committed claims also bind them
// (nofault_identical, engines_identical) and the retry retention gain
// (end-host retransmission never loses delivered goodput).  Every arm's
// full record (drops by cause, makespan, ...) lands in the long-form
// "phases" table.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "sim/adaptive.hpp"
#include "stats/table.hpp"
#include "stats/units.hpp"
#include "topo/hyperx.hpp"
#include "workloads/online_resilience.hpp"

namespace hxsim::bench {

namespace {

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;

  topo::HyperXParams params;
  if (options.quick) {
    params.dims = {6, 4};
    params.terminals_per_switch = 4;  // 96 nodes
    params.name = "hyperx-6x4-small";
  } else {
    params = topo::paper_hyperx_params();
  }
  topo::HyperX hx(params);
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine dfsssp(8);
  const sim::DalRouter dal(hx);

  workloads::OnlineResilienceOptions opt;
  opt.links_failed = options.quick ? 4 : 8;
  opt.fault_seed = options.seed;
  opt.traffic_seed = options.seed;
  opt.messages = options.quick ? 64 : 192;
  opt.propagation_delays =
      options.quick ? std::vector<double>{0.0, 10e-6, 50e-6}
                    : std::vector<double>{0.0, 5e-6, 20e-6, 50e-6};
  opt.threads = options.threads;

  std::printf("== Online faults, %s / dfsssp: %d cables die at t = %.1f us "
              "==\n\n",
              hx.topo().name().c_str(), opt.links_failed,
              opt.fault_time * 1e6);

  const workloads::OnlineResilienceReport report =
      workloads::run_online_resilience_campaign(hx.topo(), dfsssp, lids, &dal,
                                                opt);

  const std::vector<std::string> header{
      "arm", "delay [us]", "retry", "delivered", "in-flight", "blackhole",
      "ttl", "retries", "retention", "recovery [us]"};
  stats::TextTable table(header);
  report::ResultTable& out = rs.table("retention", header);
  for (const auto& row : report.rows) {
    const std::vector<std::string> cells{
        row.arm,
        stats::format_fixed(row.propagation_delay * 1e6, 1),
        row.retry ? "on" : "off",
        std::to_string(row.messages_delivered) + "/" +
            std::to_string(row.messages),
        std::to_string(row.dropped_by_cause[static_cast<std::size_t>(
            obs::PktDropCause::kInFlight)]),
        std::to_string(row.dropped_by_cause[static_cast<std::size_t>(
            obs::PktDropCause::kBlackhole)]),
        std::to_string(row.dropped_by_cause[static_cast<std::size_t>(
            obs::PktDropCause::kTtl)]),
        std::to_string(row.retries),
        stats::format_fixed(row.retention, 3),
        stats::format_fixed(row.recovery_time * 1e6, 1)};
    table.add_row(cells);
    out.add_row(cells);
  }
  std::printf("%s\n", table.to_string().c_str());

  report::ResultTable phase_table{"phases", {"phase", "metric", "value"}, {}};
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const auto& row = report.rows[i];
    std::vector<std::pair<std::string, double>> metrics = {
        {"propagation_delay", row.propagation_delay},
        {"retry", row.retry ? 1.0 : 0.0},
        {"adaptive", row.adaptive ? 1.0 : 0.0},
        {"engines_identical", row.engines_identical ? 1.0 : 0.0},
        {"deadlock", row.deadlock ? 1.0 : 0.0},
        {"messages_delivered", static_cast<double>(row.messages_delivered)},
        {"messages", static_cast<double>(row.messages)},
        {"messages_abandoned", static_cast<double>(row.messages_abandoned)},
        {"packets_dropped", static_cast<double>(row.packets_dropped)},
        {"retries", static_cast<double>(row.retries)},
        {"delivered_fraction", row.delivered_fraction},
        {"retention", row.retention},
        {"recovery_time", row.recovery_time},
        {"makespan", row.makespan},
    };
    for (std::size_t c = 0; c < obs::kNumPktDropCauses; ++c)
      metrics.emplace_back(
          "drops_" + std::string(obs::to_string(
                         static_cast<obs::PktDropCause>(c))),
          static_cast<double>(row.dropped_by_cause[c]));
    add_phase(phase_table, row.arm + "/delay" +
                  std::to_string(static_cast<long long>(
                      row.propagation_delay * 1e9)) +
                  "ns/retry-" + (row.retry ? "on" : "off") + "/" +
                  std::to_string(i),
              metrics);
  }
  add_phase(phase_table, "contracts",
            {{"nofault_identical", report.nofault_identical ? 1.0 : 0.0},
             {"all_engines_identical",
              report.all_engines_identical ? 1.0 : 0.0},
             {"threads_identical", report.threads_identical ? 1.0 : 0.0},
             {"retry_retention_gain", report.retry_retention_gain},
             {"blackhole_columns_epoch0",
              static_cast<double>(report.blackhole_columns_epoch0)},
             {"blackhole_columns_epoch1",
              static_cast<double>(report.blackhole_columns_epoch1)},
             {"cables_failed", static_cast<double>(report.cables_failed)}});

  std::printf("retry retention gain (min over delays): %+.3f\n",
              report.retry_retention_gain);
  const auto require = [](bool holds, const char* contract) {
    if (!holds) throw std::runtime_error(contract);
  };
  require(report.all_engines_identical,
          "typed and reference engines differ on an arm");
  require(report.nofault_identical,
          "an inert online config changed a static-path run");
  require(report.threads_identical,
          "run_batch with retry on differs between 1 and N threads");
  require(report.blackhole_columns_epoch0 == 0 &&
              report.blackhole_columns_epoch1 == 0,
          "a routing epoch shipped blackhole columns");
  std::printf("typed == reference, inert config bit-identical, "
              "thread-invariant, no blackhole columns: yes\n");
  rs.set("nofault_identical", 1.0);
  rs.set("engines_identical", 1.0);
  rs.set("retry_retention_gain", report.retry_retention_gain);
  rs.set("cables_failed", static_cast<double>(report.cables_failed));
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
