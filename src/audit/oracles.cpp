#include "audit/oracles.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "audit/naive_layering.hpp"
#include "audit/reference_pktsim.hpp"
#include "sim/adaptive.hpp"
#include "stats/rng.hpp"

namespace hxsim::audit {

OracleResult oracle_fail(std::string detail) {
  return OracleResult{false, std::move(detail)};
}

namespace {

/// An engine refusing a hostile fabric *deterministically* (DFSSSP
/// exhausting its VL budget, PARX rejecting a shape) is a legal outcome,
/// not a bug; oracles skip instead of failing.  The skip is recorded in
/// the detail so a suspiciously quiet audit is diagnosable.
struct ComputedRoute {
  std::optional<routing::RouteResult> route;
  std::string refusal;
};

ComputedRoute try_compute(const Scenario& s, const Fabric& f) {
  ComputedRoute c;
  try {
    c.route = make_engine(s, f)->compute(f.topo(), *f.lids);
  } catch (const std::exception& e) {
    c.refusal = e.what();
  }
  return c;
}

OracleResult skip(const std::string& why) {
  OracleResult r;
  r.detail = "skipped: " + why;
  return r;
}

std::vector<sim::PktMessage> scenario_messages(
    const Scenario& s, const Fabric& f, const routing::RouteResult* route,
    const sim::AdaptiveRouter* adaptive, const char* arm_name) {
  workloads::PktRoutingArm arm;
  arm.name = arm_name;
  arm.route = route;
  arm.lids = route != nullptr ? &*f.lids : nullptr;
  arm.adaptive = adaptive;
  return workloads::build_pkt_messages(
      f.topo(), arm, effective_traffic(s, f.topo().num_terminals()),
      s.traffic_seed);
}

/// Terminal alive mask from the per-switch alive mask.
std::vector<char> terminal_mask(const topo::Topology& topo,
                                std::span<const char> sw_alive) {
  std::vector<char> mask(static_cast<std::size_t>(topo.num_terminals()), 1);
  for (topo::NodeId t = 0; t < topo.num_terminals(); ++t)
    mask[static_cast<std::size_t>(t)] =
        sw_alive[static_cast<std::size_t>(topo.attach_switch(t))];
  return mask;
}

}  // namespace

// --- granular checks -------------------------------------------------------

OracleResult check_pkt_results_equal(const sim::PktSim::Result& a,
                                     const sim::PktSim::Result& b) {
  const std::string_view field = sim::first_difference(a, b);
  if (field.empty()) return oracle_pass();
  return oracle_fail("results differ bitwise in " + std::string(field));
}

OracleResult check_pkt_conservation(std::span<const sim::PktMessage> messages,
                                    const sim::PktSim::Result& r) {
  if (r.completion.size() != messages.size())
    return oracle_fail("one completion entry per message expected");
  if (r.deadlock && r.truncated)
    return oracle_fail("deadlock and truncated are mutually exclusive");
  if (r.packets_delivered < 0 || r.packets_total < 0)
    return oracle_fail("negative packet counters");
  if (r.packets_delivered > r.packets_total)
    return oracle_fail("delivered more packets than injected");
  if (r.packets_dropped < 0 || r.retries < 0 || r.messages_abandoned < 0)
    return oracle_fail("negative online counters");
  std::int64_t by_cause = 0;
  for (const std::int64_t n : r.dropped_by_cause) {
    if (n < 0) return oracle_fail("negative per-cause drop counter");
    by_cause += n;
  }
  if (by_cause != r.packets_dropped)
    return oracle_fail("per-cause drop counters do not sum to "
                       "packets_dropped");
  const bool clean = !r.deadlock && !r.truncated;
  if (clean &&
      r.packets_delivered + r.packets_dropped != r.packets_total) {
    std::ostringstream os;
    os << "clean run lost packets: delivered " << r.packets_delivered
       << " + dropped " << r.packets_dropped << " of " << r.packets_total;
    return oracle_fail(os.str());
  }
  std::int64_t incomplete = 0;
  for (const double t : r.completion)
    if (std::isnan(t)) ++incomplete;
  if (clean && r.packets_dropped == 0 && incomplete != 0)
    return oracle_fail("clean dropless run left messages incomplete");
  if (r.packets_delivered == r.packets_total && r.packets_dropped == 0 &&
      incomplete != 0 && !r.truncated)
    return oracle_fail(
        "all packets delivered yet messages remain incomplete");
  if (!r.message_status.empty()) {
    if (r.message_status.size() != messages.size())
      return oracle_fail("one message_status entry per message expected");
    std::int64_t abandoned = 0;
    for (std::size_t m = 0; m < messages.size(); ++m) {
      const bool done = !std::isnan(r.completion[m]);
      const bool marked =
          r.message_status[m] == sim::PktMessageStatus::kDelivered;
      if (done != marked)
        return oracle_fail("message_status disagrees with completion time");
      if (r.message_status[m] == sim::PktMessageStatus::kAbandoned)
        ++abandoned;
    }
    if (abandoned != r.messages_abandoned)
      return oracle_fail("kAbandoned statuses do not match "
                         "messages_abandoned");
  }
  return oracle_pass();
}

OracleResult check_online_quiesced_equivalent(const sim::PktSim::Result& quiesced,
                                              const sim::PktSim::Result& base,
                                              std::int64_t extra_events,
                                              double last_fault_time) {
  sim::PktSim::Result credited = base;
  credited.events_executed += extra_events;
  if (last_fault_time > credited.end_time)
    credited.end_time = last_fault_time;
  if (credited.message_status.empty() && !quiesced.message_status.empty()) {
    // The base ran without an active online config; the quiesced run's
    // statuses must then simply restate its completion vector before the
    // field drops out of the bitwise comparison.
    if (quiesced.message_status.size() != quiesced.completion.size())
      return oracle_fail(
          "quiesced run: one message_status entry per message expected");
    for (std::size_t m = 0; m < quiesced.message_status.size(); ++m) {
      const bool done = !std::isnan(quiesced.completion[m]);
      const bool marked =
          quiesced.message_status[m] == sim::PktMessageStatus::kDelivered;
      if (done != marked)
        return oracle_fail(
            "quiesced run: message_status disagrees with completion time");
    }
    credited.message_status = quiesced.message_status;
  }
  OracleResult check = check_pkt_results_equal(quiesced, credited);
  if (!check.pass)
    check.detail = "post-quiesce fault feed changed the run: " + check.detail;
  return check;
}

OracleResult check_pkt_batches_equal(std::span<const sim::PktSim::Result> a,
                                     std::span<const sim::PktSim::Result> b) {
  if (a.size() != b.size())
    return oracle_fail("batch sizes differ");
  for (std::size_t i = 0; i < a.size(); ++i) {
    OracleResult check = check_pkt_results_equal(a[i], b[i]);
    if (!check.pass) {
      std::ostringstream os;
      os << "replication " << i << ": " << check.detail;
      return oracle_fail(os.str());
    }
  }
  return oracle_pass();
}

bool replication_equal(const workloads::PktReplicationResult& a,
                       const workloads::PktReplicationResult& b) {
  return a.arm == b.arm && a.pattern == b.pattern && a.seed == b.seed &&
         a.deadlock == b.deadlock && a.truncated == b.truncated &&
         std::memcmp(&a.end_time, &b.end_time, sizeof(double)) == 0 &&
         std::memcmp(&a.mean_completion, &b.mean_completion,
                     sizeof(double)) == 0 &&
         a.packets_delivered == b.packets_delivered &&
         a.packets_total == b.packets_total &&
         a.events_executed == b.events_executed;
}

OracleResult check_trace_consistency(const topo::Topology& topo,
                                     const sim::PktSimConfig& config,
                                     const sim::PktSim::Result& r,
                                     const obs::PktTrace& trace) {
  if (trace.num_channels() != topo.num_channels())
    return oracle_fail("trace channel count does not match the topology");
  std::int64_t ejected = 0;
  for (topo::NodeId t = 0; t < topo.num_terminals(); ++t)
    ejected += trace.channel_packets(topo.terminal_down(t));
  if (ejected != r.packets_delivered) {
    std::ostringstream os;
    os << "terminal-down crossings (" << ejected
       << ") != packets_delivered (" << r.packets_delivered << ")";
    return oracle_fail(os.str());
  }
  const bool clean = !r.deadlock && !r.truncated;
  for (topo::ChannelId ch = 0; ch < topo.num_channels(); ++ch) {
    for (std::int8_t vl = 0; vl < config.num_vls; ++vl) {
      const obs::ChannelVlCounters& c = trace.at(ch, vl);
      if (c.packets < 0 || c.bytes < 0 || c.arb_skips < 0 ||
          c.credit_stall_s < 0.0 || c.peak_queue < 0 ||
          c.queue_depth_time < 0.0)
        return oracle_fail("negative trace counter");
      if (clean && c.final_credits >= 0 &&
          c.final_credits != config.vc_buffer_packets) {
        std::ostringstream os;
        os << "clean run left channel " << ch << " vl " << int(vl)
           << " holding credits (" << c.final_credits << "/"
           << config.vc_buffer_packets << ")";
        return oracle_fail(os.str());
      }
    }
  }
  return oracle_pass();
}

OracleResult check_shipped_tables(const topo::Topology& topo,
                                  const routing::LidSpace& lids,
                                  const routing::RouteResult& route,
                                  const TableExpectations& expect) {
  if (expect.require_acyclic) {
    const routing::CdgReport cdg =
        routing::verify_deadlock_freedom(topo, lids, route);
    if (!cdg.acyclic) {
      std::ostringstream os;
      os << "channel dependency cycle on VL " << int(cdg.first_cyclic_vl);
      return oracle_fail(os.str());
    }
  }

  const routing::PathCensus census =
      routing::route_census(topo, lids, route.tables, expect.terminals);
  std::int64_t alive = 0;
  if (expect.terminals.empty()) {
    alive = topo.num_terminals();
  } else {
    for (const char a : expect.terminals) alive += a ? 1 : 0;
  }
  if (census.pairs != alive * (alive - 1)) {
    std::ostringstream os;
    os << "census walked " << census.pairs << " pairs, expected "
       << alive * (alive - 1);
    return oracle_fail(os.str());
  }
  if (census.routable_pairs + census.lost_pairs != census.pairs)
    return oracle_fail("routable + lost pairs != pairs walked");
  if (census.lost_lid_paths > census.lid_paths)
    return oracle_fail("more LID paths lost than walked");
  if (route.unreachable_entries == 0 && census.lost_lid_paths != 0) {
    std::ostringstream os;
    os << "tables claim full reachability yet " << census.lost_lid_paths
       << " LID paths are lost (loop or malformed entry)";
    return oracle_fail(os.str());
  }
  if (expect.require_no_lost_pairs && census.lost_pairs != 0) {
    std::ostringstream os;
    os << census.lost_pairs << " alive terminal pairs lost while the "
       << "surviving switch graph is connected";
    return oracle_fail(os.str());
  }
  return oracle_pass();
}

OracleResult check_vl_layering(const topo::Topology& topo,
                               const routing::LidSpace& lids,
                               const routing::RouteResult& route,
                               std::int32_t max_vls) {
  const NaiveLayering naive =
      naive_vl_layering(topo, lids, route.tables, max_vls);
  std::ostringstream os;
  if (!naive.fits) {
    os << "the naive re-layering exceeds the " << max_vls
       << "-VL budget the engine met";
    return oracle_fail(os.str());
  }
  if (route.num_vls_used != naive.num_vls_used) {
    os << "num_vls_used " << route.num_vls_used
       << " but the naive re-layering uses " << naive.num_vls_used;
    return oracle_fail(os.str());
  }
  if (route.vls == naive.vls) return oracle_pass();
  for (topo::SwitchId sw = 0; sw < topo.num_switches(); ++sw)
    for (routing::Lid lid = 0; lid <= lids.max_lid(); ++lid)
      if (route.vls.vl(sw, lid) != naive.vls.vl(sw, lid)) {
        os << "switch " << sw << " dlid " << lid << " ships VL "
           << int(route.vls.vl(sw, lid)) << ", the naive re-layering VL "
           << int(naive.vls.vl(sw, lid));
        return oracle_fail(os.str());
      }
  return oracle_fail("VlMap differs from the naive re-layering's");
}

OracleResult check_flow_invariants(const sim::FlowSim& fs,
                                   std::span<const sim::Flow> flows,
                                   std::span<const double> rates) {
  if (rates.size() != flows.size())
    return oracle_fail("one rate per flow expected");
  constexpr double kEps = 1e-6;

  // Per-channel load and per-channel fastest flow.
  std::unordered_map<topo::ChannelId, double> load;
  std::unordered_map<topo::ChannelId, double> max_rate;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const double r = rates[i];
    if (std::isnan(r) || r < 0.0) return oracle_fail("NaN or negative rate");
    if (flows[i].channels.empty()) {
      if (!std::isinf(r))
        return oracle_fail("zero-hop flow must complete at injection (+inf)");
      continue;
    }
    if (std::isinf(r))
      return oracle_fail("flow crossing channels got an infinite rate");
    for (const topo::ChannelId ch : flows[i].channels) {
      load[ch] += r;
      double& m = max_rate[ch];
      if (r > m) m = r;
    }
  }

  for (const auto& [ch, sum] : load) {
    const double cap = fs.capacity(ch);
    if (sum > cap * (1.0 + kEps)) {
      std::ostringstream os;
      os << "channel " << ch << " oversubscribed: " << sum << " > capacity "
         << cap;
      return oracle_fail(os.str());
    }
  }

  // Max-min optimality: every flow is bottlenecked by some saturated
  // channel on its path where it is (one of) the fastest -- otherwise its
  // rate could be raised without lowering a slower flow's, contradicting
  // max-min fairness.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].channels.empty()) continue;
    const double r = rates[i];
    bool bottlenecked = false;
    for (const topo::ChannelId ch : flows[i].channels) {
      const double cap = fs.capacity(ch);
      if (load[ch] < cap * (1.0 - kEps)) continue;  // not saturated
      if (r >= max_rate[ch] * (1.0 - kEps)) {
        bottlenecked = true;
        break;
      }
    }
    if (!bottlenecked) {
      std::ostringstream os;
      os << "flow " << i << " (rate " << r
         << ") has no bottleneck: no saturated channel on its path caps it";
      return oracle_fail(os.str());
    }
  }
  return oracle_pass();
}

OracleResult check_flowsim_engines_identical(
    std::span<const double> reference_rates,
    std::span<const double> indexed_rates,
    const obs::FlowSolveRecord& reference_record,
    const obs::FlowSolveRecord& indexed_record) {
  if (reference_rates.size() != indexed_rates.size())
    return oracle_fail("rate vector sizes differ");
  // Bitwise, not ==: the contract is that the indexed engine replays the
  // reference's exact FP operation order, so even -0.0 vs 0.0 or
  // differently-rounded last bits are divergences.
  for (std::size_t i = 0; i < reference_rates.size(); ++i) {
    if (std::memcmp(&reference_rates[i], &indexed_rates[i],
                    sizeof(double)) != 0) {
      std::ostringstream os;
      os.precision(17);
      os << "rate[" << i << "] diverges: reference " << reference_rates[i]
         << " vs indexed " << indexed_rates[i];
      return oracle_fail(os.str());
    }
  }
  if (reference_record.active_flows != indexed_record.active_flows)
    return oracle_fail("FlowSolveRecord.active_flows differs");
  if (reference_record.levels.size() != indexed_record.levels.size())
    return oracle_fail("FlowSolveRecord.levels length differs");
  for (std::size_t i = 0; i < reference_record.levels.size(); ++i) {
    if (std::memcmp(&reference_record.levels[i], &indexed_record.levels[i],
                    sizeof(double)) != 0) {
      std::ostringstream os;
      os.precision(17);
      os << "FlowSolveRecord.levels[" << i << "] diverges: reference "
         << reference_record.levels[i] << " vs indexed "
         << indexed_record.levels[i];
      return oracle_fail(os.str());
    }
  }
  if (reference_record.freezes_per_level != indexed_record.freezes_per_level)
    return oracle_fail("FlowSolveRecord.freezes_per_level differs");
  if (reference_record.saturated != indexed_record.saturated)
    return oracle_fail(
        "FlowSolveRecord.saturated differs (set or first-saturation order)");
  return oracle_pass();
}

OracleResult check_flow_levels_monotone(const obs::FlowSolveRecord& record) {
  for (std::size_t i = 0; i < record.levels.size(); ++i) {
    const double level = record.levels[i];
    if (std::isnan(level) || level < 0.0) {
      std::ostringstream os;
      os << "level " << i << " is NaN or negative (" << level << ")";
      return oracle_fail(os.str());
    }
    if (i > 0 && level < record.levels[i - 1]) {
      std::ostringstream os;
      os.precision(17);
      os << "fill level descended at step " << i << ": "
         << record.levels[i - 1] << " -> " << level;
      return oracle_fail(os.str());
    }
  }
  return oracle_pass();
}

// --- scenario oracles ------------------------------------------------------

namespace {

OracleResult oracle_pktsim_identity(const Scenario& s) {
  const Fabric f = build_fabric(s);
  const ComputedRoute computed = try_compute(s, f);
  if (!computed.route) return skip("engine refused: " + computed.refusal);

  struct Arm {
    const char* name;
    std::vector<sim::PktMessage> msgs;
    const sim::AdaptiveRouter* adaptive;
  };
  std::vector<Arm> arms;
  arms.push_back({"static",
                  scenario_messages(s, f, &*computed.route, nullptr,
                                    "static"),
                  nullptr});
  std::optional<sim::DalRouter> dal;
  std::optional<sim::ValiantRouter> valiant;
  if (f.hyperx) {
    dal.emplace(*f.hyperx);
    valiant.emplace(*f.hyperx, s.traffic_seed);
    arms.push_back({"dal", scenario_messages(s, f, nullptr, &*dal, "dal"),
                    &*dal});
    arms.push_back({"valiant",
                    scenario_messages(s, f, nullptr, &*valiant, "valiant"),
                    &*valiant});
  }

  for (const Arm& arm : arms) {
    sim::PktSimConfig cfg;
    cfg.adaptive = arm.adaptive;
    sim::PktSim typed(f.topo(), cfg);
    const auto rt = typed.run(arm.msgs);
    const auto rr = reference_pkt_run(f.topo(), cfg, arm.msgs);
    OracleResult check = check_pkt_results_equal(rt, rr);
    if (!check.pass) {
      check.detail = std::string(arm.name) +
                     " arm: typed vs reference: " + check.detail;
      return check;
    }
  }
  return oracle_pass();
}

OracleResult oracle_pkt_conservation(const Scenario& s) {
  const Fabric f = build_fabric(s);
  const ComputedRoute computed = try_compute(s, f);
  if (!computed.route) return skip("engine refused: " + computed.refusal);
  const auto msgs =
      scenario_messages(s, f, &*computed.route, nullptr, "static");

  sim::PktSimConfig cfg;
  sim::PktSim plain(f.topo(), cfg);
  const auto r = plain.run(msgs);

  obs::PktTrace trace;
  sim::PktSimConfig traced_cfg = cfg;
  traced_cfg.trace = &trace;
  sim::PktSim traced(f.topo(), traced_cfg);
  const auto r_traced = traced.run(msgs);

  OracleResult check = check_pkt_results_equal(r, r_traced);
  if (!check.pass) {
    check.detail = "trace on/off not bit-identical: " + check.detail;
    return check;
  }
  check = check_pkt_conservation(msgs, r);
  if (!check.pass) return check;
  check = check_trace_consistency(f.topo(), cfg, r_traced, trace);
  if (!check.pass) return check;

  // Truncation probe: stopping the same run halfway through its event
  // count must report truncated (never deadlock) and still conserve.
  if (r.events_executed >= 2 && !r.deadlock) {
    const auto half = plain.run(
        msgs, static_cast<std::size_t>(r.events_executed / 2));
    if (!half.truncated)
      return oracle_fail("halved event budget did not report truncated");
    if (half.deadlock)
      return oracle_fail("truncated run misreported as deadlock");
    check = check_pkt_conservation(msgs, half);
    if (!check.pass) {
      check.detail = "truncated run: " + check.detail;
      return check;
    }
  }
  return oracle_pass();
}

OracleResult oracle_sweep_determinism(const Scenario& s) {
  const Fabric f = build_fabric(s);
  const ComputedRoute computed = try_compute(s, f);
  if (!computed.route) return skip("engine refused: " + computed.refusal);

  std::vector<workloads::PktRoutingArm> arms;
  arms.push_back({"static", &*computed.route, &*f.lids, nullptr});
  std::optional<sim::DalRouter> dal;
  std::optional<sim::ValiantRouter> valiant;
  if (f.hyperx) {
    dal.emplace(*f.hyperx);
    valiant.emplace(*f.hyperx, s.traffic_seed);
    arms.push_back({"dal", nullptr, nullptr, &*dal});
    arms.push_back({"valiant", nullptr, nullptr, &*valiant});
  }
  const std::vector<workloads::PktPatternSpec> patterns{
      effective_traffic(s, f.topo().num_terminals())};

  workloads::PktSweepOptions opt;
  opt.seeds = 3;
  opt.threads = 1;
  const auto serial = workloads::run_pkt_sweep(f.topo(), arms, patterns, opt);
  opt.threads = 4;
  const auto parallel =
      workloads::run_pkt_sweep(f.topo(), arms, patterns, opt);
  if (serial.size() != parallel.size())
    return oracle_fail("sweep sizes differ across thread counts");
  for (std::size_t i = 0; i < serial.size(); ++i)
    if (!replication_equal(serial[i], parallel[i])) {
      std::ostringstream os;
      os << "replication " << i << " (arm " << serial[i].arm << ", seed "
         << serial[i].seed << ") differs between 1 and 4 threads";
      return oracle_fail(os.str());
    }
  return oracle_pass();
}

OracleResult oracle_online_fault(const Scenario& s) {
  const Fabric f = build_fabric(s);
  const ComputedRoute computed = try_compute(s, f);
  if (!computed.route) return skip("engine refused: " + computed.refusal);
  const auto msgs =
      scenario_messages(s, f, &*computed.route, nullptr, "static");

  // A victim channel set: the first routed message's path (guaranteed
  // in-range for this fabric).
  const sim::PktMessage* victim = nullptr;
  for (const sim::PktMessage& m : msgs)
    if (!m.path.empty()) {
      victim = &m;
      break;
    }
  if (victim == nullptr) return skip("no routed messages to fault");

  sim::PktSimConfig cfg;
  sim::PktSim typed_base(f.topo(), cfg);
  const auto base = typed_base.run(msgs);
  if (base.deadlock || base.truncated)
    return skip("base run did not quiesce");

  // 1. Faults strictly after quiesce are inert modulo their own events.
  sim::PktOnlineConfig after;
  after.faults.push_back({base.end_time + 1.0, victim->path});
  sim::PktSimConfig after_cfg = cfg;
  after_cfg.online = &after;
  sim::PktSim typed_after(f.topo(), after_cfg);
  const auto quiesced = typed_after.run(msgs);
  OracleResult check = check_pkt_results_equal(
      quiesced, reference_pkt_run(f.topo(), after_cfg, msgs));
  if (!check.pass) {
    check.detail = "post-quiesce feed: typed vs reference: " + check.detail;
    return check;
  }
  check = check_online_quiesced_equivalent(
      quiesced, base, static_cast<std::int64_t>(after.faults.size()),
      after.faults.back().time);
  if (!check.pass) return check;

  // 2. Mid-run faults with retry on: typed/reference identity, run_batch
  // thread-count invariance, and conservation with drops.
  sim::PktOnlineConfig mid;
  mid.faults.push_back({base.end_time * 0.5, victim->path});
  mid.retry.enabled = true;
  mid.retry.timeout = base.end_time;
  mid.retry.backoff_base = base.end_time * 0.25;
  mid.retry.jitter = 0.5;
  mid.retry.max_retries = 2;
  mid.retry.seed = s.traffic_seed | 1;
  const std::vector<std::vector<sim::PktMessage>> replications(3, msgs);

  sim::PktSimConfig mid_cfg = cfg;
  mid_cfg.online = &mid;
  sim::PktSim typed_mid(f.topo(), mid_cfg);
  const auto serial = typed_mid.run_batch(replications, /*threads=*/1);
  const auto parallel = typed_mid.run_batch(replications, /*threads=*/4);
  check = check_pkt_batches_equal(serial, parallel);
  if (!check.pass) {
    check.detail = "mid-run fault + retry, 1 vs 4 threads: " + check.detail;
    return check;
  }
  std::vector<sim::PktSim::Result> reference;
  for (std::size_t i = 0; i < replications.size(); ++i)
    reference.push_back(
        reference_pkt_run(f.topo(), mid_cfg, replications[i], SIZE_MAX, i));
  check = check_pkt_batches_equal(serial, reference);
  if (!check.pass) {
    check.detail =
        "mid-run fault + retry: typed vs reference: " + check.detail;
    return check;
  }
  for (std::size_t i = 0; i < serial.size(); ++i) {
    check = check_pkt_conservation(replications[i], serial[i]);
    if (!check.pass) {
      std::ostringstream os;
      os << "mid-run fault + retry, replication " << i << ": "
         << check.detail;
      return oracle_fail(os.str());
    }
  }
  return oracle_pass();
}

OracleResult oracle_table_audit(const Scenario& s) {
  Fabric f = build_fabric(s);
  std::vector<char> sw_alive(
      static_cast<std::size_t>(f.topo().num_switches()), 1);

  const auto audit_now = [&](const std::string& label,
                             bool faulted) -> OracleResult {
    const ComputedRoute computed = try_compute(s, f);
    if (!computed.route) return oracle_pass();  // deterministic refusal
    TableExpectations expect;
    // SSSP ships shortest paths with no VL layering: not deadlock-free by
    // design (that is DFSSSP's job), so acyclicity is not its contract.
    expect.require_acyclic = s.engine != "sssp";
    const std::vector<char> terminals = terminal_mask(f.topo(), sw_alive);
    expect.terminals = terminals;
    // Connectivity contract: shortest-path engines and Up*/Down* route
    // every pair of a connected fabric.  ftree's legal up/down paths and
    // PARX's pruned LID routes may legally lose pairs on a *faulted*
    // fabric (paper footnote 7), so they are only held to zero loss
    // pristine.
    const bool engine_guarantees =
        s.engine == "updown" || s.engine == "sssp" || s.engine == "dfsssp";
    expect.require_no_lost_pairs =
        !faulted || (engine_guarantees &&
                     f.topo().switches_connected(sw_alive));
    OracleResult check =
        check_shipped_tables(f.topo(), *f.lids, *computed.route, expect);
    // The two layered engines must reproduce the naive re-layering.
    if (check.pass && (s.engine == "dfsssp" || s.engine == "parx"))
      check = check_vl_layering(f.topo(), *f.lids, *computed.route,
                                kScenarioMaxVls);
    if (!check.pass) check.detail = label + ": " + check.detail;
    return check;
  };

  OracleResult check = audit_now("pristine", /*faulted=*/false);
  if (!check.pass) return check;
  for (std::int32_t i = 0; i < f.faults.num_stages(); ++i) {
    (void)f.faults.apply_stage(f.topo(), i);
    for (const topo::FaultEvent& ev : f.faults.stage(i).events)
      if (ev.kind == topo::FaultKind::kSwitch)
        sw_alive[static_cast<std::size_t>(ev.victim)] = 0;
    std::ostringstream label;
    label << "stage " << i;
    check = audit_now(label.str(), /*faulted=*/true);
    if (!check.pass) return check;
  }
  return oracle_pass();
}

OracleResult oracle_flow_invariants(const Scenario& s) {
  Fabric f = build_fabric(s);
  const sim::FlowSim fs(f.topo());

  const auto solve_and_check =
      [&](const routing::RouteResult& route, std::uint64_t seed,
          const std::string& label) -> OracleResult {
    stats::Rng rng(seed);
    const auto n = static_cast<std::uint64_t>(f.topo().num_terminals());
    std::vector<sim::Flow> flows;
    for (std::int32_t attempts = 0;
         static_cast<std::int32_t>(flows.size()) < s.flow_pairs &&
         attempts < s.flow_pairs * 10;
         ++attempts) {
      const auto src = static_cast<topo::NodeId>(rng.next_below(n));
      const auto dst = static_cast<topo::NodeId>(rng.next_below(n));
      if (src == dst) continue;
      auto path = route.tables.path(f.topo(), *f.lids, src,
                                    f.lids->base_lid(dst));
      if (!path.ok) continue;  // lost pair (faulted fabric): skip
      sim::Flow flow;
      flow.channels = std::move(path.channels);
      flow.bytes = s.traffic.bytes;
      flows.push_back(std::move(flow));
    }
    if (flows.empty()) return oracle_pass();  // nothing routable to solve
    const std::vector<double> rates = fs.fair_rates(flows);
    OracleResult check = check_flow_invariants(fs, flows, rates);
    if (!check.pass) check.detail = label + ": " + check.detail;
    return check;
  };

  const ComputedRoute pristine = try_compute(s, f);
  if (!pristine.route) return skip("engine refused: " + pristine.refusal);
  OracleResult check =
      solve_and_check(*pristine.route, s.traffic_seed, "pristine");
  if (!check.pass) return check;

  if (f.faults.num_stages() > 0) {
    (void)f.faults.apply_all(f.topo());
    const ComputedRoute faulted = try_compute(s, f);
    if (faulted.route) {
      check = solve_and_check(*faulted.route, s.traffic_seed ^ 0xf10eu,
                              "faulted");
      if (!check.pass) return check;
    }
  }
  return oracle_pass();
}

OracleResult oracle_flowsim_engine_identity(const Scenario& s) {
  Fabric f = build_fabric(s);
  const sim::FlowSim reference(f.topo(), {},
                               sim::FlowSim::SolverEngine::kReference);
  const sim::FlowSim indexed(f.topo(), {},
                             sim::FlowSim::SolverEngine::kIndexed);
  const sim::FlowSim adaptive(f.topo());

  const auto solve_and_compare =
      [&](const routing::RouteResult& route, std::uint64_t seed,
          const std::string& label) -> OracleResult {
    stats::Rng rng(seed);
    const auto n = static_cast<std::uint64_t>(f.topo().num_terminals());
    std::vector<sim::Flow> flows;
    for (std::int32_t attempts = 0;
         static_cast<std::int32_t>(flows.size()) < s.flow_pairs &&
         attempts < s.flow_pairs * 10;
         ++attempts) {
      const auto src = static_cast<topo::NodeId>(rng.next_below(n));
      const auto dst = static_cast<topo::NodeId>(rng.next_below(n));
      if (src == dst) continue;
      auto path = route.tables.path(f.topo(), *f.lids, src,
                                    f.lids->base_lid(dst));
      if (!path.ok) continue;  // lost pair (faulted fabric): skip
      sim::Flow flow;
      flow.channels = std::move(path.channels);
      flow.bytes = s.traffic.bytes;
      flows.push_back(std::move(flow));
    }
    if (flows.empty()) return oracle_pass();  // nothing routable to solve

    obs::FlowSolveTrace reference_trace;
    obs::FlowSolveTrace indexed_trace;
    obs::FlowSolveTrace adaptive_trace;
    const std::vector<double> reference_rates =
        reference.fair_rates(flows, &reference_trace);
    const std::vector<double> indexed_rates =
        indexed.fair_rates(flows, &indexed_trace);
    const std::vector<double> adaptive_rates =
        adaptive.fair_rates(flows, &adaptive_trace);
    OracleResult check = check_flowsim_engines_identical(
        reference_rates, indexed_rates, reference_trace.solves.at(0),
        indexed_trace.solves.at(0));
    if (check.pass)
      check = check_flowsim_engines_identical(
          reference_rates, adaptive_rates, reference_trace.solves.at(0),
          adaptive_trace.solves.at(0));
    if (check.pass)
      check = check_flow_levels_monotone(indexed_trace.solves.at(0));
    if (!check.pass) check.detail = label + ": " + check.detail;
    return check;
  };

  const ComputedRoute pristine = try_compute(s, f);
  if (!pristine.route) return skip("engine refused: " + pristine.refusal);
  OracleResult check =
      solve_and_compare(*pristine.route, s.traffic_seed, "pristine");
  if (!check.pass) return check;

  if (f.faults.num_stages() > 0) {
    (void)f.faults.apply_all(f.topo());
    const ComputedRoute faulted = try_compute(s, f);
    if (faulted.route) {
      check = solve_and_compare(*faulted.route, s.traffic_seed ^ 0x1dedu,
                                "faulted");
      if (!check.pass) return check;
    }
  }
  return oracle_pass();
}

constexpr OracleEntry kOracles[] = {
    {"pktsim_identity", oracle_pktsim_identity},
    {"pkt_conservation", oracle_pkt_conservation},
    {"sweep_determinism", oracle_sweep_determinism},
    {"online_fault", oracle_online_fault},
    {"table_audit", oracle_table_audit},
    {"flow_invariants", oracle_flow_invariants},
    {"flowsim_engine_identity", oracle_flowsim_engine_identity},
};

}  // namespace

std::span<const OracleEntry> all_oracles() { return kOracles; }

OracleResult run_oracle(const OracleEntry& oracle, const Scenario& scenario) {
  try {
    return oracle.fn(scenario);
  } catch (const std::exception& e) {
    return oracle_fail(std::string("unhandled exception: ") + e.what());
  }
}

ScenarioVerdict run_all_oracles(const Scenario& scenario) {
  ScenarioVerdict verdict;
  for (const OracleEntry& oracle : all_oracles()) {
    const OracleResult r = run_oracle(oracle, scenario);
    ++verdict.oracles_run;
    if (!r.pass) {
      verdict.pass = false;
      verdict.oracle = oracle.name;
      verdict.detail = r.detail;
      return verdict;
    }
  }
  return verdict;
}

}  // namespace hxsim::audit
