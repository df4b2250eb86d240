#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/flow_trace.hpp"
#include "obs/phase_clock.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "sim/flowsim.hpp"
#include "sim/pktsim.hpp"
#include "stats/rng.hpp"
#include "stats/units.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"

namespace hxbench {

namespace mpi = hxsim::mpi;
namespace obs = hxsim::obs;
namespace routing = hxsim::routing;
namespace sim = hxsim::sim;
namespace stats = hxsim::stats;
namespace topo = hxsim::topo;
namespace workloads = hxsim::workloads;

namespace {

/// Keeps the replayed VlMap lookups from being optimised away: production
/// performs them (route_message fills NetMessage::vl) and so must the
/// replay, even though no replayed result reads the lane.
volatile std::int64_t g_vl_sink = 0;

/// mpigraph and eBB solve this many rounds per solve_batch call; the replay
/// keeps the block so the solver sees the same batches.
constexpr std::int32_t kBlock = 32;

struct NodeMsg {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  std::int64_t bytes = 0;
};

/// Cluster::route_message for a batch of messages, one phase at a time:
/// select_dlid for every message first, drawing from `rng` in message order
/// exactly as a loop of route_message calls does, then the LFT walk and VL
/// lookup.  Self-sends get an empty path and draw nothing.  Throws on an
/// unroutable message, as every production caller does.
void route_batch(const mpi::Cluster& cluster, std::span<const NodeMsg> msgs,
                 stats::Rng& rng, std::vector<routing::Lid>& dlids,
                 std::vector<std::vector<topo::ChannelId>>& paths,
                 Tracer& tracer) {
  const topo::Topology& topo = cluster.topo();
  const routing::RouteResult& route = cluster.route();

  const Clock::time_point t0 = Clock::now();
  dlids.resize(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const NodeMsg& m = msgs[i];
    if (m.src == m.dst) {
      dlids[i] = routing::kInvalidLid;
      continue;
    }
    dlids[i] = cluster.select_dlid(m.src, m.dst, m.bytes, rng);
    if (dlids[i] == routing::kInvalidLid)
      throw std::runtime_error("replay: unroutable message");
  }

  const Clock::time_point t1 = Clock::now();
  paths.resize(msgs.size());
  std::int64_t channels = 0;
  std::int64_t vl_sum = 0;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const NodeMsg& m = msgs[i];
    if (m.src == m.dst) {
      paths[i].clear();
      continue;
    }
    routing::ForwardingTables::Path path =
        route.tables.path(topo, cluster.lids(), m.src, dlids[i]);
    if (!path.ok) throw std::runtime_error("replay: unroutable message");
    vl_sum += route.vls.vl(topo.attach_switch(m.src), dlids[i]);
    channels += static_cast<std::int64_t>(path.channels.size());
    paths[i] = std::move(path.channels);
  }
  const Clock::time_point t2 = Clock::now();
  g_vl_sink = vl_sum;

  tracer.add_time("mpi.select_dlid_s", t0, t1);
  tracer.add_time("routing.path_walk_s", t1, t2);
  tracer.add("routing.path_channels", static_cast<double>(channels));
}

/// The flow sets of mpigraph and eBB take the routed paths by move.
std::vector<sim::Flow> move_into_flows(
    std::vector<std::vector<topo::ChannelId>>& paths, std::int64_t bytes,
    Tracer& tracer) {
  const Clock::time_point t0 = Clock::now();
  std::vector<sim::Flow> flows;
  flows.reserve(paths.size());
  for (std::vector<topo::ChannelId>& path : paths)
    flows.push_back(sim::Flow{std::move(path), bytes});
  tracer.add_time("mpi.flow_build_s", t0, Clock::now());
  return flows;
}

std::vector<std::vector<double>> timed_solve_batch(
    const sim::FlowSim& solver,
    const std::vector<std::vector<sim::Flow>>& sets, Tracer& tracer) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<double>> rates = solver.solve_batch(sets);
  tracer.add_time("sim.flow.solve_batch_s", t0, Clock::now());
  tracer.add("sim.flow.sets", static_cast<double>(sets.size()));
  for (const std::vector<sim::Flow>& set : sets)
    tracer.add("sim.flow.flows", static_cast<double>(set.size()));
  return rates;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

/// Solver work counters come from a second, traced solve outside the timed
/// phases; its time is kTraceCounting, which is not part of the replay.
/// Tracing must not change the rates; that is checked bit for bit.
void count_solve(const sim::FlowSim& solver, std::span<const sim::Flow> flows,
                 std::span<const double> rates, obs::FlowSolveTrace& trace,
                 Tracer& tracer) {
  const Clock::time_point start = Clock::now();
  trace.clear();
  const std::vector<double> traced = solver.fair_rates(flows, &trace);
  if (!bitwise_equal(traced, rates) || trace.solves.size() != 1)
    throw std::runtime_error("replay: traced fair_rates differs from untraced");
  const obs::FlowSolveRecord& record = trace.solves.front();
  std::int64_t freezes = 0;
  for (const std::int32_t f : record.freezes_per_level) freezes += f;
  tracer.add("sim.flow.solves", 1.0);
  tracer.add("sim.flow.flows", static_cast<double>(flows.size()));
  tracer.add("sim.flow.levels", static_cast<double>(record.num_levels()));
  tracer.add("sim.flow.freezes", static_cast<double>(freezes));
  tracer.add_time(kTraceCounting, start, Clock::now());
}

template <typename Engine>
routing::RouteResult timed_compute(Engine& engine, const topo::Topology& topo,
                                   const routing::LidSpace& lids,
                                   std::string_view metric, Tracer& tracer) {
  const Clock::time_point t0 = Clock::now();
  routing::RouteResult route = engine.compute(topo, lids);
  tracer.add_time(metric, t0, Clock::now());
  return route;
}

void check_route(const routing::RouteResult& replayed,
                 const routing::RouteResult& fixture, const char* what) {
  if (!(replayed == fixture))
    throw std::runtime_error(std::string("replay: ") + what +
                             " routing differs from the fixture");
}

/// DFSSSP on a HyperX plane, with its phase timings as layer metrics.
void replay_dfsssp_hx(const topo::Topology& topo,
                      const routing::RouteResult& fixture, Tracer& tracer) {
  const auto lids =
      routing::LidSpace::consecutive(topo.num_terminals(), 0);
  routing::DfssspEngine engine(kDfssspVls);
  obs::PhaseTimings phases;
  engine.set_timings(&phases);
  check_route(timed_compute(engine, topo, lids, "routing.dfsssp_hx.compute_s",
                            tracer),
              fixture, "dfsssp (HyperX)");
  for (const auto& [phase, seconds] : phases.entries())
    tracer.add("routing.dfsssp_hx.phase." + phase + "_s", seconds);
}

/// A plane as PaperSystem builds it: the constructor, then the fault
/// sample, with the number of missing cables read off the fixture's plane.
/// Throws unless the rebuilt plane disables exactly the fixture's cables.
template <typename Plane>
void rebuild_plane(const Plane& fixture, std::uint64_t fault_seed) {
  const topo::Topology& want = fixture.topo();
  Plane plane(fixture.params());
  const auto missing = static_cast<std::int32_t>(
      plane.topo().num_switch_links() - want.num_switch_links());
  if (missing > 0) topo::inject_link_faults(plane.topo(), missing, fault_seed);
  const topo::Topology& got = plane.topo();
  bool same = got.num_channels() == want.num_channels();
  for (topo::ChannelId ch = 0; same && ch < got.num_channels(); ++ch)
    same = got.channel(ch).enabled == want.channel(ch).enabled;
  if (!same)
    throw std::runtime_error("replay: rebuilt " + got.name() +
                             " differs from the fixture");
}

}  // namespace

std::vector<double> replay_execute_rounds(const mpi::Cluster& cluster,
                                          const mpi::Placement& placement,
                                          std::uint64_t seed,
                                          const mpi::Schedule& schedule,
                                          Tracer& tracer) {
  const mpi::PmlConfig& pml = cluster.pml();
  const sim::LinkModel& link = cluster.link();
  stats::Rng rng(seed);
  const sim::FlowSim solver(cluster.topo(), link);
  obs::FlowSolveTrace solve_trace;

  std::vector<double> times;
  times.reserve(schedule.size());
  std::vector<NodeMsg> msgs;
  std::vector<routing::Lid> dlids;
  std::vector<std::vector<topo::ChannelId>> paths;
  for (const mpi::Round& round : schedule) {
    if (round.empty()) {
      times.push_back(0.0);
      continue;
    }
    msgs.clear();
    for (const mpi::RankMsg& rm : round)
      msgs.push_back({placement.node_of(rm.src_rank),
                      placement.node_of(rm.dst_rank), rm.bytes});
    route_batch(cluster, msgs, rng, dlids, paths, tracer);

    // Per-endpoint software serialisation, kept as Transport::round_time
    // keeps it.
    const Clock::time_point t0 = Clock::now();
    std::vector<double> offset(round.size(), 0.0);
    std::unordered_map<std::int32_t, std::int32_t> src_count;
    std::unordered_map<std::int32_t, std::int32_t> dst_count;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const std::int32_t si = src_count[round[i].src_rank]++;
      const std::int32_t di = dst_count[round[i].dst_rank]++;
      offset[i] = static_cast<double>(std::max(si, di)) *
                  pml.per_message_overhead;
    }

    const Clock::time_point t1 = Clock::now();
    std::vector<sim::Flow> flows;
    flows.reserve(round.size());
    for (std::size_t i = 0; i < round.size(); ++i)
      flows.push_back(sim::Flow{paths[i], round[i].bytes});

    const Clock::time_point t2 = Clock::now();
    const std::vector<double> rate = solver.fair_rates(flows);

    const Clock::time_point t3 = Clock::now();
    double time = 0.0;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const auto bytes = static_cast<double>(round[i].bytes);
      double t = offset[i] + pml.per_message_overhead +
                 bytes * pml.per_byte_overhead;
      t += static_cast<double>(paths[i].size()) * link.hop_latency;
      if (round[i].bytes > 0 && !paths[i].empty()) t += bytes / rate[i];
      time = std::max(time, t);
    }
    times.push_back(time);
    const Clock::time_point t4 = Clock::now();

    tracer.add("mpi.round_bookkeeping_s",
               seconds_between(t0, t1) + seconds_between(t3, t4));
    tracer.add_time("mpi.flow_build_s", t1, t2);
    tracer.add_time("sim.flow.fair_rates_s", t2, t3);
    tracer.add("mpi.rounds", 1.0);
    tracer.add("mpi.msgs", static_cast<double>(round.size()));
    count_solve(solver, flows, rate, solve_trace, tracer);
  }
  tracer.add("mpi.ops", 1.0);
  return times;
}

std::vector<double> replay_mpigraph(const mpi::Cluster& cluster,
                                    const mpi::Placement& placement,
                                    std::int32_t nodes_used,
                                    const workloads::MpiGraphOptions& options,
                                    Tracer& tracer) {
  if (nodes_used < 2 || nodes_used > placement.num_ranks())
    throw std::invalid_argument("replay_mpigraph: bad node count");
  const auto n = static_cast<std::size_t>(nodes_used);
  std::vector<double> cells(n * n, 0.0);
  stats::Rng rng(options.seed);
  const sim::FlowSim solver(cluster.topo(), cluster.link());

  std::vector<std::vector<sim::Flow>> rounds;
  std::vector<NodeMsg> msgs;
  std::vector<routing::Lid> dlids;
  std::vector<std::vector<topo::ChannelId>> paths;
  for (std::int32_t block = 1; block < nodes_used; block += kBlock) {
    const std::int32_t end = std::min(block + kBlock, nodes_used);
    rounds.clear();
    for (std::int32_t shift = block; shift < end; ++shift) {
      msgs.clear();
      for (std::int32_t i = 0; i < nodes_used; ++i)
        msgs.push_back({placement.node_of(i),
                        placement.node_of((i + shift) % nodes_used),
                        options.bytes});
      route_batch(cluster, msgs, rng, dlids, paths, tracer);
      rounds.push_back(move_into_flows(paths, options.bytes, tracer));
    }
    const auto rates = timed_solve_batch(solver, rounds, tracer);
    for (std::int32_t shift = block; shift < end; ++shift) {
      const auto& rate = rates[static_cast<std::size_t>(shift - block)];
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = (i + static_cast<std::size_t>(shift)) % n;
        cells[j * n + i] = rate[i] / static_cast<double>(stats::kGiB);
      }
    }
  }
  return cells;
}

std::vector<double> replay_ebb(const mpi::Cluster& cluster,
                               const mpi::Placement& placement,
                               std::int32_t nodes_used,
                               const workloads::EbbOptions& options,
                               Tracer& tracer) {
  if (nodes_used < 2 || nodes_used % 2 != 0 ||
      nodes_used > placement.num_ranks())
    throw std::invalid_argument("replay_ebb: node count must be even");
  stats::Rng rng(options.seed);
  const sim::FlowSim solver(cluster.topo(), cluster.link());
  const std::int32_t half = nodes_used / 2;

  std::vector<double> means;
  means.reserve(static_cast<std::size_t>(options.samples));
  std::vector<std::vector<sim::Flow>> rounds;
  std::vector<NodeMsg> msgs;
  std::vector<routing::Lid> dlids;
  std::vector<std::vector<topo::ChannelId>> paths;
  for (std::int32_t block = 0; block < options.samples; block += kBlock) {
    const std::int32_t end = std::min(block + kBlock, options.samples);
    rounds.clear();
    for (std::int32_t s = block; s < end; ++s) {
      const std::vector<std::int32_t> perm = rng.permutation(nodes_used);
      msgs.clear();
      for (std::int32_t i = 0; i < half; ++i) {
        const topo::NodeId a =
            placement.node_of(perm[static_cast<std::size_t>(i)]);
        const topo::NodeId b =
            placement.node_of(perm[static_cast<std::size_t>(i + half)]);
        msgs.push_back({a, b, options.bytes});
        msgs.push_back({b, a, options.bytes});
      }
      route_batch(cluster, msgs, rng, dlids, paths, tracer);
      rounds.push_back(move_into_flows(paths, options.bytes, tracer));
    }
    for (const auto& rate : timed_solve_batch(solver, rounds, tracer)) {
      double mean = 0.0;
      for (const double r : rate) mean += r;
      mean /= static_cast<double>(rate.size());
      means.push_back(mean / static_cast<double>(stats::kGiB));
    }
  }
  return means;
}

std::vector<workloads::PktReplicationResult> replay_pkt_sweep(
    const topo::Topology& topo, const workloads::PktRoutingArm& arm,
    const workloads::PktPatternSpec& pattern,
    const workloads::PktSweepOptions& options, Tracer& tracer) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<sim::PktMessage>> sets;
  sets.reserve(static_cast<std::size_t>(options.seeds));
  for (std::int32_t s = 1; s <= options.seeds; ++s)
    sets.push_back(workloads::build_pkt_messages(
        topo, arm, pattern, static_cast<std::uint64_t>(s)));

  const Clock::time_point t1 = Clock::now();
  sim::PktSimConfig config = options.config;
  config.adaptive = arm.adaptive;
  sim::PktSim engine(topo, config);
  const std::vector<sim::PktSim::Result> results =
      engine.run_batch(sets, options.threads, {}, options.max_events);
  const Clock::time_point t2 = Clock::now();
  tracer.add_time("workloads.build_pkt_messages_s", t0, t1);
  tracer.add_time("sim.pkt.run_batch_s", t1, t2);

  std::vector<workloads::PktReplicationResult> out;
  out.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sim::PktSim::Result& r = results[i];
    workloads::PktReplicationResult rep;
    rep.arm = arm.name;
    rep.pattern = pattern.pattern;
    rep.seed = static_cast<std::uint64_t>(i + 1);
    rep.deadlock = r.deadlock;
    rep.truncated = r.truncated;
    rep.end_time = r.end_time;
    rep.packets_delivered = r.packets_delivered;
    rep.packets_total = r.packets_total;
    rep.events_executed = r.events_executed;
    double sum = 0.0;
    std::int64_t done = 0;
    for (const double t : r.completion)
      if (!std::isnan(t)) {
        sum += t;
        ++done;
      }
    rep.mean_completion = done > 0
                              ? sum / static_cast<double>(done)
                              : std::numeric_limits<double>::quiet_NaN();
    tracer.add("sim.pkt.replications", 1.0);
    tracer.add("sim.pkt.events", static_cast<double>(r.events_executed));
    tracer.add("sim.pkt.packets_delivered",
               static_cast<double>(r.packets_delivered));
    tracer.add("sim.pkt.deadlocks", r.deadlock ? 1.0 : 0.0);
    tracer.add("sim.pkt.truncated", r.truncated ? 1.0 : 0.0);
    out.push_back(std::move(rep));
  }
  return out;
}

void replay_paper_system(const workloads::PaperSystem& system,
                         std::uint64_t fault_seed, Tracer& tracer) {
  const Clock::time_point t0 = Clock::now();
  rebuild_plane(system.fat_tree(), fault_seed);
  rebuild_plane(system.hyperx(), fault_seed);
  tracer.add_time("topo.build_s", t0, Clock::now());

  // The engines route the system's own planes.
  const topo::FatTree& ft = system.fat_tree();
  const auto ft_lids =
      routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
  {
    routing::FtreeEngine engine(ft);
    check_route(timed_compute(engine, ft.topo(), ft_lids,
                              "routing.ftree.compute_s", tracer),
                system.ft_ftree().route(), "ftree");
  }
  {
    routing::DfssspEngine engine(kDfssspVls);
    check_route(timed_compute(engine, ft.topo(), ft_lids,
                              "routing.dfsssp_ft.compute_s", tracer),
                system.ft_sssp().route(), "dfsssp (fat-tree)");
  }
  replay_dfsssp_hx(system.hyperx().topo(), system.hx_dfsssp().route(),
                   tracer);
  // PARX with no demands is what the constructor builds; make_parx_cluster
  // has no finer public sub-call, so it is timed whole.
  const Clock::time_point t1 = Clock::now();
  const mpi::Cluster parx = system.make_parx_cluster({});
  tracer.add_time("core.parx.compute_s", t1, Clock::now());
  check_route(parx.route(), system.hx_parx().route(), "parx");
}

void replay_intact_hyperx(const topo::HyperX& hx,
                          const routing::RouteResult& route,
                          Tracer& tracer) {
  const Clock::time_point t0 = Clock::now();
  { const topo::HyperX rebuilt(hx.params()); }
  tracer.add_time("topo.build_s", t0, Clock::now());
  replay_dfsssp_hx(hx.topo(), route, tracer);
}

std::uint64_t digest_of(
    std::span<const workloads::PktReplicationResult> results) {
  Digest d;
  for (const workloads::PktReplicationResult& r : results) {
    d.add_all(r.arm);
    d.add(r.pattern);
    d.add(r.seed);
    d.add(r.deadlock);
    d.add(r.truncated);
    d.add(r.end_time);
    d.add(r.mean_completion);
    d.add(r.packets_delivered);
    d.add(r.packets_total);
    d.add(r.events_executed);
  }
  return d.value();
}

}  // namespace hxbench
