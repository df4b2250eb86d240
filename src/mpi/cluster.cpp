#include "mpi/cluster.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "core/lid_choice.hpp"
#include "core/quadrant.hpp"

namespace hxsim::mpi {

Cluster::Cluster(const topo::Topology& topo, routing::LidSpace lids,
                 routing::RouteResult route, PmlConfig pml,
                 sim::LinkModel link)
    : topo_(&topo),
      lids_(std::move(lids)),
      route_(std::move(route)),
      pml_(pml),
      link_(link) {
  // Table-1 selection is meaningful exactly when the paper's setup is in
  // place: multi-path PML + quadrant-grouped LMC=2 LID policy.
  parx_selection_ = pml_.kind == PmlKind::kBfo &&
                    lids_.group_stride() > 0 &&
                    lids_.lmc() == core::kParxLmc;
}

namespace {

/// The destination-LID candidate order of Cluster::select_dlid, shared by
/// its fused path variant: returns the first candidate `try_lid` accepts.
template <typename TryLid>
routing::Lid pick_lid(const routing::LidSpace& lids, bool parx_selection,
                      topo::NodeId src, topo::NodeId dst, std::int64_t bytes,
                      stats::Rng& rng, TryLid&& try_lid) {
  if (!parx_selection) {
    const routing::Lid base = lids.base_lid(dst);
    if (try_lid(base)) return base;
    for (std::int32_t x = 1; x < lids.lids_per_terminal(); ++x)
      if (try_lid(lids.lid(dst, x))) return lids.lid(dst, x);
    return routing::kInvalidLid;
  }

  // The bfo layer recovers quadrants from LID values (paper footnote 9:
  // q = lid / 1000) and applies Table 1.
  const std::int32_t src_q = lids.group_of_lid(lids.base_lid(src));
  const std::int32_t dst_q = lids.group_of_lid(lids.base_lid(dst));
  const core::MsgClass cls = core::classify_message(bytes);
  const core::LidChoice choice = core::parx_lid_options(src_q, dst_q, cls);

  // Random pick among the listed alternatives, then reachability fallback
  // over the remaining listed ones, then over all LIDs.
  const std::int8_t first =
      choice.count == 2
          ? choice.options[static_cast<std::size_t>(rng.next_below(2))]
          : choice.options[0];
  if (try_lid(lids.lid(dst, first))) return lids.lid(dst, first);
  for (std::int8_t i = 0; i < choice.count; ++i) {
    const std::int8_t x = choice.options[static_cast<std::size_t>(i)];
    if (x != first && try_lid(lids.lid(dst, x))) return lids.lid(dst, x);
  }
  for (std::int32_t x = 0; x < lids.lids_per_terminal(); ++x)
    if (try_lid(lids.lid(dst, x))) return lids.lid(dst, x);
  return routing::kInvalidLid;
}

}  // namespace

routing::Lid Cluster::select_dlid(topo::NodeId src, topo::NodeId dst,
                                  std::int64_t bytes, stats::Rng& rng) const {
  return pick_lid(lids_, parx_selection_, src, dst, bytes, rng,
                  [&](routing::Lid lid) {
                    return route_.tables.reachable(*topo_, lids_, src, lid);
                  });
}

routing::Lid Cluster::select_path(topo::NodeId src, topo::NodeId dst,
                                  std::int64_t bytes, stats::Rng& rng,
                                  std::vector<topo::ChannelId>& path) const {
  return pick_lid(lids_, parx_selection_, src, dst, bytes, rng,
                  [&](routing::Lid lid) {
                    return route_.tables.path_into(*topo_, lids_, src, lid,
                                                   path);
                  });
}

std::optional<NetMessage> Cluster::route_message(topo::NodeId src,
                                                 topo::NodeId dst,
                                                 std::int64_t bytes,
                                                 stats::Rng& rng) const {
  NetMessage msg;
  msg.src = src;
  msg.dst = dst;
  msg.bytes = bytes;
  if (src == dst) return msg;  // loopback: no fabric involvement

  const routing::Lid dlid = select_path(src, dst, bytes, rng, msg.path);
  if (dlid == routing::kInvalidLid) return std::nullopt;
  msg.vl = route_.vls.vl(topo_->attach_switch(src), dlid);
  return msg;
}

Transport::Transport(const Cluster& cluster, Placement placement,
                     std::uint64_t seed)
    : cluster_(&cluster),
      placement_(std::move(placement)),
      rng_(seed),
      solver_(cluster.topo(), cluster.link()),
      src_count_(static_cast<std::size_t>(placement_.num_ranks()), 0),
      dst_count_(static_cast<std::size_t>(placement_.num_ranks()), 0) {}

double Transport::round_time(const Round& round) {
  const PmlConfig& pml = cluster_->pml();
  const sim::LinkModel& link = cluster_->link();
  const std::size_t n = round.size();

  const std::int32_t ranks = placement_.num_ranks();
  for (std::size_t i = 0; i < n; ++i) {
    const RankMsg& rm = round[i];
    if (rm.src_rank < 0 || rm.src_rank >= ranks || rm.dst_rank < 0 ||
        rm.dst_rank >= ranks)
      throw std::out_of_range(
          "Transport: message " + std::to_string(i) + " of the round (" +
          std::to_string(rm.src_rank) + " -> " + std::to_string(rm.dst_rank) +
          ") names a rank outside [0, " + std::to_string(ranks) + ")");
  }
  // The flow buffer only grows: a round uses its first n slots, and each
  // slot's channel vector keeps its capacity from round to round.
  if (flows_.size() < n) {
    flows_.resize(n);
    active_.resize(n, 1);
  }
  rates_.resize(n);
  offsets_.resize(n);

  // Per-endpoint concurrency for the software serialization offsets.  The
  // rank-indexed counters are zero between rounds: the round's own
  // messages reset what they counted.
  for (std::size_t i = 0; i < n; ++i) {
    const RankMsg& rm = round[i];
    const std::int32_t si = src_count_[static_cast<std::size_t>(rm.src_rank)]++;
    const std::int32_t di = dst_count_[static_cast<std::size_t>(rm.dst_rank)]++;
    offsets_[i] = static_cast<double>(std::max(si, di)) *
                  pml.per_message_overhead;
  }
  for (const RankMsg& rm : round) {
    src_count_[static_cast<std::size_t>(rm.src_rank)] = 0;
    dst_count_[static_cast<std::size_t>(rm.dst_rank)] = 0;
  }

  // Route in message order (the RNG draw order), one LFT walk per
  // candidate LID, straight into the flow buffer.
  for (std::size_t i = 0; i < n; ++i) {
    const RankMsg& rm = round[i];
    sim::Flow& flow = flows_[i];
    flow.bytes = rm.bytes;
    const topo::NodeId sn = placement_.node_of(rm.src_rank);
    const topo::NodeId dn = placement_.node_of(rm.dst_rank);
    if (sn == dn) {
      flow.channels.clear();  // loopback: no fabric involvement
      continue;
    }
    if (cluster_->select_path(sn, dn, rm.bytes, rng_, flow.channels) ==
        routing::kInvalidLid)
      throw std::runtime_error("Transport: unroutable message in round");
  }

  // Fixed-rate network share for this round.
  solver_.solve_active(std::span<const sim::Flow>(flows_.data(), n),
                       std::span<const char>(active_.data(), n), rates_,
                       scratch_);

  double time = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::Flow& flow = flows_[i];
    double t = offsets_[i] + pml.per_message_overhead +
               static_cast<double>(flow.bytes) * pml.per_byte_overhead;
    t += static_cast<double>(flow.channels.size()) * link.hop_latency;
    if (flow.bytes > 0 && !flow.channels.empty())
      t += static_cast<double>(flow.bytes) / rates_[i];
    time = std::max(time, t);
  }
  return time;
}

std::vector<double> Transport::execute_rounds(const Schedule& schedule) {
  std::vector<double> times;
  times.reserve(schedule.size());
  for (const Round& round : schedule) {
    if (round.empty()) {
      times.push_back(0.0);
      continue;
    }
    times.push_back(round_time(round));
  }
  return times;
}

double Transport::execute(const Schedule& schedule) {
  double total = 0.0;
  for (double t : execute_rounds(schedule)) total += t;
  return total;
}

void Transport::accumulate(const Schedule& schedule, CommProfile& profile) {
  for (const Round& round : schedule)
    for (const RankMsg& m : round)
      if (m.src_rank != m.dst_rank) profile.record(m.src_rank, m.dst_rank, m.bytes);
}

}  // namespace hxsim::mpi
