#include "mpi/cluster.hpp"

#include <algorithm>
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

/// The LID indices Table 1 lists for a message: the cell of its source
/// and destination quadrants and size class with Table-1 selection, LID0
/// alone otherwise.
core::LidChoice listed_lids(const routing::LidSpace& lids, bool parx_selection,
                            topo::NodeId src, topo::NodeId dst,
                            std::int64_t bytes) {
  if (!parx_selection) {
    core::LidChoice base;
    base.count = 1;  // options[0] == 0
    return base;
  }
  // The bfo layer recovers quadrants from LID values (paper footnote 9:
  // q = lid / 1000) and applies Table 1.
  const std::int32_t src_q = lids.group_of_lid(lids.base_lid(src));
  const std::int32_t dst_q = lids.group_of_lid(lids.base_lid(dst));
  return core::parx_lid_options(src_q, dst_q, core::classify_message(bytes));
}

/// The destination-LID candidate order of select_dlid and walk_path:
/// `first` (one of the listed indices), then the other listed one, then
/// every remaining LID of dst -- the reachability fallback on faulty
/// fabrics.  Returns the first candidate `try_lid` accepts.
template <typename TryLid>
routing::Lid try_lids(const routing::LidSpace& lids,
                      const core::LidChoice& listed, topo::NodeId dst,
                      std::int8_t first, TryLid&& try_lid) {
  if (try_lid(lids.lid(dst, first))) return lids.lid(dst, first);
  for (std::int8_t i = 0; i < listed.count; ++i) {
    const std::int8_t x = listed.options[static_cast<std::size_t>(i)];
    if (x != first && try_lid(lids.lid(dst, x))) return lids.lid(dst, x);
  }
  for (std::int32_t x = 0; x < lids.lids_per_terminal(); ++x)
    if (!listed.contains(static_cast<std::int8_t>(x)) &&
        try_lid(lids.lid(dst, x)))
      return lids.lid(dst, x);
  return routing::kInvalidLid;
}

/// The index tried first: a random pick when Table 1 lists two.
std::int8_t draw_first(const core::LidChoice& listed, stats::Rng& rng) {
  return listed.count == 2
             ? listed.options[static_cast<std::size_t>(rng.next_below(2))]
             : listed.options[0];
}

}  // namespace

std::int8_t Cluster::draw_lid_index(topo::NodeId src, topo::NodeId dst,
                                    std::int64_t bytes,
                                    stats::Rng& rng) const {
  return draw_first(listed_lids(lids_, parx_selection_, src, dst, bytes),
                    rng);
}

routing::Lid Cluster::walk_path(topo::NodeId src, topo::NodeId dst,
                                std::int64_t bytes, std::int8_t first,
                                std::vector<topo::ChannelId>& path) const {
  return try_lids(lids_, listed_lids(lids_, parx_selection_, src, dst, bytes),
                  dst, first, [&](routing::Lid lid) {
                    return route_.tables.path_into(*topo_, lids_, src, lid,
                                                   path);
                  });
}

routing::Lid Cluster::select_dlid(topo::NodeId src, topo::NodeId dst,
                                  std::int64_t bytes, stats::Rng& rng) const {
  const core::LidChoice listed =
      listed_lids(lids_, parx_selection_, src, dst, bytes);
  return try_lids(lids_, listed, dst, draw_first(listed, rng),
                  [&](routing::Lid lid) {
                    return route_.tables.reachable(*topo_, lids_, src, lid);
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

  const routing::Lid dlid = walk_path(
      src, dst, bytes, draw_lid_index(src, dst, bytes, rng), msg.path);
  if (dlid == routing::kInvalidLid) return std::nullopt;
  msg.vl = route_.vls.vl(topo_->attach_switch(src), dlid);
  return msg;
}

void Cluster::check_placement(const Placement& placement, std::int32_t ranks,
                              std::string_view who) const {
  for (std::int32_t r = 0; r < ranks; ++r) {
    const topo::NodeId node = placement.node_of(r);
    if (node < 0 || node >= num_nodes())
      throw std::out_of_range(
          std::string(who) + ": rank " + std::to_string(r) +
          " is placed on node " + std::to_string(node) +
          ", outside the cluster's [0, " + std::to_string(num_nodes()) + ")");
  }
}

Transport::Transport(const Cluster& cluster, Placement placement,
                     std::uint64_t seed)
    : cluster_(&cluster),
      placement_(std::move(placement)),
      rng_(seed),
      runner_(cluster, "Transport"),
      src_count_(static_cast<std::size_t>(placement_.num_ranks()), 0),
      dst_count_(static_cast<std::size_t>(placement_.num_ranks()), 0) {
  cluster.check_placement(placement_, placement_.num_ranks(), "Transport");
}

double Transport::round_time(const Round& round,
                             const RoundRunner::Slot& slot) {
  const PmlConfig& pml = cluster_->pml();
  const sim::LinkModel& link = cluster_->link();
  // Per-endpoint concurrency for the software serialization offsets.  The
  // rank-indexed counters are zero between rounds: the round's own
  // messages reset what they counted.
  double time = 0.0;
  for (std::size_t i = 0; i < round.size(); ++i) {
    const RankMsg& rm = round[i];
    const std::int32_t si = src_count_[static_cast<std::size_t>(rm.src_rank)]++;
    const std::int32_t di = dst_count_[static_cast<std::size_t>(rm.dst_rank)]++;
    const std::int32_t hops = slot.hops()[i];
    double t = static_cast<double>(std::max(si, di)) *
                   pml.per_message_overhead +
               pml.per_message_overhead +
               static_cast<double>(rm.bytes) * pml.per_byte_overhead;
    t += static_cast<double>(hops) * link.hop_latency;
    if (rm.bytes > 0 && hops > 0)
      t += static_cast<double>(rm.bytes) / slot.rates()[i];
    time = std::max(time, t);
  }
  for (const RankMsg& rm : round) {
    src_count_[static_cast<std::size_t>(rm.src_rank)] = 0;
    dst_count_[static_cast<std::size_t>(rm.dst_rank)] = 0;
  }
  return time;
}

std::vector<double> Transport::execute_rounds(const Schedule& schedule) {
  std::vector<double> times(schedule.size(), 0.0);  // empty rounds take 0
  const auto finish = [&](const RoundRunner::Slot& slot) {
    times[slot.index()] = round_time(schedule[slot.index()], slot);
  };
  const std::int32_t ranks = placement_.num_ranks();
  for (std::size_t r = 0; r < schedule.size(); ++r) {
    const Round& round = schedule[r];
    if (round.empty()) continue;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const RankMsg& rm = round[i];
      if (rm.src_rank >= 0 && rm.src_rank < ranks && rm.dst_rank >= 0 &&
          rm.dst_rank < ranks)
        continue;
      // The block's earlier rounds fail first, as a round-by-round loop
      // would; this round has drawn nothing.
      runner_.flush(finish);
      throw std::out_of_range(
          "Transport: message " + std::to_string(i) + " of the round (" +
          std::to_string(rm.src_rank) + " -> " + std::to_string(rm.dst_rank) +
          ") names a rank outside [0, " + std::to_string(ranks) + ")");
    }
    // The RNG draws, in message order; self-sends draw nothing.
    RoundRunner::Slot& slot = runner_.next(r, round.size());
    for (std::size_t i = 0; i < round.size(); ++i) {
      const RankMsg& rm = round[i];
      runner_.draw(slot, i, placement_.node_of(rm.src_rank),
                   placement_.node_of(rm.dst_rank), rm.bytes, rng_);
    }
    runner_.push(finish);
  }
  runner_.flush(finish);
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
