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

routing::Lid Cluster::select_path(topo::NodeId src, topo::NodeId dst,
                                  std::int64_t bytes, stats::Rng& rng,
                                  std::vector<topo::ChannelId>& path) const {
  const core::LidChoice listed =
      listed_lids(lids_, parx_selection_, src, dst, bytes);
  return try_lids(lids_, listed, dst, draw_first(listed, rng),
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
      slots_(kBlockRounds + 1),
      src_count_(static_cast<std::size_t>(placement_.num_ranks()), 0),
      dst_count_(static_cast<std::size_t>(placement_.num_ranks()), 0),
      scratch_(static_cast<std::size_t>(pool_.num_threads())) {
  for (std::int32_t r = 0; r < placement_.num_ranks(); ++r) {
    const topo::NodeId node = placement_.node_of(r);
    if (node < 0 || node >= cluster.num_nodes())
      throw std::out_of_range(
          "Transport: rank " + std::to_string(r) + " is placed on node " +
          std::to_string(node) + ", outside the cluster's [0, " +
          std::to_string(cluster.num_nodes()) + ")");
  }
}

void Transport::draw_round(const Round& round, std::size_t index,
                           RoundSlot& slot) {
  const double overhead = cluster_->pml().per_message_overhead;
  const std::size_t n = round.size();
  slot.index = index;
  slot.size = n;
  if (slot.flows.size() < n) {
    slot.flows.resize(n);
    slot.ends.resize(n);
  }
  slot.offsets.resize(n);
  slot.rates.resize(n);
  if (active_.size() < n) active_.resize(n, 1);

  // Per-endpoint concurrency for the software serialization offsets.  The
  // rank-indexed counters are zero between rounds: the round's own
  // messages reset what they counted.
  for (std::size_t i = 0; i < n; ++i) {
    const RankMsg& rm = round[i];
    const std::int32_t si = src_count_[static_cast<std::size_t>(rm.src_rank)]++;
    const std::int32_t di = dst_count_[static_cast<std::size_t>(rm.dst_rank)]++;
    slot.offsets[i] = static_cast<double>(std::max(si, di)) * overhead;
  }
  for (const RankMsg& rm : round) {
    src_count_[static_cast<std::size_t>(rm.src_rank)] = 0;
    dst_count_[static_cast<std::size_t>(rm.dst_rank)] = 0;
  }

  // The RNG draws, in message order; self-sends draw nothing.
  for (std::size_t i = 0; i < n; ++i) {
    const RankMsg& rm = round[i];
    Endpoints& e = slot.ends[i];
    e.src = placement_.node_of(rm.src_rank);
    e.dst = placement_.node_of(rm.dst_rank);
    e.first_lid = e.src == e.dst ? std::int8_t{0}
                                 : cluster_->draw_lid_index(e.src, e.dst,
                                                            rm.bytes, rng_);
    slot.flows[i].bytes = rm.bytes;
  }
}

void Transport::walk_round(RoundSlot& slot) const {
  for (std::size_t i = 0; i < slot.size; ++i) {
    const Endpoints& e = slot.ends[i];
    sim::Flow& flow = slot.flows[i];
    if (e.src == e.dst) {
      flow.channels.clear();  // loopback: no fabric involvement
      continue;
    }
    flow.channels.reserve(max_path_);
    if (cluster_->walk_path(e.src, e.dst, flow.bytes, e.first_lid,
                            flow.channels) == routing::kInvalidLid)
      throw std::runtime_error("Transport: unroutable message in round " +
                               std::to_string(slot.index));
  }
}

bool Transport::same_walks(const RoundSlot& slot, const RoundSlot& prev) {
  if (slot.size != prev.size) return false;
  for (std::size_t i = 0; i < slot.size; ++i) {
    const Endpoints& a = slot.ends[i];
    const Endpoints& b = prev.ends[i];
    if (a.src != b.src || a.dst != b.dst || a.first_lid != b.first_lid ||
        core::classify_message(slot.flows[i].bytes) !=
            core::classify_message(prev.flows[i].bytes))
      return false;
  }
  return true;
}

void Transport::run_stripe(std::size_t stripe, std::size_t stripes) {
  sim::FlowSim::SolveScratch& scratch = scratch_[stripe];
  for (std::size_t i = stripe; i < block_size_; i += stripes) {
    RoundSlot& slot = slot_at(block_begin_ + i);
    walk_round(slot);
    if (slot.reuse) continue;
    solver_.solve_active(
        std::span<const sim::Flow>(slot.flows.data(), slot.size),
        std::span<const char>(active_.data(), slot.size), slot.rates,
        scratch);
  }
}

void Transport::run_block(std::vector<double>& times) {
  std::size_t messages = 0;
  for (std::size_t i = 0; i < block_size_; ++i)
    messages += slot_at(block_begin_ + i).size;
  // A small block costs less to walk and solve than to hand to the pool.
  const std::size_t stripes = messages < kParallelMessages
                                  ? 1
                                  : std::min(scratch_.size(), block_size_);
  if (stripes == 1)
    run_stripe(0, 1);
  else
    pool_.parallel_for(static_cast<std::int64_t>(stripes),
                       [this, stripes](std::int64_t s, std::int32_t) {
                         run_stripe(static_cast<std::size_t>(s), stripes);
                       });

  const PmlConfig& pml = cluster_->pml();
  const sim::LinkModel& link = cluster_->link();
  for (std::size_t pos = block_begin_; pos < block_begin_ + block_size_;
       ++pos) {
    RoundSlot& slot = slot_at(pos);
    if (slot.reuse) {
      ++reused_rounds_;
      std::copy_n(slot_at(pos - 1).rates.begin(), slot.size,
                  slot.rates.begin());
    }
    double time = 0.0;
    for (std::size_t i = 0; i < slot.size; ++i) {
      const sim::Flow& flow = slot.flows[i];
      max_path_ = std::max(max_path_, flow.channels.size());
      double t = slot.offsets[i] + pml.per_message_overhead +
                 static_cast<double>(flow.bytes) * pml.per_byte_overhead;
      t += static_cast<double>(flow.channels.size()) * link.hop_latency;
      if (flow.bytes > 0 && !flow.channels.empty())
        t += static_cast<double>(flow.bytes) / slot.rates[i];
      time = std::max(time, t);
    }
    times[slot.index] = time;
  }
}

std::vector<double> Transport::execute_rounds(const Schedule& schedule) {
  std::vector<double> times(schedule.size(), 0.0);  // empty rounds take 0
  const std::int32_t ranks = placement_.num_ranks();
  block_begin_ = 0;
  block_size_ = 0;
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
      run_block(times);
      throw std::out_of_range(
          "Transport: message " + std::to_string(i) + " of the round (" +
          std::to_string(rm.src_rank) + " -> " + std::to_string(rm.dst_rank) +
          ") names a rank outside [0, " + std::to_string(ranks) + ")");
    }
    const std::size_t pos = block_begin_ + block_size_;
    RoundSlot& slot = slot_at(pos);
    draw_round(round, r, slot);
    // A walk reads only what same_walks compares, so such a round routes
    // exactly like its predecessor, and a round's rates depend only on its
    // paths: it takes the predecessor's rates instead of a solve.
    slot.reuse = pos > 0 && same_walks(slot, slot_at(pos - 1));
    if (++block_size_ == kBlockRounds) {
      run_block(times);
      block_begin_ += block_size_;
      block_size_ = 0;
    }
  }
  run_block(times);
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
