#include "mpi/round_runner.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/lid_choice.hpp"
#include "mpi/cluster.hpp"

namespace hxsim::mpi {

RoundRunner::RoundRunner(const Cluster& cluster, std::string who)
    : cluster_(&cluster),
      who_(std::move(who)),
      solver_(cluster.topo(), cluster.link()),
      slots_(kBlockRounds + 1),
      scratch_(static_cast<std::size_t>(pool_.num_threads())) {}

RoundRunner::Slot& RoundRunner::next(std::size_t index, std::size_t messages) {
  Slot& slot = slot_at(block_begin_ + block_size_);
  slot.index = index;
  slot.size = messages;
  if (slot.flows.size() < messages) {
    slot.flows.resize(messages);
    slot.ends.resize(messages);
  }
  slot.rates.resize(messages);
  if (active_.size() < messages) active_.resize(messages, 1);
  return slot;
}

void RoundRunner::draw(Slot& slot, std::size_t i, topo::NodeId src,
                       topo::NodeId dst, std::int64_t bytes,
                       stats::Rng& rng) const {
  Endpoints& e = slot.ends[i];
  e.src = src;
  e.dst = dst;
  e.first_lid = src == dst ? std::int8_t{0}
                           : cluster_->draw_lid_index(src, dst, bytes, rng);
  slot.flows[i].bytes = bytes;
}

bool RoundRunner::same_walks(const Slot& slot, const Slot& prev) {
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

void RoundRunner::walk_round(Slot& slot) const {
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
      throw std::runtime_error(who_ + ": unroutable message in round " +
                               std::to_string(slot.index));
  }
}

void RoundRunner::run_stripe(std::size_t stripe, std::size_t stripes) {
  sim::FlowSim::SolveScratch& scratch = scratch_[stripe];
  for (std::size_t i = stripe; i < block_size_; i += stripes) {
    Slot& slot = slot_at(block_begin_ + i);
    walk_round(slot);
    if (slot.reuse) continue;
    solver_.solve_active(
        std::span<const sim::Flow>(slot.flows.data(), slot.size),
        std::span<const char>(active_.data(), slot.size), slot.rates,
        scratch);
  }
}

void RoundRunner::run_block() {
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

  for (std::size_t pos = block_begin_; pos < block_begin_ + block_size_;
       ++pos) {
    Slot& slot = slot_at(pos);
    if (slot.reuse) {
      ++reused_rounds_;
      std::copy_n(slot_at(pos - 1).rates.begin(), slot.size,
                  slot.rates.begin());
    }
    for (std::size_t i = 0; i < slot.size; ++i)
      max_path_ = std::max(max_path_, slot.flows[i].channels.size());
  }
}

}  // namespace hxsim::mpi
