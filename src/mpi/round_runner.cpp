#include "mpi/round_runner.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "mpi/cluster.hpp"

namespace hxsim::mpi {

RoundRunner::Memo::Memo() : buckets_(kBuckets, -1) {
  // Every entry holds at least one message.
  entries_.reserve(kMemoMessages);
  keys_.reserve(kMemoMessages);
  rates_.reserve(kMemoMessages);
  hops_.reserve(kMemoMessages);
}

std::size_t RoundRunner::Memo::bucket_of(std::uint64_t hash) noexcept {
  // The top bits: every input bit reaches them.
  return static_cast<std::size_t>(hash >> (64 - std::countr_zero(kBuckets)));
}

void RoundRunner::Memo::pop_newest() noexcept {
  const Entry& entry = entries_.back();
  buckets_[bucket_of(entry.hash)] = entry.next;
  keys_.resize(entry.offset);
  rates_.resize(entry.offset);
  hops_.resize(entry.offset);
  entries_.pop_back();
}

void RoundRunner::Memo::begin_block() {
  if (needed_ > 0) {
    const std::size_t keep =
        std::min(kMemoMessages / 2, kMemoMessages - needed_);
    while (keys_.size() > keep) pop_newest();
    needed_ = 0;
  }
  block_entries_ = entries_.size();
}

std::pair<std::size_t, bool> RoundRunner::Memo::find_or_insert(
    std::span<const WalkInputs> key) {
  std::uint64_t hash = key.size();
  for (const WalkInputs& w : key) {
    // Lossy where node ids reach 2^24; hits compare the inputs exactly.
    const std::uint64_t v =
        (std::uint64_t{static_cast<std::uint32_t>(w.src)} << 32 |
         static_cast<std::uint32_t>(w.dst)) ^
        (std::uint64_t{static_cast<std::uint8_t>(w.first_lid)} << 24) ^
        (std::uint64_t{static_cast<std::uint8_t>(w.size_class)} << 30);
    hash = (hash ^ v) * 0x9e3779b97f4a7c15ULL;
  }

  std::int32_t& head = buckets_[bucket_of(hash)];
  for (std::int32_t id = head; id >= 0;) {
    const Entry& entry = entries_[static_cast<std::size_t>(id)];
    if (entry.hash == hash && entry.size == key.size() &&
        std::equal(key.begin(), key.end(), keys_.begin() + entry.offset))
      return {static_cast<std::size_t>(id), true};
    id = entry.next;
  }

  // A round larger than the memo never fits, however empty it is.
  if (key.size() > kMemoMessages) return {kNone, false};
  const std::size_t offset = keys_.size();
  if (offset + key.size() > kMemoMessages) {
    needed_ = std::max(needed_, key.size());
    return {kNone, false};
  }
  keys_.insert(keys_.end(), key.begin(), key.end());
  rates_.resize(keys_.size());
  hops_.resize(keys_.size());
  entries_.push_back(Entry{hash, static_cast<std::uint32_t>(offset),
                           static_cast<std::uint32_t>(key.size()), head});
  head = static_cast<std::int32_t>(entries_.size() - 1);
  return {entries_.size() - 1, false};
}

std::span<double> RoundRunner::Memo::rates(std::size_t entry) noexcept {
  return std::span(rates_).subspan(entries_[entry].offset,
                                   entries_[entry].size);
}

std::span<std::int32_t> RoundRunner::Memo::hops(std::size_t entry) noexcept {
  return std::span(hops_).subspan(entries_[entry].offset,
                                  entries_[entry].size);
}

void RoundRunner::Memo::drop_block() noexcept {
  while (entries_.size() > block_entries_) pop_newest();
}

RoundRunner::RoundRunner(const Cluster& cluster, std::string who)
    : cluster_(&cluster),
      who_(std::move(who)),
      solver_(cluster.topo(), cluster.link()),
      slots_(kBlockRounds),
      scratch_(static_cast<std::size_t>(pool_.num_threads())) {}

RoundRunner::Slot& RoundRunner::next(std::size_t index, std::size_t messages) {
  Slot& slot = slots_[block_size_];
  slot.index_ = index;
  slot.size_ = messages;
  if (slot.flows_.size() < messages) {
    slot.flows_.resize(messages);
    slot.inputs_.resize(messages);
  }
  return slot;
}

void RoundRunner::draw(Slot& slot, std::size_t i, topo::NodeId src,
                       topo::NodeId dst, std::int64_t bytes,
                       stats::Rng& rng) const {
  WalkInputs& w = slot.inputs_[i];
  w.src = src;
  w.dst = dst;
  w.first_lid = src == dst ? std::int8_t{0}
                           : cluster_->draw_lid_index(src, dst, bytes, rng);
  // walk_path reads `bytes` only through Table 1.
  w.size_class = cluster_->parx_selection() ? core::classify_message(bytes)
                                            : core::MsgClass::kSmall;
  slot.flows_[i].bytes = bytes;
}

void RoundRunner::admit(Slot& slot) {
  if (block_size_ == 0) memo_.begin_block();
  const auto [entry, hit] = memo_.find_or_insert(
      std::span<const WalkInputs>(slot.inputs_.data(), slot.size_));
  slot.hit_ = hit;
  if (entry != Memo::kNone) {
    slot.rates_ = memo_.rates(entry);
    slot.hops_ = memo_.hops(entry);
    return;
  }
  if (slot.own_rates_.size() < slot.size_) {
    slot.own_rates_.resize(slot.size_);
    slot.own_hops_.resize(slot.size_);
  }
  slot.rates_ = std::span(slot.own_rates_).first(slot.size_);
  slot.hops_ = std::span(slot.own_hops_).first(slot.size_);
}

void RoundRunner::walk_round(Slot& slot) {
  for (std::size_t i = 0; i < slot.size_; ++i) {
    const WalkInputs& w = slot.inputs_[i];
    sim::Flow& flow = slot.flows_[i];
    if (w.src == w.dst) {
      flow.channels.clear();  // loopback: no fabric involvement
    } else {
      flow.channels.reserve(max_path_);
      if (cluster_->walk_path(w.src, w.dst, flow.bytes, w.first_lid,
                              flow.channels) == routing::kInvalidLid)
        throw std::runtime_error(who_ + ": unroutable message in round " +
                                 std::to_string(slot.index_));
    }
    slot.hops_[i] = static_cast<std::int32_t>(flow.channels.size());
  }
}

void RoundRunner::run_stripe(std::size_t stripe, std::size_t stripes,
                             std::size_t rounds) {
  sim::FlowSim::SolveScratch& scratch = scratch_[stripe];
  for (std::size_t i = stripe; i < rounds; i += stripes) {
    Slot& slot = slots_[i];
    if (slot.hit_) continue;
    walk_round(slot);
    solver_.solve(std::span<const sim::Flow>(slot.flows_.data(), slot.size_),
                  slot.rates_, scratch);
  }
}

void RoundRunner::run_block(std::size_t rounds) {
  std::size_t messages = 0;
  for (std::size_t i = 0; i < rounds; ++i)
    if (!slots_[i].hit_) messages += slots_[i].size_;
  // A small block costs less to walk and solve than to hand to the pool.
  const std::size_t stripes = messages < kParallelMessages
                                  ? 1
                                  : std::min(scratch_.size(), rounds);
  try {
    if (stripes == 1)
      run_stripe(0, 1, rounds);
    else
      pool_.parallel_for(
          static_cast<std::int64_t>(stripes),
          [this, stripes, rounds](std::int64_t s, std::int32_t) {
            run_stripe(static_cast<std::size_t>(s), stripes, rounds);
          });
  } catch (...) {
    memo_.drop_block();
    throw;
  }

  for (std::size_t i = 0; i < rounds; ++i) {
    const Slot& slot = slots_[i];
    if (slot.hit_) {
      ++reused_rounds_;
      continue;
    }
    for (const std::int32_t hops : slot.hops_)
      max_path_ = std::max(max_path_, static_cast<std::size_t>(hops));
  }
}

}  // namespace hxsim::mpi
