#include "sim/flowsim.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "exec/exec.hpp"

namespace hxsim::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The adaptive core's handoff rule: rescan rounds run until they have
/// rescanned this many times the solve's flow-hops, then the indexed loop
/// finishes the solve.  Light sets (a handful of filling levels, where
/// the rescan's linear scans win) never reach it; congested sets with
/// hundreds of levels cross it after a few rounds.
constexpr std::size_t kHandoffRescans = 10;

/// Heap tags pack (local channel, version): the version makes stale
/// entries detectable after a lazy re-key, and the whole tag doubles as
/// the deterministic tie-break among equal quotients.
[[nodiscard]] constexpr std::uint64_t quotient_tag(std::int32_t channel,
                                                   std::uint32_t version) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(channel))
          << 32) |
         version;
}
[[nodiscard]] constexpr std::int32_t tag_channel(std::uint64_t tag) {
  return static_cast<std::int32_t>(tag >> 32);
}
[[nodiscard]] constexpr std::uint32_t tag_version(std::uint64_t tag) {
  return static_cast<std::uint32_t>(tag);
}

}  // namespace

FlowSim::FlowSim(const topo::Topology& topo, LinkModel link,
                 SolverEngine engine)
    : topo_(&topo),
      link_(link),
      capacity_(static_cast<std::size_t>(topo.num_channels()),
                link.bandwidth),
      engine_(engine) {}

void FlowSim::set_capacity(topo::ChannelId ch, double bytes_per_s) {
  if (bytes_per_s <= 0.0)
    throw std::invalid_argument("FlowSim::set_capacity: non-positive");
  capacity_.at(static_cast<std::size_t>(ch)) = bytes_per_s;
}

void FlowSim::solve(std::span<const Flow> flows, std::span<double> rate,
                    SolveScratch& scratch, obs::FlowSolveRecord* record) const {
  if (rate.size() != flows.size())
    throw std::invalid_argument("FlowSim::solve: " +
                                std::to_string(rate.size()) + " rates for " +
                                std::to_string(flows.size()) + " flows");
  validate(flows);

  // Progressive filling: all unfrozen flows share one common rate level
  // that rises until some channel saturates; flows crossing a saturated
  // channel freeze at the level, and the level keeps rising for the rest.
  //
  // Only channels actually crossed by a flow matter, so the state is kept
  // compact (full-fabric channel vectors would dominate the cost on large
  // fat-trees).  The full-width local_of map persists in the scratch and
  // is un-dirtied via the used list on the way out, so reusing a scratch
  // keeps every solve allocation-free after warm-up.
  auto& local_of = scratch.local_of;
  auto& used = scratch.used;
  auto& frozen = scratch.frozen;
  if (local_of.size() != capacity_.size()) {
    local_of.assign(capacity_.size(), -1);
    // Reserve the per-channel rescan state to the fabric's channel count
    // once, so a warm scratch stays allocation-free when a later set
    // crosses more distinct channels.  Capacity only: a solve still
    // touches only the channels it uses.
    used.reserve(capacity_.size());
    scratch.frozen_load.reserve(capacity_.size());
    scratch.unfrozen_count.reserve(capacity_.size());
    scratch.saturated.reserve(capacity_.size());
    scratch.worklist.reserve(capacity_.size());
  }
  used.clear();
  frozen.assign(flows.size(), 0);

  std::size_t remaining = 0;
  std::size_t total_hops = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].channels.empty()) {
      rate[f] = kInf;  // self-send: no network resource consumed
      continue;
    }
    ++remaining;
    total_hops += flows[f].channels.size();
    for (topo::ChannelId ch : flows[f].channels) {
      auto& idx = local_of[static_cast<std::size_t>(ch)];
      if (idx < 0) {
        idx = static_cast<std::int32_t>(used.size());
        used.push_back(ch);
      }
    }
  }

  const std::size_t nused = used.size();
  auto& frozen_load = scratch.frozen_load;
  auto& unfrozen_count = scratch.unfrozen_count;
  frozen_load.assign(nused, 0.0);
  unfrozen_count.assign(nused, 0);
  // Solver-metric recording is off the hot path: `ever_saturated` lives in
  // the scratch and is only (re)sized when this solve actually traces, so
  // traced solves are allocation-free after warm-up too.
  if (record != nullptr) {
    record->active_flows = static_cast<std::int32_t>(remaining);
    scratch.ever_saturated.assign(nused, 0);
  }
  for (const Flow& flow : flows)
    for (topo::ChannelId ch : flow.channels)
      ++unfrozen_count[static_cast<std::size_t>(
          local_of[static_cast<std::size_t>(ch)])];

  if (engine_ == SolverEngine::kIndexed) {
    fill_indexed(flows, rate, scratch, record, remaining);
  } else {
    const std::size_t budget = engine_ == SolverEngine::kReference
                                   ? std::numeric_limits<std::size_t>::max()
                                   : kHandoffRescans * total_hops;
    remaining = fill_rescan(flows, rate, scratch, record, remaining,
                            total_hops, budget);
    if (remaining > 0) {
      ++scratch.handoffs;
      fill_indexed(flows, rate, scratch, record, remaining);
    }
  }

  // Un-dirty the persistent channel map for the next solve on this scratch.
  for (topo::ChannelId ch : used) local_of[static_cast<std::size_t>(ch)] = -1;
}

std::size_t FlowSim::fill_rescan(std::span<const Flow> flows,
                                 std::span<double> rate,
                                 SolveScratch& scratch,
                                 obs::FlowSolveRecord* record,
                                 std::size_t remaining, std::size_t hops,
                                 std::size_t budget) const {
  const auto& local_of = scratch.local_of;
  const auto& used = scratch.used;
  auto& frozen = scratch.frozen;
  auto& frozen_load = scratch.frozen_load;
  auto& unfrozen_count = scratch.unfrozen_count;
  auto& saturated = scratch.saturated;
  auto& ever_saturated = scratch.ever_saturated;
  const std::size_t nused = used.size();
  saturated.assign(nused, 0);
  // Worklist of channels still carrying unfrozen flows.  Every used
  // channel starts with unfrozen_count >= 1 (it got into `used` via a
  // flow's path); the list is compacted after each level so the
  // late, sparse filling rounds scan only the few still-live channels
  // instead of all nused.  Dropped channels are never consulted again:
  // a flow is skipped once frozen, and an *unfrozen* flow's channels all
  // have unfrozen_count >= 1 by definition, so stale `saturated` flags on
  // compacted channels are unreachable.
  auto& worklist = scratch.worklist;
  worklist.clear();
  for (std::size_t c = 0; c < nused; ++c)
    worklist.push_back(static_cast<std::int32_t>(c));
  // Flow-hops the freeze scan walks: `hops` counts those of the flows
  // still unfrozen, `rescanned` their running total over the rounds.
  std::size_t rescanned = 0;
  while (remaining > 0) {
    rescanned += hops;
    // The common level can rise to min over loaded channels of
    // (capacity - frozen_load) / unfrozen_count.
    double level = kInf;
    for (const std::int32_t ci : worklist) {
      const auto c = static_cast<std::size_t>(ci);
      if (unfrozen_count[c] == 0) continue;
      const double cap = std::max(
          0.0, capacity_[static_cast<std::size_t>(used[c])] - frozen_load[c]);
      level = std::min(level, cap / unfrozen_count[c]);
    }
    if (level == kInf) {
      // Defensive: no loaded channel left although flows remain unfrozen.
      // Mark the survivors explicitly so their rates are never stale
      // values from a previous solve of the same scratch/rate buffer.
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (frozen[f] || flows[f].channels.empty()) continue;
        frozen[f] = 1;
        rate[f] = 0.0;
      }
      return 0;
    }

    // Freeze every unfrozen flow that crosses a (now) saturated channel.
    //
    // Epsilon note: `cap` is the same max(0, capacity - frozen_load)
    // clamp the level minimisation used, so cap / unfrozen_count >= 0
    // always.  Within one solve, frozen_load on a channel with unfrozen
    // flows left can never exceed capacity (each freeze adds exactly
    // `level` per flow, and level <= (capacity - frozen_load) /
    // unfrozen_count for every live channel by the minimisation above) --
    // the clamp guards only inert channels whose last unfrozen flow
    // already froze, where ulp-level overshoot of frozen_load is possible
    // but unobservable.  The (1 + 1e-12) relative slack therefore only
    // widens the equality test `cap / unfrozen_count == level` against
    // one ulp of division rounding; since level is the minimum of those
    // quotients, the slack can re-include the minimising channels but can
    // never freeze a flow at a "negative-capacity" channel or below 0:
    // rates out of this solver are always >= 0 (asserted by sim_test's
    // FlowSim.SaturationEpsilon* regression cases).
    for (const std::int32_t ci : worklist) {
      const auto c = static_cast<std::size_t>(ci);
      saturated[c] = 0;
      if (unfrozen_count[c] == 0) continue;
      const double cap = std::max(
          0.0, capacity_[static_cast<std::size_t>(used[c])] - frozen_load[c]);
      if (cap / unfrozen_count[c] <= level * (1.0 + 1e-12)) saturated[c] = 1;
    }
    bool froze_any = false;
    std::int32_t froze_count = 0;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (frozen[f] || flows[f].channels.empty()) continue;
      bool hit = false;
      for (topo::ChannelId ch : flows[f].channels) {
        if (saturated[static_cast<std::size_t>(
                local_of[static_cast<std::size_t>(ch)])]) {
          hit = true;
          break;
        }
      }
      if (!hit) continue;
      frozen[f] = 1;
      froze_any = true;
      ++froze_count;
      rate[f] = level;
      --remaining;
      hops -= flows[f].channels.size();
      for (topo::ChannelId ch : flows[f].channels) {
        const auto c = static_cast<std::size_t>(
            local_of[static_cast<std::size_t>(ch)]);
        --unfrozen_count[c];
        frozen_load[c] += level;
      }
    }
    if (!froze_any) {
      // Numerical guard: freeze everything at the current level.
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (frozen[f] || flows[f].channels.empty()) continue;
        frozen[f] = 1;
        ++froze_count;
        rate[f] = level;
      }
      remaining = 0;
    }
    if (record != nullptr) {
      record->levels.push_back(level);
      record->freezes_per_level.push_back(froze_count);
      // A channel saturates for the first time in a round where it still
      // carries unfrozen flows, i.e. while still on the worklist -- so
      // scanning the (pre-compaction) worklist sees every first
      // saturation exactly once.
      for (const std::int32_t ci : worklist) {
        const auto c = static_cast<std::size_t>(ci);
        if (saturated[c] && !ever_saturated[c]) {
          ever_saturated[c] = 1;
          record->saturated.push_back(used[c]);
        }
      }
    }
    if (rescanned > budget) break;
    worklist.erase(
        std::remove_if(worklist.begin(), worklist.end(),
                       [&](std::int32_t ci) {
                         return unfrozen_count[static_cast<std::size_t>(ci)] ==
                                0;
                       }),
        worklist.end());
  }
  return remaining;
}

void FlowSim::fill_indexed(std::span<const Flow> flows,
                           std::span<double> rate, SolveScratch& scratch,
                           obs::FlowSolveRecord* record,
                           std::size_t remaining) const {
  // The rescan's filling, restructured so a round costs O(saturated-
  // incident work) instead of O(flows x path):
  //
  //  - CSR incidence both ways (flow -> local channel in path order,
  //    channel -> flow in ascending flow order) is built once, over the
  //    flows still unfrozen when the loop starts;
  //  - every live channel keeps its current fill quotient
  //    (capacity - frozen_load) / unfrozen_count in a keyed lazy min-heap
  //    (FlatKeyHeap: the FlatEventHeap 4-ary layout, no clock).  A
  //    quotient change bumps the channel's version and pushes a fresh
  //    entry; entries whose tag version is stale are discarded at pop, so
  //    every live entry's key is the channel's *current* quotient;
  //  - a round pops the heap minimum (the rescan's level -- min over
  //    live channels of the identical division), then keeps popping live
  //    entries while key <= level * (1 + 1e-12), which is exactly the set
  //    the rescan's saturation test marks;
  //  - only flows incident to those newly saturated channels are visited.
  //
  // Bit-identity with the rescan is by construction, not accident:
  // quotients are computed by the same expression on the same operands,
  // min over doubles is order-independent, the saturation test compares
  // the same two values, and the freeze loop visits hit flows in
  // ascending flow index (the candidate list is sorted) walking each
  // path in order -- so frozen_load accumulates through the identical
  // sequence of additions and every level/rate/record field matches the
  // rescan bit for bit.  The loop depends on nothing but frozen,
  // frozen_load and unfrozen_count, so it may equally start on a fresh
  // solve or take over from rescan rounds mid-solve (the adaptive core).
  // tests/flowsim_golden_test.cpp and the flowsim_engine_identity fuzz
  // oracle hold every core to that.
  const auto& used = scratch.used;
  const auto& local_of = scratch.local_of;
  auto& frozen = scratch.frozen;
  auto& frozen_load = scratch.frozen_load;
  auto& unfrozen_count = scratch.unfrozen_count;
  auto& ever_saturated = scratch.ever_saturated;
  const std::size_t nused = used.size();
  const auto live = [&](std::size_t f) {
    return !frozen[f] && !flows[f].channels.empty();
  };

  // CSR incidence.  flow_ch carries local channel indices in path order
  // (multiplicity preserved -- the rescan counts a repeated channel once
  // per occurrence); chan_flow is filled by an ascending flow scan, so
  // each channel's flow list comes out sorted.
  auto& flow_off = scratch.flow_off;
  auto& flow_ch = scratch.flow_ch;
  auto& chan_off = scratch.chan_off;
  auto& chan_flow = scratch.chan_flow;
  auto& chan_cursor = scratch.chan_cursor;
  flow_off.assign(flows.size() + 1, 0);
  std::size_t total_hops = 0;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (live(f)) total_hops += flows[f].channels.size();
    flow_off[f + 1] = static_cast<std::int32_t>(total_hops);
  }
  flow_ch.resize(total_hops);
  chan_off.assign(nused + 1, 0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (!live(f)) continue;
    std::int32_t* out = flow_ch.data() + flow_off[f];
    for (topo::ChannelId ch : flows[f].channels) {
      const auto c = local_of[static_cast<std::size_t>(ch)];
      ++chan_off[static_cast<std::size_t>(c) + 1];
      *out++ = c;
    }
  }
  for (std::size_t c = 0; c < nused; ++c) chan_off[c + 1] += chan_off[c];
  chan_flow.resize(total_hops);
  chan_cursor.assign(chan_off.begin(), chan_off.end());
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (std::int32_t i = flow_off[f]; i < flow_off[f + 1]; ++i)
      chan_flow[static_cast<std::size_t>(
          chan_cursor[static_cast<std::size_t>(flow_ch[static_cast<std::size_t>(
              i)])]++)] = static_cast<std::int32_t>(f);
  }

  // Seed the quotient heap: one live entry per channel still carrying
  // unfrozen flows.  The key is the rescan's exact level expression on the
  // same operands.
  auto& version = scratch.version;
  auto& quotients = scratch.quotients;
  version.assign(nused, 0);
  quotients.clear();
  const auto quotient_of = [&](std::size_t c) {
    const double cap = std::max(
        0.0, capacity_[static_cast<std::size_t>(used[c])] - frozen_load[c]);
    return cap / unfrozen_count[c];
  };
  for (std::size_t c = 0; c < nused; ++c)
    if (unfrozen_count[c] > 0)
      quotients.push(quotient_of(c),
                     quotient_tag(static_cast<std::int32_t>(c), 0));

  auto& dirty = scratch.dirty;
  auto& dirty_mark = scratch.dirty_mark;
  auto& sat_chans = scratch.sat_chans;
  auto& candidates = scratch.candidates;
  auto& candidate_mark = scratch.candidate_mark;
  dirty.clear();
  dirty_mark.assign(nused, 0);
  candidate_mark.assign(flows.size(), 0);

  while (remaining > 0) {
    // The common level: the minimum current quotient.  Stale heap entries
    // (version mismatch) are popped and discarded until a live one tops.
    double level = kInf;
    while (!quotients.empty()) {
      const FlatKeyHeap::Entry top = quotients.top();
      const auto c = static_cast<std::size_t>(tag_channel(top.tag));
      if (tag_version(top.tag) != version[c]) {
        (void)quotients.pop();
        continue;
      }
      level = top.key;
      break;
    }
    if (level == kInf) {
      // Defensive: no loaded channel left although flows remain unfrozen
      // (same branch, same ascending sweep as the rescan).
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (!live(f)) continue;
        frozen[f] = 1;
        rate[f] = 0.0;
      }
      return;
    }

    // Saturated set: every live channel whose current quotient is within
    // the rescan's (1 + 1e-12) relative slack of the level.  Live keys
    // are current quotients, so popping while key <= threshold collects
    // exactly the channels the rescan's test marks.  A saturated
    // channel's unfrozen flows all freeze this round, so it leaves the
    // live set: retire its version here, no re-push later.
    const double threshold = level * (1.0 + 1e-12);
    sat_chans.clear();
    while (!quotients.empty() && quotients.top().key <= threshold) {
      const FlatKeyHeap::Entry e = quotients.pop();
      const auto c = static_cast<std::size_t>(tag_channel(e.tag));
      if (tag_version(e.tag) != version[c]) continue;
      ++version[c];
      sat_chans.push_back(static_cast<std::int32_t>(c));
    }
    // Ascending local index = the rescan's worklist order (its compaction
    // preserves the initial ascending layout), so the record's
    // first-saturation stream matches.
    std::sort(sat_chans.begin(), sat_chans.end());

    // Flows incident to the newly saturated channels -- the only flows
    // this round can freeze.  Sorted ascending so freezes (and the
    // frozen_load additions below) replay the rescan's flow order.
    candidates.clear();
    for (const std::int32_t ci : sat_chans) {
      const auto c = static_cast<std::size_t>(ci);
      for (std::int32_t i = chan_off[c]; i < chan_off[c + 1]; ++i) {
        const std::int32_t f = chan_flow[static_cast<std::size_t>(i)];
        if (frozen[static_cast<std::size_t>(f)] ||
            candidate_mark[static_cast<std::size_t>(f)])
          continue;
        candidate_mark[static_cast<std::size_t>(f)] = 1;
        candidates.push_back(f);
      }
    }
    std::sort(candidates.begin(), candidates.end());

    std::int32_t froze_count = 0;
    for (const std::int32_t fi : candidates) {
      const auto f = static_cast<std::size_t>(fi);
      candidate_mark[f] = 0;
      frozen[f] = 1;
      ++froze_count;
      rate[f] = level;
      --remaining;
      for (std::int32_t i = flow_off[f]; i < flow_off[f + 1]; ++i) {
        const auto c =
            static_cast<std::size_t>(flow_ch[static_cast<std::size_t>(i)]);
        --unfrozen_count[c];
        frozen_load[c] += level;
        if (!dirty_mark[c]) {
          dirty_mark[c] = 1;
          dirty.push_back(static_cast<std::int32_t>(c));
        }
      }
    }
    if (froze_count == 0) {
      // Numerical guard: freeze everything at the current level (the
      // rescan's ascending sweep; unreachable in practice -- the
      // minimising channel always saturates).
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (!live(f)) continue;
        frozen[f] = 1;
        ++froze_count;
        rate[f] = level;
      }
      remaining = 0;
    }
    if (record != nullptr) {
      record->levels.push_back(level);
      record->freezes_per_level.push_back(froze_count);
      for (const std::int32_t ci : sat_chans) {
        const auto c = static_cast<std::size_t>(ci);
        if (!ever_saturated[c]) {
          ever_saturated[c] = 1;
          record->saturated.push_back(used[c]);
        }
      }
    }
    // Re-key the channels the freezes touched: bump the version (stale
    // entries die lazily) and push the fresh quotient while the channel
    // still carries unfrozen flows.
    for (const std::int32_t ci : dirty) {
      const auto c = static_cast<std::size_t>(ci);
      dirty_mark[c] = 0;
      ++version[c];
      if (unfrozen_count[c] > 0)
        quotients.push(quotient_of(c), quotient_tag(ci, version[c]));
    }
    dirty.clear();
  }
}

void FlowSim::validate(std::span<const Flow> flows) const {
  // Degraded-fabric guard: a flow routed before fault injection can carry a
  // stale path over a now-disabled cable.  Solving over it would silently
  // grant bandwidth a broken cable cannot carry, so reject the flow set the
  // same way PktSim rejects invalid static paths at injection.
  for (std::size_t f = 0; f < flows.size(); ++f) {
    for (const topo::ChannelId ch : flows[f].channels) {
      if (ch < 0 || ch >= topo_->num_channels())
        throw std::invalid_argument("FlowSim: flow " + std::to_string(f) +
                                    " names unknown channel " +
                                    std::to_string(ch));
      if (!topo_->channel(ch).enabled)
        throw std::invalid_argument("FlowSim: flow " + std::to_string(f) +
                                    " crosses disabled channel " +
                                    std::to_string(ch) +
                                    " (stale path on a degraded fabric?)");
    }
  }
}

std::vector<double> FlowSim::fair_rates(std::span<const Flow> flows,
                                        obs::FlowSolveTrace* trace) const {
  // Solve on the engine-owned warm scratch (not a fresh one per call), so
  // sweep loops that call fair_rates in a loop allocate only the returned
  // rate vector once the scratch is sized.
  std::vector<double> rate(flows.size(), 0.0);
  solve(flows, rate, scratch_,
        trace != nullptr ? &trace->solves.emplace_back() : nullptr);
  return rate;
}

std::vector<std::vector<double>> FlowSim::solve_batch(
    std::span<const std::vector<Flow>> flow_sets, std::int32_t threads) const {
  std::vector<std::vector<double>> rates(flow_sets.size());
  exec::ThreadPool pool(threads);
  exec::ScratchArena<SolveScratch> arena(pool);
  pool.parallel_for(
      static_cast<std::int64_t>(flow_sets.size()),
      [&](std::int64_t s, std::int32_t worker) {
        SolveScratch& scratch = arena.local(worker);
        const std::vector<Flow>& flows = flow_sets[static_cast<std::size_t>(s)];
        auto& rate = rates[static_cast<std::size_t>(s)];
        rate.assign(flows.size(), 0.0);
        solve(flows, rate, scratch);
      });
  return rates;
}

std::vector<double> FlowSim::channel_utilisation(
    std::span<const Flow> flows, obs::FlowSolveTrace* trace) const {
  const std::vector<double> rate = fair_rates(flows, trace);
  std::vector<double> load(capacity_.size(), 0.0);
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].channels.empty()) continue;
    for (topo::ChannelId ch : flows[f].channels)
      load[static_cast<std::size_t>(ch)] += rate[f];
  }
  for (std::size_t ch = 0; ch < load.size(); ++ch) load[ch] /= capacity_[ch];
  return load;
}

}  // namespace hxsim::sim
