#include "routing/sssp.hpp"

#include <algorithm>

#include "exec/exec.hpp"
#include "routing/spf.hpp"

namespace hxsim::routing {

namespace {

/// The weight contribution of one routed destination tree: +#terminals(s)
/// on every channel of s's path toward dest_sw, i.e. +1 per source port
/// whose traffic to the destination crosses the channel.
void add_tree_load(const topo::Topology& topo, const SpfResult& tree,
                   topo::SwitchId dest_sw, std::vector<double>& weight) {
  for (topo::SwitchId s = 0; s < topo.num_switches(); ++s) {
    if (s == dest_sw) continue;
    const double paths = static_cast<double>(topo.switch_terminals(s).size());
    if (paths == 0.0 || !tree.reachable(s)) continue;
    topo::SwitchId at = s;
    while (at != dest_sw) {
      const topo::ChannelId out =
          tree.out_channel[static_cast<std::size_t>(at)];
      weight[static_cast<std::size_t>(out)] += paths;
      at = topo.channel(out).dst.index;
    }
  }
}

}  // namespace

RouteResult SsspEngine::compute(const topo::Topology& topo,
                                const LidSpace& lids) {
  RouteResult res;
  res.tables = ForwardingTables(topo.num_switches(), lids.max_lid());
  res.num_vls_used = 1;

  // Channel weights accumulate the number of (source port, destination LID)
  // paths already routed through each channel.  Weights start at 1 so hop
  // count still dominates until load differentiates paths.  All increments
  // are integer-valued, so the doubles stay exact.
  std::vector<double> weight(static_cast<std::size_t>(topo.num_channels()),
                             1.0);

  const std::vector<Lid> all = lids.all_lids();
  const auto n = static_cast<std::int64_t>(all.size());
  constexpr std::int64_t batch = kBatch;

  exec::ThreadPool pool(threads_);
  exec::ScratchArena<SpfScratch> scratch(pool);
  std::vector<SpfResult> trees(
      static_cast<std::size_t>(std::min<std::int64_t>(batch, n)));

  obs::PhaseClock clock;
  double spf_seconds = 0.0;
  double merge_seconds = 0.0;

  for (std::int64_t base = 0; base < n; base += batch) {
    const std::int64_t m = std::min(batch, n - base);
    if (timings_ != nullptr) clock.lap();
    // All trees of the batch see the same weight snapshot; each index
    // writes only its own SpfResult slot, so the merge below is
    // order-independent and the output thread-count-invariant.
    pool.parallel_for(m, [&](std::int64_t i, std::int32_t worker) {
      const Lid dlid = all[static_cast<std::size_t>(base + i)];
      const LidSpace::Owner owner = lids.owner(dlid);
      spf_to(topo, topo.attach_switch(owner.node), weight, {},
             scratch.local(worker), trees[static_cast<std::size_t>(i)]);
    });
    if (timings_ != nullptr) spf_seconds += clock.lap();

    // Serial merge in LID order: tables, then the weight update.
    for (std::int64_t i = 0; i < m; ++i) {
      const Lid dlid = all[static_cast<std::size_t>(base + i)];
      const LidSpace::Owner owner = lids.owner(dlid);
      const SpfResult& tree = trees[static_cast<std::size_t>(i)];
      res.unreachable_entries +=
          apply_tree_to_tables(topo, tree, owner.node, dlid, res.tables);
      add_tree_load(topo, tree, topo.attach_switch(owner.node), weight);
    }
    if (timings_ != nullptr) merge_seconds += clock.lap();
  }
  if (timings_ != nullptr) {
    timings_->add("spf_trees", spf_seconds);
    timings_->add("table_merge", merge_seconds);
  }
  return res;
}

}  // namespace hxsim::routing
