#include "routing/ftree.hpp"

#include <stdexcept>

#include "exec/exec.hpp"
#include "routing/spf.hpp"

namespace hxsim::routing {

namespace {

/// Per-worker state: the per-destination weight vector (reset after each
/// destination via the touched list) plus SPF scratch.
struct FtreeScratch {
  std::vector<double> weight;
  std::vector<topo::ChannelId> touched;
  SpfScratch spf;
  SpfResult tree;
};

constexpr double kDetourPenalty = 1.0 + 1.0 / 64.0;

/// rank = distance from the top level (updown_spf_to ascends toward 0).
std::vector<std::int32_t> tree_ranks(const topo::FatTree& tree) {
  const topo::Topology& topo = tree.topo();
  const std::int32_t n = tree.levels();
  std::vector<std::int32_t> rank(static_cast<std::size_t>(topo.num_switches()));
  for (topo::SwitchId sw = 0; sw < topo.num_switches(); ++sw)
    rank[static_cast<std::size_t>(sw)] = (n - 1) - tree.level_of(sw);
  return rank;
}

/// Installs the destination's weight profile into sc.weight (recording
/// touched channels): canonical up channels (those matching the
/// destination's root digits) keep 1.0, the rest get 1 + 1/64, so intact
/// fabrics reproduce exact D-mod-K paths and faulty ones detour minimally.
void set_dest_weights(const topo::FatTree& tree, Lid dlid,
                      std::int32_t root_digit0_bound, FtreeScratch& sc) {
  const topo::Topology& topo = tree.topo();
  if (sc.weight.empty())
    sc.weight.assign(static_cast<std::size_t>(topo.num_channels()), 1.0);

  std::int32_t root_word = dlid % tree.switches_per_level();
  // With a leaf taper only roots whose digit 0 survives are usable.
  if (tree.digit(root_word, 0) >= root_digit0_bound)
    root_word = tree.with_digit(root_word, 0,
                                tree.digit(root_word, 0) % root_digit0_bound);

  const std::int32_t k = tree.arity();
  const std::int32_t n = tree.levels();
  sc.touched.clear();
  for (topo::SwitchId sw = 0; sw < topo.num_switches(); ++sw) {
    const std::int32_t l = tree.level_of(sw);
    if (l == n - 1) continue;  // top level has no up channels
    for (std::int32_t v = 0; v < k; ++v) {
      if (v == tree.digit(root_word, l)) continue;
      const topo::ChannelId up = tree.up_channel(sw, v);
      if (up == topo::kInvalidChannel) continue;  // tapered-away uplink
      sc.weight[static_cast<std::size_t>(up)] = kDetourPenalty;
      sc.touched.push_back(up);
    }
  }
}

void clear_dest_weights(FtreeScratch& sc) {
  for (topo::ChannelId ch : sc.touched)
    sc.weight[static_cast<std::size_t>(ch)] = 1.0;
}

}  // namespace

RouteResult FtreeEngine::compute(const topo::Topology& topo,
                                 const LidSpace& lids) {
  if (&tree_->topo() != &topo)
    throw std::invalid_argument("FtreeEngine: topology is not the tree");

  RouteResult res;
  res.tables = ForwardingTables(topo.num_switches(), lids.max_lid());
  res.vls = VlMap();  // all zero: up/down needs a single VL
  res.num_vls_used = 1;

  const std::vector<std::int32_t> rank = tree_ranks(*tree_);
  const std::int32_t root_digit0_bound =
      tree_->arity() / tree_->params().taper;

  // Destinations are fully independent here (the weight vector is rebuilt
  // per destination), so the loop parallelises without batching: each
  // index touches only its own LFT column and unreachable slot, making the
  // output identical for any thread count.
  const std::vector<Lid> all = lids.all_lids();
  std::vector<std::int64_t> unreachable(all.size(), 0);

  exec::ThreadPool pool(threads_);
  exec::ScratchArena<FtreeScratch> arena(pool);

  pool.parallel_for(
      static_cast<std::int64_t>(all.size()),
      [&](std::int64_t d, std::int32_t worker) {
        FtreeScratch& sc = arena.local(worker);
        const Lid dlid = all[static_cast<std::size_t>(d)];
        const LidSpace::Owner owner = lids.owner(dlid);
        set_dest_weights(*tree_, dlid, root_digit0_bound, sc);
        updown_spf_to(topo, topo.attach_switch(owner.node), rank, sc.weight,
                      sc.spf, sc.tree);
        unreachable[static_cast<std::size_t>(d)] = apply_tree_to_tables(
            topo, sc.tree, owner.node, dlid, res.tables);
        clear_dest_weights(sc);
      });

  for (const std::int64_t u : unreachable) res.unreachable_entries += u;
  return res;
}

}  // namespace hxsim::routing
