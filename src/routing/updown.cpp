#include "routing/updown.hpp"

#include <deque>
#include <stdexcept>

#include "exec/exec.hpp"
#include "routing/spf.hpp"

namespace hxsim::routing {

std::vector<std::int32_t> UpDownEngine::compute_ranks(
    const topo::Topology& topo) const {
  topo::SwitchId root = root_;
  if (root < 0) {
    std::size_t best_degree = 0;
    root = 0;
    for (topo::SwitchId sw = 0; sw < topo.num_switches(); ++sw) {
      const std::size_t degree = topo.switch_neighbors(sw).size();
      if (degree > best_degree) {
        best_degree = degree;
        root = sw;
      }
    }
  }
  if (root >= topo.num_switches())
    throw std::out_of_range("UpDownEngine: root out of range");

  // BFS ranks over enabled switch links.
  std::vector<std::int32_t> ranks(
      static_cast<std::size_t>(topo.num_switches()), -1);
  std::deque<topo::SwitchId> queue{root};
  ranks[static_cast<std::size_t>(root)] = 0;
  while (!queue.empty()) {
    const topo::SwitchId sw = queue.front();
    queue.pop_front();
    for (topo::SwitchId nb : topo.switch_neighbors(sw)) {
      auto& r = ranks[static_cast<std::size_t>(nb)];
      if (r < 0) {
        r = ranks[static_cast<std::size_t>(sw)] + 1;
        queue.push_back(nb);
      }
    }
  }
  // Unreachable switches (disconnected fabrics) sink below everything.
  for (auto& r : ranks)
    if (r < 0) r = topo.num_switches();
  return ranks;
}

RouteResult UpDownEngine::compute(const topo::Topology& topo,
                                  const LidSpace& lids) {
  ranks_ = compute_ranks(topo);

  RouteResult res;
  res.tables = ForwardingTables(topo.num_switches(), lids.max_lid());
  res.num_vls_used = 1;

  // Destinations are independent (unit weights, shared read-only ranks):
  // each index writes only its own LFT column and unreachable slot.
  const std::vector<Lid> all = lids.all_lids();
  std::vector<std::int64_t> unreachable(all.size(), 0);

  struct Scratch {
    SpfScratch spf;
    SpfResult tree;
  };
  exec::ThreadPool pool(threads_);
  exec::ScratchArena<Scratch> arena(pool);
  pool.parallel_for(
      static_cast<std::int64_t>(all.size()),
      [&](std::int64_t d, std::int32_t worker) {
        Scratch& sc = arena.local(worker);
        const Lid dlid = all[static_cast<std::size_t>(d)];
        const LidSpace::Owner owner = lids.owner(dlid);
        updown_spf_to(topo, topo.attach_switch(owner.node), ranks_, {},
                      sc.spf, sc.tree);
        unreachable[static_cast<std::size_t>(d)] = apply_tree_to_tables(
            topo, sc.tree, owner.node, dlid, res.tables);
      });
  for (const std::int64_t u : unreachable) res.unreachable_entries += u;
  return res;
}

}  // namespace hxsim::routing
