#include "routing/engine.hpp"

#include "routing/spf.hpp"

namespace hxsim::routing {

std::int64_t apply_tree_to_tables(const topo::Topology& topo,
                                  const SpfResult& tree,
                                  topo::NodeId dest_node, Lid dlid,
                                  ForwardingTables& tables) {
  const topo::SwitchId dest_sw = topo.attach_switch(dest_node);
  std::int64_t unreachable = 0;
  for (topo::SwitchId sw = 0; sw < topo.num_switches(); ++sw) {
    if (sw == dest_sw) {
      tables.set(sw, dlid, topo.terminal_down(dest_node));
      continue;
    }
    const auto out = tree.out_channel[static_cast<std::size_t>(sw)];
    if (out == topo::kInvalidChannel) ++unreachable;
    // Written even when invalid, so the column holds this tree alone
    // whatever the table held before.
    tables.set(sw, dlid, out);
  }
  return unreachable;
}

}  // namespace hxsim::routing
