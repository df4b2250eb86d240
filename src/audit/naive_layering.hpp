// Naive greedy VL re-layering of shipped tables: the oracle for the lane
// placement of DFSSSP and PARX (routing::DfssspEngine::assign_vls over
// routing::VlLayering's Pearce-Kelly DAGs).
//
// It walks the same paths in the same (destination LID, source switch)
// order with the same skip rules, and puts each path on the lowest lane
// that stays acyclic -- but it decides acyclicity with a plain BFS over
// the lane's current edges: an edge u -> v may join a lane only if v
// cannot reach u there.  Whether an edge closes a cycle depends only on
// the lane's edge set, so any correct DAG yields exactly this layering;
// the BFS shares no code with the incremental one.  Quadratic in the
// worst case, so it is meant for the fuzz audit's small fabrics.
#pragma once

#include <cstdint>

#include "routing/forwarding.hpp"
#include "routing/lid_space.hpp"
#include "topo/topology.hpp"

namespace hxsim::audit {

struct NaiveLayering {
  routing::VlMap vls;
  std::int32_t num_vls_used = 0;
  /// False when some path fits no lane within the budget; the layering
  /// then stops at that path.
  bool fits = true;
};

[[nodiscard]] NaiveLayering naive_vl_layering(
    const topo::Topology& topo, const routing::LidSpace& lids,
    const routing::ForwardingTables& tables, std::int32_t max_vls);

}  // namespace hxsim::audit
