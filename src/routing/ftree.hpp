// OpenSM-style "ftree" routing for k-ary n-trees.
//
// Deterministic destination-based tree routing: every destination LID is
// assigned a root (spread across the top level by dlid modulo the level
// width, the D-mod-K idea of Zahavi [85]); traffic ascends toward that root
// and descends along the unique digit-fixing down path.  On faulty fabrics
// the engine degrades gracefully because paths are found with an
// Up*/Down*-restricted shortest-path search in which the canonical
// (root-matching) up channels are merely *preferred* by a small weight
// bonus; any legal up/down detour remains available.
//
// ftree paths never create channel-dependency cycles, so one virtual lane
// suffices.
//
// Paper cross-reference: ftree is the fat-tree plane's production routing
// (Section 2.3; the 3-level full-bisection tree of Table 2) and the
// baseline every HyperX result is normalised against (Figures 4-7).  It is
// tree-only by construction -- on the HyperX lattice the quadrant rules
// R1-R4 of PARX's Algorithm 1 (core/quadrant.hpp, Section 3.2.3) play the
// role the up/down digit-fixing plays here: both prune the next-hop set per
// destination LID to keep paths short and deadlock-free.
#pragma once

#include "routing/engine.hpp"
#include "topo/fat_tree.hpp"

namespace hxsim::routing {

class FtreeEngine final : public RoutingEngine {
 public:
  /// The tree must outlive the engine.  Destinations are routed fully
  /// independently (per-destination weights), so compute() parallelises
  /// over `threads` workers with bit-identical output at any count;
  /// threads == 0 uses exec::default_threads().
  explicit FtreeEngine(const topo::FatTree& tree, std::int32_t threads = 0)
      : tree_(&tree), threads_(threads) {}

  [[nodiscard]] std::string name() const override { return "ftree"; }
  [[nodiscard]] RouteResult compute(const topo::Topology& topo,
                                    const LidSpace& lids) override;

 private:
  const topo::FatTree* tree_;
  std::int32_t threads_;
};

}  // namespace hxsim::routing
