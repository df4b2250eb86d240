// Quadrant partitioning of a 2-D HyperX (paper Section 3.2.1, Figure 3).
//
// PARX virtually divides the switch lattice into four quadrants.  Dimension
// 0 is "x" (left/right), dimension 1 is "y" (top/bottom, y = 0 is top):
//
//        x <  X/2     x >= X/2
//   y <  Y/2   Q0        Q3
//   y >= Y/2   Q1        Q2
//
// This orientation is the unique one consistent with the paper's Table 1:
// e.g. intra-Q0 small messages may use LID1 (right half pruned) or LID3
// (bottom half pruned), so Q0 must lie in the left-top corner.
//
// The four link-removal rules attach to the LID index, not the quadrant:
//   R1: LID0 -> remove all links within the left half
//   R2: LID1 -> remove all links within the right half
//   R3: LID2 -> remove all links within the top half
//   R4: LID3 -> remove all links within the bottom half
// ("within" = both endpoints inside the half).
//
// Quadrants are encoded in the LID value itself via the guid2lid policy the
// paper describes in footnote 9: nodes of quadrant q get LIDs in
// [q*1000, q*1000 + 999], so the MPI layer recovers q = lid / 1000.
#pragma once

#include <vector>

#include "routing/lid_space.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::core {

inline constexpr std::int32_t kNumQuadrants = 4;
inline constexpr routing::Lid kQuadrantLidStride = 1000;
inline constexpr std::int32_t kParxLmc = 2;  // 4 destination LIDs per port

enum class Half : std::int8_t { kLeft, kRight, kTop, kBottom };

/// Throws std::invalid_argument unless hx is 2-D with even dimensions
/// (the prototype's stated scope, Section 3.2.1).
void validate_parx_topology(const topo::HyperX& hx);

/// True if the switch lies inside the given half of the lattice.
[[nodiscard]] bool in_half(const topo::HyperX& hx, topo::SwitchId sw,
                           Half half);

/// Quadrant (0..3) of a switch / node.
[[nodiscard]] std::int32_t quadrant_of_switch(const topo::HyperX& hx,
                                              topo::SwitchId sw);
[[nodiscard]] std::int32_t quadrant_of_node(const topo::HyperX& hx,
                                            topo::NodeId n);

/// Nodes grouped by quadrant (input for LidSpace::grouped).
[[nodiscard]] std::vector<std::vector<topo::NodeId>> quadrant_groups(
    const topo::HyperX& hx);

/// Rule R(x+1): the half whose internal links are pruned when routing LIDx.
[[nodiscard]] Half removed_half_for_lid_index(std::int32_t x);

/// Admission mask (one entry per channel, for routing::spf_to) enforcing
/// the rule for LID index x: 0 for switch-to-switch channels whose both
/// endpoints lie in the removed half, 1 for every other channel.
[[nodiscard]] std::vector<char> parx_prune_mask(const topo::HyperX& hx,
                                                std::int32_t x);

/// The paper's PARX LID layout: LMC = 2, quadrant-grouped, stride 1000.
[[nodiscard]] routing::LidSpace make_parx_lid_space(const topo::HyperX& hx);

}  // namespace hxsim::core
