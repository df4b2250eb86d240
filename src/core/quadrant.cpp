#include "core/quadrant.hpp"

#include <stdexcept>

namespace hxsim::core {

void validate_parx_topology(const topo::HyperX& hx) {
  if (hx.num_dims() != 2)
    throw std::invalid_argument("PARX prototype requires a 2-D HyperX");
  if (hx.dim_size(0) % 2 != 0 || hx.dim_size(1) % 2 != 0)
    throw std::invalid_argument("PARX prototype requires even dimensions");
}

bool in_half(const topo::HyperX& hx, topo::SwitchId sw, Half half) {
  const std::int32_t x = hx.coord(sw, 0);
  const std::int32_t y = hx.coord(sw, 1);
  switch (half) {
    case Half::kLeft:
      return x < hx.dim_size(0) / 2;
    case Half::kRight:
      return x >= hx.dim_size(0) / 2;
    case Half::kTop:
      return y < hx.dim_size(1) / 2;
    case Half::kBottom:
      return y >= hx.dim_size(1) / 2;
  }
  return false;
}

std::int32_t quadrant_of_switch(const topo::HyperX& hx, topo::SwitchId sw) {
  const bool left = in_half(hx, sw, Half::kLeft);
  const bool top = in_half(hx, sw, Half::kTop);
  if (left && top) return 0;
  if (left && !top) return 1;
  if (!left && !top) return 2;
  return 3;
}

std::int32_t quadrant_of_node(const topo::HyperX& hx, topo::NodeId n) {
  return quadrant_of_switch(hx, hx.topo().attach_switch(n));
}

std::vector<std::vector<topo::NodeId>> quadrant_groups(const topo::HyperX& hx) {
  std::vector<std::vector<topo::NodeId>> groups(kNumQuadrants);
  for (topo::NodeId n = 0; n < hx.topo().num_terminals(); ++n)
    groups[static_cast<std::size_t>(quadrant_of_node(hx, n))].push_back(n);
  return groups;
}

Half removed_half_for_lid_index(std::int32_t x) {
  switch (x) {
    case 0:
      return Half::kLeft;
    case 1:
      return Half::kRight;
    case 2:
      return Half::kTop;
    case 3:
      return Half::kBottom;
    default:
      throw std::out_of_range("removed_half_for_lid_index: x must be 0..3");
  }
}

std::vector<char> parx_prune_mask(const topo::HyperX& hx, std::int32_t x) {
  const Half half = removed_half_for_lid_index(x);
  const topo::Topology& topo = hx.topo();
  std::vector<char> admit(static_cast<std::size_t>(topo.num_channels()), 1);
  for (topo::ChannelId ch = 0; ch < topo.num_channels(); ++ch) {
    const topo::Channel& c = topo.channel(ch);
    if (c.src.is_switch() && c.dst.is_switch() &&
        in_half(hx, c.src.index, half) && in_half(hx, c.dst.index, half))
      admit[static_cast<std::size_t>(ch)] = 0;
  }
  return admit;
}

routing::LidSpace make_parx_lid_space(const topo::HyperX& hx) {
  validate_parx_topology(hx);
  const auto groups = quadrant_groups(hx);
  return routing::LidSpace::grouped(groups, kParxLmc, kQuadrantLidStride);
}

}  // namespace hxsim::core
