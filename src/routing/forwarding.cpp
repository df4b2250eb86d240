#include "routing/forwarding.hpp"

#include <stdexcept>

namespace hxsim::routing {

ForwardingTables::ForwardingTables(std::int32_t num_switches, Lid max_lid)
    : switches_(num_switches),
      max_lid_(max_lid),
      table_(static_cast<std::size_t>(num_switches) *
                 (static_cast<std::size_t>(max_lid) + 1),
             topo::kInvalidChannel) {}

void ForwardingTables::set(topo::SwitchId sw, Lid dlid, topo::ChannelId out) {
  if (sw < 0 || sw >= switches_ || dlid < 0 || dlid > max_lid_)
    throw std::out_of_range("ForwardingTables::set: out of range");
  table_[index(sw, dlid)] = out;
}

namespace {

/// Shared walker for path_into() and reachable().  Invokes `on_channel`
/// per hop; returns success.
template <typename OnChannel>
bool walk(const topo::Topology& topo, const ForwardingTables& lft,
          const LidSpace& lids, topo::NodeId src, Lid dlid,
          OnChannel&& on_channel) {
  const LidSpace::Owner owner = lids.owner(dlid);
  if (!owner.valid()) return false;
  if (owner.node == src) return true;

  const topo::ChannelId up = topo.terminal_up(src);
  if (!topo.channel(up).enabled) return false;
  on_channel(up);

  topo::SwitchId sw = topo.attach_switch(src);
  // A valid route visits each switch at most once; anything longer loops.
  for (std::int32_t hops = 0; hops <= topo.num_switches(); ++hops) {
    const topo::ChannelId out = lft.next(sw, dlid);
    if (out == topo::kInvalidChannel) return false;
    const topo::Channel& c = topo.channel(out);
    if (!c.enabled || !c.src.is_switch() || c.src.index != sw) return false;
    on_channel(out);
    if (c.dst.is_terminal()) return c.dst.index == owner.node;
    sw = c.dst.index;
  }
  return false;  // forwarding loop
}

}  // namespace

ForwardingTables::Path ForwardingTables::path(const topo::Topology& topo,
                                              const LidSpace& lids,
                                              topo::NodeId src,
                                              Lid dlid) const {
  Path p;
  p.ok = path_into(topo, lids, src, dlid, p.channels);
  return p;
}

bool ForwardingTables::path_into(const topo::Topology& topo,
                                 const LidSpace& lids, topo::NodeId src,
                                 Lid dlid,
                                 std::vector<topo::ChannelId>& channels) const {
  channels.clear();
  const bool ok =
      walk(topo, *this, lids, src, dlid,
           [&channels](topo::ChannelId ch) { channels.push_back(ch); });
  if (!ok) channels.clear();
  return ok;
}

bool ForwardingTables::reachable(const topo::Topology& topo,
                                 const LidSpace& lids, topo::NodeId src,
                                 Lid dlid) const {
  return walk(topo, *this, lids, src, dlid, [](topo::ChannelId) {});
}

VlMap::VlMap(std::int32_t num_switches, Lid max_lid)
    : switches_(num_switches),
      max_lid_(max_lid),
      table_(static_cast<std::size_t>(num_switches) *
                 (static_cast<std::size_t>(max_lid) + 1),
             0) {}

void VlMap::set(topo::SwitchId sw, Lid dlid, std::int8_t vl) {
  table_.at(static_cast<std::size_t>(sw) *
                (static_cast<std::size_t>(max_lid_) + 1) +
            static_cast<std::size_t>(dlid)) = vl;
  if (vl > max_vl_) max_vl_ = vl;
}

}  // namespace hxsim::routing
