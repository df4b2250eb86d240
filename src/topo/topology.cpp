#include "topo/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace hxsim::topo {

SwitchId Topology::add_switch() {
  const auto id = static_cast<SwitchId>(switch_out_.size());
  switch_out_.emplace_back();
  switch_terminals_.emplace_back();
  return id;
}

ChannelId Topology::add_channel(Endpoint src, Endpoint dst) {
  const auto id = static_cast<ChannelId>(channels_.size());
  channels_.push_back(Channel{id, src, dst, kInvalidChannel, true});
  if (src.is_switch())
    switch_out_[static_cast<std::size_t>(src.index)].push_back(id);
  return id;
}

NodeId Topology::add_terminal(SwitchId sw) {
  if (sw < 0 || sw >= num_switches())
    throw std::out_of_range("Topology::add_terminal: bad switch id");
  const auto n = static_cast<NodeId>(terminal_up_.size());
  const ChannelId up = add_channel(terminal_endpoint(n), switch_endpoint(sw));
  const ChannelId down = add_channel(switch_endpoint(sw), terminal_endpoint(n));
  channels_[static_cast<std::size_t>(up)].reverse = down;
  channels_[static_cast<std::size_t>(down)].reverse = up;
  terminal_up_.push_back(up);
  terminal_down_.push_back(down);
  attach_.push_back(sw);
  switch_terminals_[static_cast<std::size_t>(sw)].push_back(n);
  return n;
}

std::pair<ChannelId, ChannelId> Topology::connect(SwitchId a, SwitchId b) {
  if (a < 0 || a >= num_switches() || b < 0 || b >= num_switches())
    throw std::out_of_range("Topology::connect: bad switch id");
  if (a == b) throw std::invalid_argument("Topology::connect: self-loop");
  const ChannelId ab = add_channel(switch_endpoint(a), switch_endpoint(b));
  const ChannelId ba = add_channel(switch_endpoint(b), switch_endpoint(a));
  channels_[static_cast<std::size_t>(ab)].reverse = ba;
  channels_[static_cast<std::size_t>(ba)].reverse = ab;
  return {ab, ba};
}

void Topology::disable_link(ChannelId ch) {
  Channel& c = channels_.at(static_cast<std::size_t>(ch));
  c.enabled = false;
  channels_[static_cast<std::size_t>(c.reverse)].enabled = false;
}

void Topology::enable_link(ChannelId ch) {
  Channel& c = channels_.at(static_cast<std::size_t>(ch));
  c.enabled = true;
  channels_[static_cast<std::size_t>(c.reverse)].enabled = true;
}

std::int64_t Topology::num_switch_links(bool enabled_only) const {
  std::int64_t directed = 0;
  for (const Channel& c : channels_) {
    if (!is_switch_channel(c.id)) continue;
    if (enabled_only && !c.enabled) continue;
    ++directed;
  }
  return directed / 2;
}

std::vector<SwitchId> Topology::switch_neighbors(SwitchId sw) const {
  std::vector<SwitchId> out;
  for (ChannelId ch : switch_out(sw)) {
    const Channel& c = channel(ch);
    if (!c.enabled || !c.dst.is_switch()) continue;
    out.push_back(c.dst.index);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Topology::switches_connected() const {
  const std::vector<char> alive(static_cast<std::size_t>(num_switches()), 1);
  return switches_connected(alive);
}

bool Topology::switches_connected(std::span<const char> alive) const {
  std::int32_t num_alive = 0;
  SwitchId start = kInvalidSwitch;
  for (SwitchId sw = 0; sw < num_switches(); ++sw) {
    if (!alive[static_cast<std::size_t>(sw)]) continue;
    if (start == kInvalidSwitch) start = sw;
    ++num_alive;
  }
  if (num_alive <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(num_switches()), 0);
  std::vector<SwitchId> stack{start};
  seen[static_cast<std::size_t>(start)] = 1;
  std::int32_t visited = 1;
  while (!stack.empty()) {
    const SwitchId sw = stack.back();
    stack.pop_back();
    for (ChannelId ch : switch_out(sw)) {
      const Channel& c = channel(ch);
      if (!c.enabled || !c.dst.is_switch()) continue;
      const auto next = static_cast<std::size_t>(c.dst.index);
      if (!alive[next] || seen[next]) continue;
      seen[next] = 1;
      ++visited;
      stack.push_back(c.dst.index);
    }
  }
  return visited == num_alive;
}

std::string Topology::to_dot() const {
  std::string dot = "graph \"" + name_ + "\" {\n";
  for (SwitchId s = 0; s < num_switches(); ++s)
    dot += "  s" + std::to_string(s) + " [shape=box];\n";
  for (NodeId n = 0; n < num_terminals(); ++n)
    dot += "  t" + std::to_string(n) + " [shape=point];\n";
  for (const Channel& c : channels_) {
    // Emit each cable once, from its lower-id direction.
    if (c.id > c.reverse) continue;
    auto label = [](Endpoint e) {
      std::string out(1, e.is_switch() ? 's' : 't');
      return out.append(std::to_string(e.index));
    };
    dot.append("  ").append(label(c.src)).append(" -- ").append(label(c.dst));
    if (!c.enabled) dot += " [style=dashed]";
    dot += ";\n";
  }
  dot += "}\n";
  return dot;
}

}  // namespace hxsim::topo
