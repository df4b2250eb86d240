// Interconnection-network topology graph.
//
// A Topology is a bipartite-ish graph of switches and terminals (compute
// nodes).  Every physical cable is represented as a *pair* of directed
// channels, one per direction, because routing tables, congestion, and
// channel-dependency analysis are all per-direction concepts.  Channels can
// be disabled to model the paper's broken/missing AOC cables without
// renumbering anything.
//
// The class is a value type (Core Guidelines C.10/C.11): builders construct
// one, fault injectors mutate the enable flags, and routing engines only
// read it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hxsim::topo {

using SwitchId = std::int32_t;
using NodeId = std::int32_t;     // terminal / compute node
using ChannelId = std::int32_t;  // directed edge

inline constexpr SwitchId kInvalidSwitch = -1;
inline constexpr NodeId kInvalidNode = -1;
inline constexpr ChannelId kInvalidChannel = -1;

/// One side of a directed channel.
struct Endpoint {
  enum class Kind : std::uint8_t { kSwitch, kTerminal };
  Kind kind = Kind::kSwitch;
  std::int32_t index = -1;

  [[nodiscard]] bool is_switch() const noexcept { return kind == Kind::kSwitch; }
  [[nodiscard]] bool is_terminal() const noexcept {
    return kind == Kind::kTerminal;
  }
  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

[[nodiscard]] constexpr Endpoint switch_endpoint(SwitchId s) noexcept {
  return Endpoint{Endpoint::Kind::kSwitch, s};
}
[[nodiscard]] constexpr Endpoint terminal_endpoint(NodeId n) noexcept {
  return Endpoint{Endpoint::Kind::kTerminal, n};
}

/// Directed channel.  `reverse` is the channel of the same cable in the
/// opposite direction; the pair is created and disabled together.
struct Channel {
  ChannelId id = kInvalidChannel;
  Endpoint src;
  Endpoint dst;
  ChannelId reverse = kInvalidChannel;
  bool enabled = true;
};

class Topology {
 public:
  Topology() = default;
  explicit Topology(std::string name) : name_(std::move(name)) {}

  // --- construction -------------------------------------------------------

  SwitchId add_switch();

  /// Adds a terminal attached to `sw` via a bidirectional link.
  NodeId add_terminal(SwitchId sw);

  /// Adds a bidirectional switch-to-switch cable; returns the two directed
  /// channel ids (a->b, b->a).  Parallel cables between the same switch
  /// pair are allowed.
  std::pair<ChannelId, ChannelId> connect(SwitchId a, SwitchId b);

  /// Disables a cable in both directions.  Idempotent.
  void disable_link(ChannelId ch);

  /// Re-enables a cable in both directions.  Idempotent.
  void enable_link(ChannelId ch);

  // --- queries ------------------------------------------------------------

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] std::int32_t num_switches() const noexcept {
    return static_cast<std::int32_t>(switch_out_.size());
  }
  [[nodiscard]] std::int32_t num_terminals() const noexcept {
    return static_cast<std::int32_t>(terminal_up_.size());
  }
  [[nodiscard]] std::int32_t num_channels() const noexcept {
    return static_cast<std::int32_t>(channels_.size());
  }

  [[nodiscard]] const Channel& channel(ChannelId ch) const {
    return channels_[static_cast<std::size_t>(ch)];
  }

  /// All channels leaving a switch (enabled or not; callers filter).
  /// Includes switch->terminal channels.
  [[nodiscard]] std::span<const ChannelId> switch_out(SwitchId sw) const {
    return switch_out_[static_cast<std::size_t>(sw)];
  }

  /// Terminal's injection channel (terminal -> switch).
  [[nodiscard]] ChannelId terminal_up(NodeId n) const {
    return terminal_up_[static_cast<std::size_t>(n)];
  }
  /// Terminal's ejection channel (switch -> terminal).
  [[nodiscard]] ChannelId terminal_down(NodeId n) const {
    return terminal_down_[static_cast<std::size_t>(n)];
  }
  /// Switch the terminal is cabled to.
  [[nodiscard]] SwitchId attach_switch(NodeId n) const {
    return attach_[static_cast<std::size_t>(n)];
  }
  /// Terminals cabled to a switch, in attachment order.
  [[nodiscard]] std::span<const NodeId> switch_terminals(SwitchId sw) const {
    return switch_terminals_[static_cast<std::size_t>(sw)];
  }

  /// True if the channel connects two switches (not a terminal link).
  [[nodiscard]] bool is_switch_channel(ChannelId ch) const {
    const Channel& c = channel(ch);
    return c.src.is_switch() && c.dst.is_switch();
  }

  /// Count of *cables* (channel pairs) between switches, enabled only.
  [[nodiscard]] std::int64_t num_switch_links(bool enabled_only = true) const;

  /// Enabled switch-neighbours reachable in one hop (deduplicated).
  [[nodiscard]] std::vector<SwitchId> switch_neighbors(SwitchId sw) const;

  /// True if every switch can reach every other over enabled channels.
  [[nodiscard]] bool switches_connected() const;

  /// True if every switch with alive[sw] != 0 can reach every other alive
  /// switch over enabled channels through alive switches only.  Used by the
  /// fault scheduler: failed switches are expected casualties, the
  /// survivors must stay mutually connected.
  [[nodiscard]] bool switches_connected(std::span<const char> alive) const;

  /// Graphviz DOT dump (switches as boxes, terminals as points).
  [[nodiscard]] std::string to_dot() const;

 private:
  ChannelId add_channel(Endpoint src, Endpoint dst);

  std::string name_;
  std::vector<Channel> channels_;
  std::vector<std::vector<ChannelId>> switch_out_;
  std::vector<std::vector<NodeId>> switch_terminals_;
  std::vector<ChannelId> terminal_up_;
  std::vector<ChannelId> terminal_down_;
  std::vector<SwitchId> attach_;
};

}  // namespace hxsim::topo
