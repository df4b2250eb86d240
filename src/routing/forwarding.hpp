// Linear forwarding tables (LFT) and path extraction.
//
// InfiniBand switches forward by destination LID only: every switch holds a
// table dlid -> out-port.  We key the entry by the *out-channel* id, which
// identifies the port unambiguously and is what the simulators consume.
// A VlMap carries the per-path virtual-lane (service-level) assignment the
// deadlock-free engines compute alongside the LFTs.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/lid_space.hpp"
#include "topo/topology.hpp"

namespace hxsim::routing {

class ForwardingTables {
 public:
  ForwardingTables() = default;
  ForwardingTables(std::int32_t num_switches, Lid max_lid);

  void set(topo::SwitchId sw, Lid dlid, topo::ChannelId out);

  /// Out-channel at `sw` for `dlid`; kInvalidChannel if no route.
  [[nodiscard]] topo::ChannelId next(topo::SwitchId sw, Lid dlid) const {
    return table_[index(sw, dlid)];
  }

  [[nodiscard]] std::int32_t num_switches() const noexcept { return switches_; }
  [[nodiscard]] Lid max_lid() const noexcept { return max_lid_; }

  struct Path {
    bool ok = false;
    /// terminal-up, switch-switch..., switch-terminal channels in order.
    /// Empty (with ok) when src is the destination terminal itself.
    std::vector<topo::ChannelId> channels;

    /// Number of switch-to-switch hops.
    [[nodiscard]] std::int32_t switch_hops() const noexcept {
      return channels.size() >= 2
                 ? static_cast<std::int32_t>(channels.size()) - 2
                 : 0;
    }
  };

  /// Walks the tables from `src`'s switch to the owner of `dlid`.
  /// ok == false on: unassigned dlid, missing entry, disabled channel,
  /// or a forwarding loop (more hops than switches).
  [[nodiscard]] Path path(const topo::Topology& topo, const LidSpace& lids,
                          topo::NodeId src, Lid dlid) const;

  /// path() into a caller-owned buffer: `channels` is cleared, then holds
  /// the walked channels on success and is left empty on failure.  A
  /// reused buffer makes repeated walks allocation-free once it has grown
  /// to the longest path.
  [[nodiscard]] bool path_into(const topo::Topology& topo,
                               const LidSpace& lids, topo::NodeId src,
                               Lid dlid,
                               std::vector<topo::ChannelId>& channels) const;

  /// True if path() would succeed (cheaper: no vector is built).
  [[nodiscard]] bool reachable(const topo::Topology& topo,
                               const LidSpace& lids, topo::NodeId src,
                               Lid dlid) const;

  /// Entry-wise equality (the determinism tests compare 1-thread vs
  /// N-thread engine output).
  [[nodiscard]] bool operator==(const ForwardingTables&) const = default;

 private:
  [[nodiscard]] std::size_t index(topo::SwitchId sw, Lid dlid) const {
    return static_cast<std::size_t>(sw) *
               (static_cast<std::size_t>(max_lid_) + 1) +
           static_cast<std::size_t>(dlid);
  }

  std::int32_t switches_ = 0;
  Lid max_lid_ = kInvalidLid;
  std::vector<topo::ChannelId> table_;
};

/// Virtual-lane assignment per (source switch, destination LID).
class VlMap {
 public:
  VlMap() = default;
  VlMap(std::int32_t num_switches, Lid max_lid);

  void set(topo::SwitchId sw, Lid dlid, std::int8_t vl);
  [[nodiscard]] std::int8_t vl(topo::SwitchId sw, Lid dlid) const {
    if (table_.empty()) return 0;
    return table_[static_cast<std::size_t>(sw) *
                      (static_cast<std::size_t>(max_lid_) + 1) +
                  static_cast<std::size_t>(dlid)];
  }
  [[nodiscard]] std::int8_t max_vl() const noexcept { return max_vl_; }
  /// Shape of the map (0 switches when default-constructed: every lookup
  /// then answers VL 0).
  [[nodiscard]] std::int32_t num_switches() const noexcept { return switches_; }
  [[nodiscard]] Lid max_lid() const noexcept { return max_lid_; }

  [[nodiscard]] bool operator==(const VlMap&) const = default;

 private:
  std::int32_t switches_ = 0;
  Lid max_lid_ = kInvalidLid;
  std::int8_t max_vl_ = 0;
  std::vector<std::int8_t> table_;
};

}  // namespace hxsim::routing
