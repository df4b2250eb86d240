#include "audit/naive_layering.hpp"

#include <algorithm>
#include <vector>

namespace hxsim::audit {

namespace {

/// One lane's dependency edges as plain adjacency lists.
class Lane {
 public:
  explicit Lane(std::int32_t num_channels)
      : out_(static_cast<std::size_t>(num_channels)),
        seen_(static_cast<std::size_t>(num_channels), 0) {}

  [[nodiscard]] bool has(std::int32_t u, std::int32_t v) const {
    const auto& outs = out_[static_cast<std::size_t>(u)];
    return std::find(outs.begin(), outs.end(), v) != outs.end();
  }
  void add(std::int32_t u, std::int32_t v) {
    out_[static_cast<std::size_t>(u)].push_back(v);
  }
  void remove(std::int32_t u, std::int32_t v) {
    auto& outs = out_[static_cast<std::size_t>(u)];
    outs.erase(std::find(outs.begin(), outs.end(), v));
  }

  /// Breadth-first search over the current edges: is `to` reachable from
  /// `from` (a node reaches itself)?
  [[nodiscard]] bool reaches(std::int32_t from, std::int32_t to) {
    ++stamp_;
    queue_.assign(1, from);
    seen_[static_cast<std::size_t>(from)] = stamp_;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const std::int32_t w = queue_[head];
      if (w == to) return true;
      for (const std::int32_t next : out_[static_cast<std::size_t>(w)]) {
        if (seen_[static_cast<std::size_t>(next)] == stamp_) continue;
        seen_[static_cast<std::size_t>(next)] = stamp_;
        queue_.push_back(next);
      }
    }
    return false;
  }

 private:
  std::vector<std::vector<std::int32_t>> out_;
  std::vector<std::uint64_t> seen_;
  std::uint64_t stamp_ = 0;
  std::vector<std::int32_t> queue_;
};

}  // namespace

NaiveLayering naive_vl_layering(const topo::Topology& topo,
                                const routing::LidSpace& lids,
                                const routing::ForwardingTables& tables,
                                std::int32_t max_vls) {
  NaiveLayering out;
  out.vls = routing::VlMap(topo.num_switches(), lids.max_lid());
  std::vector<Lane> lanes(static_cast<std::size_t>(std::max(max_vls, 0)),
                          Lane(topo.num_channels()));
  std::vector<std::int32_t> path;
  std::vector<std::pair<std::int32_t, std::int32_t>> added;

  for (const routing::Lid dlid : lids.all_lids()) {
    const topo::SwitchId dest_sw =
        topo.attach_switch(lids.owner(dlid).node);
    for (topo::SwitchId src = 0; src < topo.num_switches(); ++src) {
      if (src == dest_sw) continue;
      // The switch-to-switch channels from src to the owner's switch; a
      // missing entry, a loop, or an exit to a foreign terminal skips the
      // path and leaves its VL entry at 0.
      path.clear();
      topo::SwitchId at = src;
      bool ok = true;
      while (at != dest_sw) {
        const topo::ChannelId ch = tables.next(at, dlid);
        if (ch == topo::kInvalidChannel ||
            static_cast<std::int32_t>(path.size()) > topo.num_switches() ||
            !topo.channel(ch).dst.is_switch()) {
          ok = false;
          break;
        }
        path.push_back(ch);
        at = topo.channel(ch).dst.index;
      }
      if (!ok || path.empty()) continue;

      std::int32_t placed = -1;
      if (path.size() < 2) {
        placed = 0;  // no dependency: the first lane
      } else {
        for (std::int32_t vl = 0; vl < max_vls && placed < 0; ++vl) {
          Lane& lane = lanes[static_cast<std::size_t>(vl)];
          added.clear();
          bool fits = true;
          for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const std::int32_t u = path[i];
            const std::int32_t v = path[i + 1];
            if (lane.has(u, v)) continue;
            if (lane.reaches(v, u)) {
              fits = false;
              break;
            }
            lane.add(u, v);
            added.emplace_back(u, v);
          }
          if (fits) {
            placed = vl;
          } else {
            for (const auto& [u, v] : added) lane.remove(u, v);
          }
        }
      }
      if (placed < 0) {
        out.fits = false;
        return out;
      }
      out.vls.set(src, dlid, static_cast<std::int8_t>(placed));
      out.num_vls_used = std::max(out.num_vls_used, placed + 1);
    }
  }
  return out;
}

}  // namespace hxsim::audit
