#include "topo/fault_injector.hpp"

#include <algorithm>
#include <stdexcept>

#include "stats/rng.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::topo {

std::int64_t FaultStage::num_cables() const {
  std::int64_t n = 0;
  for (const FaultEvent& e : events)
    n += static_cast<std::int64_t>(e.cables.size());
  return n;
}

FaultSchedule FaultSchedule::plan(const Topology& topo,
                                  const Options& options) {
  FaultSchedule sched;
  if (options.stages <= 0) return sched;

  // Plan against a private copy so the caller's fabric is untouched; the
  // scratch accumulates damage so stage k sees stages [0, k).
  Topology scratch = topo;
  std::vector<char> alive(static_cast<std::size_t>(topo.num_switches()), 1);

  // Legacy candidate order: enabled inter-switch cables by ascending
  // forward channel id, then one seeded shuffle.  The link shuffle is the
  // first RNG draw so that a link-only single-stage plan picks exactly the
  // cables inject_link_faults always has for the same seed.
  std::vector<ChannelId> link_candidates;
  for (ChannelId ch = 0; ch < scratch.num_channels(); ++ch) {
    const Channel& c = scratch.channel(ch);
    if (!c.enabled || !scratch.is_switch_channel(ch)) continue;
    if (ch > c.reverse) continue;  // one entry per cable
    link_candidates.push_back(ch);
  }
  std::vector<SwitchId> switch_candidates(
      static_cast<std::size_t>(scratch.num_switches()));
  for (SwitchId sw = 0; sw < scratch.num_switches(); ++sw)
    switch_candidates[static_cast<std::size_t>(sw)] = sw;

  stats::Rng rng(options.seed);
  rng.shuffle(link_candidates);
  rng.shuffle(switch_candidates);

  std::size_t li = 0;
  std::size_t si = 0;
  for (std::int32_t s = 0; s < options.stages; ++s) {
    FaultStage stage;

    // Switch failures first: a dead switch takes its cabling with it, so
    // the stage's random link faults always hit still-live cables.
    std::int32_t switches_done = 0;
    while (switches_done < options.switches_per_stage &&
           si < switch_candidates.size()) {
      const SwitchId sw = switch_candidates[si++];
      if (!alive[static_cast<std::size_t>(sw)]) continue;
      FaultEvent ev{FaultKind::kSwitch, sw, {}};
      for (ChannelId ch : scratch.switch_out(sw)) {
        const Channel& c = scratch.channel(ch);
        if (!c.enabled || !c.dst.is_switch()) continue;
        ev.cables.push_back(std::min(ch, c.reverse));
      }
      alive[static_cast<std::size_t>(sw)] = 0;
      for (ChannelId ch : ev.cables) scratch.disable_link(ch);
      if (options.keep_connected && !scratch.switches_connected(alive)) {
        for (ChannelId ch : ev.cables) scratch.enable_link(ch);
        alive[static_cast<std::size_t>(sw)] = 1;
        ++stage.skipped_for_connectivity;
        continue;
      }
      stage.events.push_back(std::move(ev));
      ++switches_done;
    }

    std::int32_t links_done = 0;
    while (links_done < options.links_per_stage &&
           li < link_candidates.size()) {
      const ChannelId ch = link_candidates[li++];
      if (!scratch.channel(ch).enabled) continue;  // died with a switch
      scratch.disable_link(ch);
      if (options.keep_connected && !scratch.switches_connected(alive)) {
        scratch.enable_link(ch);
        ++stage.skipped_for_connectivity;
        continue;
      }
      stage.events.push_back(FaultEvent{FaultKind::kLink, ch, {ch}});
      ++links_done;
    }

    sched.append_stage(std::move(stage));
  }
  return sched;
}

void FaultSchedule::append_stage(FaultStage stage) {
  stages_.push_back(std::move(stage));
}

std::int64_t FaultSchedule::total_cables() const {
  std::int64_t n = 0;
  for (const FaultStage& s : stages_) n += s.num_cables();
  return n;
}

FaultReport FaultSchedule::apply_stage(Topology& topo, std::int32_t i) const {
  const FaultStage& s = stage(i);
  FaultReport report;
  report.skipped_for_connectivity = s.skipped_for_connectivity;
  for (const FaultEvent& ev : s.events) {
    bool any_new = false;
    for (const ChannelId ch : ev.cables) {
      if (!topo.channel(ch).enabled) continue;  // appended stages may overlap
      topo.disable_link(ch);
      report.disabled_links.push_back(ch);
      any_new = true;
    }
    if (ev.kind == FaultKind::kSwitch && any_new) ++report.switches_failed;
  }
  return report;
}

FaultReport FaultSchedule::apply_through(Topology& topo,
                                         std::int32_t last) const {
  FaultReport report;
  for (std::int32_t i = 0; i <= last; ++i) {
    FaultReport r = apply_stage(topo, i);
    report.disabled_links.insert(report.disabled_links.end(),
                                 r.disabled_links.begin(),
                                 r.disabled_links.end());
    report.switches_failed += r.switches_failed;
    report.skipped_for_connectivity += r.skipped_for_connectivity;
  }
  return report;
}

FaultReport FaultSchedule::apply_all(Topology& topo) const {
  return apply_through(topo, num_stages() - 1);
}

void FaultSchedule::revert(Topology& topo) const {
  for (const FaultStage& s : stages_)
    for (const FaultEvent& ev : s.events)
      for (const ChannelId ch : ev.cables) topo.enable_link(ch);
}

std::string FaultSchedule::to_string() const {
  std::string out;
  for (std::int32_t i = 0; i < num_stages(); ++i) {
    const FaultStage& s = stage(i);
    out += "stage " + std::to_string(i) + " (" +
           std::to_string(s.num_cables()) + " cables";
    if (s.skipped_for_connectivity > 0)
      out += ", " + std::to_string(s.skipped_for_connectivity) +
             " skipped for connectivity";
    out += "):\n";
    for (const FaultEvent& ev : s.events) {
      switch (ev.kind) {
        case FaultKind::kLink:
          out += "  link ch" + std::to_string(ev.victim) + "\n";
          break;
        case FaultKind::kSwitch:
          out += "  switch s" + std::to_string(ev.victim) + " (" +
                 std::to_string(ev.cables.size()) + " cables)\n";
          break;
        case FaultKind::kPlane:
          out += "  plane dim " +
                 std::to_string(ev.victim / kPlaneVictimStride) + " coord " +
                 std::to_string(ev.victim % kPlaneVictimStride) + " (" +
                 std::to_string(ev.cables.size()) + " cables)\n";
          break;
      }
    }
  }
  return out;
}

FaultReport inject_link_faults(Topology& topo, std::int32_t count,
                               std::uint64_t seed, bool keep_connected) {
  if (count <= 0) return {};
  FaultSchedule::Options options;
  options.stages = 1;
  options.links_per_stage = count;
  options.seed = seed;
  options.keep_connected = keep_connected;
  return FaultSchedule::plan(topo, options).apply_stage(topo, 0);
}

FaultEvent hyperx_plane_fault(const HyperX& hx, std::int32_t dim,
                              std::int32_t coord) {
  if (dim < 0 || dim >= hx.num_dims())
    throw std::out_of_range("hyperx_plane_fault: bad dimension");
  if (coord < 0 || coord >= hx.dim_size(dim))
    throw std::out_of_range("hyperx_plane_fault: bad coordinate");
  const Topology& topo = hx.topo();
  FaultEvent ev{FaultKind::kPlane, dim * kPlaneVictimStride + coord, {}};
  for (SwitchId sw = 0; sw < topo.num_switches(); ++sw) {
    if (hx.coord(sw, dim) != coord) continue;
    for (std::int32_t value = 0; value < hx.dim_size(dim); ++value) {
      const ChannelId ch = hx.dim_channel(sw, dim, value);
      if (ch == kInvalidChannel) continue;
      const Channel& c = topo.channel(ch);
      // The far endpoint has a different `dim` coordinate, so each plane
      // cable is seen exactly once (from its in-plane side).
      ev.cables.push_back(std::min(ch, c.reverse));
    }
  }
  return ev;
}

}  // namespace hxsim::topo
