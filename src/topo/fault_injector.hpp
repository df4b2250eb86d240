// Resilience subsystem: deterministic, seedable fault schedules
// (paper Section 2.3 and footnote 7).
//
// The paper's testbed was a *degraded* machine: 15 of 684 HyperX AOCs and
// 197 of 2662 fat-tree links were broken, and PARX's pruned LID routes lost
// additional LID pairs on the faulty fabric ("lost LIDs", footnote 7).
// This header models that reality as data:
//
//  - FaultEvent: one failure -- a cable (kLink), a whole switch and all of
//    its inter-switch cables (kSwitch), or a pre-computed cable group such
//    as one HyperX dimension plane (kPlane, hyperx_plane_fault()).
//  - FaultStage: the events of one degradation round.  Campaigns model the
//    operational "fail k, reroute, fail k more" sequence as one stage per
//    round.
//  - FaultSchedule: an ordered list of stages *planned up front* against a
//    scratch copy of the fabric.  Planning is fully deterministic in the
//    seed (and independent of the exec-layer thread count: all RNG draws
//    are serial), so a campaign can be replayed bit-identically, and
//    apply_stage()/revert() replay or undo it on the real topology.
//
// inject_link_faults() survives as the one-stage convenience wrapper; for
// a given (count, seed) it disables exactly the cables it always has.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/topology.hpp"

namespace hxsim::topo {

class HyperX;

enum class FaultKind : std::uint8_t { kLink, kSwitch, kPlane };

/// One failure.  `cables` lists the forward channel id of every cable the
/// event disables (exactly one for kLink; a switch's whole inter-switch
/// cabling for kSwitch; the planner-supplied group for kPlane).
struct FaultEvent {
  FaultKind kind = FaultKind::kLink;
  /// kLink: the cable's forward channel id.  kSwitch: the switch id.
  /// kPlane: dim * kPlaneVictimStride + coord (see hyperx_plane_fault).
  std::int32_t victim = -1;
  std::vector<ChannelId> cables;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

inline constexpr std::int32_t kPlaneVictimStride = 10000;

/// One degradation round of a schedule.
struct FaultStage {
  std::vector<FaultEvent> events;
  /// Candidates the planner rejected because applying them would have
  /// disconnected the surviving switch graph (keep_connected mode).
  std::int32_t skipped_for_connectivity = 0;
  /// Optional simulation timestamp [s].  Negative (the default) marks an
  /// untimed stage: damage applied *between* runs, the classic campaign
  /// model.  A non-negative value stamps the stage for the packet engine's
  /// online fault feed (sim/online.hpp timed_faults()): the cables die
  /// mid-run at this instant.  Untouched by plan(); set by the caller.
  double at_time = -1.0;

  /// Cables disabled by this stage (union over events).
  [[nodiscard]] std::int64_t num_cables() const;

  friend bool operator==(const FaultStage&, const FaultStage&) = default;
};

struct FaultReport {
  /// Forward channel id of every disabled cable, in disable order.
  std::vector<ChannelId> disabled_links;
  /// Switch events that newly disabled at least one cable.  Events whose
  /// cables were all already down (overlapping appended stages, replays)
  /// do not count, mirroring how disabled_links only lists new damage.
  std::int32_t switches_failed = 0;
  /// Candidates skipped because disabling them would disconnect switches.
  std::int32_t skipped_for_connectivity = 0;
};

class FaultSchedule {
 public:
  struct Options {
    /// Degradation rounds ("fail, reroute, fail again").
    std::int32_t stages = 1;
    /// Random cable failures per stage.
    std::int32_t links_per_stage = 0;
    /// Random whole-switch failures per stage (all inter-switch cables of
    /// the victim go down; its terminals stay cabled and become the lost
    /// LIDs of footnote 7).
    std::int32_t switches_per_stage = 0;
    std::uint64_t seed = 1;
    /// Reject candidates that would disconnect the *surviving* switches
    /// (failed switches are expected casualties, everyone else must still
    /// reach everyone else), like the paper's degraded-but-operational
    /// fabrics.
    bool keep_connected = true;
  };

  FaultSchedule() = default;

  /// Plans a schedule against a scratch copy of `topo`: victims are drawn
  /// from one seeded shuffle per fault kind and consumed stage by stage,
  /// each stage seeing the damage of all earlier ones.  Deterministic in
  /// (topology, options); never mutates `topo`.
  [[nodiscard]] static FaultSchedule plan(const Topology& topo,
                                          const Options& options);

  /// Appends a hand-built stage (e.g. a plane fault).  No connectivity
  /// filtering is applied to appended stages.
  void append_stage(FaultStage stage);

  /// Stamps stage `i` with a simulation timestamp for the online fault
  /// feed (see FaultStage::at_time).
  void set_stage_time(std::int32_t i, double at_time) {
    stages_[static_cast<std::size_t>(i)].at_time = at_time;
  }

  [[nodiscard]] std::int32_t num_stages() const noexcept {
    return static_cast<std::int32_t>(stages_.size());
  }
  [[nodiscard]] const FaultStage& stage(std::int32_t i) const {
    return stages_[static_cast<std::size_t>(i)];
  }
  /// Cables disabled by the whole schedule.
  [[nodiscard]] std::int64_t total_cables() const;

  /// Replays stage `i` onto `topo` (which must be the fabric the schedule
  /// was planned for, in its stage-(i-1) state -- stages assume the damage
  /// of their predecessors).  Returns the cables newly disabled.
  FaultReport apply_stage(Topology& topo, std::int32_t i) const;
  /// Applies stages [0, last] in order; [0, num_stages()) for apply_all.
  FaultReport apply_through(Topology& topo, std::int32_t last) const;
  FaultReport apply_all(Topology& topo) const;

  /// Re-enables every cable named anywhere in the schedule, restoring the
  /// fabric the plan started from.
  void revert(Topology& topo) const;

  /// Human-readable stage/event listing (operator debugging).
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FaultStage> stages_;
};

/// RAII fabric restore: re-enables every cable of `schedule` on scope exit,
/// whether the scope is left normally or by exception.  Campaigns that
/// share a fabric across engines (workloads/resilience.cpp) wrap their
/// apply/reroute/solve block in one of these so an engine throw mid-stage
/// can no longer leave the fabric faulted for subsequent callers.
class ScheduleRevertGuard {
 public:
  ScheduleRevertGuard(Topology& topo, const FaultSchedule& schedule) noexcept
      : topo_(&topo), schedule_(&schedule) {}
  ~ScheduleRevertGuard() { schedule_->revert(*topo_); }
  ScheduleRevertGuard(const ScheduleRevertGuard&) = delete;
  ScheduleRevertGuard& operator=(const ScheduleRevertGuard&) = delete;

 private:
  Topology* topo_;
  const FaultSchedule* schedule_;
};

/// Disables `count` randomly chosen enabled switch-to-switch cables.
/// With keep_connected the sample avoids cuts that disconnect the switch
/// graph; if fewer than `count` safe candidates exist, fewer are disabled.
/// Equivalent to planning and applying a one-stage link-only FaultSchedule
/// with the same seed.
FaultReport inject_link_faults(Topology& topo, std::int32_t count,
                               std::uint64_t seed, bool keep_connected = true);

/// A whole-plane failure on a HyperX: every dimension-`dim` cable incident
/// to a switch whose coordinate in `dim` equals `coord` (e.g. one lattice
/// column losing its entire row cabling -- a cut AOC bundle or cable tray).
/// In 3+ dimensions traffic detours through the surviving dimensions; in
/// 2-D the affected column has no other route out, so the fault isolates
/// it and its terminals become footnote-7 lost LIDs.  The event's victim
/// encodes dim * kPlaneVictimStride + coord.
[[nodiscard]] FaultEvent hyperx_plane_fault(const HyperX& hx, std::int32_t dim,
                                            std::int32_t coord);

/// Paper fault counts.
inline constexpr std::int32_t kPaperHyperXMissingLinks = 15;
inline constexpr std::int32_t kPaperFatTreeMissingLinks = 197;

}  // namespace hxsim::topo
