// DFSSSP: deadlock-free SSSP routing (Domke, Hoefler, Nagel [17]).
//
// Runs the SSSP balancing pass, then distributes the resulting paths over
// virtual lanes such that each lane's channel dependency graph is acyclic.
// The paper uses DFSSSP as the default HyperX routing (3 VLs suffice on the
// 12x8) and as the base algorithm PARX modifies.
//
// Paper cross-reference: Sections 2.1 and 3.2; PARX (Section 3.2.3,
// Algorithm 1) reuses assign_vls() below after routing each quadrant's
// pruned fabric per rules R1-R4 (core/quadrant.hpp), which is why PARX
// tables always verify acyclic in routing/verify.hpp's fabric audit.
// DFSSSP's VL budget is the failure mode the resilience campaign probes:
// heavy degradation can push the layering past max_vls (a thrown
// std::runtime_error, recorded as an engine-failed sample).
#pragma once

#include "routing/engine.hpp"
#include "routing/sssp.hpp"

namespace hxsim::routing {

class DfssspEngine final : public RoutingEngine {
 public:
  /// max_vls: hardware virtual-lane budget (paper: 8 on QDR InfiniBand).
  /// threads == 0 uses exec::default_threads(); the SSSP base pass batches
  /// destinations by SsspEngine::kBatch, so results stay bit-identical
  /// across thread counts.
  explicit DfssspEngine(std::int32_t max_vls = 8, std::int32_t threads = 0)
      : max_vls_(max_vls), threads_(threads) {}

  [[nodiscard]] std::string name() const override { return "dfsssp"; }
  [[nodiscard]] RouteResult compute(const topo::Topology& topo,
                                    const LidSpace& lids) override;

  /// Attaches a phase-timer sink (not owned; nullptr detaches): compute()
  /// accumulates the SSSP phases ("spf_trees", "table_merge") plus the VL
  /// phases ("vl_path_extraction", "vl_placement").  Observational only.
  void set_timings(obs::PhaseTimings* timings) noexcept {
    timings_ = timings;
  }

  /// Assigns virtual lanes for every (source switch, dlid) path of an
  /// existing table set; shared with the PARX engine.  Throws
  /// std::runtime_error if the paths cannot be layered within max_vls.
  /// Path extraction runs on `threads` workers; the greedy VL placement
  /// itself stays serial in (dlid, source) order, so the layering is
  /// identical to the historical single-threaded walk.  `timings`, when
  /// given, receives the two VL phase wall-times.
  static void assign_vls(const topo::Topology& topo, const LidSpace& lids,
                         const ForwardingTables& tables, std::int32_t max_vls,
                         RouteResult& result, std::int32_t threads = 0,
                         obs::PhaseTimings* timings = nullptr);

 private:
  std::int32_t max_vls_;
  std::int32_t threads_;
  obs::PhaseTimings* timings_ = nullptr;
};

}  // namespace hxsim::routing
