// Fuzz-audit scenarios: seeded random (fabric, engine, faults, traffic)
// tuples and their deterministic repro format.
//
// The repo holds two pairs of independently-implemented pipelines to
// bit-identity (typed vs reference PktSim, warm vs cold flow solves), but
// hand-picked paper fabrics exercise only a sliver of the input space --
// exactly how the seed's latent bugs (per-VL occupancy misattribution,
// truncation conflated with deadlock) survived.
// A Scenario is one randomly drawn point of that space: a HyperX lattice
// or (tapered, possibly part-populated) fat-tree within size bounds, a
// routing engine valid for that fabric, a multi-stage FaultSchedule, and
// a seeded traffic set.  Everything is deterministic in the scenario
// seed, so any oracle failure replays from a few key-value lines (the
// repro format below) -- no fabric dumps, no RNG state capture.
//
// Repro format (version-tagged, one `key value` pair per line, `#`
// comments ignored):
//
//   hxsim-fuzz-repro v1
//   kind hyperx
//   dims 4,3
//   terminals_per_switch 2
//   engine dfsssp
//   fault_stages 2
//   ...
//
// write_repro()/read_repro() round-trip a Scenario through that text;
// `bench/fuzz_audit --repro <file>` replays it against every oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "routing/engine.hpp"
#include "routing/lid_space.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"
#include "workloads/pkt_sweep.hpp"

namespace hxsim::audit {

enum class TopoKind : std::int8_t { kHyperX, kFatTree };

[[nodiscard]] const char* to_string(TopoKind kind);

/// Size ceilings for generated scenarios.  Small on purpose: oracle cost
/// is superlinear in fabric size (route census is O(n^2) pairs), and bug
/// density per CPU-second is highest on many small fabrics, not few big
/// ones.
struct ScenarioBounds {
  std::int32_t max_switches = 48;
  std::int32_t max_terminals = 96;
  std::int32_t max_fault_stages = 3;
  std::int32_t max_messages = 48;
};

/// One generated test case.  Plain data, fully deterministic to rebuild:
/// equality (and the repro format) covers every field that influences an
/// oracle verdict.
struct Scenario {
  TopoKind kind = TopoKind::kHyperX;
  topo::HyperXParams hyperx;    // used when kind == kHyperX
  topo::FatTreeParams fat_tree; // used when kind == kFatTree
  /// Routing engine name: ftree | updown | sssp | dfsssp | parx.
  /// ftree is fat-tree-only; parx requires a 2-D even-dims HyperX.
  std::string engine = "updown";
  topo::FaultSchedule::Options faults{.stages = 0,
                                      .links_per_stage = 0,
                                      .switches_per_stage = 0,
                                      .seed = 1,
                                      .keep_connected = true};
  workloads::PktPatternSpec traffic;
  std::uint64_t traffic_seed = 1;
  /// Random routable pairs fed to the flow-solve invariant oracle.
  std::int32_t flow_pairs = 8;

  friend bool operator==(const Scenario&, const Scenario&);
};

/// Draws a scenario from the seed, within the bounds.  Deterministic:
/// the same (seed, bounds) always yields the same scenario, so an audit
/// sweep over seeds 1..N is exactly reproducible.
[[nodiscard]] Scenario generate_scenario(std::uint64_t seed,
                                         const ScenarioBounds& bounds = {});

/// Throws std::invalid_argument naming the first structural problem
/// (engine/fabric mismatch, empty dims, taper not dividing arity, ...).
/// Shrink candidates are filtered through this before being tried.
void validate_scenario(const Scenario& scenario);

/// The built form of a scenario: the owning topology wrapper, the LID
/// space the engine expects (PARX: quadrant-grouped LMC=2; everyone else:
/// consecutive LMC=0), and the planned fault schedule (not yet applied).
struct Fabric {
  std::unique_ptr<topo::HyperX> hyperx;
  std::unique_ptr<topo::FatTree> fat_tree;
  std::optional<routing::LidSpace> lids;
  topo::FaultSchedule faults;

  [[nodiscard]] topo::Topology& topo() {
    return hyperx ? hyperx->topo() : fat_tree->topo();
  }
  [[nodiscard]] const topo::Topology& topo() const {
    return hyperx ? hyperx->topo() : fat_tree->topo();
  }
};

/// Validates, builds the fabric, and plans the fault schedule.
[[nodiscard]] Fabric build_fabric(const Scenario& scenario);

/// Virtual-lane budget of the layered engines (dfsssp, parx) under audit:
/// the paper's 8 QDR lanes.
inline constexpr std::int32_t kScenarioMaxVls = 8;

/// Fresh engine instance for the scenario's `engine` on this fabric --
/// one per call, so differential oracles can compare two independent
/// computations of the same tables.
[[nodiscard]] std::unique_ptr<routing::RoutingEngine> make_engine(
    const Scenario& scenario, const Fabric& fabric);

/// The scenario's traffic spec normalised for a fabric of `num_terminals`:
/// the shift distance is folded into [1, N-1] so it stays nonzero mod N on
/// any fabric a shrink step may produce.  Deterministic in its arguments.
[[nodiscard]] workloads::PktPatternSpec effective_traffic(
    const Scenario& scenario, std::int32_t num_terminals);

/// Scenario <-> repro text (see the header comment for the format).
[[nodiscard]] std::string to_repro(const Scenario& scenario);
[[nodiscard]] Scenario parse_repro(const std::string& text);
void write_repro(const std::string& path, const Scenario& scenario);
[[nodiscard]] Scenario read_repro(const std::string& path);

}  // namespace hxsim::audit
