// Replays of the production entry points through their public sub-calls.
//
// Each replay re-executes what one library entry point does, in the same
// order and with the same RNG consumption, but phase by phase so that every
// layer can be timed without a clock read per message.  The results must be
// bit-identical to the production call; the workloads digest both and fail
// the op otherwise.  A change that bypasses one of the replayed sub-calls
// is invisible to the replay and shows up as mpi.replay_gap_s instead.
#pragma once

#include <cstdint>
#include <vector>

#include "hxbench.hpp"
#include "mpi/cluster.hpp"
#include "routing/engine.hpp"
#include "topo/hyperx.hpp"
#include "workloads/ebb.hpp"
#include "workloads/mpigraph.hpp"
#include "workloads/paper_system.hpp"
#include "workloads/pkt_sweep.hpp"

namespace hxbench {

/// DFSSSP's VL budget, the paper's 8, which PaperSystem routes with.  No
/// public value carries it; if it drifts, the set-up replay's RouteResult
/// check fails the traced run.
inline constexpr std::int32_t kDfssspVls = 8;

/// Transport(cluster, placement, seed).execute_rounds(schedule).
[[nodiscard]] std::vector<double> replay_execute_rounds(
    const hxsim::mpi::Cluster& cluster,
    const hxsim::mpi::Placement& placement, std::uint64_t seed,
    const hxsim::mpi::Schedule& schedule, Tracer& tracer);

/// workloads::mpigraph: the heatmap cells, row-major.
[[nodiscard]] std::vector<double> replay_mpigraph(
    const hxsim::mpi::Cluster& cluster,
    const hxsim::mpi::Placement& placement, std::int32_t nodes_used,
    const hxsim::workloads::MpiGraphOptions& options, Tracer& tracer);

/// workloads::effective_bisection_bandwidth: the sample means.
[[nodiscard]] std::vector<double> replay_ebb(
    const hxsim::mpi::Cluster& cluster,
    const hxsim::mpi::Placement& placement, std::int32_t nodes_used,
    const hxsim::workloads::EbbOptions& options, Tracer& tracer);

/// workloads::run_pkt_sweep for one arm and one pattern.
[[nodiscard]] std::vector<hxsim::workloads::PktReplicationResult>
replay_pkt_sweep(const hxsim::topo::Topology& topo,
                 const hxsim::workloads::PktRoutingArm& arm,
                 const hxsim::workloads::PktPatternSpec& pattern,
                 const hxsim::workloads::PktSweepOptions& options,
                 Tracer& tracer);

/// The PaperSystem constructor: both planes rebuilt with the fault sample
/// of `fault_seed`, then ftree, DFSSSP on both planes and PARX on the
/// system's own planes.  Throws unless each engine's RouteResult equals the
/// system's.
void replay_paper_system(const hxsim::workloads::PaperSystem& system,
                         std::uint64_t fault_seed, Tracer& tracer);

/// The packet workload's intact HyperX and its DFSSSP routing; throws
/// unless the RouteResult equals `route`.
void replay_intact_hyperx(const hxsim::topo::HyperX& hx,
                          const hxsim::routing::RouteResult& route,
                          Tracer& tracer);

/// Digest of the fields run_pkt_sweep reports per replication.
[[nodiscard]] std::uint64_t digest_of(
    std::span<const hxsim::workloads::PktReplicationResult> results);

}  // namespace hxbench
