// Invariant oracles of the fuzz-audit subsystem.
//
// Two layers:
//
//  - Granular checks (check_*): pure predicates over results the caller
//    already computed.  They exist separately so tests can prove each one
//    *fails* on deliberately corrupted input -- an oracle that cannot fail
//    verifies nothing.
//  - Scenario oracles (all_oracles()): build a Scenario's fabric and drive
//    a whole pipeline pair through it, asserting the repo's standing
//    bit-identity and conservation contracts:
//      pktsim_identity   typed engine vs the reference engine
//                        (reference_pktsim.hpp), bit for bit
//      pkt_conservation  delivered+undelivered == total, trace on/off
//                        identical + consistent, truncation =/= deadlock
//      sweep_determinism run_pkt_sweep at 1 vs 4 threads (static + DAL +
//                        Valiant arms)
//      online_fault      timed faults after quiesce change nothing but the
//                        fault events; mid-run faults with retry hold the
//                        typed/reference identity and run_batch
//                        thread-count invariance, drops conserved
//      table_audit       verify_deadlock_freedom + route_census on the
//                        shipped tables, per fault stage, scoped to each
//                        engine's actual guarantee (sssp is not
//                        deadlock-free; ftree/parx may legally lose pairs
//                        on faulted fabrics -- see the .cpp); for dfsssp
//                        and parx, the shipped VlMap and num_vls_used
//                        equal the naive BFS re-layering bit for bit
//      flow_invariants   max-min feasibility (sum rates <= capacity) and
//                        bottleneck optimality for every unfrozen flow
//      flowsim_engine_identity
//                        kIndexed and kAdaptive vs kReference max-min
//                        core: rates and FlowSolveRecord bit for bit,
//                        levels monotone,
//                        pristine and faulted fabrics alike
//
// Oracles treat a *deterministic* engine refusal (e.g. DFSSSP exhausting
// its VL budget on a hostile fabric) as a skip, not a failure; anything
// else escaping an oracle is caught by run_oracle and reported as one.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "audit/scenario.hpp"
#include "routing/verify.hpp"
#include "sim/flowsim.hpp"
#include "sim/pktsim.hpp"

namespace hxsim::audit {

struct OracleResult {
  bool pass = true;
  /// Failure (or skip) explanation; empty on a plain pass.
  std::string detail;
};

[[nodiscard]] inline OracleResult oracle_pass() { return {}; }
[[nodiscard]] OracleResult oracle_fail(std::string detail);

// --- granular checks -------------------------------------------------------

/// Bitwise PktSim result equality: sim::first_difference as an oracle,
/// the detail naming the first differing field.
[[nodiscard]] OracleResult check_pkt_results_equal(
    const sim::PktSim::Result& a, const sim::PktSim::Result& b);

/// Packet conservation: delivered + dropped segments == total on a clean
/// run (a clean *dropless* run delivered everything and left no message
/// incomplete), per-cause drop counters sum to packets_dropped, deadlock
/// and truncated are mutually exclusive, and message_status (when the
/// online layer sized it) agrees with the completion vector.
[[nodiscard]] OracleResult check_pkt_conservation(
    std::span<const sim::PktMessage> messages, const sim::PktSim::Result& r);

/// Quiesced-fault equivalence: a timed-fault feed firing strictly after
/// the base run quiesced must change nothing but execute the fault events
/// themselves.  Equality is bitwise after crediting `base` with
/// `extra_events` (one per fault feed entry) and with the clock advance to
/// `last_fault_time` (the feed's latest timestamp: processing the fault
/// event legitimately moves end_time there); drop/retry accounting must
/// be EQUAL between the two runs, not zero, so the predicate also serves
/// shifted-feed comparisons on already-degraded traffic.
[[nodiscard]] OracleResult check_online_quiesced_equivalent(
    const sim::PktSim::Result& quiesced, const sim::PktSim::Result& base,
    std::int64_t extra_events, double last_fault_time);

/// Field-wise run_pkt_sweep summary equality (doubles by bits): the
/// sweep's thread-count determinism contract.
[[nodiscard]] bool replication_equal(const workloads::PktReplicationResult& a,
                                     const workloads::PktReplicationResult& b);

/// Bitwise equality of two run_batch result vectors (the thread-count
/// invariance contract: every replication field-for-field identical).
[[nodiscard]] OracleResult check_pkt_batches_equal(
    std::span<const sim::PktSim::Result> a,
    std::span<const sim::PktSim::Result> b);

/// PktTrace counters consistent with the result: terminal-down crossings
/// sum to packets_delivered, no negative counters, and on a clean run
/// every credit-budgeted channel got all its credits back.
[[nodiscard]] OracleResult check_trace_consistency(
    const topo::Topology& topo, const sim::PktSimConfig& config,
    const sim::PktSim::Result& r, const obs::PktTrace& trace);

/// What a scenario's engine guarantees on the current fabric state.
struct TableExpectations {
  /// The per-VL channel dependency graphs must all be acyclic.
  bool require_acyclic = true;
  /// No (alive src, alive dst) pair may be lost.
  bool require_no_lost_pairs = true;
  /// Terminal alive mask (empty: all terminals).
  std::span<const char> terminals;
};

/// verify_deadlock_freedom + route_census on shipped tables, plus census
/// self-consistency (pair arithmetic) that holds for every engine.
[[nodiscard]] OracleResult check_shipped_tables(
    const topo::Topology& topo, const routing::LidSpace& lids,
    const routing::RouteResult& route, const TableExpectations& expect);

/// Lane placement identity: `route`'s VlMap and num_vls_used must equal
/// naive_vl_layering() of its own tables under the same `max_vls` budget,
/// bit for bit.  Stronger than acyclicity: a path moved to another lane
/// can keep every CDG acyclic and still fails here.
[[nodiscard]] OracleResult check_vl_layering(const topo::Topology& topo,
                                             const routing::LidSpace& lids,
                                             const routing::RouteResult& route,
                                             std::int32_t max_vls);

/// Max-min invariants for a solved flow set: per-channel sum of rates
/// within capacity (relative eps), and every finite-rate flow bottlenecked
/// by at least one saturated channel on its path where no co-flow gets
/// more than it does.
[[nodiscard]] OracleResult check_flow_invariants(
    const sim::FlowSim& fs, std::span<const sim::Flow> flows,
    std::span<const double> rates);

/// Flow-solver core identity (indexed or adaptive vs reference): rates
/// bitwise equal and every FlowSolveRecord field (active_flows, levels,
/// freezes_per_level, saturated order) identical -- the standing
/// SolverEngine contract.
[[nodiscard]] OracleResult check_flowsim_engines_identical(
    std::span<const double> reference_rates,
    std::span<const double> indexed_rates,
    const obs::FlowSolveRecord& reference_record,
    const obs::FlowSolveRecord& indexed_record);

/// Progressive-filling levels must be nondecreasing within one solve: the
/// common fill level only ever rises, so a descending step means the
/// solver (or a record mutation) broke the filling order.
[[nodiscard]] OracleResult check_flow_levels_monotone(
    const obs::FlowSolveRecord& record);

// --- scenario oracles ------------------------------------------------------

struct OracleEntry {
  const char* name;
  OracleResult (*fn)(const Scenario&);
};

/// The registry, in execution order.
[[nodiscard]] std::span<const OracleEntry> all_oracles();

/// Runs one oracle, converting any escaped exception into a failure.
[[nodiscard]] OracleResult run_oracle(const OracleEntry& oracle,
                                      const Scenario& scenario);

/// Verdict of a full oracle pass over one scenario.
struct ScenarioVerdict {
  bool pass = true;
  std::string oracle;  // first failing oracle name
  std::string detail;
  std::int32_t oracles_run = 0;
};

[[nodiscard]] ScenarioVerdict run_all_oracles(const Scenario& scenario);

}  // namespace hxsim::audit
