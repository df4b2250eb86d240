// Repo-level experiment: the typed packet engine against the seed
// reference engine, the one measurement core of the typed-engine contract.
//
//  - Engine phases, single thread: reference vs typed on the shift
//    workloads of both fabrics, the congested hotspot regime the rewrite
//    targets and DAL-adaptive uniform traffic.  Every typed Result must be
//    bitwise equal to the reference (sim::first_difference) and run to
//    completion.  Each engine is timed for at least kMinTimedSeconds per
//    workload, so quick-mode speedups measure the engines, not host
//    noise.  The three static-path workloads form the "speedup" table
//    the committed claims gate (identity, speedup at or above parity).
//  - run_batch scaling: DAL replications at 1..8 threads, every batch
//    bitwise equal to the 1-thread batch.
//  - Sweep determinism: run_pkt_sweep over static, DAL and Valiant arms
//    at 1 vs 4 threads, field-for-field equal, nothing deadlocked or
//    truncated under an unlimited event budget and every replication
//    truncated (not deadlocked) under a starved one.
//
// A broken contract throws, naming the phase.  Every phase's numbers
// (events/sec, ns/packet, speedups, batch wall times) land in the
// long-form "phases" table.
#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "audit/oracles.hpp"
#include "audit/reference_pktsim.hpp"
#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "sim/adaptive.hpp"
#include "sim/pktsim.hpp"
#include "stats/units.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"
#include "workloads/pkt_sweep.hpp"

namespace hxsim::bench {

namespace {

[[noreturn]] void fail(const std::string& phase, const std::string& what) {
  throw std::runtime_error(phase + ": " + what);
}

/// Throws unless `a` and `b` are bitwise equal, naming the first field.
void require_equal(const std::string& phase, const std::string& what,
                   const sim::PktSim::Result& a,
                   const sim::PktSim::Result& b) {
  const std::string_view field = sim::first_difference(a, b);
  if (!field.empty())
    fail(phase, what + " differs in " + std::string(field));
}

struct EngineTiming {
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double ns_per_packet = 0.0;
  sim::PktSim::Result result;
};

/// Least wall time each engine is timed for on each workload.  Quick-mode
/// workloads run in well under a millisecond, so a fixed count of a few
/// calls would time host noise instead of the engine.
constexpr double kMinTimedSeconds = 0.2;

/// Times calls of `run` after one warm-up call, at least `min_reps` of
/// them and for at least kMinTimedSeconds, and reports the mean; the last
/// result is kept for the identity check.  Both engines are timed the same
/// way.  The typed engine runs warm (one simulator reused), exactly as the
/// packet-level experiments use it; the reference engine builds its state
/// afresh on every call.
template <typename Run>
EngineTiming time_engine(Run&& run, std::int32_t min_reps) {
  (void)run();  // warm-up: sizes scratch, touches pages
  EngineTiming t;
  PhaseClock clock;
  double elapsed = 0.0;
  std::int32_t reps = 0;
  while (reps < min_reps || elapsed < kMinTimedSeconds) {
    t.result = run();
    ++reps;
    elapsed += clock.lap();
  }
  t.seconds = elapsed / reps;
  if (t.seconds > 0.0) {
    t.events_per_sec =
        static_cast<double>(t.result.events_executed) / t.seconds;
    t.ns_per_packet = t.seconds * 1e9 /
                      static_cast<double>(t.result.packets_delivered);
  }
  return t;
}

report::ResultSet run(const report::Options& options) {
  report::ResultSet rs;
  const std::int32_t reps = options.quick ? 2 : std::max(options.reps, 1);
  report::ResultTable phase_table{"phases", {"phase", "metric", "value"}, {}};
  add_phase(phase_table, "machine",
            {{"hardware_threads",
              static_cast<double>(exec::hardware_threads())}});

  const topo::HyperX hx(options.quick ? topo::small_hyperx_params()
                                      : topo::paper_hyperx_params());
  const auto hx_lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine dfsssp(8);
  const auto hx_route = dfsssp.compute(hx.topo(), hx_lids);
  const sim::DalRouter dal(hx);

  const topo::FatTree ft(options.quick ? topo::small_fat_tree_params()
                                       : topo::paper_fat_tree_params());
  const auto ft_lids =
      routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
  routing::FtreeEngine ftree(ft);
  const auto ft_route = ftree.compute(ft.topo(), ft_lids);

  const std::int64_t bytes = options.quick ? 16 * 1024 : 64 * 1024;
  const workloads::PktRoutingArm hx_static{"dfsssp", &hx_route, &hx_lids,
                                           nullptr};
  const workloads::PktRoutingArm hx_dal{"dal", nullptr, nullptr, &dal};
  const workloads::PktRoutingArm ft_static{"ftree", &ft_route, &ft_lids,
                                           nullptr};

  workloads::PktPatternSpec shift;
  shift.pattern = workloads::PktPattern::kShift;
  shift.shift = 1;
  shift.bytes = bytes;
  workloads::PktPatternSpec hotspot;
  hotspot.pattern = workloads::PktPattern::kHotspot;
  hotspot.messages = options.quick ? 64 : 256;
  hotspot.bytes = bytes;
  workloads::PktPatternSpec uniform;
  uniform.pattern = workloads::PktPattern::kUniformRandom;
  uniform.messages = options.quick ? 128 : 512;
  uniform.bytes = bytes;

  // --- engine phases: reference vs typed, single thread ------------------
  struct Phase {
    const char* name;   // "phases" record
    const char* key;    // metric prefix + "speedup" row; nullptr: none
    const char* label;
    const topo::Topology& topo;
    const workloads::PktRoutingArm& arm;
    const workloads::PktPatternSpec& spec;
  };
  const std::vector<Phase> phases{
      {"hyperx_dfsssp_shift", "hx_shift", "hyperx dfsssp shift", hx.topo(),
       hx_static, shift},
      {"ftree_shift", "ft_shift", "ftree shift", ft.topo(), ft_static,
       shift},
      {"hyperx_dfsssp_hotspot", "hx_hotspot", "hyperx dfsssp hotspot",
       hx.topo(), hx_static, hotspot},
      {"hyperx_dal_uniform", nullptr, "hyperx dal uniform", hx.topo(),
       hx_dal, uniform},
  };

  report::ResultTable& out =
      rs.table("speedup", {"workload", "events", "ref Mev/s", "typed Mev/s",
                           "speedup", "bit-identical"});
  double min_speedup = 0.0;
  for (const Phase& phase : phases) {
    sim::PktSimConfig cfg;
    cfg.adaptive = phase.arm.adaptive;
    const auto msgs =
        build_pkt_messages(phase.topo, phase.arm, phase.spec, options.seed);
    const EngineTiming ref = time_engine(
        [&] { return audit::reference_pkt_run(phase.topo, cfg, msgs); },
        reps);
    sim::PktSim simulator(phase.topo, cfg);
    const EngineTiming typed =
        time_engine([&] { return simulator.run(msgs); }, reps);
    require_equal(phase.name, "typed engine vs reference", ref.result,
                  typed.result);
    if (ref.result.deadlock || ref.result.truncated)
      fail(phase.name, "workload did not run to completion");
    const double speedup =
        typed.seconds > 0.0 ? ref.seconds / typed.seconds : 0.0;
    add_phase(phase_table, phase.name,
              {{"events", static_cast<double>(typed.result.events_executed)},
               {"old_events_per_sec", ref.events_per_sec},
               {"old_ns_per_packet", ref.ns_per_packet},
               {"new_events_per_sec", typed.events_per_sec},
               {"new_ns_per_packet", typed.ns_per_packet},
               {"speedup", speedup}});
    if (phase.key == nullptr) continue;
    out.add_row({phase.label, std::to_string(typed.result.events_executed),
                 stats::format_fixed(ref.events_per_sec / 1e6, 2),
                 stats::format_fixed(typed.events_per_sec / 1e6, 2),
                 stats::format_fixed(speedup, 2) + "x", "yes"});
    min_speedup = min_speedup > 0.0 ? std::min(min_speedup, speedup)
                                    : speedup;
    rs.set(std::string(phase.key) + "_speedup", speedup);
    rs.set(std::string(phase.key) + "_typed_events_per_sec",
           typed.events_per_sec);
  }
  rs.set("typed_min_speedup", min_speedup);

  // --- run_batch scaling: DAL replications, 1..8 threads ------------------
  {
    sim::PktSimConfig cfg;
    cfg.adaptive = &dal;
    std::vector<std::vector<sim::PktMessage>> sets;
    const std::int32_t replications = options.quick ? 8 : 16;
    for (std::int32_t s = 1; s <= replications; ++s)
      sets.push_back(build_pkt_messages(hx.topo(), hx_dal, uniform,
                                        static_cast<std::uint64_t>(s)));
    const std::int32_t max_threads = std::min<std::int32_t>(
        8, options.threads > 0 ? options.threads : exec::hardware_threads());
    std::vector<sim::PktSim::Result> reference;
    double base_seconds = 0.0;
    for (std::int32_t t = 1; t <= max_threads; t *= 2) {
      sim::PktSim simulator(hx.topo(), cfg);
      PhaseClock clock;
      auto batch = simulator.run_batch(sets, t);
      const double seconds = clock.lap();
      if (t == 1) {
        base_seconds = seconds;
        reference = std::move(batch);
      } else {
        for (std::size_t i = 0; i < reference.size(); ++i)
          require_equal("run_batch_dal_uniform",
                        std::to_string(t) + "-thread replication " +
                            std::to_string(i) + " vs 1-thread",
                        reference[i], batch[i]);
      }
      const double speedup = seconds > 0.0 ? base_seconds / seconds : 0.0;
      add_phase(phase_table, "run_batch_dal_uniform",
                {{"threads", static_cast<double>(t)},
                 {"replications", static_cast<double>(replications)},
                 {"seconds", seconds},
                 {"speedup", speedup}});
    }
  }

  // --- sweep determinism: static + DAL + Valiant arms ----------------------
  // The Valiant arm is the regression target: its randomized router draws
  // from the engine-owned per-replication rng, so parallel batches land
  // bit-identical to the serial loop.
  {
    const char* phase = "sweep_3arms_uniform";
    const sim::ValiantRouter valiant(hx, options.seed);
    const std::vector<workloads::PktRoutingArm> arms{
        hx_static, hx_dal, {"valiant", nullptr, nullptr, &valiant}};
    workloads::PktPatternSpec sweep_uniform = uniform;
    sweep_uniform.messages = options.quick ? 64 : 256;
    const std::vector<workloads::PktPatternSpec> patterns{sweep_uniform};

    workloads::PktSweepOptions opt;
    opt.seeds = options.quick ? 3 : 4;
    opt.threads = 1;
    PhaseClock clock;
    const auto serial = run_pkt_sweep(hx.topo(), arms, patterns, opt);
    const double serial_s = clock.lap();
    opt.threads = 4;
    const auto parallel = run_pkt_sweep(hx.topo(), arms, patterns, opt);
    const double parallel_s = clock.lap();
    if (serial.size() != parallel.size())
      fail(phase, "result counts differ between 1 and 4 threads");
    for (std::size_t i = 0; i < serial.size(); ++i) {
      if (!audit::replication_equal(serial[i], parallel[i]))
        fail(phase, "replication " + std::to_string(i) + " (arm " +
                        serial[i].arm + ") differs between 1 and 4 threads");
      if (serial[i].deadlock || serial[i].truncated)
        fail(phase, "replication " + std::to_string(i) + " (arm " +
                        serial[i].arm + ") did not run to completion");
    }

    // A deliberately starved event budget must be reported as truncated
    // (not deadlock) on every replication.
    workloads::PktSweepOptions starved = opt;
    starved.max_events = 64;
    const auto capped = run_pkt_sweep(hx.topo(), arms, patterns, starved);
    for (const auto& r : capped)
      if (!r.truncated || r.deadlock)
        fail(phase, "a starved-budget replication (arm " + r.arm +
                        ") was not reported as truncated");
    add_phase(phase_table, phase,
              {{"replications", static_cast<double>(serial.size())},
               {"serial_seconds", serial_s},
               {"parallel_seconds", parallel_s},
               {"truncated_starved", static_cast<double>(capped.size())}});
  }

  // Reaching here means every identity check above held.
  rs.set("typed_identical", 1.0);
  rs.tables.push_back(std::move(phase_table));
  return rs;
}

}  // namespace

report::Experiment pktsim_speedup_experiment() {
  return {"pktsim_speedup",
          "Typed packet engine speedup and bitwise identity vs reference",
          "repo (typed-engine contract)", run};
}

}  // namespace hxsim::bench
