// Shared helpers of the experiment registry (bench/experiments/) and the
// bench CLIs.
//
// Every experiment reads report::Options, filled from repro_pipeline's
// flags:
//   quick        scaled-down system and trimmed sweeps (CI-friendly)
//   seed         base seed for the stochastic elements
//   reps         repetitions for configurations with randomness
//   threads      worker threads for the exec/ layer; repro_pipeline
//                applies it once through exec::set_default_threads, and
//                results are identical at any count
//   trace        set under --trace: the experiment fills this second
//                ResultSet with its observability view (counters, solver
//                metrics, phase timers); purely observational
// Experiments only fill ResultSets.  repro_pipeline writes every file
// from them through write_table_csvs() and write_trace() below.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "exec/exec.hpp"
#include "mpi/cluster.hpp"
#include "obs/phase_clock.hpp"
#include "report/experiment.hpp"
#include "stats/csv.hpp"
#include "workloads/paper_system.hpp"

namespace hxsim::bench {

/// Checked value of a numeric flag or argument: all of `text` must be a
/// decimal number (an integer for integral T) in [lo, hi].  Anything
/// else -- empty, trailing characters, a sign on an unsigned flag, out of
/// range, nan -- prints a message naming `flag` to stderr, then `usage()`,
/// and exits 2.  The one numeric parser of every bench and example CLI,
/// so a malformed argument never ends in a std::stoi abort or a silent 0.
template <typename T, typename Usage>
  requires std::integral<T> || std::floating_point<T>
[[nodiscard]] T parse_flag(const char* flag, const char* text, T lo, T hi,
                           const Usage& usage) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc{} || stop != end || text == end ||
      !(value >= lo && value <= hi)) {
    const auto show = [](T v) {
      if constexpr (std::integral<T>) {
        return std::to_string(v);
      } else {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%g", v);
        return std::string(buf);
      }
    };
    std::fprintf(stderr,
                 "invalid value '%s' for %s (expected %s in [%s, %s])\n",
                 text, flag, std::integral<T> ? "an integer" : "a number",
                 show(lo).c_str(), show(hi).c_str());
    usage();
    std::exit(2);
  }
  return value;
}

/// Upper bounds of the shared numeric flags (--seed spans all uint64).
inline constexpr std::int32_t kMaxReps =
    std::numeric_limits<std::int32_t>::max();
inline constexpr std::int32_t kMaxThreads = 1024;

/// Repetitions for a configuration: deterministic combinations need one.
[[nodiscard]] inline std::int32_t reps_for(
    const workloads::PaperSystem::Config& config,
    const report::Options& options) {
  const bool stochastic =
      config.placement != mpi::PlacementKind::kLinear ||
      config.cluster->pml().kind == mpi::PmlKind::kBfo;
  return stochastic ? options.reps : 1;
}

/// Placement of the first `nranks` ranks under a config's policy.
[[nodiscard]] inline mpi::Placement place(
    const workloads::PaperSystem::Config& config, std::int32_t nranks,
    std::int32_t machine_nodes, std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto pool = mpi::Placement::whole_machine(machine_nodes);
  return mpi::Placement::make(config.placement, nranks, pool, rng);
}

/// Wall-clock stopwatch for per-phase timing (now shared with the routing
/// engines and simulators through the obs library).
using PhaseClock = obs::PhaseClock;

/// Appends one phase's metrics to a long-form (phase, metric, value)
/// table, the layout of every experiment's "phases" table.
inline void add_phase(
    report::ResultTable& phases, const std::string& phase,
    const std::vector<std::pair<std::string, double>>& metrics) {
  for (const auto& [metric, value] : metrics)
    phases.add_row({phase, metric, report::format_metric(value)});
}

/// Writes one <stem>_<table>.csv per table of `rs`, stem = `path` without
/// its extension: --csv writes an experiment's tables this way, --trace
/// its trace's tables next to the trace store.
inline void write_table_csvs(const report::ResultSet& rs,
                             const std::string& path) {
  std::string stem = path;
  if (const auto dot = stem.rfind('.');
      dot != std::string::npos && stem.find('/', dot) == std::string::npos)
    stem.resize(dot);
  for (const report::ResultTable& table : rs.tables) {
    stats::CsvWriter csv(stem + "_" + table.id + ".csv", table.columns);
    for (const auto& row : table.rows) csv.add_row(row);
    csv.close();
  }
}

/// Writes `trace` to `path` as a one-experiment result store
/// (ResultStore::read_json and `repro_pipeline --from` load it back) plus
/// its table CSVs.
inline void write_trace(const std::string& path,
                        const report::Options& options,
                        report::ResultSet trace) {
  report::ResultStore store;
  store.mode =
      options.quick ? report::RunMode::kQuick : report::RunMode::kFull;
  store.seed = options.seed;
  store.experiments.push_back(std::move(trace));
  store.write_json(path);
  write_table_csvs(store.experiments.front(), path);
}

}  // namespace hxsim::bench
