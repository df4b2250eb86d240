// Shared helpers for the bench binaries and the experiment registry.
//
// BenchArgs is the option surface every experiment reads:
//   --quick          scaled-down system and trimmed sweeps (CI-friendly)
//   --csv <path>     additionally dump machine-readable CSV
//   --trace <path>   export observability metrics (counters, solver
//                    metrics, phase timers) as <path> JSON plus per-table
//                    CSVs next to it; purely observational
//   --seed <n>       base seed for the stochastic elements
//   --reps <n>       repetitions for configurations with randomness
//   --threads <n>    worker threads for the exec/ layer (default: all
//                    hardware threads); results are identical at any count
// repro_pipeline fills it from its own flags; the standalone binaries
// (exec_scaling, resilience_campaign) parse it with BenchArgs::parse.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "mpi/cluster.hpp"
#include "obs/bench_json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_clock.hpp"
#include "stats/csv.hpp"
#include "workloads/paper_system.hpp"

namespace hxsim::bench {

/// Checked value of an integer flag: all of `text` must be a decimal
/// integer in [lo, hi].  Anything else -- empty, trailing characters, a
/// sign on an unsigned flag, out of range -- prints a message naming
/// `flag` to stderr, then `usage()`, and exits 2.  The one numeric parser
/// of every bench CLI, so a malformed flag never ends in a std::stoi
/// abort or a silent 0.
template <std::integral T, typename Usage>
[[nodiscard]] T parse_flag(const char* flag, const char* text, T lo, T hi,
                           const Usage& usage) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc{} || stop != end || text == end || value < lo ||
      value > hi) {
    std::fprintf(stderr,
                 "invalid value '%s' for %s (expected an integer in "
                 "[%s, %s])\n",
                 text, flag, std::to_string(lo).c_str(),
                 std::to_string(hi).c_str());
    usage();
    std::exit(2);
  }
  return value;
}

/// Upper bounds of the shared numeric flags (--seed spans all uint64).
inline constexpr std::int32_t kMaxReps =
    std::numeric_limits<std::int32_t>::max();
inline constexpr std::int32_t kMaxThreads = 1024;

struct BenchArgs {
  bool quick = false;
  std::optional<std::string> csv_path;
  std::optional<std::string> trace_path;
  std::uint64_t seed = 1;
  std::int32_t reps = 3;
  std::int32_t threads = 0;  // 0: hardware_concurrency

  static void print_usage(std::FILE* out, const char* argv0) {
    std::fprintf(out,
                 "usage: %s [--quick] [--csv file] [--trace file] "
                 "[--seed n] [--reps n] [--threads n]\n",
                 argv0);
  }

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    const auto usage = [&] { print_usage(stderr, argv[0]); };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--quick") {
        args.quick = true;
      } else if (arg == "--csv") {
        args.csv_path = next();
      } else if (arg == "--trace") {
        args.trace_path = next();
      } else if (arg == "--seed") {
        args.seed = parse_flag<std::uint64_t>(
            "--seed", next(), 0, std::numeric_limits<std::uint64_t>::max(),
            usage);
      } else if (arg == "--reps") {
        args.reps = parse_flag<std::int32_t>("--reps", next(), 1, kMaxReps,
                                             usage);
      } else if (arg == "--threads") {
        args.threads = parse_flag<std::int32_t>("--threads", next(), 0,
                                                kMaxThreads, usage);
      } else if (arg == "--help" || arg == "-h") {
        print_usage(stdout, argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    // Engines and simulators resolve threads == 0 through this default,
    // so one flag configures the whole binary.
    exec::set_default_threads(args.threads);
    return args;
  }

  [[nodiscard]] workloads::SystemOptions system_options() const {
    workloads::SystemOptions opts;
    opts.small_scale = quick;
    return opts;
  }
};

/// Repetitions for a configuration: deterministic combinations need one.
[[nodiscard]] inline std::int32_t reps_for(
    const workloads::PaperSystem::Config& config, const BenchArgs& args) {
  const bool stochastic =
      config.placement != mpi::PlacementKind::kLinear ||
      config.cluster->pml().kind == mpi::PmlKind::kBfo;
  return stochastic ? args.reps : 1;
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

/// Writes a bench's metric registry when --trace was given: <path> JSON
/// plus one <stem>_<table>.csv per table (stem = path without extension).
inline void write_trace(const BenchArgs& args,
                        const obs::MetricRegistry& registry) {
  if (!args.trace_path) return;
  registry.write_json(*args.trace_path);
  std::string stem = *args.trace_path;
  if (const auto dot = stem.rfind('.');
      dot != std::string::npos && stem.find('/', dot) == std::string::npos)
    stem.resize(dot);
  registry.write_csv(stem);
  std::printf("wrote trace %s\n", args.trace_path->c_str());
}

/// Machine-readable perf record (BENCH_<bench>.json); lives in obs/ so
/// the phases share the report/ result schema (obs::BenchJson::publish).
using BenchJson = obs::BenchJson;

/// Optional CSV sink (no-op when --csv is absent).
class CsvSink {
 public:
  CsvSink(const BenchArgs& args, const std::vector<std::string>& header) {
    if (args.csv_path)
      writer_.emplace(*args.csv_path, header);
  }
  void add_row(const std::vector<std::string>& cells) {
    if (writer_) writer_->add_row(cells);
  }
  ~CsvSink() {
    if (writer_) writer_->close();
  }

 private:
  std::optional<stats::CsvWriter> writer_;
};

}  // namespace hxsim::bench
