// Differential fuzz-audit driver.
//
// Two modes:
//
//   fuzz_audit [--seeds N] [--first-seed S] [--out FILE] [--quick]
//     Generates N random scenarios (HyperX and tapered fat-tree fabrics,
//     multi-stage fault schedules, seeded traffic) and runs every
//     invariant oracle over each: typed-vs-reference PktSim bit-identity,
//     packet conservation + trace consistency, 1-vs-4-thread sweep
//     determinism, online-fault identity, deadlock-freedom +
//     route-census audits of the shipped tables per fault stage, and
//     flow-solve max-min invariants.  On the first failure
//     the scenario is greedily shrunk while the failing oracle still
//     rejects it, a repro file is written to FILE (default
//     fuzz_repro.txt), and the exit status is 1.
//
//   fuzz_audit --repro FILE
//     Replays a previously written repro against every oracle.  Exit 1
//     if it still fails (with the oracle and detail), 0 if it passes
//     (i.e. the bug is fixed).
//
// The sweep is deterministic in (--first-seed, --seeds): CI and a
// developer replaying the same range see identical scenarios, verdicts,
// and -- on failure -- an identical repro file.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "audit/audit.hpp"
#include "bench_common.hpp"

namespace {

using namespace hxsim;

struct Args {
  std::int32_t seeds = 50;
  std::uint64_t first_seed = 1;
  std::string out = "fuzz_repro.txt";
  std::string repro;  // replay mode when non-empty
  bool quick = false;
  bool verbose = true;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--first-seed S] [--out FILE] "
               "[--quick] [--quiet]\n"
               "       %s --repro FILE\n",
               argv0, argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  const auto print_usage = [&] { usage(argv[0]); };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--seeds") {
      args.seeds = bench::parse_flag<std::int32_t>(
          "--seeds", value(), 1, std::numeric_limits<std::int32_t>::max(),
          print_usage);
    } else if (flag == "--first-seed") {
      args.first_seed = bench::parse_flag<std::uint64_t>(
          "--first-seed", value(), 0,
          std::numeric_limits<std::uint64_t>::max(), print_usage);
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--repro") {
      args.repro = value();
    } else if (flag == "--quick") {
      args.quick = true;
    } else if (flag == "--quiet") {
      args.verbose = false;
    } else {
      usage(argv[0]);
    }
  }
  return args;
}

int replay(const std::string& path) {
  const audit::ScenarioVerdict verdict = audit::replay_repro(path);
  if (verdict.pass) {
    std::printf("repro %s: all %d oracles pass (bug not reproduced)\n",
                path.c_str(), verdict.oracles_run);
    return 0;
  }
  std::printf("repro %s: FAIL\n  oracle: %s\n  detail: %s\n", path.c_str(),
              verdict.oracle.c_str(), verdict.detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (!args.repro.empty()) return replay(args.repro);

    audit::AuditOptions opt;
    opt.first_seed = args.first_seed;
    opt.num_seeds = args.seeds;
    opt.repro_path = args.out;
    if (args.quick) {
      // Smaller fabrics: same oracle coverage, ~4x less census work.
      opt.bounds.max_switches = 24;
      opt.bounds.max_terminals = 48;
      opt.bounds.max_messages = 24;
    }
    if (args.verbose)
      opt.log = [](const std::string& line) {
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
      };

    const audit::AuditOutcome outcome = audit::run_audit(opt);
    if (!outcome.failed) {
      std::printf("fuzz-audit: %d scenarios, %lld oracle runs, 0 failures\n",
                  outcome.scenarios,
                  static_cast<long long>(outcome.oracle_runs));
      return 0;
    }
    std::printf(
        "fuzz-audit: FAILURE at seed %llu\n  oracle: %s\n  detail: %s\n"
        "  shrink: %d reductions\n",
        static_cast<unsigned long long>(outcome.failing_seed),
        outcome.oracle.c_str(), outcome.detail.c_str(),
        outcome.shrink_steps);
    if (!outcome.repro_file.empty())
      std::printf("  repro written to %s (replay: fuzz_audit --repro %s)\n",
                  outcome.repro_file.c_str(), outcome.repro_file.c_str());
    std::printf("--- repro ---\n%s", outcome.repro.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_audit: fatal: %s\n", e.what());
    return 2;
  }
}
