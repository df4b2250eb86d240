// One-command reproduction pipeline.
//
//   ./repro_pipeline [--quick] [--only id,id,...] [--seed n] [--reps n]
//                    [--threads n] [--csv path] [--trace path]
//                    [--out path] [--from path]
//                    [--claims dir] [--no-claims] [--baseline path]
//                    [--no-baseline] [--render] [--md path] [--list]
//
// The one way to run an experiment: `--only <id>` runs a single
// registered experiment (bench/experiments/).  Without --only it runs
// every registered experiment in one process, folds the ResultSets into a
// ResultStore written as REPRO.json, then evaluates the committed claims/
// tables against the measured metrics and exits non-zero listing every
// violation (measured vs expected band).  An experiment that throws (the
// repo-level ones do on any broken identity contract, naming the phase)
// fails the run even under --no-claims.
// Experiments write nothing themselves: the pipeline prints each
// ResultSet (metrics, then every table).  With one --only experiment,
// --csv writes each of its tables as <stem>_<table>.csv, and --trace its
// trace ResultSet as a result store plus the same per-table CSVs; an
// experiment that fills no trace fails --trace.
// With --render the EXPERIMENTS.md generated blocks are regenerated from
// the result store -- from the committed full-scale baseline in --quick
// mode (CI-sized runs must not rewrite paper-scale tables), from the
// store just measured otherwise.
//
// --quick additionally re-checks the full-scope claims against the
// committed baseline REPRO.json, so CI catches a stale baseline or a
// claims/ edit that the committed numbers no longer satisfy.
// --from skips the measurement and loads an existing store instead
// (claims + render on committed results, seconds instead of minutes).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <exception>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/experiments.hpp"
#include "report/claims.hpp"
#include "report/render.hpp"

#ifndef HXSIM_SOURCE_DIR
#define HXSIM_SOURCE_DIR "."
#endif

namespace {

using namespace hxsim;

struct PipelineArgs {
  report::Options options;
  std::vector<std::string> only;
  std::string out_path;
  std::string from_path;
  std::string csv_path;
  std::string trace_path;
  std::string claims_dir = HXSIM_SOURCE_DIR "/claims";
  std::string baseline_path = HXSIM_SOURCE_DIR "/REPRO.json";
  std::string md_path = HXSIM_SOURCE_DIR "/EXPERIMENTS.md";
  bool check_claims = true;
  bool check_baseline = true;
  bool render = false;
  bool list = false;
};

void usage(std::FILE* out, const char* argv0) {
  std::fprintf(
      out,
      "usage: %s [options]\n"
      "  --quick         CI-sized topologies and repetition counts\n"
      "  --only id,...   run only these experiments (claims restricted "
      "to them)\n"
      "  --seed n        base RNG seed (default 1)\n"
      "  --reps n        repetitions per measurement (default 3)\n"
      "  --threads n     worker threads (default: hardware)\n"
      "  --csv path      one <stem>_<table>.csv per table of the one "
      "--only experiment\n"
      "  --trace path    observability export of the one --only "
      "experiment\n"
      "  --out path      result store to write (default: REPRO.json in "
      "the source tree for full runs of every experiment, REPRO.only.json "
      "here for --only runs, REPRO.quick.json here for --quick)\n"
      "  --from path     skip measuring; load this store instead\n"
      "  --claims dir    claims tables (default: <source>/claims)\n"
      "  --no-claims     skip the claims check\n"
      "  --baseline path committed full-scale store checked in --quick "
      "mode (default: <source>/REPRO.json)\n"
      "  --no-baseline   skip the baseline check in --quick mode\n"
      "  --render        regenerate the EXPERIMENTS.md generated blocks\n"
      "  --md path       markdown file to render (default: "
      "<source>/EXPERIMENTS.md)\n"
      "  --list          list registered experiments and exit\n",
      argv0);
}

bool parse_args(int argc, char** argv, PipelineArgs& args) {
  const auto print_usage = [&] { usage(stderr, argv[0]); };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                     a.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--quick") {
      args.options.quick = true;
    } else if (a == "--only") {
      const char* v = value();
      if (!v) return false;
      std::stringstream ss{std::string(v)};
      std::string id;
      while (std::getline(ss, id, ','))
        if (!id.empty()) args.only.push_back(id);
    } else if (a == "--seed") {
      const char* v = value();
      if (!v) return false;
      args.options.seed = bench::parse_flag<std::uint64_t>(
          "--seed", v, 0, std::numeric_limits<std::uint64_t>::max(),
          print_usage);
    } else if (a == "--reps") {
      const char* v = value();
      if (!v) return false;
      args.options.reps = bench::parse_flag<std::int32_t>(
          "--reps", v, 1, bench::kMaxReps, print_usage);
    } else if (a == "--threads") {
      const char* v = value();
      if (!v) return false;
      args.options.threads = bench::parse_flag<std::int32_t>(
          "--threads", v, 0, bench::kMaxThreads, print_usage);
    } else if (a == "--csv") {
      const char* v = value();
      if (!v) return false;
      args.csv_path = v;
    } else if (a == "--trace") {
      const char* v = value();
      if (!v) return false;
      args.trace_path = v;
    } else if (a == "--out") {
      const char* v = value();
      if (!v) return false;
      args.out_path = v;
    } else if (a == "--from") {
      const char* v = value();
      if (!v) return false;
      args.from_path = v;
    } else if (a == "--claims") {
      const char* v = value();
      if (!v) return false;
      args.claims_dir = v;
    } else if (a == "--no-claims") {
      args.check_claims = false;
    } else if (a == "--baseline") {
      const char* v = value();
      if (!v) return false;
      args.baseline_path = v;
    } else if (a == "--no-baseline") {
      args.check_baseline = false;
    } else if (a == "--render") {
      args.render = true;
    } else if (a == "--md") {
      const char* v = value();
      if (!v) return false;
      args.md_path = v;
    } else if (a == "--list") {
      args.list = true;
    } else if (a == "--help" || a == "-h") {
      usage(stdout, argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown option %s (try --help)\n", argv[0],
                   a.c_str());
      return false;
    }
  }
  // Per-experiment outputs need exactly one measured experiment to own them.
  if ((!args.csv_path.empty() || !args.trace_path.empty()) &&
      (args.only.size() != 1 || !args.from_path.empty())) {
    std::fprintf(stderr,
                 "%s: %s needs exactly one --only experiment and no --from\n",
                 argv[0], !args.csv_path.empty() ? "--csv" : "--trace");
    print_usage();
    return false;
  }
  // Only a full run of every experiment may replace the committed store.
  if (args.out_path.empty())
    args.out_path = !args.only.empty()  ? "REPRO.only.json"
                    : args.options.quick ? "REPRO.quick.json"
                                         : HXSIM_SOURCE_DIR "/REPRO.json";
  return true;
}

bool selected(const PipelineArgs& args, const std::string& id) {
  if (args.only.empty()) return true;
  for (const std::string& o : args.only)
    if (o == id) return true;
  return false;
}

/// The run log of one experiment: its metrics, then every table, all
/// through the one text renderer.
void print_result_set(const report::ResultSet& rs) {
  report::ResultTable metrics{"metrics", {"metric", "value"}, {}};
  for (const auto& [name, value] : rs.metrics)
    metrics.add_row({name, report::format_metric(value)});
  std::printf("%s", report::render_text_table(metrics).c_str());
  for (const report::ResultTable& table : rs.tables)
    std::printf("\n%s\n%s", table.id.c_str(),
                report::render_text_table(table).c_str());
}

/// Claims whose experiment was not part of a --only run must not fire as
/// missing-metric violations; restrict the table to the run set.
std::vector<report::Claim> restrict_claims(
    const std::vector<report::Claim>& claims,
    const report::ResultStore& store) {
  std::vector<report::Claim> kept;
  for (const report::Claim& claim : claims)
    if (store.find(claim.experiment) != nullptr) kept.push_back(claim);
  return kept;
}

}  // namespace

int main(int argc, char** argv) {
  PipelineArgs args;
  if (!parse_args(argc, argv, args)) return 2;

  report::Registry& registry = bench::global_registry();
  if (args.list) {
    for (const report::Experiment& e : registry.experiments())
      std::printf("%-28s %-16s %s\n", e.id.c_str(), e.paper_ref.c_str(),
                  e.title.c_str());
    return 0;
  }
  for (const std::string& id : args.only)
    if (registry.find(id) == nullptr) {
      std::fprintf(stderr, "%s: unknown experiment '%s' (--list shows all)\n",
                   argv[0], id.c_str());
      return 2;
    }

  // Engines and simulators resolve threads == 0 through this default, so
  // one flag configures every experiment.
  exec::set_default_threads(args.options.threads);

  // --- measure (or load) --------------------------------------------------
  report::ResultStore store;
  report::ResultSet trace;  // filled under --trace by the one experiment
  if (!args.trace_path.empty()) args.options.trace = &trace;
  bool run_failed = false;
  if (!args.from_path.empty()) {
    try {
      store = report::ResultStore::read_json(args.from_path);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "%s: cannot load %s: %s\n", argv[0],
                   args.from_path.c_str(), ex.what());
      return 1;
    }
    std::printf("loaded %zu experiments (%s mode) from %s\n",
                store.experiments.size(),
                std::string(report::to_string(store.mode)).c_str(),
                args.from_path.c_str());
  } else {
    store.mode =
        args.options.quick ? report::RunMode::kQuick : report::RunMode::kFull;
    store.seed = args.options.seed;
    std::size_t total = 0;
    for (const report::Experiment& e : registry.experiments())
      if (selected(args, e.id)) ++total;
    std::size_t index = 0;
    for (const report::Experiment& e : registry.experiments()) {
      if (!selected(args, e.id)) continue;
      ++index;
      std::printf("### [%zu/%zu] %s (%s)\n", index, total, e.id.c_str(),
                  e.paper_ref.c_str());
      std::fflush(stdout);
      const auto t0 = std::chrono::steady_clock::now();
      bool ran = false;
      try {
        store.experiments.push_back(registry.run(e, args.options));
        ran = true;
      } catch (const std::exception& ex) {
        run_failed = true;
        std::fprintf(stderr, "FAILED: %s: %s\n", e.id.c_str(), ex.what());
      }
      const double secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      if (ran) print_result_set(store.experiments.back());
      std::printf("### %s done in %.1f s\n\n", e.id.c_str(), secs);
      std::fflush(stdout);
    }
    // --trace on an experiment that exports none must not pass silently.
    if (!args.trace_path.empty() && !store.experiments.empty() &&
        trace.metrics.empty() && trace.tables.empty()) {
      std::fprintf(stderr, "%s: --trace: experiment '%s' exports no trace\n",
                   argv[0], store.experiments.front().id.c_str());
      return 1;
    }
    try {
      store.write_json(args.out_path);
      std::printf("wrote %s (%zu experiments, %s mode)\n",
                  args.out_path.c_str(), store.experiments.size(),
                  std::string(report::to_string(store.mode)).c_str());
      // --csv and --trace name exactly one --only experiment.
      if (!store.experiments.empty() && !args.csv_path.empty()) {
        bench::write_table_csvs(store.experiments.front(), args.csv_path);
        std::printf("wrote %zu table CSVs for %s\n",
                    store.experiments.front().tables.size(),
                    args.csv_path.c_str());
      }
      if (!store.experiments.empty() && !args.trace_path.empty()) {
        bench::write_trace(args.trace_path, args.options, std::move(trace));
        std::printf("wrote trace %s\n", args.trace_path.c_str());
      }
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "%s: %s\n", argv[0], ex.what());
      return 1;
    }
  }

  // --- claims -------------------------------------------------------------
  std::size_t violations_total = 0;
  if (args.check_claims) {
    std::vector<report::Claim> claims;
    try {
      claims = report::load_claims_dir(args.claims_dir);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "%s: claims: %s\n", argv[0], ex.what());
      return 1;
    }
    const bool partial = !args.only.empty();
    std::vector<report::Claim> bound =
        partial ? restrict_claims(claims, store) : claims;
    std::size_t applicable = 0;
    for (const report::Claim& c : bound)
      if (report::claim_applies(c, store.mode)) ++applicable;
    const std::vector<report::Violation> violations =
        report::check_claims(bound, store);
    std::printf("\nclaims: %zu loaded, %zu bound to this %s run, %zu "
                "violated\n",
                claims.size(), applicable,
                std::string(report::to_string(store.mode)).c_str(),
                violations.size());
    for (const report::Violation& v : violations)
      std::printf("VIOLATED: %s\n", v.message().c_str());
    violations_total += violations.size();

    // Quick runs cannot evaluate paper-scale claims; hold the committed
    // full-scale baseline to them instead, so CI still gates every claim.
    if (store.mode == report::RunMode::kQuick && args.check_baseline &&
        args.from_path.empty()) {
      try {
        const report::ResultStore baseline =
            report::ResultStore::read_json(args.baseline_path);
        if (baseline.mode != report::RunMode::kFull)
          throw std::runtime_error("baseline store is not a full-mode run");
        std::vector<report::Claim> full_bound =
            partial ? restrict_claims(claims, baseline) : claims;
        std::size_t full_applicable = 0;
        for (const report::Claim& c : full_bound)
          if (report::claim_applies(c, baseline.mode)) ++full_applicable;
        const std::vector<report::Violation> base_violations =
            report::check_claims(full_bound, baseline);
        std::printf("baseline %s: %zu claims bound, %zu violated\n",
                    args.baseline_path.c_str(), full_applicable,
                    base_violations.size());
        for (const report::Violation& v : base_violations)
          std::printf("VIOLATED (baseline): %s\n", v.message().c_str());
        violations_total += base_violations.size();
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "%s: baseline: %s\n", argv[0], ex.what());
        return 1;
      }
    }
  }

  // --- render -------------------------------------------------------------
  if (args.render) {
    // Quick stores hold CI-sized numbers; the committed doc tables are
    // paper-scale, so render from the committed baseline in quick mode.
    const report::ResultStore* source = &store;
    report::ResultStore baseline;
    if (store.mode == report::RunMode::kQuick) {
      try {
        baseline = report::ResultStore::read_json(args.baseline_path);
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "%s: render: cannot load baseline %s: %s\n",
                     argv[0], args.baseline_path.c_str(), ex.what());
        return 1;
      }
      source = &baseline;
    }
    std::string markdown;
    {
      std::ifstream in(args.md_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "%s: render: cannot read %s\n", argv[0],
                     args.md_path.c_str());
        return 1;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      markdown = buf.str();
    }
    report::RenderStats stats;
    std::string rendered;
    try {
      rendered = report::render_experiments_md(markdown, *source, &stats);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "%s: render: %s\n", argv[0], ex.what());
      return 1;
    }
    if (rendered != markdown) {
      std::ofstream outf(args.md_path, std::ios::binary | std::ios::trunc);
      if (!outf) {
        std::fprintf(stderr, "%s: render: cannot write %s\n", argv[0],
                     args.md_path.c_str());
        return 1;
      }
      outf << rendered;
    }
    std::printf("render: %d blocks, %d changed (%s)\n", stats.blocks,
                stats.changed, args.md_path.c_str());
  }

  if (run_failed) {
    std::fprintf(stderr, "\nFAIL: one or more experiments failed to run\n");
    return 1;
  }
  if (violations_total > 0) {
    std::fprintf(stderr, "\nFAIL: %zu claim(s) violated\n", violations_total);
    return 1;
  }
  std::printf("\nOK: all bound claims hold\n");
  return 0;
}
