// hxbench command line: runs one workload in this process and prints every
// metric as `name value unit`; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "exec/exec.hpp"
#include "hxbench.hpp"

namespace hxbench {
namespace {

namespace exec = hxsim::exec;

constexpr const char* kUsage =
    "usage: hxbench --workload NAME [--seed N] [--passes P] [--seconds S]\n"
    "               [--threads T] [--json FILE] [--trace FILE] [--record]\n"
    "       hxbench --smoke\n"
    "\n"
    "  --workload NAME  imb_sweep | sar_apps | bisection | pkt_sweep\n"
    "  --seed N         input seed (default 1)\n"
    "  --passes P       run at least P identical timed passes (default 3)\n"
    "  --seconds S      and keep running passes until S seconds are\n"
    "                   measured (default 0)\n"
    "  --threads T      library worker threads; 0 = all cores (default 0)\n"
    "  --json FILE      also write the results as JSON\n"
    "  --trace FILE     traced run: replay every op layer by layer, report\n"
    "                   per-layer metrics, write Chrome trace events to FILE\n"
    "  --record         write the pass digests as the seed's reference\n"
    "  --smoke          small-system self-test of all four workloads\n";

/// Set-up is built at least kMinSetups times, and until kMinSetupSeconds
/// have been spent in it; setup_s is the median.  A short set-up (pkt_sweep,
/// ~30 ms) so gets enough builds for a steady median.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 0.5;

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::int32_t passes = 3;
  double seconds = 0.0;
  std::int32_t threads = 0;
  std::string json_path;
  std::string trace_path;
  bool record = false;
  bool smoke = false;
  bool help = false;
};

template <typename T>
T parse_number(std::string_view flag, std::string_view text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || text.empty() || !(value >= lo) ||
      !(value <= hi)) {
    std::ostringstream msg;
    msg << flag << " expects a number in [" << lo << ", " << hi << "], got '"
        << text << "'";
    throw UsageError(msg.str());
  }
  return value;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) throw UsageError(std::string(flag) + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      o.seed = parse_number<std::uint64_t>(
          flag, value(), 0, std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--passes") {
      o.passes = parse_number<std::int32_t>(flag, value(), 1, 1000);
    } else if (flag == "--seconds") {
      o.seconds = parse_number<double>(flag, value(), 0.0, 3600.0);
    } else if (flag == "--threads") {
      o.threads = parse_number<std::int32_t>(flag, value(), 0, 1024);
    } else if (flag == "--json") {
      o.json_path = value();
    } else if (flag == "--trace") {
      o.trace_path = value();
    } else if (flag == "--record") {
      o.record = true;
    } else if (flag == "--smoke") {
      o.smoke = true;
    } else if (flag == "--help" || flag == "-h") {
      o.help = true;
      return o;
    } else {
      throw UsageError("unknown flag '" + std::string(flag) + "'");
    }
  }
  if (o.smoke) return o;
  if (o.workload.empty()) throw UsageError("--workload is required");
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end())
    throw UsageError("unknown workload '" + o.workload + "'");
  if (o.record && !o.trace_path.empty())
    throw UsageError("--record takes its digests from an untraced run");
  return o;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- reference digests ---------------------------------------------------

std::string reference_path(const Options& o) {
  return std::string(HXBENCH_REFERENCE_DIR) + "/" + o.workload + ".seed" +
         std::to_string(o.seed) + ".txt";
}

/// Per-op digests of a recorded run, or nullopt when the seed has none.
std::optional<std::vector<std::uint64_t>> load_reference(
    const std::string& path, std::size_t num_ops) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::vector<std::uint64_t> digests;
  std::string line;
  for (int lineno = 1; std::getline(in, line); ++lineno) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::size_t index = 0;
    std::string text;
    std::uint64_t digest = 0;
    const bool parsed =
        (fields >> index >> text) && index == digests.size() &&
        text.size() == 16 &&
        std::from_chars(text.data(), text.data() + 16, digest, 16).ptr ==
            text.data() + 16;
    if (!parsed)
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected '<op index> <16 hex digits>'");
    digests.push_back(digest);
  }
  if (digests.size() != num_ops)
    throw std::runtime_error(path + ": " + std::to_string(digests.size()) +
                             " ops recorded, the workload has " +
                             std::to_string(num_ops));
  return digests;
}

void write_reference(const std::string& path, const Options& o,
                     const std::vector<std::uint64_t>& digests) {
  std::ofstream out(path);
  out << "# hxbench reference: workload " << o.workload << ", seed "
      << o.seed << ", " << digests.size()
      << " ops: op index, FNV-1a digest of its result bits\n";
  for (std::size_t i = 0; i < digests.size(); ++i)
    out << i << ' ' << hex(digests[i]) << '\n';
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

// --- passes --------------------------------------------------------------

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void fail(std::string_view what, std::string_view why) {
    ++failed;
    if (failed <= 10)
      std::fprintf(stderr, "hxbench: %.*s failed: %.*s\n",
                   static_cast<int>(what.size()), what.data(),
                   static_cast<int>(why.size()), why.data());
  }
};

struct Pass {
  std::vector<std::uint64_t> digests;
  double seconds = 0.0;
  double production_s = 0.0;  // inside op.run()
  double replay_s = 0.0;      // inside op.replay()
  double replayed_s = 0.0;    // production time of the replayed calls
};

/// Runs every op once.  An op fails when it throws, reports a failed
/// result, digests differently from `expected` (pass 1, the reference) or,
/// when traced, when its replay digests differently from production.
Pass run_pass(const Workload& workload, Tracer* tracer,
              std::span<const std::vector<std::uint64_t>* const> expected,
              Tally& tally) {
  Pass pass;
  const Clock::time_point pass_start = Clock::now();
  for (std::size_t i = 0; i < workload.ops().size(); ++i) {
    const Op& op = workload.ops()[i];
    ++tally.attempted;
    std::uint64_t digest = 0;
    std::string why;
    const auto fail = [&why](const std::string& reason) {
      why += (why.empty() ? "" : "; ") + reason;
    };
    try {
      if (tracer != nullptr) tracer->begin_op(op.name);
      const double replayed_before =
          tracer != nullptr ? tracer->total(op.replayed) : 0.0;
      const Clock::time_point t0 = Clock::now();
      const Outcome out = op.run(tracer);
      const Clock::time_point t1 = Clock::now();
      pass.production_s += seconds_between(t0, t1);
      digest = out.digest;
      if (out.failed) fail("a replication deadlocked or truncated");
      for (const std::vector<std::uint64_t>* want : expected)
        if (want != nullptr && (*want)[i] != digest)
          fail("digest " + hex(digest) + " != expected " + hex((*want)[i]));
      if (tracer != nullptr) {
        pass.replayed_s += tracer->total(op.replayed) - replayed_before;
        const double counting_before = tracer->total(kTraceCounting);
        const Clock::time_point t2 = Clock::now();
        const Outcome replayed = op.replay(*tracer);
        const Clock::time_point t3 = Clock::now();
        tracer->replay_span(t2, t3);
        pass.replay_s += seconds_between(t2, t3) -
                         (tracer->total(kTraceCounting) - counting_before);
        if (replayed.digest != digest)
          fail("replay digest " + hex(replayed.digest) + " != production " +
               hex(digest));
      }
    } catch (const std::exception& e) {
      fail(e.what());
    }
    if (!why.empty())
      tally.fail("op " + std::to_string(i) + " (" + op.name + ")", why);
    pass.digests.push_back(digest);
  }
  pass.seconds = seconds_between(pass_start, Clock::now());
  return pass;
}

/// The set-up replay counts as one op: it fails when a rebuilt routing
/// differs from the fixture.
void check_setup_replay(const Workload& workload, Tracer& tracer,
                        Tally& tally) {
  ++tally.attempted;
  const Clock::time_point start = Clock::now();
  try {
    workload.replay_setup(tracer);
  } catch (const std::exception& e) {
    tally.fail("set-up replay", e.what());
  }
  tracer.replay_span(start, Clock::now());
}

std::uint64_t combined(const std::vector<std::uint64_t>& digests) {
  Digest d;
  d.add_all(std::span<const std::uint64_t>(digests));
  return d.value();
}

// --- metrics -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Spec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports, zero where the workload
/// does not reach the layer (README.md says which workload moves which).
constexpr Spec kLayerMetrics[] = {
    {"topo.build_s", "s"},
    {"routing.ftree.compute_s", "s"},
    {"routing.dfsssp_ft.compute_s", "s"},
    {"routing.dfsssp_hx.compute_s", "s"},
    {"routing.dfsssp_hx.phase.spf_trees_s", "s"},
    {"routing.dfsssp_hx.phase.table_merge_s", "s"},
    {"routing.dfsssp_hx.phase.vl_path_extraction_s", "s"},
    {"routing.dfsssp_hx.phase.vl_placement_s", "s"},
    {"core.parx.compute_s", "s"},
    {"core.parx.sar_compute_s", "s"},
    {"core.parx.reroutes", "count"},
    {"mpi.profile_s", "s"},
    {"mpi.execute_s", "s"},
    {"mpi.ops", "count"},
    {"mpi.rounds", "count"},
    {"mpi.msgs", "count"},
    {"mpi.msgs_per_s", "1/s"},
    {"mpi.select_dlid_s", "s"},
    {"routing.path_walk_s", "s"},
    {"routing.path_channels", "count"},
    {"mpi.flow_build_s", "s"},
    {"mpi.round_bookkeeping_s", "s"},
    {"sim.flow.fair_rates_s", "s"},
    {"sim.flow.solves", "count"},
    {"sim.flow.flows", "count"},
    {"sim.flow.levels", "count"},
    {"sim.flow.freezes", "count"},
    {"sim.flow.solve_batch_s", "s"},
    {"sim.flow.sets", "count"},
    {"workloads.mpigraph_s", "s"},
    {"workloads.ebb_s", "s"},
    {"workloads.run_workload_s", "s"},
    {"workloads.run_pkt_sweep_s", "s"},
    {"workloads.build_pkt_messages_s", "s"},
    {"sim.pkt.run_batch_s", "s"},
    {"sim.pkt.replications", "count"},
    {"sim.pkt.events", "count"},
    {"sim.pkt.events_per_s", "1/s"},
    {"sim.pkt.packets_delivered", "count"},
    {"sim.pkt.deadlocks", "count"},
    {"sim.pkt.truncated", "count"},
    {"mpi.replay_gap_s", "s"},
    {"trace.counting_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer values: set-up layers as measured once, pass layers per pass.
std::vector<Metric> layer_metrics(
    const Tracer& tracer,
    const std::map<std::string, double, std::less<>>& after_setup,
    const std::vector<Pass>& passes) {
  std::map<std::string, double, std::less<>> value;
  const auto n = static_cast<double>(passes.size());
  for (const auto& [name, total] : tracer.totals()) {
    const auto it = after_setup.find(name);
    const double setup = it == after_setup.end() ? 0.0 : it->second;
    value[name] = setup + (total - setup) / n;
  }
  double wall = 0.0, production = 0.0, gap = 0.0;
  for (const Pass& p : passes) {
    wall += p.seconds;
    production += p.production_s;
    gap += p.replayed_s - p.replay_s;
  }
  value["mpi.msgs_per_s"] = ratio(value["mpi.msgs"], value["mpi.execute_s"]);
  value["sim.pkt.events_per_s"] =
      ratio(value["sim.pkt.events"], value["sim.pkt.run_batch_s"]);
  value["mpi.replay_gap_s"] = gap / n;
  value["trace.overhead_frac"] = ratio(wall - production, production);

  std::vector<Metric> out;
  for (const Spec& spec : kLayerMetrics) {
    out.push_back({spec.name, value[spec.name], spec.unit});
    value.erase(spec.name);
  }
  for (const auto& [name, v] : value)  // e.g. a phase a later engine adds
    out.push_back({name, v, name.ends_with("_s") ? "s" : "count"});
  return out;
}

// --- the modes -----------------------------------------------------------

void print_header(const Options& o) {
  std::printf(
      "hxbench %s seed=%" PRIu64 " threads=%d nproc=%d compiler=\"%s\" "
      "build=%s sha=%s\n",
      o.workload.c_str(), o.seed, exec::default_threads(),
      exec::hardware_threads(), HXBENCH_COMPILER, HXBENCH_BUILD_TYPE,
      HXBENCH_GIT_SHA);
}

void write_json(const std::string& path, const Options& o,
                const std::vector<Metric>& metrics, const Tally& tally,
                bool correct, const std::vector<std::uint64_t>& digests,
                const std::string& reference) {
  std::ofstream out(path);
  out << "{\"meta\":{\"workload\":" << json_string(o.workload)
      << ",\"seed\":" << o.seed << ",\"threads\":" << exec::default_threads()
      << ",\"nproc\":" << exec::hardware_threads()
      << ",\"compiler\":" << json_string(HXBENCH_COMPILER)
      << ",\"build_type\":" << json_string(HXBENCH_BUILD_TYPE)
      << ",\"git_sha\":" << json_string(HXBENCH_GIT_SHA)
      << ",\"traced\":" << (o.trace_path.empty() ? "false" : "true")
      << ",\"reference\":" << json_string(reference) << "},\n";
  out << "\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
      << ",\"digest\":" << json_string(hex(combined(digests))) << ",\n";
  out << "\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i == 0 ? "\n" : ",\n") << json_string(metrics[i].name)
        << ":{\"value\":" << json_number(metrics[i].value)
        << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  out << "},\n\"op_digests\":[";
  for (std::size_t i = 0; i < digests.size(); ++i)
    out << (i == 0 ? "" : ",") << json_string(hex(digests[i]));
  out << "]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

int run_benchmark(const Options& o) {
  exec::set_default_threads(o.threads);
  print_header(o);
  const bool traced = !o.trace_path.empty();
  Tracer tracer;
  Tracer* const trace = traced ? &tracer : nullptr;
  Tally tally;

  const std::unique_ptr<Workload> workload =
      make_workload(o.workload, o.seed, false);
  std::vector<double> setups;
  double setup_total = 0.0;
  while (static_cast<int>(setups.size()) < kMinSetups ||
         setup_total < kMinSetupSeconds) {
    const Clock::time_point t0 = Clock::now();
    workload->setup();
    const Clock::time_point t1 = Clock::now();
    setups.push_back(seconds_between(t0, t1));
    setup_total += setups.back();
    if (trace != nullptr) {
      tracer.begin_op("setup");
      tracer.entry_span("setup", t0, t1);
    }
  }
  if (trace != nullptr) check_setup_replay(*workload, tracer, tally);
  const auto after_setup = tracer.totals();

  const std::string ref_path = reference_path(o);
  const std::optional<std::vector<std::uint64_t>> reference =
      o.record ? std::nullopt
               : load_reference(ref_path, workload->ops().size());

  std::vector<Pass> passes;
  double measured = 0.0;
  while (static_cast<std::int32_t>(passes.size()) < o.passes ||
         measured < o.seconds) {
    const std::vector<std::uint64_t>* expected[] = {
        passes.empty() ? nullptr : &passes.front().digests,
        reference ? &*reference : nullptr};
    passes.push_back(run_pass(*workload, trace, expected, tally));
    measured += passes.back().seconds;
    std::printf("pass %zu %.6f s digest %s\n", passes.size(),
                passes.back().seconds,
                hex(combined(passes.back().digests)).c_str());
  }
  const std::vector<std::uint64_t>& digests = passes.front().digests;

  std::vector<Metric> metrics;
  if (traced) {
    metrics = layer_metrics(tracer, after_setup, passes);
  } else {
    std::vector<double> walls;
    for (const Pass& p : passes) walls.push_back(p.seconds);
    metrics = {{"wall_s", median(walls), "s"},
               {"first_pass_s", walls.front(), "s"},
               {"setup_s", median(setups), "s"},
               {"peak_rss_mb", peak_rss_mib(), "MiB"},
               {"error_rate", ratio(static_cast<double>(tally.failed),
                                    static_cast<double>(tally.attempted)),
                "ratio"}};
  }
  for (const Metric& m : metrics)
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string reference_note;
  if (o.record) {
    if (tally.failed == 0) {
      write_reference(ref_path, o, digests);
      reference_note = "recorded " + ref_path;
    } else {
      reference_note = "not recorded: the run had failures";
    }
  } else {
    reference_note = reference ? "checked " + ref_path
                               : "none for this seed (compare digests)";
  }
  const bool correct = tally.failed == 0;
  std::printf("reference %s\n", reference_note.c_str());
  std::printf("attempted %" PRId64 " failed %" PRId64
              " correct %s digest %s\n",
              tally.attempted, tally.failed, correct ? "true" : "false",
              hex(combined(digests)).c_str());
  if (!o.json_path.empty())
    write_json(o.json_path, o, metrics, tally, correct, digests,
               reference_note);
  if (traced) tracer.write_chrome_trace(o.trace_path);
  return o.record && !correct ? 1 : 0;
}

/// Small system, trimmed sweeps: each workload must digest identically at
/// 1 and 4 threads and in a traced pass whose replays match production,
/// with no failed op.
int run_smoke() {
  bool ok = true;
  for (const std::string_view name : workload_names()) {
    const Clock::time_point start = Clock::now();
    Tally tally;
    const std::unique_ptr<Workload> workload = make_workload(name, 1, true);
    exec::set_default_threads(1);
    workload->setup();
    const std::vector<std::uint64_t>* none[] = {nullptr};
    const Pass serial = run_pass(*workload, nullptr, none, tally);
    exec::set_default_threads(4);
    const std::vector<std::uint64_t>* want[] = {&serial.digests};
    run_pass(*workload, nullptr, want, tally);
    Tracer tracer;
    // The set-up replay's engines run at 4 threads; the fixture at 1.
    check_setup_replay(*workload, tracer, tally);
    run_pass(*workload, &tracer, want, tally);
    const bool pass_ok = tally.failed == 0;
    ok = ok && pass_ok;
    std::printf("smoke %-10.*s %4zu ops  digest %s  %.2f s  %s\n",
                static_cast<int>(name.size()), name.data(),
                workload->ops().size(), hex(combined(serial.digests)).c_str(),
                seconds_between(start, Clock::now()),
                pass_ok ? "ok" : "FAILED");
  }
  exec::set_default_threads(0);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace hxbench

int main(int argc, char** argv) {
  using namespace hxbench;
  Options options;
  try {
    options = parse_args(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "hxbench: error: %s\n\n%s", e.what(), kUsage);
    return 2;
  }
  if (options.help) {
    std::printf("%s", kUsage);
    return 0;
  }
  try {
    return options.smoke ? run_smoke() : run_benchmark(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hxbench: error: %s\n", e.what());
    return 1;
  }
}
