// hxbench: host wall-clock benchmark of the paper pipeline.
//
// One process runs one workload as a closed loop: a single thread issues
// the workload's operations ("ops") back to back, and the library
// fans its own work (routing engines, FlowSim::solve_batch,
// PktSim::run_batch) over exec::default_threads() workers.  Every op digests
// its raw result bits, so a run also checks that the outputs did not change.
//
// A traced run additionally replays every op through the public sub-calls
// the production entry point makes (Cluster::select_dlid,
// ForwardingTables::path, FlowSim::fair_rates, ...), timing each layer, and
// fails the op unless the replay digests bit-identically.  See README.md
// for the workloads, the metrics and what each layer should move.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hxbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// 64-bit FNV-1a over the raw bytes of result values: equal digests mean
/// bit-equal results (up to hash collisions), so -0.0 vs 0.0 or a changed
/// NaN payload counts as a difference.
class Digest {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ULL;
    }
  }
  template <typename T>
  void add_all(std::span<const T> values) {
    for (const T& v : values) add(v);
  }
  void add_all(std::string_view text) {
    for (const char c : text) add(c);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

[[nodiscard]] inline std::uint64_t digest_of(std::span<const double> values) {
  Digest d;
  d.add_all(values);
  return d.value();
}

/// Seconds a replay spends counting rather than re-executing (the traced
/// second solve behind the sim.flow counters); excluded from the replay
/// time that mpi.replay_gap_s compares with production.
inline constexpr std::string_view kTraceCounting = "trace.counting_s";

/// Minimal JSON output: an escaped, quoted string, and a number with all
/// its digits (non-finite values become null, which JSON cannot express).
[[nodiscard]] std::string json_string(std::string_view text);
[[nodiscard]] std::string json_number(double value);

/// The traced run's ledger.  Layer totals accumulate under metric names
/// (seconds or counts).  Production entry points get one span per call.
/// The hot sub-calls of a replay are aggregated per op as child counters
/// instead of one span per call: replay_span() turns the children added
/// since the previous replay span into its args, so a layer's self time is
/// the span's duration minus its children.  Spans stay in memory until
/// write_chrome_trace().
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Labels the spans that follow with the op about to run.
  void begin_op(std::string_view op) { op_.assign(op); }
  /// Records a production call [start, end) and adds its seconds to each
  /// of `metrics`.
  void entry_span(std::string_view name, Clock::time_point start,
                  Clock::time_point end,
                  std::initializer_list<std::string_view> metrics = {});
  /// Adds `value` to the layer total `metric` and to the replay's children.
  void add(std::string_view metric, double value);
  void add_time(std::string_view metric, Clock::time_point from,
                Clock::time_point to) {
    add(metric, seconds_between(from, to));
  }
  /// Records the replay [start, end) with the children added since the
  /// previous replay span.
  void replay_span(Clock::time_point start, Clock::time_point end);

  [[nodiscard]] double total(std::string_view metric) const;
  [[nodiscard]] const std::map<std::string, double, std::less<>>& totals()
      const noexcept {
    return totals_;
  }

  /// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string op;
    double start_us = 0.0;
    double dur_us = 0.0;
    std::vector<std::pair<std::string, double>> children;
  };

  void add_total(std::string_view metric, double value);
  void push_span(std::string_view name, Clock::time_point start,
                 Clock::time_point end,
                 std::vector<std::pair<std::string, double>> children);

  Clock::time_point epoch_;
  std::string op_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::string, double>> pending_;
  std::map<std::string, double, std::less<>> totals_;
};

/// Calls `fn` as a production entry point; when traced, records its span,
/// named after the first of `metrics`, and adds its seconds to each.
template <typename Fn>
auto entry_point(Tracer* tracer,
                 std::initializer_list<std::string_view> metrics, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  if (tracer != nullptr)
    tracer->entry_span(*metrics.begin(), start, Clock::now(), metrics);
  return result;
}

/// What an op reports: the digest of its raw result bits, and whether the
/// result is a failure by itself (a deadlocked or truncated replication).
struct Outcome {
  std::uint64_t digest = 0;
  bool failed = false;
};

struct Op {
  std::string name;
  /// The production calls through the public entry points; records their
  /// spans when given a tracer.
  std::function<Outcome(Tracer*)> run;
  /// The entry-point metric whose call replay() re-executes.
  std::string_view replayed;
  /// That call re-executed through its public sub-calls with every layer
  /// timed; must digest bit-identically to run().
  std::function<Outcome(Tracer&)> replay;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// (Re)builds the fixtures and the op list; this is the timed set-up.
  virtual void setup() = 0;
  /// Rebuilds the fixtures through the topology constructors and each
  /// routing engine's compute(), timing each layer; throws unless every
  /// rebuilt RouteResult equals the fixture's.
  virtual void replay_setup(Tracer& tracer) const = 0;
  [[nodiscard]] const std::vector<Op>& ops() const noexcept { return ops_; }

 protected:
  std::vector<Op> ops_;
};

/// The four workloads, in README order.
[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// `smoke` selects the scaled-down system and trimmed sweeps of --smoke.
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed,
                                                      bool smoke);

}  // namespace hxbench
