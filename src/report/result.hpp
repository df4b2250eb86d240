// The shared result schema of the reproduction pipeline.
//
// Every registered experiment (see experiment.hpp) returns a ResultSet:
// named scalar metrics (the machine-checked surface -- claims.hpp asserts
// tolerance bands against them) plus pre-formatted string tables (the
// human-readable surface -- render.hpp splices them into EXPERIMENTS.md).
// A ResultStore bundles one pipeline run of many experiments and
// serialises to/from REPRO.json, the committed result store that keeps
// code, claims and docs provably in sync.
//
// The JSON dialect is the subset this writer emits (objects, arrays,
// strings, finite numbers); parse_json() accepts exactly that subset and
// round-trips bit-stable: same store -> same bytes -> same store.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hxsim::report {

/// Rectangular table of pre-formatted cells, ready for markdown.
struct ResultTable {
  std::string id;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;

  /// Throws std::invalid_argument if the cell count != column count.
  void add_row(std::vector<std::string> cells);
};

/// One experiment's structured output.
struct ResultSet {
  std::string id;         // registry id == bench binary name
  std::string title;      // one line, e.g. "Fig. 1 mpiGraph heatmaps"
  std::string paper_ref;  // e.g. "Fig. 1", "SS2.2"

  std::vector<std::pair<std::string, double>> metrics;
  std::vector<ResultTable> tables;

  /// Sets (or overwrites) a named scalar metric.  Throws
  /// std::invalid_argument, naming the metric, on a non-finite value.
  void set(std::string_view name, double value);

  /// nullptr when absent.
  [[nodiscard]] const double* find(std::string_view name) const;

  /// Creates (or returns the existing) table.  Re-requesting an existing
  /// id with different columns throws std::invalid_argument.
  ResultTable& table(std::string_view id, std::vector<std::string> columns);
};

enum class RunMode : std::uint8_t { kFull, kQuick };

[[nodiscard]] std::string_view to_string(RunMode mode);

/// One pipeline run: every experiment's ResultSet plus the run context.
struct ResultStore {
  RunMode mode = RunMode::kFull;
  std::uint64_t seed = 1;
  std::vector<ResultSet> experiments;

  [[nodiscard]] const ResultSet* find(std::string_view id) const;

  /// nullptr when the experiment or the metric is absent.
  [[nodiscard]] const double* metric(std::string_view experiment,
                                     std::string_view name) const;

  [[nodiscard]] std::string to_json() const;
  void write_json(const std::string& path) const;  // throws on I/O error

  /// Inverse of to_json().  Throws std::runtime_error with a position on
  /// malformed input or a schema mismatch.
  static ResultStore parse_json(std::string_view text);
  static ResultStore read_json(const std::string& path);
};

/// Shared number formatting: shortest %.10g form, stable across runs for
/// identical doubles (REPRO.json and claims reports both use it).
[[nodiscard]] std::string format_metric(double value);

}  // namespace hxsim::report
