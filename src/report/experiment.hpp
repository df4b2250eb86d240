// Experiment registry: the paper's figures and studies as enumerable,
// programmatically runnable units.
//
// A registered Experiment is the one measurement core of a figure, table
// or repo-level contract.  bench/repro_pipeline runs one of them
// (`--only <id>`) or the whole registry in one process, collects every
// ResultSet into a ResultStore (REPRO.json), checks the committed claims/
// tables against it (claims.hpp) and regenerates the EXPERIMENTS.md
// result tables (render.hpp).
//
// An experiment writes nothing itself: the ResultSet it returns is its
// whole output.  repro_pipeline prints it, stores it and writes every
// file from it (--out, --csv, --trace).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "report/result.hpp"

namespace hxsim::report {

/// The option surface of an experiment run (repro_pipeline's flags,
/// decoupled from the CLI so experiments are library-callable).
struct Options {
  bool quick = false;
  std::uint64_t seed = 1;
  std::int32_t reps = 3;
  std::int32_t threads = 0;  // 0: hardware_concurrency
  /// Set when the run exports an observability trace (--trace): the
  /// experiment fills it beside its ResultSet, or leaves it empty if it
  /// has none.  Tracing never changes the ResultSet.
  ResultSet* trace = nullptr;
};

struct Experiment {
  std::string id;         // e.g. "fig1_mpigraph" (defined in exp_<id>.cpp)
  std::string title;      // one-line purpose
  std::string paper_ref;  // figure/table/section reproduced
  std::function<ResultSet(const Options&)> run;
};

class Registry {
 public:
  /// Throws std::invalid_argument on a duplicate or empty id.
  void add(Experiment experiment);

  [[nodiscard]] const Experiment* find(std::string_view id) const;
  [[nodiscard]] const std::vector<Experiment>& experiments() const noexcept {
    return experiments_;
  }

  /// Runs `experiment` and stamps id/title/paper_ref into the ResultSet
  /// and into options.trace, if set (so individual run() bodies cannot
  /// drift from their registration).
  [[nodiscard]] ResultSet run(const Experiment& experiment,
                              const Options& options) const;

 private:
  std::vector<Experiment> experiments_;
};

}  // namespace hxsim::report
