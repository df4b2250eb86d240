// EXPERIMENTS.md renderer: the per-figure result tables of the document
// are generated from a ResultStore instead of typed by hand, so the doc
// is provably in sync with the code and the committed REPRO.json.
//
// A generated block is delimited by HTML-comment markers:
//
//   <!-- report:begin fig1_mpigraph.planes -->
//   | plane | mean GiB/s | ... |     <- regenerated, never hand-edited
//   <!-- report:end -->
//
// where `fig1_mpigraph` is an experiment id and `planes` one of its
// ResultTable ids.  render_experiments_md() replaces the content of every
// block with the markdown rendering of the referenced table and leaves
// all other bytes untouched.  Rendering is deterministic, so a second
// render of its own output is byte-identical (idempotence is tested).
//
// render_text_table() is the plain-text twin: repro_pipeline prints every
// metric and table of a ResultSet through it, so the run log shows
// exactly what the store holds.
#pragma once

#include <string>
#include <string_view>

#include "report/result.hpp"

namespace hxsim::report {

struct RenderStats {
  int blocks = 0;    // markers found and regenerated
  int changed = 0;   // blocks whose content differed from the input
};

/// Renders one ResultTable as a GitHub-flavoured markdown pipe table
/// (cells escape '|', '*' and '\').
[[nodiscard]] std::string render_markdown_table(const ResultTable& table);

/// Renders one ResultTable as aligned plain text (the pipeline log): the
/// header, a dashed rule, then one line per row, columns two spaces apart
/// and padded to the widest cell, trailing blanks trimmed.
[[nodiscard]] std::string render_text_table(const ResultTable& table);

/// Regenerates every marked block of `markdown` from `store`.  Throws
/// std::runtime_error on an unterminated block, a nested begin, a
/// malformed block id, or a block whose experiment/table is absent from
/// the store (that absence *is* the doc drifting from the code).
[[nodiscard]] std::string render_experiments_md(std::string_view markdown,
                                                const ResultStore& store,
                                                RenderStats* stats = nullptr);

}  // namespace hxsim::report
