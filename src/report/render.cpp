#include "report/render.hpp"

#include <algorithm>
#include <stdexcept>

namespace hxsim::report {

namespace {

constexpr std::string_view kBegin = "<!-- report:begin ";
constexpr std::string_view kBeginClose = " -->";
constexpr std::string_view kEnd = "<!-- report:end -->";

std::string escape_cell(std::string_view cell) {
  std::string out;
  out.reserve(cell.size());
  for (const char c : cell) {
    if (c == '|' || c == '*' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

std::string render_markdown_table(const ResultTable& table) {
  std::string out;
  const auto append_row = [&out](const std::vector<std::string>& cells) {
    out += "|";
    for (const std::string& cell : cells)
      out.append(" ").append(escape_cell(cell)).append(" |");
    out += "\n";
  };
  append_row(table.columns);
  out += "|";
  for (std::size_t c = 0; c < table.columns.size(); ++c) out += "---|";
  out += "\n";
  for (const auto& row : table.rows) append_row(row);
  return out;
}

std::string render_text_table(const ResultTable& table) {
  std::vector<std::size_t> widths(table.columns.size());
  for (std::size_t c = 0; c < widths.size(); ++c) {
    widths[c] = table.columns[c].size();
    for (const auto& row : table.rows)
      widths[c] = std::max(widths[c], row[c].size());
  }
  std::string out;
  const auto append_row = [&](const std::vector<std::string>& cells) {
    const std::size_t start = out.size();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) out.append(2, ' ');
      out.append(cells[c]).append(widths[c] - cells[c].size(), ' ');
    }
    // Trim trailing padding for clean diffs.
    while (out.size() > start && out.back() == ' ') out.pop_back();
    out += "\n";
  };
  append_row(table.columns);
  std::size_t total = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c != 0 ? 2 : 0);
  out.append(total, '-').append("\n");
  for (const auto& row : table.rows) append_row(row);
  return out;
}

std::string render_experiments_md(std::string_view markdown,
                                  const ResultStore& store,
                                  RenderStats* stats) {
  std::string out;
  out.reserve(markdown.size());
  std::size_t pos = 0;
  RenderStats local;
  while (true) {
    const std::size_t begin = markdown.find(kBegin, pos);
    if (begin == std::string_view::npos) {
      // A stray end marker outside any block is drift worth rejecting.
      if (markdown.find(kEnd, pos) != std::string_view::npos)
        throw std::runtime_error(
            "report:end marker without a matching report:begin");
      out += markdown.substr(pos);
      break;
    }
    const std::size_t id_start = begin + kBegin.size();
    const std::size_t id_end = markdown.find(kBeginClose, id_start);
    if (id_end == std::string_view::npos)
      throw std::runtime_error("unterminated report:begin marker");
    const std::string block_id(markdown.substr(id_start, id_end - id_start));
    const std::size_t dot = block_id.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == block_id.size() ||
        block_id.find_first_of(" \t\n") != std::string::npos)
      throw std::runtime_error("malformed report block id '" + block_id +
                               "' (want <experiment>.<table>)");
    const std::size_t content_start = id_end + kBeginClose.size();
    const std::size_t end = markdown.find(kEnd, content_start);
    if (end == std::string_view::npos)
      throw std::runtime_error("report block '" + block_id +
                               "' has no report:end marker");
    if (const std::size_t nested = markdown.find(kBegin, content_start);
        nested != std::string_view::npos && nested < end)
      throw std::runtime_error("nested report:begin inside block '" +
                               block_id + "'");

    const std::string experiment_id = block_id.substr(0, dot);
    const std::string table_id = block_id.substr(dot + 1);
    const ResultSet* rs = store.find(experiment_id);
    if (rs == nullptr)
      throw std::runtime_error("block '" + block_id + "': experiment '" +
                               experiment_id +
                               "' is not in the result store");
    const ResultTable* table = nullptr;
    for (const auto& t : rs->tables)
      if (t.id == table_id) table = &t;
    if (table == nullptr)
      throw std::runtime_error("block '" + block_id + "': experiment '" +
                               experiment_id + "' has no table '" + table_id +
                               "'");

    const std::string_view old_content =
        markdown.substr(content_start, end - content_start);
    std::string new_content = "\n";
    new_content += render_markdown_table(*table);
    ++local.blocks;
    if (old_content != new_content) ++local.changed;

    out += markdown.substr(pos, content_start - pos);
    out += new_content;
    out += kEnd;
    pos = end + kEnd.size();
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace hxsim::report
