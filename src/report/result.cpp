#include "report/result.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace hxsim::report {

namespace {

constexpr std::string_view kSchema = "hxsim-repro v1";

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);  // UTF-8 passes through verbatim
        }
    }
  }
  out.push_back('"');
}

/// Recursive-descent parser for exactly the dialect to_json() emits.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ResultStore parse_store() {
    expect('{');
    ResultStore store;
    bool first = true;
    while (!try_consume('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "schema") {
        if (parse_string() != kSchema)
          fail("unsupported schema (expected 'hxsim-repro v1')");
      } else if (key == "mode") {
        const std::string mode = parse_string();
        if (mode == "full") store.mode = RunMode::kFull;
        else if (mode == "quick") store.mode = RunMode::kQuick;
        else fail("mode must be 'full' or 'quick'");
      } else if (key == "seed") {
        store.seed = parse_number<std::uint64_t>();
      } else if (key == "experiments") {
        expect('[');
        while (!try_consume(']')) {
          if (!store.experiments.empty()) expect(',');
          store.experiments.push_back(parse_experiment());
        }
      } else {
        fail("unknown store key '" + key + "'");
      }
    }
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after store object");
    return store;
  }

 private:
  ResultSet parse_experiment() {
    expect('{');
    ResultSet rs;
    bool first = true;
    while (!try_consume('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "id") rs.id = parse_string();
      else if (key == "title") rs.title = parse_string();
      else if (key == "paper_ref") rs.paper_ref = parse_string();
      else if (key == "metrics") {
        expect('{');
        bool m_first = true;
        while (!try_consume('}')) {
          if (!m_first) expect(',');
          m_first = false;
          const std::string name = parse_string();
          expect(':');
          rs.metrics.emplace_back(name, parse_number<double>());
        }
      } else if (key == "tables") {
        expect('[');
        while (!try_consume(']')) {
          if (!rs.tables.empty()) expect(',');
          rs.tables.push_back(parse_table());
        }
      } else {
        fail("unknown experiment key '" + key + "'");
      }
    }
    if (rs.id.empty()) fail("experiment without id");
    return rs;
  }

  ResultTable parse_table() {
    expect('{');
    ResultTable t;
    bool first = true;
    while (!try_consume('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "id") t.id = parse_string();
      else if (key == "columns") t.columns = parse_string_array();
      else if (key == "rows") {
        expect('[');
        while (!try_consume(']')) {
          if (!t.rows.empty()) expect(',');
          t.rows.push_back(parse_string_array());
        }
      } else {
        fail("unknown table key '" + key + "'");
      }
    }
    for (const auto& row : t.rows)
      if (row.size() != t.columns.size())
        fail("table '" + t.id + "' row width != column count");
    return t;
  }

  std::vector<std::string> parse_string_array() {
    expect('[');
    std::vector<std::string> out;
    while (!try_consume(']')) {
      if (!out.empty()) expect(',');
      out.push_back(parse_string());
    }
    return out;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          if (code > 0x7f) fail("\\u escape above 0x7f not supported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unsupported escape");
      }
    }
    fail("unterminated string");
    return out;  // unreachable
  }

  /// The next number token as a T, checked over its whole length: a seed
  /// reads as an exact uint64 (no sign, fraction, exponent or overflow), a
  /// metric as a double.
  template <typename T>
  T parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected number");
    const std::string_view token = text_.substr(start, pos_ - start);
    T value{};
    const char* end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, value);
    if (error != std::errc{} || stop != end)
      fail("malformed number '" + std::string(token) + "'");
    return value;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("REPRO.json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void ResultTable::add_row(std::vector<std::string> cells) {
  if (cells.size() != columns.size())
    throw std::invalid_argument("table '" + id + "': row has " +
                                std::to_string(cells.size()) + " cells, " +
                                std::to_string(columns.size()) + " columns");
  rows.push_back(std::move(cells));
}

void ResultSet::set(std::string_view name, double value) {
  // to_json() could only write it as a bare inf/nan parse_json() rejects.
  if (!std::isfinite(value))
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' is not finite (" + format_metric(value) +
                                ")");
  for (auto& [n, v] : metrics)
    if (n == name) {
      v = value;
      return;
    }
  metrics.emplace_back(std::string(name), value);
}

const double* ResultSet::find(std::string_view name) const {
  for (const auto& [n, v] : metrics)
    if (n == name) return &v;
  return nullptr;
}

ResultTable& ResultSet::table(std::string_view table_id,
                              std::vector<std::string> columns) {
  for (auto& t : tables)
    if (t.id == table_id) {
      if (t.columns != columns)
        throw std::invalid_argument("table '" + std::string(table_id) +
                                    "' re-requested with different columns");
      return t;
    }
  tables.push_back(ResultTable{std::string(table_id), std::move(columns), {}});
  return tables.back();
}

std::string_view to_string(RunMode mode) {
  return mode == RunMode::kQuick ? "quick" : "full";
}

const ResultSet* ResultStore::find(std::string_view id) const {
  for (const auto& rs : experiments)
    if (rs.id == id) return &rs;
  return nullptr;
}

const double* ResultStore::metric(std::string_view experiment,
                                  std::string_view name) const {
  const ResultSet* rs = find(experiment);
  return rs ? rs->find(name) : nullptr;
}

std::string format_metric(double value) {
  if (!std::isfinite(value)) return value > 0 ? "inf" : (value < 0 ? "-inf" : "nan");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

std::string ResultStore::to_json() const {
  std::string out;
  out += "{\n  \"schema\": ";
  append_escaped(out, kSchema);
  out += ",\n  \"mode\": ";
  append_escaped(out, to_string(mode));
  out += ",\n  \"seed\": " + std::to_string(seed);
  out += ",\n  \"experiments\": [";
  for (std::size_t e = 0; e < experiments.size(); ++e) {
    const ResultSet& rs = experiments[e];
    out += e ? ",\n    {" : "\n    {";
    out += "\n      \"id\": ";
    append_escaped(out, rs.id);
    out += ",\n      \"title\": ";
    append_escaped(out, rs.title);
    out += ",\n      \"paper_ref\": ";
    append_escaped(out, rs.paper_ref);
    out += ",\n      \"metrics\": {";
    for (std::size_t m = 0; m < rs.metrics.size(); ++m) {
      out += m ? ",\n        " : "\n        ";
      append_escaped(out, rs.metrics[m].first);
      out += ": " + format_metric(rs.metrics[m].second);
    }
    out += rs.metrics.empty() ? "}" : "\n      }";
    out += ",\n      \"tables\": [";
    for (std::size_t t = 0; t < rs.tables.size(); ++t) {
      const ResultTable& tab = rs.tables[t];
      out += t ? ",\n        {" : "\n        {";
      out += "\"id\": ";
      append_escaped(out, tab.id);
      out += ",\n         \"columns\": [";
      for (std::size_t c = 0; c < tab.columns.size(); ++c) {
        if (c) out += ", ";
        append_escaped(out, tab.columns[c]);
      }
      out += "],\n         \"rows\": [";
      for (std::size_t r = 0; r < tab.rows.size(); ++r) {
        out += r ? ",\n           [" : "\n           [";
        for (std::size_t c = 0; c < tab.rows[r].size(); ++c) {
          if (c) out += ", ";
          append_escaped(out, tab.rows[r][c]);
        }
        out += "]";
      }
      out += tab.rows.empty() ? "]" : "\n         ]";
      out += "}";
    }
    out += rs.tables.empty() ? "]" : "\n      ]";
    out += "\n    }";
  }
  out += experiments.empty() ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
}

void ResultStore::write_json(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << to_json();
  if (!f.good()) throw std::runtime_error("write failed: " + path);
}

ResultStore ResultStore::parse_json(std::string_view text) {
  return Parser(text).parse_store();
}

ResultStore ResultStore::read_json(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_json(ss.str());
}

}  // namespace hxsim::report
