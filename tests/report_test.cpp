// Unit tests for src/report (result store, claims engine, renderer) and
// the bench/experiments registry the reproduction pipeline runs.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/experiments.hpp"
#include "report/claims.hpp"
#include "report/render.hpp"
#include "report/result.hpp"

#ifndef HXSIM_SOURCE_DIR
#define HXSIM_SOURCE_DIR "."
#endif

namespace hxsim::report {
namespace {

// --- ResultSet / ResultStore ----------------------------------------------

TEST(ResultSet, SetOverwritesAndFindMisses) {
  ResultSet rs;
  rs.set("alpha", 1.0);
  rs.set("alpha", 2.5);
  ASSERT_NE(rs.find("alpha"), nullptr);
  EXPECT_DOUBLE_EQ(*rs.find("alpha"), 2.5);
  EXPECT_EQ(rs.find("beta"), nullptr);
  EXPECT_EQ(rs.metrics.size(), 1u);
}

TEST(ResultSet, SetRejectsNonFiniteMetrics) {
  ResultSet rs;
  EXPECT_THROW(rs.set("m", std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(rs.set("m", std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(rs.find("m"), nullptr);
}

TEST(ResultSet, TableReuseAndColumnMismatch) {
  ResultSet rs;
  ResultTable& t = rs.table("t", {"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(&rs.table("t", {"a", "b"}), &t);
  EXPECT_THROW(rs.table("t", {"a", "c"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

ResultStore sample_store() {
  ResultStore store;
  store.mode = RunMode::kQuick;
  store.seed = 7;
  ResultSet rs;
  rs.id = "exp1";
  rs.title = "An experiment";
  rs.paper_ref = "Fig. 0";
  rs.set("metric_a", 1.25);
  rs.set("metric_b", -3.0e-7);
  ResultTable& t = rs.table("tab", {"col|1", "col2"});
  t.add_row({"x*y", "back\\slash"});
  store.experiments.push_back(rs);
  return store;
}

TEST(ResultStore, JsonRoundTripIsByteStable) {
  const ResultStore store = sample_store();
  const std::string json = store.to_json();
  const ResultStore back = ResultStore::parse_json(json);
  EXPECT_EQ(back.mode, store.mode);
  EXPECT_EQ(back.seed, store.seed);
  ASSERT_EQ(back.experiments.size(), 1u);
  EXPECT_EQ(back.to_json(), json);
  ASSERT_NE(back.metric("exp1", "metric_a"), nullptr);
  EXPECT_DOUBLE_EQ(*back.metric("exp1", "metric_a"), 1.25);
  EXPECT_EQ(back.metric("exp1", "nope"), nullptr);
  EXPECT_EQ(back.metric("nope", "metric_a"), nullptr);
}

TEST(ResultStore, SeedsRoundTripExactly) {
  // Both above 2^53, where a trip through double would round them.
  const std::uint64_t above_2_53 = (std::uint64_t{1} << 53) + 1;
  for (const std::uint64_t seed :
       {std::numeric_limits<std::uint64_t>::max(), above_2_53}) {
    ResultStore store = sample_store();
    store.seed = seed;
    const std::string json = store.to_json();
    const ResultStore back = ResultStore::parse_json(json);
    EXPECT_EQ(back.seed, seed);
    EXPECT_EQ(back.to_json(), json);
  }
}

TEST(ResultStore, ParseRejectsSeedsThatAreNotUint64) {
  const std::string json = sample_store().to_json();
  const std::string seed = "\"seed\": 7";
  ASSERT_NE(json.find(seed), std::string::npos);
  for (const std::string bad : {"-1", "1.5", "1e3", "18446744073709551616"}) {
    std::string text = json;
    text.replace(text.find(seed), seed.size(), "\"seed\": " + bad);
    EXPECT_THROW(ResultStore::parse_json(text), std::runtime_error) << bad;
  }
}

TEST(ResultStore, ParseRejectsGarbage) {
  EXPECT_THROW(ResultStore::parse_json("not json"), std::runtime_error);
  EXPECT_THROW(ResultStore::parse_json("{\"schema\": \"wrong\"}"),
               std::runtime_error);
}

// --- claims ----------------------------------------------------------------

Claim make_claim(Direction dir, double expected, double band,
                 Scope scope = Scope::kBoth) {
  return Claim{.id = "c",
               .experiment = "exp1",
               .metric = "metric_a",
               .direction = dir,
               .expected = expected,
               .band = band,
               .scope = scope,
               .paper_ref = {},
               .note = {}};
}

TEST(Claims, DirectionSemantics) {
  // ge: measured >= expected - band.
  EXPECT_TRUE(claim_holds(make_claim(Direction::kAtLeast, 1.0, 0.1), 0.91));
  EXPECT_TRUE(claim_holds(make_claim(Direction::kAtLeast, 1.0, 0.1), 5.0));
  EXPECT_FALSE(claim_holds(make_claim(Direction::kAtLeast, 1.0, 0.1), 0.89));
  // le: measured <= expected + band.
  EXPECT_TRUE(claim_holds(make_claim(Direction::kAtMost, 1.0, 0.1), 1.09));
  EXPECT_TRUE(claim_holds(make_claim(Direction::kAtMost, 1.0, 0.1), -5.0));
  EXPECT_FALSE(claim_holds(make_claim(Direction::kAtMost, 1.0, 0.1), 1.11));
  // within: |measured - expected| <= band (band edges inclusive; the
  // band here is exactly representable so the edge itself is testable).
  EXPECT_TRUE(claim_holds(make_claim(Direction::kWithin, 1.0, 0.25), 1.25));
  EXPECT_TRUE(claim_holds(make_claim(Direction::kWithin, 1.0, 0.25), 0.75));
  EXPECT_FALSE(claim_holds(make_claim(Direction::kWithin, 1.0, 0.25), 1.3));
  // Non-finite measurements never satisfy a claim.
  EXPECT_FALSE(claim_holds(make_claim(Direction::kAtMost, 1.0, 1.0),
                           std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(claim_holds(make_claim(Direction::kWithin, 0.0, 1.0),
                           std::numeric_limits<double>::quiet_NaN()));
}

TEST(Claims, ScopeGatesRunModes) {
  EXPECT_TRUE(claim_applies(make_claim(Direction::kWithin, 0, 0, Scope::kBoth),
                            RunMode::kFull));
  EXPECT_TRUE(claim_applies(make_claim(Direction::kWithin, 0, 0, Scope::kBoth),
                            RunMode::kQuick));
  EXPECT_TRUE(claim_applies(make_claim(Direction::kWithin, 0, 0, Scope::kFull),
                            RunMode::kFull));
  EXPECT_FALSE(claim_applies(
      make_claim(Direction::kWithin, 0, 0, Scope::kFull), RunMode::kQuick));
  EXPECT_FALSE(claim_applies(
      make_claim(Direction::kWithin, 0, 0, Scope::kQuick), RunMode::kFull));
}

TEST(Claims, ParseFormatRoundTrip) {
  const std::string text =
      "# paper claims\n"
      "\n"
      "c1\texp1\tmetric_a\tge\t1.25\t0.05\tboth\tFig. 1\tkeeps bandwidth\n"
      "c2\texp1\tmetric_b\twithin\t-3e-07\t1e-08\tfull\tSS2.2\n";
  const std::vector<Claim> claims = parse_claims(text);
  ASSERT_EQ(claims.size(), 2u);
  EXPECT_EQ(claims[0].id, "c1");
  EXPECT_EQ(claims[0].direction, Direction::kAtLeast);
  EXPECT_EQ(claims[0].note, "keeps bandwidth");
  EXPECT_EQ(claims[1].scope, Scope::kFull);
  EXPECT_TRUE(claims[1].note.empty());
  // format -> parse -> format is stable.
  const std::string formatted = format_claims(claims);
  EXPECT_EQ(format_claims(parse_claims(formatted)), formatted);
}

TEST(Claims, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_claims("too\tfew\tfields\n"), std::runtime_error);
  EXPECT_THROW(
      parse_claims("c\texp\tm\tsideways\t1\t0\tboth\tref\n"),
      std::runtime_error);
  EXPECT_THROW(parse_claims("c\texp\tm\tge\tNaN\t0\tboth\tref\n"),
               std::runtime_error);
  EXPECT_THROW(parse_claims("c\texp\tm\tge\t1\t-0.5\tboth\tref\n"),
               std::runtime_error);
  EXPECT_THROW(parse_claims("c\texp\tm\tge\t1\t0\tsometimes\tref\n"),
               std::runtime_error);
  EXPECT_THROW(parse_claims("\texp\tm\tge\t1\t0\tboth\tref\n"),
               std::runtime_error);
}

TEST(Claims, CheckFlagsViolationsAndMissingMetrics) {
  const ResultStore store = sample_store();  // quick mode, metric_a = 1.25
  std::vector<Claim> claims;
  claims.push_back(make_claim(Direction::kAtLeast, 1.0, 0.0));  // holds
  claims.push_back(make_claim(Direction::kAtMost, 1.0, 0.1));   // violated
  claims.back().id = "too_big";
  claims.push_back(make_claim(Direction::kAtLeast, 9.9, 0.0, Scope::kFull));
  claims.back().id = "full_only_skipped";  // store is quick: not evaluated
  Claim missing = make_claim(Direction::kWithin, 0.0, 1.0);
  missing.id = "gone";
  missing.metric = "no_such_metric";
  claims.push_back(missing);

  const std::vector<Violation> violations = check_claims(claims, store);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].claim.id, "too_big");
  EXPECT_FALSE(violations[0].metric_missing);
  EXPECT_DOUBLE_EQ(violations[0].measured, 1.25);
  EXPECT_NE(violations[0].message().find("measured exp1.metric_a = 1.25"),
            std::string::npos);
  EXPECT_EQ(violations[1].claim.id, "gone");
  EXPECT_TRUE(violations[1].metric_missing);
  EXPECT_NE(violations[1].message().find("missing"), std::string::npos);
}

TEST(Claims, LoadDirConcatenatesAndRejectsDuplicates) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "hxsim_report_test_claims";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "a.tsv")
      << "a1\texp\tm\tge\t1\t0\tboth\tref\n";
  std::ofstream(dir / "b.tsv")
      << "b1\texp\tm\tle\t2\t0\tfull\tref\n";
  const std::vector<Claim> claims = load_claims_dir(dir.string());
  ASSERT_EQ(claims.size(), 2u);
  EXPECT_EQ(claims[0].id, "a1");  // files sorted by name
  EXPECT_EQ(claims[1].id, "b1");

  std::ofstream(dir / "c.tsv") << "a1\texp\tm\tge\t1\t0\tboth\tdup\n";
  EXPECT_THROW(load_claims_dir(dir.string()), std::runtime_error);
  fs::remove_all(dir);
  EXPECT_THROW(load_claims_dir(dir.string()), std::runtime_error);
}

TEST(Claims, CommittedTablesParseAndNameRegisteredExperiments) {
  const std::vector<Claim> claims =
      load_claims_dir(HXSIM_SOURCE_DIR "/claims");
  EXPECT_GE(claims.size(), 10u);
  const report::Registry& registry = bench::global_registry();
  for (const Claim& claim : claims)
    EXPECT_NE(registry.find(claim.experiment), nullptr)
        << "claim " << claim.id << " names unknown experiment '"
        << claim.experiment << "'";
}

// --- renderer --------------------------------------------------------------

TEST(Render, MarkdownTableEscapesCells) {
  ResultTable t;
  t.id = "tab";
  t.columns = {"col|1", "col2"};
  t.rows = {{"x*y", "back\\slash"}};
  const std::string md = render_markdown_table(t);
  EXPECT_EQ(md,
            "| col\\|1 | col2 |\n"
            "|---|---|\n"
            "| x\\*y | back\\\\slash |\n");
}

TEST(Render, TextTableAlignsColumns) {
  ResultTable t{"tab", {"a", "long-header"}, {}};
  t.add_row({"wide-cell", "x"});
  EXPECT_EQ(render_text_table(t),
            "a          long-header\n"
            "----------------------\n"
            "wide-cell  x\n");
}

TEST(Render, RegeneratesBlocksAndIsIdempotent) {
  const ResultStore store = sample_store();
  const std::string doc =
      "# Results\n"
      "prose before\n"
      "<!-- report:begin exp1.tab -->\n"
      "| stale | table |\n"
      "<!-- report:end -->\n"
      "prose after\n";
  RenderStats stats;
  const std::string once = render_experiments_md(doc, store, &stats);
  EXPECT_EQ(stats.blocks, 1);
  EXPECT_EQ(stats.changed, 1);
  EXPECT_NE(once.find("| x\\*y | back\\\\slash |"), std::string::npos);
  EXPECT_NE(once.find("prose before"), std::string::npos);
  EXPECT_NE(once.find("prose after"), std::string::npos);
  EXPECT_EQ(once.find("stale"), std::string::npos);

  const std::string twice = render_experiments_md(once, store, &stats);
  EXPECT_EQ(stats.blocks, 1);
  EXPECT_EQ(stats.changed, 0);
  EXPECT_EQ(twice, once);
}

TEST(Render, RejectsDriftedMarkers) {
  const ResultStore store = sample_store();
  EXPECT_THROW(render_experiments_md(
                   "<!-- report:begin exp1.tab -->\nno end\n", store),
               std::runtime_error);
  EXPECT_THROW(render_experiments_md("text\n<!-- report:end -->\n", store),
               std::runtime_error);
  EXPECT_THROW(render_experiments_md(
                   "<!-- report:begin noseparator -->\n<!-- report:end -->\n",
                   store),
               std::runtime_error);
  EXPECT_THROW(
      render_experiments_md("<!-- report:begin exp1.tab -->\n"
                            "<!-- report:begin exp1.tab -->\n"
                            "<!-- report:end -->\n<!-- report:end -->\n",
                            store),
      std::runtime_error);
  EXPECT_THROW(render_experiments_md("<!-- report:begin ghost.tab -->\n"
                                     "<!-- report:end -->\n",
                                     store),
               std::runtime_error);
  EXPECT_THROW(render_experiments_md("<!-- report:begin exp1.ghost -->\n"
                                     "<!-- report:end -->\n",
                                     store),
               std::runtime_error);
}

TEST(Render, CommittedExperimentsMdRendersFromCommittedStore) {
  std::ifstream md(HXSIM_SOURCE_DIR "/EXPERIMENTS.md", std::ios::binary);
  ASSERT_TRUE(md.is_open());
  std::ostringstream buf;
  buf << md.rdbuf();
  const ResultStore store =
      ResultStore::read_json(HXSIM_SOURCE_DIR "/REPRO.json");
  EXPECT_EQ(store.mode, RunMode::kFull);
  RenderStats stats;
  const std::string rendered =
      render_experiments_md(buf.str(), store, &stats);
  EXPECT_GE(stats.blocks, 10);
  // The committed doc must be exactly what the committed store renders.
  EXPECT_EQ(stats.changed, 0);
  EXPECT_EQ(rendered, buf.str());
}

// --- experiment registry ---------------------------------------------------

TEST(Registry, RejectsDuplicatesAndEmptyIds) {
  Registry r;
  r.add({"x", "t", "ref", [](const Options&) { return ResultSet{}; }});
  EXPECT_THROW(
      r.add({"x", "t", "ref", [](const Options&) { return ResultSet{}; }}),
      std::invalid_argument);
  EXPECT_THROW(
      r.add({"", "t", "ref", [](const Options&) { return ResultSet{}; }}),
      std::invalid_argument);
}

TEST(Registry, CoversEveryExperimentSource) {
  // Every experiments/exp_<id>.cpp compiled by bench/CMakeLists.txt must
  // register an experiment named <id>: repro_pipeline --only <id> is the
  // only way to run it, and the claims bind to that id.
  std::ifstream cmake(HXSIM_SOURCE_DIR "/bench/CMakeLists.txt");
  ASSERT_TRUE(cmake.is_open());
  std::ostringstream buf;
  buf << cmake.rdbuf();
  const std::string text = buf.str();
  // Each "experiments/exp_<id>.cpp", <id> a run of word characters.
  const std::string prefix = "experiments/exp_";
  const auto word = [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_';
  };
  std::set<std::string> ids;
  for (std::size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    const std::size_t begin = at + prefix.size();
    std::size_t end = begin;
    while (end < text.size() && word(text[end])) ++end;
    if (end > begin && text.compare(end, 4, ".cpp") == 0)
      ids.insert(text.substr(begin, end - begin));
  }
  const report::Registry& registry = bench::global_registry();
  EXPECT_EQ(ids.size(), registry.experiments().size());
  for (const std::string& id : ids)
    EXPECT_NE(registry.find(id), nullptr)
        << "experiments/exp_" << id << ".cpp registers no experiment '" << id
        << "'";
}

TEST(Registry, TraceIsALoadableStoreWithOneCsvPerTable) {
  // --trace writes the experiment's trace as a one-experiment result
  // store (what `repro_pipeline --from` loads) plus <stem>_<table>.csv,
  // through the pipeline's writer.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "hxsim_trace_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const report::Registry& registry = bench::global_registry();
  const Experiment* exp = registry.find("fig1_mpigraph");
  ASSERT_NE(exp, nullptr);
  Options options;
  options.quick = true;
  ResultSet filled;
  options.trace = &filled;
  (void)registry.run(*exp, options);
  const std::string path = (dir / "fig1.json").string();
  bench::write_trace(path, options, std::move(filled));

  const ResultStore store = ResultStore::read_json(path);
  EXPECT_EQ(store.mode, RunMode::kQuick);
  ASSERT_EQ(store.experiments.size(), 1u);
  const ResultSet& trace = store.experiments.front();
  EXPECT_EQ(trace.id, "fig1_mpigraph");
  std::set<std::string> tables;
  for (const ResultTable& t : trace.tables) {
    tables.insert(t.id);
    EXPECT_FALSE(t.rows.empty()) << t.id;
    EXPECT_TRUE(fs::exists(dir / ("fig1_" + t.id + ".csv"))) << t.id;
  }
  EXPECT_EQ(tables,
            (std::set<std::string>{"flow_solves", "hx_channel_util"}));
  std::size_t csvs = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".csv") ++csvs;
  EXPECT_EQ(csvs, trace.tables.size());
  EXPECT_NE(trace.find("flow_solver_solves"), nullptr);
  EXPECT_NE(trace.find("dfsssp_spf_trees_s"), nullptr);
  fs::remove_all(dir);
}

TEST(Registry, CsvWritesEveryTableInOrder) {
  // --csv writes one <stem>_<table>.csv per table of the ResultSet: the
  // header is the table's columns, the rows follow in order, and every
  // cell goes through stats::CsvWriter's escaping.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "hxsim_csv_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ResultSet rs;
  rs.set("ignored", 1.0);
  ResultTable first{"first", {"x", "y, z"}, {}};
  first.add_row({"1", "say \"hi\""});
  first.add_row({"2", "plain"});
  rs.tables.push_back(std::move(first));
  rs.table("second", {"only"}).add_row({"a,b"});
  bench::write_table_csvs(rs, (dir / "out.csv").string());

  const auto lines = [](const fs::path& path) {
    std::ifstream in(path);
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  };
  EXPECT_EQ(lines(dir / "out_first.csv"),
            (std::vector<std::string>{"x,\"y, z\"", "1,\"say \"\"hi\"\"\"",
                                      "2,plain"}));
  EXPECT_EQ(lines(dir / "out_second.csv"),
            (std::vector<std::string>{"only", "\"a,b\""}));
  EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                          fs::directory_iterator()),
            2);
  fs::remove_all(dir);
}

TEST(Registry, RunStampsIdentityAndProducesMetrics) {
  // The cheapest registered experiment end-to-end: small fabrics, no
  // PaperSystem.  Also pins the repo-level routing-churn contract.
  const report::Registry& registry = bench::global_registry();
  const Experiment* exp = registry.find("reroute_dirty");
  ASSERT_NE(exp, nullptr);
  Options options;
  options.quick = true;
  options.threads = 1;
  const ResultSet rs = registry.run(*exp, options);
  EXPECT_EQ(rs.id, "reroute_dirty");
  EXPECT_EQ(rs.title, exp->title);
  EXPECT_EQ(rs.paper_ref, exp->paper_ref);
  ASSERT_NE(rs.find("ftree_dirty_fraction"), nullptr);
  EXPECT_LT(*rs.find("ftree_dirty_fraction"), 1.0);
  ASSERT_NE(rs.find("hx_dfsssp_dirty_fraction"), nullptr);
  EXPECT_LT(*rs.find("hx_dfsssp_dirty_fraction"), 1.0);
  ASSERT_FALSE(rs.tables.empty());
  EXPECT_EQ(rs.tables[0].id, "dirty");
}

}  // namespace
}  // namespace hxsim::report
