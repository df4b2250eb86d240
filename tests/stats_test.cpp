// Unit tests for the stats foundation: RNG, summaries, gain, rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "stats/csv.hpp"
#include "stats/gain.hpp"
#include "stats/heatmap.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"
#include "stats/units.hpp"

namespace hxsim::stats {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 5);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    lo |= (v == -2);
    hi |= (v == 2);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GeometricMeanMatchesTheory) {
  // E[failures before success] = (1-p)/p = 0.25 for p = 0.8.
  Rng rng(5);
  double sum = 0.0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i)
    sum += static_cast<double>(rng.geometric(0.8));
  EXPECT_NEAR(sum / kSamples, 0.25, 0.02);
}

TEST(Rng, GeometricDegenerateP) {
  Rng rng(5);
  EXPECT_EQ(rng.geometric(1.0), 0);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(9);
  int hits = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.02);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(13);
  const auto perm = rng.permutation(100);
  std::set<std::int32_t> values(perm.begin(), perm.end());
  EXPECT_EQ(values.size(), 100u);
  EXPECT_EQ(*values.begin(), 0);
  EXPECT_EQ(*values.rbegin(), 99);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(1);
  Rng child = parent.fork();
  EXPECT_NE(parent.next(), child.next());
}

TEST(Summary, FiveNumberSummary) {
  const std::vector<double> v{5, 1, 4, 2, 3};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q25, 2.0);
  EXPECT_DOUBLE_EQ(s.q75, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(Summary, EmptyInputIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.median, 0.0);
}

TEST(Summary, QuantileInterpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 10.0);
}

TEST(Gain, LowerIsBetterSigns) {
  // Candidate twice as fast -> +1.0; twice as slow -> -0.5.
  EXPECT_DOUBLE_EQ(relative_gain(10.0, 5.0, Direction::kLowerIsBetter), 1.0);
  EXPECT_DOUBLE_EQ(relative_gain(10.0, 20.0, Direction::kLowerIsBetter), -0.5);
}

TEST(Gain, HigherIsBetterSigns) {
  EXPECT_DOUBLE_EQ(relative_gain(10.0, 15.0, Direction::kHigherIsBetter), 0.5);
  EXPECT_DOUBLE_EQ(relative_gain(10.0, 5.0, Direction::kHigherIsBetter), -0.5);
}

TEST(Gain, FailedRunsBecomeInfinities) {
  EXPECT_TRUE(std::isinf(
      relative_gain(10.0, kFailed, Direction::kLowerIsBetter)));
  EXPECT_LT(relative_gain(10.0, kFailed, Direction::kLowerIsBetter), 0.0);
  EXPECT_GT(relative_gain(kFailed, 10.0, Direction::kLowerIsBetter), 0.0);
  EXPECT_DOUBLE_EQ(
      relative_gain(kFailed, kFailed, Direction::kLowerIsBetter), 0.0);
}

TEST(Gain, FormatMatchesPaperCells) {
  EXPECT_EQ(format_gain(0.12), "+0.12");
  EXPECT_EQ(format_gain(-0.4499), "-0.45");
  EXPECT_EQ(format_gain(std::numeric_limits<double>::infinity()), "+Inf");
  EXPECT_EQ(format_gain(-std::numeric_limits<double>::infinity()), "-Inf");
  EXPECT_EQ(format_gain(0.0), "+0.00");
}

TEST(Heatmap, MeanAndOffDiagonal) {
  Heatmap h(2, 2, "t");
  h.set(0, 0, 4.0);
  h.set(0, 1, 2.0);
  h.set(1, 0, 2.0);
  h.set(1, 1, 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.mean_off_diagonal(), 2.0);
  EXPECT_DOUBLE_EQ(h.max_value(), 4.0);
}

TEST(Heatmap, OutOfRangeThrows) {
  Heatmap h(2, 2, "t");
  EXPECT_THROW(h.set(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW((void)h.at(0, 2), std::out_of_range);
}

TEST(Heatmap, RenderContainsTitleAndMean) {
  Heatmap h(1, 1, "title-here");
  h.set(0, 0, 1.0);
  const std::string s = h.to_string();
  EXPECT_NE(s.find("title-here"), std::string::npos);
  EXPECT_NE(s.find("mean="), std::string::npos);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, WritesRowsAndValidatesWidth) {
  const std::string path = ::testing::TempDir() + "/hxsim_csv_test.csv";
  CsvWriter w(path, {"x", "y"});
  w.add_row({"1", "2"});
  EXPECT_THROW(w.add_row({"1"}), std::runtime_error);
  w.close();
  EXPECT_THROW(w.add_row({"1", "2"}), std::runtime_error);

  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(Units, ByteFormatting) {
  EXPECT_EQ(format_bytes(1), "1B");
  EXPECT_EQ(format_bytes(1024), "1KiB");
  EXPECT_EQ(format_bytes(4 * kMiB), "4MiB");
  EXPECT_EQ(format_bytes(kGiB), "1GiB");
  EXPECT_EQ(format_bytes(1500), "1500B");
}

TEST(Units, BandwidthConversion) {
  EXPECT_DOUBLE_EQ(gib_per_s(kGiB, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(gib_per_s(kGiB, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(mib_per_s(kMiB, 2.0), 0.5);
}

TEST(Units, TimeFormatting) {
  EXPECT_EQ(format_time(1.5e-6), "1.50us");
  EXPECT_EQ(format_time(2.5e-3), "2.50ms");
  EXPECT_EQ(format_time(3.0), "3.00s");
}

}  // namespace
}  // namespace hxsim::stats
