#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/byte_codec.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace savg {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Infeasible("no solution");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInfeasible);
  EXPECT_EQ(s.ToString(), "Infeasible: no solution");
}

TEST(StatusTest, ResultHoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(StatusTest, ResultHoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = rng.UniformInt(uint64_t{5});
    ASSERT_LT(v, 5u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_GT(c, 800);  // roughly uniform
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0, sumsq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sumsq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  int low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    uint64_t r = rng.Zipf(1000, 1.0);
    ASSERT_LT(r, 1000u);
    if (r < 10) ++low;
    if (r >= 500) ++high;
  }
  EXPECT_GT(low, high);
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int c1 = 0, c2 = 0;
  for (int i = 0; i < 8000; ++i) {
    size_t pick = rng.Discrete(w);
    ASSERT_NE(pick, 0u);
    ASSERT_LT(pick, 3u);
    if (pick == 1) ++c1;
    if (pick == 2) ++c2;
  }
  EXPECT_NEAR(static_cast<double>(c2) / c1, 3.0, 0.5);
}

TEST(RngTest, DiscreteAllZeroReturnsSize) {
  Rng rng(1);
  std::vector<double> w = {0.0, 0.0};
  EXPECT_EQ(rng.Discrete(w), 2u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(19);
  auto s = rng.SampleWithoutReplacement(50, 20);
  ASSERT_EQ(s.size(), 20u);
  std::sort(s.begin(), s.end());
  for (size_t i = 1; i < s.size(); ++i) EXPECT_NE(s[i - 1], s[i]);
  for (size_t v : s) EXPECT_LT(v, 50u);
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(xs), 3.0);
  EXPECT_NEAR(StdDev(xs), std::sqrt(2.5), 1e-12);
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({}), 0.0);
  EXPECT_EQ(Min({}), 0.0);
  EXPECT_EQ(Max({}), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25.0);
}

TEST(StatsTest, PearsonPerfectLinear) {
  std::vector<double> xs = {1, 2, 3, 4};
  std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(xs, ys), 1.0, 1e-12);
  std::vector<double> yneg = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, yneg), -1.0, 1e-12);
}

TEST(StatsTest, SpearmanMonotoneNonlinear) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {1, 8, 27, 64, 125};  // monotone, nonlinear
  EXPECT_NEAR(SpearmanCorrelation(xs, ys), 1.0, 1e-12);
}

TEST(StatsTest, AverageRanksHandlesTies) {
  std::vector<double> xs = {5, 1, 5, 3};
  auto r = AverageRanks(xs);
  EXPECT_DOUBLE_EQ(r[1], 1.0);
  EXPECT_DOUBLE_EQ(r[3], 2.0);
  EXPECT_DOUBLE_EQ(r[0], 3.5);
  EXPECT_DOUBLE_EQ(r[2], 3.5);
}

TEST(StatsTest, EmpiricalCdf) {
  auto cdf = EmpiricalCdf({3, 1, 2, 2});
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].fraction, 0.25);
  EXPECT_DOUBLE_EQ(cdf[1].value, 2.0);
  EXPECT_DOUBLE_EQ(cdf[1].fraction, 0.75);
  EXPECT_DOUBLE_EQ(cdf[2].fraction, 1.0);
}

TEST(StatsTest, CdfAt) {
  std::vector<double> xs = {0.1, 0.2, 0.3, 0.9};
  EXPECT_DOUBLE_EQ(CdfAt(xs, 0.25), 0.5);
  EXPECT_DOUBLE_EQ(CdfAt(xs, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(CdfAt(xs, 0.0), 0.0);
}

TEST(StatsTest, RunningStatMatchesBatch) {
  std::vector<double> xs = {4, 8, 15, 16, 23, 42};
  RunningStat rs;
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), Mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), StdDev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 4.0);
  EXPECT_DOUBLE_EQ(rs.max(), 42.0);
}

TEST(TableTest, RendersAlignedTable) {
  Table t({"algo", "utility"});
  t.NewRow().Add("AVG").Add(9.75, 2);
  t.NewRow().Add("AVG-D").Add(9.85, 2);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("AVG-D"), std::string::npos);
  EXPECT_NE(s.find("9.85"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.NewRow().Add(int64_t{1}).Add(int64_t{2});
  EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatPercent(0.312, 1), "31.2%");
}

TEST(ByteCodecTest, RoundTripsEveryWidthBitExactly) {
  std::string bytes;
  PutU8(0xAB, &bytes);
  PutU32(0x01020304u, &bytes);
  PutU64(0x0102030405060708ull, &bytes);
  PutI32(-2, &bytes);
  PutF32(-0.0f, &bytes);
  PutF64(std::numeric_limits<double>::quiet_NaN(), &bytes);
  ASSERT_EQ(bytes.size(), 1u + 4 + 8 + 4 + 4 + 8);
  EXPECT_EQ(bytes.substr(1, 4), std::string("\x04\x03\x02\x01", 4));

  ByteReader in(bytes.data(), bytes.size());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  float f32 = 1.0f;
  double f64 = 0.0;
  ASSERT_TRUE(in.ReadU8(&u8) && in.ReadU32(&u32) && in.ReadU64(&u64) &&
              in.ReadI32(&i32) && in.ReadF32(&f32) && in.ReadF64(&f64));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  EXPECT_EQ(i32, -2);
  EXPECT_TRUE(std::signbit(f32));
  EXPECT_TRUE(std::isnan(f64));
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_FALSE(in.failed());
}

TEST(ByteCodecTest, ShortReadsFailWithoutConsuming) {
  std::string bytes;
  PutU32(3, &bytes);  // a count of 3 four-byte elements...
  PutU32(7, &bytes);  // ...but only one follows
  ByteReader in(bytes.data(), bytes.size());
  uint32_t count = 0;
  EXPECT_FALSE(in.ReadCount(&count, 4));
  EXPECT_TRUE(in.failed());

  ByteReader tail(bytes.data(), 6);
  uint64_t u64 = 0;
  uint32_t u32 = 0;
  const char* view = nullptr;
  EXPECT_FALSE(tail.ReadU64(&u64));
  EXPECT_EQ(tail.remaining(), 6u);
  ASSERT_TRUE(tail.ReadU32(&u32));
  EXPECT_FALSE(tail.ReadBytes(3, &view));
  ASSERT_TRUE(tail.ReadBytes(2, &view));
  EXPECT_EQ(view, bytes.data() + 4);
  EXPECT_EQ(tail.remaining(), 0u);
}

}  // namespace
}  // namespace savg
