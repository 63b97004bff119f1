#include "src/common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace coopfs {

// Builds samplers over hand-placed CDFs through ZipfSampler's private
// constructor.
class ZipfSamplerTestPeer {
 public:
  static ZipfSampler FromCdf(std::vector<double> cdf) { return ZipfSampler(std::move(cdf)); }
};

namespace {

TEST(SplitMix64Test, KnownSequenceIsStable) {
  // The exact SplitMix64 stream for seed 0 is specified by the reference
  // implementation; pin the first value so the format never drifts.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.Next(), 0xe220a8397b1dcdafull);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.NextBelow(1), 0u);
  }
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(42);
  constexpr std::uint64_t kBound = 10;
  constexpr int kSamples = 100'000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.NextBelow(kBound)];
  }
  for (std::uint64_t v = 0; v < kBound; ++v) {
    EXPECT_NEAR(counts[v], kSamples / static_cast<int>(kBound), 600) << "value " << v;
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10'000.0, 0.5, 0.01);
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(6);
  int trues = 0;
  for (int i = 0; i < 50'000; ++i) {
    trues += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(trues / 50'000.0, 0.3, 0.01);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(8);
  double sum = 0.0;
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.NextExponential(250.0);
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kSamples, 250.0, 5.0);
}

TEST(RngTest, RunLengthRespectsCapAndMinimum) {
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t len = rng.NextRunLength(0.5, 8);
    EXPECT_GE(len, 1u);
    EXPECT_LE(len, 8u);
  }
  // p_stop = 1 always stops immediately.
  EXPECT_EQ(rng.NextRunLength(1.0, 100), 1u);
}

class ZipfProperty : public ::testing::TestWithParam<double> {};

TEST_P(ZipfProperty, LowRanksDominateAndAllRanksReachable) {
  const double s = GetParam();
  Rng rng(11);
  ZipfSampler zipf(100, s);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 200'000; ++i) {
    const std::size_t rank = zipf.Sample(rng);
    ASSERT_LT(rank, 100u);
    ++counts[rank];
  }
  // Monotone-ish decrease: rank 0 strictly more popular than rank 50.
  EXPECT_GT(counts[0], counts[50]);
  // Theoretical frequency of rank 0: (1/1^s) / H_{100,s}.
  double harmonic = 0.0;
  for (int k = 1; k <= 100; ++k) {
    harmonic += 1.0 / std::pow(k, s);
  }
  EXPECT_NEAR(counts[0] / 200'000.0, 1.0 / harmonic, 0.01);
}

INSTANTIATE_TEST_SUITE_P(SkewSweep, ZipfProperty, ::testing::Values(0.5, 0.75, 1.0, 1.2));

TEST(ZipfSamplerTest, SingleElementAlwaysZero) {
  Rng rng(12);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(zipf.Sample(rng), 0u);
  }
}

// The Zipf CDF rebuilt independently of the sampler.
std::vector<double> ReferenceCdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = sum;
  }
  for (double& v : cdf) {
    v /= sum;
  }
  return cdf;
}

// The full-range answer: the first rank whose CDF is >= u, else the last.
std::size_t FirstAtLeast(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? cdf.size() - 1 : static_cast<std::size_t>(it - cdf.begin());
}

// `u` and its two neighbouring doubles, kept inside [0, 1].
void AddWithNeighbours(double u, std::vector<double>& inputs) {
  for (const double v : {std::nextafter(u, 0.0), u, std::nextafter(u, 2.0)}) {
    if (v >= 0.0 && v <= 1.0) {
      inputs.push_back(v);
    }
  }
}

// Counts the inputs where SampleAt disagrees with the full-range search and
// describes the first.
std::string Mismatches(const ZipfSampler& zipf, const std::vector<double>& cdf,
                       const std::vector<double>& inputs) {
  std::size_t count = 0;
  std::string first;
  for (const double u : inputs) {
    const std::size_t got = zipf.SampleAt(u);
    const std::size_t want = FirstAtLeast(cdf, u);
    if (got != want && count++ == 0) {
      char line[128];
      std::snprintf(line, sizeof(line), "u=%a: got rank %zu, want %zu", u, got, want);
      first = line;
    }
  }
  return count == 0 ? "" : std::to_string(count) + " mismatches, first " + first;
}

TEST(ZipfSamplerTest, GuideTableMatchesFullBinarySearch) {
  const std::vector<std::pair<std::size_t, double>> shapes = {
      {1, 1.0}, {2, 0.7}, {7, 0.0}, {100, 1.2}, {4099, 0.75}, {1'048'576, 0.7}};
  for (const auto& [n, s] : shapes) {
    SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(s));
    const ZipfSampler zipf(n, s);
    const std::vector<double> cdf = ReferenceCdf(n, s);

    std::vector<double> draws(1'000'000);
    Rng rng(n);
    for (double& u : draws) {
      u = rng.NextDouble();
    }
    EXPECT_EQ(Mismatches(zipf, cdf, draws), "");

    std::vector<double> boundaries = {0.0, std::nextafter(1.0, 0.0)};
    const std::size_t edge = std::min<std::size_t>(64, n);
    for (std::size_t i = 0; i < edge; ++i) {
      AddWithNeighbours(cdf[i], boundaries);
      AddWithNeighbours(cdf[n - 1 - i], boundaries);
    }
    EXPECT_EQ(Mismatches(zipf, cdf, boundaries), "");

    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(zipf.Sample(a), zipf.SampleAt(b.NextDouble()));
    }
  }
}

// Zipf CDF values almost never fall within a rounding error of a guide
// bucket boundary, so a hand-placed CDF puts them there: every boundary
// k/m, the double just below it, and two values inside each bucket. At
// some boundaries u * m rounds up to k for the u just below k/m, which
// lands u in the bucket above its rank and needs the downward widening.
TEST(ZipfSamplerTest, GuideTableIsExactAtBucketBoundaries) {
  for (const std::size_t buckets : {25, 100}) {
    SCOPED_TRACE("buckets=" + std::to_string(buckets));
    const auto m = static_cast<double>(buckets);
    std::vector<double> cdf;
    int straddles = 0;  // Inputs just below k/m that u * m rounds up to k.
    for (std::size_t k = 0; k < buckets; ++k) {
      const double lower = static_cast<double>(k) / m;
      const double upper = static_cast<double>(k + 1) / m;
      const double below_upper = std::nextafter(upper, 0.0);
      cdf.push_back(k == 0 ? 0.25 / m : lower);
      cdf.push_back((static_cast<double>(k) + 0.4) / m);
      cdf.push_back((static_cast<double>(k) + 0.7) / m);
      cdf.push_back(k + 1 == buckets ? 1.0 : below_upper);
      if (k + 1 < buckets && static_cast<std::size_t>(below_upper * m) > k) {
        ++straddles;
      }
    }
    ASSERT_TRUE(std::is_sorted(cdf.begin(), cdf.end()));
    ASSERT_GT(straddles, 0) << "no input exercises the downward widening";
    const ZipfSampler zipf = ZipfSamplerTestPeer::FromCdf(cdf);
    ASSERT_EQ(zipf.size(), 4 * buckets);

    std::vector<double> inputs;
    for (const double v : cdf) {
      AddWithNeighbours(v, inputs);
    }
    for (std::size_t k = 0; k <= buckets; ++k) {
      AddWithNeighbours(static_cast<double>(k) / m, inputs);
    }
    EXPECT_EQ(Mismatches(zipf, cdf, inputs), "");
  }
}

}  // namespace
}  // namespace coopfs
