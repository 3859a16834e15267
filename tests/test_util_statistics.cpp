/// Tests for online statistics (annealing-schedule inputs).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace rdse {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, KnownValues) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 3.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStats, MatchesBatchOnRandomData) {
  Rng rng(7);
  RunningStats s;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(10.0, 3.0);
    xs.push_back(x);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), mean_of(xs), 1e-9);
  EXPECT_NEAR(s.stddev(), stddev_of(xs), 1e-9);
}

TEST(Ewma, FirstSampleSetsValue) {
  Ewma e(0.1);
  e.add(5.0);
  EXPECT_DOUBLE_EQ(e.value(), 5.0);
}

TEST(Ewma, ConvergesToConstant) {
  Ewma e(0.2);
  for (int i = 0; i < 200; ++i) e.add(3.0);
  EXPECT_NEAR(e.value(), 3.0, 1e-12);
}

TEST(Ewma, TracksStepChange) {
  Ewma e(0.5);
  for (int i = 0; i < 10; ++i) e.add(0.0);
  for (int i = 0; i < 20; ++i) e.add(1.0);
  EXPECT_GT(e.value(), 0.99);
}

TEST(Ewma, SeedCountsAsSample) {
  Ewma e(0.5);
  e.seed(4.0);
  EXPECT_FALSE(e.empty());
  EXPECT_DOUBLE_EQ(e.value(), 4.0);
}

TEST(EwmaStats, VarianceOfConstantIsZero) {
  EwmaStats s(0.05);
  for (int i = 0; i < 500; ++i) s.add(2.5);
  EXPECT_NEAR(s.variance(), 0.0, 1e-12);
}

TEST(EwmaStats, VarianceApproximatesIid) {
  Rng rng(11);
  EwmaStats s(0.01);
  for (int i = 0; i < 20'000; ++i) s.add(rng.normal(0.0, 2.0));
  EXPECT_NEAR(s.stddev(), 2.0, 0.3);
}

TEST(EwmaStats, AutocorrOfIidNearZero) {
  Rng rng(13);
  EwmaStats s(0.01);
  for (int i = 0; i < 20'000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.autocorr1(), 0.0, 0.1);
}

TEST(EwmaStats, AutocorrOfPersistentProcessIsHigh) {
  Rng rng(17);
  EwmaStats s(0.01);
  double x = 0.0;
  for (int i = 0; i < 20'000; ++i) {
    x = 0.95 * x + rng.normal(0.0, 0.1);
    s.add(x);
  }
  EXPECT_GT(s.autocorr1(), 0.5);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.99);   // bin 4
  h.add(-3.0);   // clamped to bin 0
  h.add(42.0);   // clamped to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, BinEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(4), 8.0);
}

TEST(Histogram, RejectsBadRange) {
  EXPECT_THROW(Histogram(5.0, 5.0, 3), Error);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), Error);
}

TEST(Histogram, RejectsZeroWidthBins) {
  // hi > lo holds, but the per-bin width underflows to 0.0 (denormal
  // range), which previously made add() divide by zero.
  EXPECT_THROW(Histogram(0.0, 1e-323, 100), Error);
}

TEST(Histogram, SampleAtHiLandsInLastBin) {
  Histogram h(0.1, 1.0, 3);
  h.add(1.0);  // exactly hi_: quotient == bin count, clamps to the last bin
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.total(), 1u);
}

TEST(Histogram, HugeSampleClampsToLastBin) {
  // (x - lo) / width exceeds long's range; the clamp must happen in the
  // double domain before any integer cast (the old cast was UB and landed
  // in bin 0 on x86-64).
  Histogram h(0.0, 1.0, 4);
  h.add(1e300);
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(3), 2u);
  h.add(-1e300);
  h.add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(0), 2u);
}

TEST(Histogram, BinEdgeAccessorsAreBoundsChecked) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_THROW((void)h.bin_lo(6), Error);  // bin_count() is allowed (== hi_)
  EXPECT_THROW((void)h.bin_hi(5), Error);
}

TEST(Histogram, LastBinHiIsExactlyHi) {
  // lo + width * bins != hi under floating-point rounding (0.1 + 0.3 * 3
  // is 0.9999999999999999); the last bin's upper edge must be hi_ itself.
  Histogram h(0.1, 1.0, 3);
  EXPECT_EQ(h.bin_hi(2), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 1.0);
}

TEST(BatchStats, QuantileInterpolation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_of(xs, 0.5), 2.5);
}

TEST(BatchStats, QuantileRejectsBadInput) {
  EXPECT_THROW((void)quantile_of({}, 0.5), Error);
  EXPECT_THROW((void)quantile_of({1.0}, 1.5), Error);
}

TEST(BatchStats, MinMaxMean) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 3.0);
  EXPECT_DOUBLE_EQ(mean_of(xs), 2.0);
}

TEST(BatchStats, IdenticalValuesAggregateToTheirOneValue) {
  // Summed, three 63.7s divide to 63.70000000000001 and spread by 8.7e-15.
  const std::vector<double> same{63.7, 63.7, 63.7};
  EXPECT_EQ(mean_of(same), 63.7);
  EXPECT_EQ(stddev_of(same), 0.0);
  // A mean inside the sample's range is the plain sum-based one.
  const std::vector<double> mixed{63.7, 63.7, 64.1};
  EXPECT_EQ(mean_of(mixed), (63.7 + 63.7 + 64.1) / 3.0);
  EXPECT_GT(stddev_of(mixed), 0.0);
}

}  // namespace
}  // namespace rdse
