#include "util/statistics.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace rdse {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void Ewma::add(double x) {
  if (n_ == 0) {
    value_ = x;
  } else {
    value_ += alpha_ * (x - value_);
  }
  ++n_;
}

void Ewma::reset() {
  value_ = 0.0;
  n_ = 0;
}

void Ewma::seed(double x) {
  value_ = x;
  n_ = 1;
}

EwmaStats::EwmaStats(double alpha) : mean_(alpha), sq_(alpha), cross_(alpha) {
  RDSE_ASSERT(alpha > 0.0 && alpha <= 1.0);
}

void EwmaStats::add(double x) {
  mean_.add(x);
  sq_.add(x * x);
  if (n_ > 0) {
    cross_.add(x * prev_);
  }
  prev_ = x;
  ++n_;
}

void EwmaStats::reset() {
  mean_.reset();
  sq_.reset();
  cross_.reset();
  prev_ = 0.0;
  n_ = 0;
}

double EwmaStats::variance() const {
  const double m = mean_.value();
  const double v = sq_.value() - m * m;
  return v > 0.0 ? v : 0.0;
}

double EwmaStats::stddev() const { return std::sqrt(variance()); }

double EwmaStats::autocorr1() const {
  if (n_ < 3) return 0.0;
  const double var = variance();
  if (var <= 0.0) return 0.0;
  const double m = mean_.value();
  double rho = (cross_.value() - m * m) / var;
  return std::clamp(rho, -1.0, 1.0);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  RDSE_REQUIRE(hi > lo, "Histogram: hi must exceed lo");
  RDSE_REQUIRE(bins >= 1, "Histogram: need at least one bin");
  // A denormal range can make hi > lo true while the per-bin width still
  // underflows to 0.0, which would turn add() into a division by zero.
  RDSE_REQUIRE((hi - lo) / static_cast<double>(bins) > 0.0,
               "Histogram: bin width underflows to zero");
}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  const double q = std::floor((x - lo_) / width);
  const double last = static_cast<double>(counts_.size() - 1);
  // Clamp in the double domain *before* the integer cast: a far-out sample
  // (or an infinity) yields a quotient outside the integer range, and
  // casting that is undefined behaviour. NaN compares false against
  // everything and lands in bin 0.
  const double bin = q > 0.0 ? std::min(q, last) : 0.0;
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

std::uint64_t Histogram::count(std::size_t bin) const {
  RDSE_ASSERT(bin < counts_.size());
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  RDSE_REQUIRE(bin <= counts_.size(), "Histogram: bin index out of range");
  if (bin == counts_.size()) return hi_;  // upper edge of the last bin
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const {
  RDSE_REQUIRE(bin < counts_.size(), "Histogram: bin index out of range");
  return bin_lo(bin + 1);
}

double mean_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  // The rounded sum can put the quotient just outside the sample (three
  // 63.7s average to 63.70000000000001); the true mean never is.
  return std::clamp(s / static_cast<double>(xs.size()), min_of(xs),
                    max_of(xs));
}

double stddev_of(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean_of(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double min_of(std::span<const double> xs) {
  RDSE_ASSERT(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  RDSE_ASSERT(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

double quantile_of(std::vector<double> xs, double q) {
  RDSE_REQUIRE(!xs.empty(), "quantile_of: empty sample");
  RDSE_REQUIRE(q >= 0.0 && q <= 1.0, "quantile_of: q outside [0,1]");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

}  // namespace rdse
