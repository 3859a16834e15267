#pragma once
/// \file statistics.hpp
/// \brief Online statistics used by the adaptive annealing schedules and by
/// the experiment harnesses.
///
/// The Lam-style schedules (§4.1 of the paper) steer the temperature from
/// statistical estimates of the cost process: mean, variance and acceptance
/// ratio, maintained either over the whole history (RunningStats) or with
/// exponential forgetting (Ewma / EwmaStats) so the controller tracks the
/// current quasi-equilibrium rather than the whole trajectory.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace rdse {

/// Numerically stable streaming mean/variance (Welford), plus min/max.
class RunningStats {
 public:
  void add(double x);
  void reset();

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }

  /// Raw accumulator snapshot for checkpoint serialization.
  struct Raw {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  [[nodiscard]] Raw raw() const { return Raw{n_, mean_, m2_, min_, max_}; }
  void restore(const Raw& r) {
    n_ = r.n;
    mean_ = r.mean;
    m2_ = r.m2;
    min_ = r.min;
    max_ = r.max;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exponentially weighted moving average with smoothing weight `alpha`
/// (the weight of the newest sample).
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}

  void add(double x);
  void reset();
  /// Seed the average with an initial value (counts as one sample).
  void seed(double x);

  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] std::size_t count() const { return n_; }

  /// Checkpoint restore: overwrite the accumulator (alpha stays as
  /// constructed — it is configuration, not state).
  void restore(double value, std::size_t n) {
    value_ = value;
    n_ = n;
  }

 private:
  double alpha_;
  double value_ = 0.0;
  std::size_t n_ = 0;
};

/// Exponentially weighted mean and variance of a cost process, plus the
/// lag-1 autocorrelation estimate used by the Lam–Delosme schedule to judge
/// how strongly consecutive costs are coupled under the current move set.
class EwmaStats {
 public:
  explicit EwmaStats(double alpha);

  void add(double x);
  void reset();

  [[nodiscard]] double mean() const { return mean_.value(); }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Lag-1 autocorrelation in [-1, 1]; 0 until enough samples are seen.
  [[nodiscard]] double autocorr1() const;
  [[nodiscard]] std::size_t count() const { return n_; }

  /// Raw accumulator snapshot for checkpoint serialization.
  struct Raw {
    double mean = 0.0;
    std::size_t mean_n = 0;
    double sq = 0.0;
    std::size_t sq_n = 0;
    double cross = 0.0;
    std::size_t cross_n = 0;
    double prev = 0.0;
    std::size_t n = 0;
  };
  [[nodiscard]] Raw raw() const {
    return Raw{mean_.value(),  mean_.count(),  sq_.value(), sq_.count(),
               cross_.value(), cross_.count(), prev_,       n_};
  }
  void restore(const Raw& r) {
    mean_.restore(r.mean, r.mean_n);
    sq_.restore(r.sq, r.sq_n);
    cross_.restore(r.cross, r.cross_n);
    prev_ = r.prev;
    n_ = r.n;
  }

 private:
  Ewma mean_;
  Ewma sq_;     // EWMA of x^2
  Ewma cross_;  // EWMA of x_t * x_{t-1}
  double prev_ = 0.0;
  std::size_t n_ = 0;
};

/// Equal-width histogram over [lo, hi); out-of-range samples are clamped to
/// the first/last bin. Used by report tooling.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] double bin_lo(std::size_t bin) const;
  [[nodiscard]] double bin_hi(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Batch helpers for experiment aggregation. mean_of is the sum-based mean
/// clamped into the sample's [min, max], so n equal values read that value;
/// stddev_of is the sample standard deviation around it, so their spread
/// is exactly 0.
[[nodiscard]] double mean_of(std::span<const double> xs);
[[nodiscard]] double stddev_of(std::span<const double> xs);
[[nodiscard]] double min_of(std::span<const double> xs);
[[nodiscard]] double max_of(std::span<const double> xs);
/// q in [0,1]; linear interpolation between order statistics.
[[nodiscard]] double quantile_of(std::vector<double> xs, double q);

}  // namespace rdse
