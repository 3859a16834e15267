#pragma once
/// \file common.hpp
/// \brief Shared plumbing of the perfbench binary: clocks, order statistics,
/// the in-memory span recorder, operation accounting and the result file.
///
/// It measures the rdse library strictly from outside: every timing
/// below wraps a public call, and nothing here reaches into library
/// internals.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// SplitMix64: derives the per-operation seeds and request streams from the
/// benchmark seed. Kept local so the inputs do not depend on library code.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed of operation `index` of a run with benchmark seed `seed`; never 0.
inline std::uint64_t op_seed(std::uint64_t seed, std::uint64_t index) {
  return (mix64(mix64(seed) ^ (index + 1)) >> 1) | 1;
}

/// Median of an unsorted sample (the mean of the two middle values when
/// the count is even); 0 for an empty one.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Repetitions behind a per-layer median, so that at least ten samples lie
/// beyond it on either side.
constexpr int kMedianReps = 21;

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// One recorded span. `parent` is the index of the enclosing span (-1 for
/// a root); spans of one serve request share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

/// In-memory span recorder. Disabled recorders cost one branch per call;
/// enabled ones keep every span until write() at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span now; returns its id (or -1 when disabled).
  std::int64_t begin(std::string name, std::int64_t parent = -1,
                     std::int64_t request = -1) {
    if (!enabled_) return -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }

  /// Record a finished span with explicit bounds.
  void add(std::string name, std::int64_t start, std::int64_t end,
           std::int64_t parent = -1, std::int64_t request = -1) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), start, end, parent, request});
  }

  /// Write every span as one JSON document (no-op when disabled).
  void write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Scoped span.
class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, std::string name, std::int64_t parent = -1,
            std::int64_t request = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, request)) {}
  ~SpanGuard() { tracer_.end(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Host-speed reference. The benchmark host is a shared VM whose CPU speed
/// drifts by 10-60% over seconds to minutes; no window that fits the run
/// budget averages that out. So every run also times a fixed kernel
/// (benchmark-owned code that no rdse change can touch, see common.cpp) in
/// short bursts between its samples. Each sample gets the factor
/// kNominalMs / t, where t is the mean of the median kernel times of the
/// bursts just before and just after it: multiplied by the factor, a time
/// becomes the time on a host where the kernel takes kNominalMs. The raw
/// values are logged beside the scaled ones.
class HostSpeed {
 public:
  /// The kernel's typical time on the reference host (4-vCPU Xeon VM).
  static constexpr double kNominalMs = 2.4;

  /// Open the next sample; the next burst fixes its factor. Returns the
  /// sample's index into factors().
  std::size_t add() { return opened_++; }
  /// Time `reps` runs of the kernel now and fix the open samples' factors.
  void burst(int reps);
  /// burst(3) when at least 100 ms passed since the last burst.
  void maybe_burst();
  /// One factor per sample closed by a burst, in the order they were added.
  [[nodiscard]] const std::vector<double>& factors() const {
    return factors_;
  }
  /// kNominalMs / median of every kernel time so far.
  [[nodiscard]] double overall_speed() const;

 private:
  std::vector<double> kernel_ms_;
  std::vector<double> factors_;
  std::size_t opened_ = 0;
  std::int64_t last_ns_ = 0;
  double last_ms_ = 0.0;  ///< median of the last burst; 0: none yet
};

/// raw[i] times the host-speed factor of sample index[i].
inline std::vector<double> scaled(const std::vector<double>& raw,
                                  const std::vector<std::size_t>& index,
                                  const std::vector<double>& factors) {
  std::vector<double> out;
  for (std::size_t i = 0; i < raw.size() && i < index.size(); ++i) {
    if (index[i] < factors.size()) out.push_back(raw[i] * factors[index[i]]);
  }
  return out;
}

/// A reported metric: value, unit and the number of samples behind it.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 1;
};

/// Everything one perfbench invocation reports back to run.py.
class Report {
 public:
  void attempt(std::int64_t n = 1) { attempted_ += n; }

  /// Count a failed operation (a run that threw, a missed target, a serve
  /// error or an output-check mismatch) with a one-line reason for the log.
  void fail(const std::string& why) {
    ++failed_;
    if (reasons_.size() < 20) reasons_.push_back(why);
  }

  /// Fold another report's operations and failures into this one.
  void merge(const Report& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const std::string& r : other.reasons_) {
      if (reasons_.size() < 20) reasons_.push_back(r);
    }
  }

  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 1) {
    metrics_[name] = Metric{value, unit, samples};
  }

  void note(const std::string& key, rdse::JsonValue value) {
    notes_.set(key, std::move(value));
  }

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }

  /// Write the result document to `path`.
  void write(const std::string& path) const;

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> reasons_;
  std::map<std::string, Metric> metrics_;
  rdse::JsonValue notes_ = rdse::JsonValue::object();
};

}  // namespace perfbench
