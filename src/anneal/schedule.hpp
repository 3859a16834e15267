#pragma once
/// \file schedule.hpp
/// \brief Cooling schedules for the local-search engine (§4.1).
///
/// The paper builds on Lam's adaptive annealing schedule: temperature is
/// steered from statistics of the cost process (mean, variance, acceptance
/// ratio) so that the system stays in quasi-equilibrium while cooling as
/// fast as possible, removing every per-problem tuning knob. Two published
/// formulations are provided:
///
///  - ModifiedLamSchedule (default): the target-acceptance-rate tracking
///    form implemented in Swartz's place-and-route tools — the paper's own
///    reference [15]. The acceptance rate is tracked against Lam's optimal
///    trajectory (~0.44 through the main phase) and the temperature is
///    nudged multiplicatively.
///  - LamDelosmeSchedule: the statistical update of Lam's thesis: the
///    inverse temperature s grows by ds = lambda * rho(A) / (s^2 sigma^3),
///    with rho(A) = 4A(1-A)^2/(2-A)^2 maximal near A ~ 1/3-0.44 (cool
///    fastest at moderate acceptance), sigma an EWMA estimate of cost
///    stddev, and a relative step clamp for numerical robustness.
///
/// GeometricSchedule (classic tuned annealing) and GreedySchedule (T = 0
/// hill climbing) complete the schedule ablation (`rdse sweep --axis
/// schedule`).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "util/statistics.hpp"

namespace rdse {

class JsonValue;

enum class ScheduleKind : std::uint8_t {
  kModifiedLam,
  kLamDelosme,
  kGeometric,
  kGreedy,
};

/// Every schedule in declaration order: the default schedule axis of
/// `rdse sweep` and serve, and the names schedule_from_name accepts.
inline constexpr ScheduleKind kAllSchedules[] = {
    ScheduleKind::kModifiedLam, ScheduleKind::kLamDelosme,
    ScheduleKind::kGeometric, ScheduleKind::kGreedy};

[[nodiscard]] const char* to_string(ScheduleKind kind);

/// Inverse of to_string: the kind named `name`, or nullopt when unknown.
[[nodiscard]] std::optional<ScheduleKind> schedule_from_name(
    std::string_view name);

/// schedule_from_name for the front ends (CLI, serve): throws Error naming
/// every known schedule when `name` is unknown.
[[nodiscard]] ScheduleKind parse_schedule(std::string_view name);

/// Temperature controller interface. The annealer calls initialize() once
/// after the infinite-temperature warm-up, then update() every iteration.
class CoolingSchedule {
 public:
  virtual ~CoolingSchedule() = default;

  /// `mean0` / `sigma0` are warm-up statistics of the cost process;
  /// `horizon` is the planned number of post-warm-up iterations.
  virtual void initialize(double mean0, double sigma0,
                          std::int64_t horizon) = 0;

  /// Observe one iteration: the *current* cost after the accept/reject
  /// decision and whether the proposal was accepted. `evaluated` is false
  /// for null/cyclic draws (§4.2/§4.3 moves that were "not performed"):
  /// those advance the schedule's progress clock but must not enter the
  /// acceptance statistics, or graphs with many same-resource draws would
  /// read as cold and stall the cooling.
  virtual void update(double cost, bool accepted, bool evaluated) = 0;

  /// Current temperature (>= 0; 0 means strictly greedy).
  [[nodiscard]] virtual double temperature() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Checkpoint support: serialize the mutable runtime state into `out` /
  /// restore it from `in`. Configuration (window sizes, lambda, alpha) is
  /// not saved — it is re-established by constructing the same schedule
  /// kind. Stateless schedules (greedy) keep the no-op defaults.
  virtual void save_state(JsonValue& out) const;
  virtual void load_state(const JsonValue& in);
};

/// Factory for the built-in schedules.
[[nodiscard]] std::unique_ptr<CoolingSchedule> make_schedule(
    ScheduleKind kind);

/// Modified Lam: target-acceptance-rate trajectory tracking.
class ModifiedLamSchedule final : public CoolingSchedule {
 public:
  /// `rate_update_window` smooths the measured acceptance rate; `nudge` is
  /// the multiplicative temperature step (both from the published
  /// implementation; not problem-dependent).
  explicit ModifiedLamSchedule(double rate_update_window = 500.0,
                               double nudge = 0.999);

  void initialize(double mean0, double sigma0, std::int64_t horizon) override;
  void update(double cost, bool accepted, bool evaluated) override;
  [[nodiscard]] double temperature() const override { return temp_; }
  [[nodiscard]] std::string name() const override { return "modified-lam"; }
  void save_state(JsonValue& out) const override;
  void load_state(const JsonValue& in) override;

  /// Lam's optimal acceptance-rate trajectory at progress t in [0, 1].
  [[nodiscard]] static double target_rate(double t);

  [[nodiscard]] double accept_rate() const { return accept_rate_; }

 private:
  double window_;
  double nudge_;
  double temp_ = 1.0;
  double accept_rate_ = 1.0;
  std::int64_t horizon_ = 1;
  std::int64_t iter_ = 0;
  double temp_floor_ = 0.0;
};

/// Statistical Lam–Delosme schedule on the inverse temperature.
class LamDelosmeSchedule final : public CoolingSchedule {
 public:
  /// `lambda` is the quality/speed knob of the paper's abstract ("lets the
  /// designer select the quality of the optimization (hence its computing
  /// time)"): smaller = slower cooling = better expected quality.
  explicit LamDelosmeSchedule(double lambda = 1.0);

  void initialize(double mean0, double sigma0, std::int64_t horizon) override;
  void update(double cost, bool accepted, bool evaluated) override;
  [[nodiscard]] double temperature() const override;
  [[nodiscard]] std::string name() const override { return "lam-delosme"; }
  void save_state(JsonValue& out) const override;
  void load_state(const JsonValue& in) override;

  [[nodiscard]] static double rho(double accept_ratio);

 private:
  double lambda_;
  double s_ = 0.0;  // inverse temperature
  EwmaStats cost_stats_{1.0 / 200.0};
  Ewma accept_{1.0 / 100.0};
  double sigma0_ = 1.0;
};

/// Classic geometric cooling: T <- alpha * T every `plateau` iterations.
class GeometricSchedule final : public CoolingSchedule {
 public:
  explicit GeometricSchedule(double alpha = 0.95, std::int64_t plateau = 50);

  void initialize(double mean0, double sigma0, std::int64_t horizon) override;
  void update(double cost, bool accepted, bool evaluated) override;
  [[nodiscard]] double temperature() const override { return temp_; }
  [[nodiscard]] std::string name() const override { return "geometric"; }
  void save_state(JsonValue& out) const override;
  void load_state(const JsonValue& in) override;

 private:
  double alpha_;
  std::int64_t plateau_;
  double temp_ = 1.0;
  std::int64_t iter_ = 0;
};

/// T = 0: accept only improving moves (hill climbing baseline).
class GreedySchedule final : public CoolingSchedule {
 public:
  void initialize(double, double, std::int64_t) override {}
  void update(double, bool, bool) override {}
  [[nodiscard]] double temperature() const override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "greedy"; }
};

}  // namespace rdse
