#include "anneal/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"
#include "util/json.hpp"

namespace rdse {

void CoolingSchedule::save_state(JsonValue& /*out*/) const {}
void CoolingSchedule::load_state(const JsonValue& /*in*/) {}

const char* to_string(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kModifiedLam: return "modified-lam";
    case ScheduleKind::kLamDelosme: return "lam-delosme";
    case ScheduleKind::kGeometric: return "geometric";
    case ScheduleKind::kGreedy: return "greedy";
  }
  return "?";
}

std::optional<ScheduleKind> schedule_from_name(std::string_view name) {
  for (const ScheduleKind kind : kAllSchedules) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

ScheduleKind parse_schedule(std::string_view name) {
  if (const auto kind = schedule_from_name(name)) return *kind;
  std::string known;
  for (const ScheduleKind kind : kAllSchedules) {
    if (!known.empty()) known += ", ";
    known += to_string(kind);
  }
  throw Error("unknown schedule '" + std::string(name) + "' (known: " +
              known + ")");
}

std::unique_ptr<CoolingSchedule> make_schedule(ScheduleKind kind) {
  switch (kind) {
    case ScheduleKind::kModifiedLam:
      return std::make_unique<ModifiedLamSchedule>();
    case ScheduleKind::kLamDelosme:
      return std::make_unique<LamDelosmeSchedule>();
    case ScheduleKind::kGeometric:
      return std::make_unique<GeometricSchedule>();
    case ScheduleKind::kGreedy:
      return std::make_unique<GreedySchedule>();
  }
  RDSE_ASSERT_MSG(false, "make_schedule: unknown kind");
  return nullptr;
}

// ---------------------------------------------------------------- ModifiedLam

ModifiedLamSchedule::ModifiedLamSchedule(double rate_update_window,
                                         double nudge)
    : window_(rate_update_window), nudge_(nudge) {
  RDSE_REQUIRE(rate_update_window >= 1.0, "ModifiedLam: window < 1");
  RDSE_REQUIRE(nudge > 0.0 && nudge < 1.0, "ModifiedLam: nudge outside (0,1)");
}

double ModifiedLamSchedule::target_rate(double t) {
  // Lam's optimal acceptance trajectory (Swartz's piecewise fit): a fast
  // exponential descent from ~1.0 to 0.44 over the first 15% of the run, a
  // 0.44 plateau until 65%, then exponential decay towards zero.
  t = std::clamp(t, 0.0, 1.0);
  if (t < 0.15) {
    return 0.44 + 0.56 * std::pow(560.0, -t / 0.15);
  }
  if (t < 0.65) {
    return 0.44;
  }
  return 0.44 * std::pow(440.0, -(t - 0.65) / 0.35);
}

void ModifiedLamSchedule::initialize(double /*mean0*/, double sigma0,
                                     std::int64_t horizon) {
  RDSE_REQUIRE(horizon >= 1, "ModifiedLam: empty horizon");
  horizon_ = horizon;
  iter_ = 0;
  // Starting at T0 ~ sigma keeps early acceptance high without the wasteful
  // multi-order-of-magnitude start of classic schedules.
  temp_ = std::max(sigma0, 1e-12);
  temp_floor_ = temp_ * 1e-12;
  accept_rate_ = 1.0;
}

void ModifiedLamSchedule::update(double /*cost*/, bool accepted,
                                 bool evaluated) {
  if (evaluated) {
    accept_rate_ += ((accepted ? 1.0 : 0.0) - accept_rate_) / window_;
  }
  const double t =
      static_cast<double>(iter_) / static_cast<double>(horizon_);
  if (accept_rate_ > target_rate(t)) {
    temp_ *= nudge_;  // too hot: cool
  } else {
    temp_ /= nudge_;  // too cold: reheat
  }
  temp_ = std::max(temp_, temp_floor_);
  ++iter_;
}

void ModifiedLamSchedule::save_state(JsonValue& out) const {
  out.set("temp", temp_);
  out.set("accept_rate", accept_rate_);
  out.set("horizon", horizon_);
  out.set("iter", iter_);
  out.set("temp_floor", temp_floor_);
}

void ModifiedLamSchedule::load_state(const JsonValue& in) {
  temp_ = in.at("temp").as_number();
  accept_rate_ = in.at("accept_rate").as_number();
  horizon_ = in.at("horizon").as_int();
  iter_ = in.at("iter").as_int();
  temp_floor_ = in.at("temp_floor").as_number();
}

// ---------------------------------------------------------------- LamDelosme

LamDelosmeSchedule::LamDelosmeSchedule(double lambda) : lambda_(lambda) {
  RDSE_REQUIRE(lambda > 0.0, "LamDelosme: lambda must be positive");
}

double LamDelosmeSchedule::rho(double a) {
  a = std::clamp(a, 0.0, 1.0);
  const double one_minus = 1.0 - a;
  const double denom = (2.0 - a) * (2.0 - a);
  return 4.0 * a * one_minus * one_minus / denom;
}

void LamDelosmeSchedule::initialize(double mean0, double sigma0,
                                    std::int64_t /*horizon*/) {
  sigma0_ = std::max(sigma0, 1e-12);
  // Start warm but not wasteful: T0 = 5 * sigma0 accepts nearly everything
  // while skipping the flat top of the acceptance curve.
  s_ = 1.0 / (5.0 * sigma0_);
  cost_stats_.reset();
  cost_stats_.add(mean0);
  accept_.reset();
  accept_.seed(1.0);
}

void LamDelosmeSchedule::update(double cost, bool accepted, bool evaluated) {
  if (!evaluated) return;  // null draws carry no statistical information
  cost_stats_.add(cost);
  accept_.add(accepted ? 1.0 : 0.0);
  const double sigma = std::max(cost_stats_.stddev(), 1e-9 * sigma0_);
  // ds = lambda * rho(A) / (s^2 sigma^3), clamped to at most +1% of s per
  // update so one noisy sigma estimate cannot quench the system
  // (unclamped, a brief sigma collapse makes 1/sigma^3 explode).
  const double raw =
      lambda_ * rho(accept_.value()) / (s_ * s_ * sigma * sigma * sigma);
  const double max_step = 0.01 * s_;
  s_ += std::min(raw, max_step);
}

double LamDelosmeSchedule::temperature() const {
  return s_ > 0.0 ? 1.0 / s_ : std::numeric_limits<double>::infinity();
}

void LamDelosmeSchedule::save_state(JsonValue& out) const {
  out.set("s", s_);
  out.set("sigma0", sigma0_);
  const EwmaStats::Raw cs = cost_stats_.raw();
  JsonValue stats = JsonValue::object();
  stats.set("mean", cs.mean);
  stats.set("mean_n", static_cast<std::int64_t>(cs.mean_n));
  stats.set("sq", cs.sq);
  stats.set("sq_n", static_cast<std::int64_t>(cs.sq_n));
  stats.set("cross", cs.cross);
  stats.set("cross_n", static_cast<std::int64_t>(cs.cross_n));
  stats.set("prev", cs.prev);
  stats.set("n", static_cast<std::int64_t>(cs.n));
  out.set("cost_stats", std::move(stats));
  out.set("accept_value", accept_.value());
  out.set("accept_n", static_cast<std::int64_t>(accept_.count()));
}

void LamDelosmeSchedule::load_state(const JsonValue& in) {
  s_ = in.at("s").as_number();
  sigma0_ = in.at("sigma0").as_number();
  const JsonValue& stats = in.at("cost_stats");
  EwmaStats::Raw cs;
  cs.mean = stats.at("mean").as_number();
  cs.mean_n = static_cast<std::size_t>(stats.at("mean_n").as_int());
  cs.sq = stats.at("sq").as_number();
  cs.sq_n = static_cast<std::size_t>(stats.at("sq_n").as_int());
  cs.cross = stats.at("cross").as_number();
  cs.cross_n = static_cast<std::size_t>(stats.at("cross_n").as_int());
  cs.prev = stats.at("prev").as_number();
  cs.n = static_cast<std::size_t>(stats.at("n").as_int());
  cost_stats_.restore(cs);
  accept_.restore(in.at("accept_value").as_number(),
                  static_cast<std::size_t>(in.at("accept_n").as_int()));
}

// ----------------------------------------------------------------- Geometric

GeometricSchedule::GeometricSchedule(double alpha, std::int64_t plateau)
    : alpha_(alpha), plateau_(plateau) {
  RDSE_REQUIRE(alpha > 0.0 && alpha < 1.0, "Geometric: alpha outside (0,1)");
  RDSE_REQUIRE(plateau >= 1, "Geometric: plateau < 1");
}

void GeometricSchedule::initialize(double /*mean0*/, double sigma0,
                                   std::int64_t /*horizon*/) {
  temp_ = std::max(10.0 * sigma0, 1e-12);
  iter_ = 0;
}

void GeometricSchedule::update(double /*cost*/, bool /*accepted*/,
                               bool /*evaluated*/) {
  ++iter_;
  if (iter_ % plateau_ == 0) {
    temp_ *= alpha_;
  }
}

void GeometricSchedule::save_state(JsonValue& out) const {
  out.set("temp", temp_);
  out.set("iter", iter_);
}

void GeometricSchedule::load_state(const JsonValue& in) {
  temp_ = in.at("temp").as_number();
  iter_ = in.at("iter").as_int();
}

}  // namespace rdse
