#pragma once
/// \file resource.hpp
/// \brief The Processing Element of §3.3 / Fig. 1 as one value type.
///
/// "Class Processing Element belongs to the Resource class of the system,
/// which is abstract and polymorphic." Here the paper's abstract class is
/// one concrete value whose kind selects the execution-order discipline it
/// imposes on the tasks assigned to it:
///   - processor: total order (sequential execution);
///   - ASIC: partial order (maximal parallelism);
///   - reconfigurable circuit: globally total, locally partial (GTLP) — the
///     ordered run-time contexts are sequential, tasks within one context
///     are parallel.
/// The search-graph builder (mapping/search_graph.hpp) materializes the
/// discipline as sequentialization edges. A resource is built only through
/// Architecture's add_processor, add_asic and add_reconfigurable.

#include <cstdint>
#include <string>
#include <utility>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace rdse {

/// Dense index of a resource within its Architecture.
using ResourceId = std::uint32_t;
constexpr ResourceId kInvalidResource = static_cast<ResourceId>(-1);

enum class ResourceKind : std::uint8_t {
  kProcessor,
  kAsic,
  kReconfigurable,
};

[[nodiscard]] const char* to_string(ResourceKind kind);

/// A processing element: a kind, a name, a price and the fields of its
/// kind, whose reads check the kind in Debug and sanitizer builds.
///   - processor: `speed_factor` supports heterogeneous multiprocessor
///     systems; a task's execution time is tsw / speed_factor (the
///     application estimates are calibrated for a 1.0x reference core);
///   - ASIC: no fields of its own, no reconfiguration and no area
///     constraint (the fastest implementation of each assigned function is
///     synthesized side by side);
///   - reconfigurable circuit (§3.2): NCLB logic blocks and a
///     reconfiguration time tR per CLB (partial reconfiguration: loading a
///     context of n CLBs costs tR * n). Its contexts are part of the
///     Solution (temporal partitioning), not of the static architecture.
class Resource {
 public:
  [[nodiscard]] ResourceKind kind() const { return kind_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  /// Relative unit cost used by the architecture-exploration cost function.
  [[nodiscard]] double price() const { return price_; }

  /// Processor speed relative to the reference core.
  [[nodiscard]] double speed_factor() const {
    RDSE_DCHECK(kind_ == ResourceKind::kProcessor,
                "speed_factor: not a processor");
    return speed_factor_;
  }
  /// Execution time on this processor of a task with reference software
  /// time `sw_time`.
  [[nodiscard]] TimeNs execution_time(TimeNs sw_time) const {
    RDSE_DCHECK(kind_ == ResourceKind::kProcessor,
                "execution_time: not a processor");
    if (speed_factor_ == 1.0) return sw_time;
    return static_cast<TimeNs>(
        static_cast<double>(sw_time) / speed_factor_ + 0.5);
  }

  /// Total number of CLBs in the device (context capacity bound).
  [[nodiscard]] std::int32_t n_clbs() const {
    RDSE_DCHECK(kind_ == ResourceKind::kReconfigurable,
                "n_clbs: not a reconfigurable circuit");
    return n_clbs_;
  }
  /// Reconfiguration time per CLB.
  [[nodiscard]] TimeNs tr_per_clb() const {
    RDSE_DCHECK(kind_ == ResourceKind::kReconfigurable,
                "tr_per_clb: not a reconfigurable circuit");
    return tr_per_clb_;
  }
  /// Time to (re)configure a context occupying `clbs` logic blocks.
  /// Inline: the incremental evaluator calls this for every context of
  /// every touched RC on every move.
  [[nodiscard]] TimeNs reconfiguration_time(std::int32_t clbs) const {
    RDSE_DCHECK(kind_ == ResourceKind::kReconfigurable,
                "reconfiguration_time: not a reconfigurable circuit");
    RDSE_DCHECK(clbs >= 0, "reconfiguration_time: negative CLB count");
    return tr_per_clb_ * static_cast<TimeNs>(clbs);
  }

 private:
  friend class Architecture;

  Resource(ResourceKind kind, std::string name, double price)
      : kind_(kind), name_(std::move(name)), price_(price) {}

  ResourceKind kind_;
  std::string name_;
  double price_;
  double speed_factor_ = 1.0;
  std::int32_t n_clbs_ = 0;
  TimeNs tr_per_clb_ = 0;
};

}  // namespace rdse
