#pragma once
/// \file architecture.hpp
/// \brief The target system: a set of processing elements plus the shared
/// communication medium.
///
/// Resource ids stay stable across removals (slots are tombstoned), because
/// solutions and moves hold ids while the architecture-exploration moves
/// m3/m4 add and remove resources. Resources are values, so copying an
/// Architecture (the annealer snapshots candidate systems) copies values,
/// and a reference returned by resource() lasts until the next add.

#include <optional>
#include <vector>

#include "arch/bus.hpp"
#include "arch/resource.hpp"
#include "util/assert.hpp"

namespace rdse {

class Architecture {
 public:
  explicit Architecture(Bus bus) : bus_(bus) {}

  /// The one way to build each kind of resource. A processor's execution
  /// time is tsw / `speed_factor`; a reconfigurable circuit costs 50 + 0.05
  /// per CLB.
  ResourceId add_processor(std::string name, double price = 100.0,
                           double speed_factor = 1.0);
  ResourceId add_asic(std::string name, double price = 400.0);
  ResourceId add_reconfigurable(std::string name, std::int32_t n_clbs,
                                TimeNs tr_per_clb);

  /// Tombstone a resource (m3). The id is never reused.
  void remove(ResourceId id);

  [[nodiscard]] bool alive(ResourceId id) const {
    return id < resources_.size() && resources_[id].has_value();
  }
  /// Total slots ever allocated (iterate ids in [0, slot_count())).
  [[nodiscard]] std::size_t slot_count() const { return resources_.size(); }
  /// Number of live resources.
  [[nodiscard]] std::size_t resource_count() const { return live_count_; }

  [[nodiscard]] const Resource& resource(ResourceId id) const {
    RDSE_REQUIRE(alive(id), "Architecture::resource: resource not alive");
    return *resources_[id];
  }
  /// resource(id), checked to be a reconfigurable circuit.
  [[nodiscard]] const Resource& reconfigurable(ResourceId id) const;

  [[nodiscard]] std::vector<ResourceId> live_ids() const;
  [[nodiscard]] std::vector<ResourceId> ids_of(ResourceKind kind) const;
  [[nodiscard]] std::vector<ResourceId> processor_ids() const {
    return ids_of(ResourceKind::kProcessor);
  }
  [[nodiscard]] std::vector<ResourceId> reconfigurable_ids() const {
    return ids_of(ResourceKind::kReconfigurable);
  }

  [[nodiscard]] const Bus& bus() const { return bus_; }

  /// Sum of prices of live resources (architecture-exploration objective).
  [[nodiscard]] double total_price() const;

 private:
  ResourceId add(Resource resource);

  std::vector<std::optional<Resource>> resources_;  // nullopt: tombstone
  std::size_t live_count_ = 0;
  Bus bus_;
};

/// The paper's fixed experimental platform (§3.2 / §5): one programmable
/// processor (ARM922-class) and one dynamically reconfigurable circuit of
/// `n_clbs` CLBs with tR = `tr_per_clb`, joined by a shared bus.
/// Resource 0 is the processor, resource 1 the RC.
[[nodiscard]] Architecture make_cpu_fpga_architecture(
    std::int32_t n_clbs, TimeNs tr_per_clb, std::int64_t bus_bytes_per_second);

}  // namespace rdse
