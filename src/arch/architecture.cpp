#include "arch/architecture.hpp"

#include "util/assert.hpp"

namespace rdse {

ResourceId Architecture::add(Resource resource) {
  resources_.emplace_back(std::move(resource));
  ++live_count_;
  return static_cast<ResourceId>(resources_.size() - 1);
}

ResourceId Architecture::add_processor(std::string name, double price,
                                       double speed_factor) {
  RDSE_REQUIRE(speed_factor > 0.0,
               "Architecture::add_processor: non-positive speed factor");
  Resource cpu(ResourceKind::kProcessor, std::move(name), price);
  cpu.speed_factor_ = speed_factor;
  return add(std::move(cpu));
}

ResourceId Architecture::add_asic(std::string name, double price) {
  return add(Resource(ResourceKind::kAsic, std::move(name), price));
}

ResourceId Architecture::add_reconfigurable(std::string name,
                                            std::int32_t n_clbs,
                                            TimeNs tr_per_clb) {
  RDSE_REQUIRE(n_clbs > 0,
               "Architecture::add_reconfigurable: non-positive CLB count");
  RDSE_REQUIRE(tr_per_clb >= 0,
               "Architecture::add_reconfigurable: negative "
               "reconfiguration time");
  Resource rc(ResourceKind::kReconfigurable, std::move(name),
              50.0 + 0.05 * static_cast<double>(n_clbs));
  rc.n_clbs_ = n_clbs;
  rc.tr_per_clb_ = tr_per_clb;
  return add(std::move(rc));
}

void Architecture::remove(ResourceId id) {
  RDSE_REQUIRE(alive(id), "Architecture::remove: resource not alive");
  resources_[id].reset();
  --live_count_;
}

const Resource& Architecture::reconfigurable(ResourceId id) const {
  const Resource& r = resource(id);
  RDSE_REQUIRE(r.kind() == ResourceKind::kReconfigurable,
               "Architecture::reconfigurable: wrong resource kind");
  return r;
}

std::vector<ResourceId> Architecture::live_ids() const {
  std::vector<ResourceId> out;
  for (ResourceId id = 0; id < resources_.size(); ++id) {
    if (alive(id)) out.push_back(id);
  }
  return out;
}

std::vector<ResourceId> Architecture::ids_of(ResourceKind kind) const {
  std::vector<ResourceId> out;
  for (ResourceId id = 0; id < resources_.size(); ++id) {
    if (alive(id) && resources_[id]->kind() == kind) {
      out.push_back(id);
    }
  }
  return out;
}

double Architecture::total_price() const {
  double total = 0.0;
  for (const auto& r : resources_) {
    if (r) total += r->price();
  }
  return total;
}

Architecture make_cpu_fpga_architecture(std::int32_t n_clbs,
                                        TimeNs tr_per_clb,
                                        std::int64_t bus_bytes_per_second) {
  Architecture arch{Bus(bus_bytes_per_second)};
  const ResourceId cpu = arch.add_processor("cpu0");
  const ResourceId fpga = arch.add_reconfigurable("fpga0", n_clbs, tr_per_clb);
  RDSE_ASSERT(cpu == 0 && fpga == 1);
  return arch;
}

}  // namespace rdse
