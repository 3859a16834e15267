/// Tests for the architecture model (resources, bus, container).

#include <gtest/gtest.h>

#include "arch/architecture.hpp"

namespace rdse {
namespace {

TEST(Bus, TransferTimeRoundsUp) {
  const Bus bus(1'000'000);  // 1 MB/s = 1 byte per microsecond
  EXPECT_EQ(bus.transfer_time(0), 0);
  EXPECT_EQ(bus.transfer_time(1), 1'000);       // 1 us
  EXPECT_EQ(bus.transfer_time(1'000'000), kNsPerSec);
}

TEST(Bus, RoundUpOnNonDivisible) {
  const Bus bus(3);  // 3 bytes/s
  // 1 byte = 1/3 s -> ceil = 333333334 ns
  EXPECT_EQ(bus.transfer_time(1), 333'333'334);
}

TEST(Bus, RejectsBadInput) {
  EXPECT_THROW(Bus(0), Error);
  const Bus bus(100);
  EXPECT_THROW((void)bus.transfer_time(-1), Error);
}

TEST(Resource, KindsAndOrders) {
  Architecture arch{Bus(1'000)};
  const ResourceId p = arch.add_processor("cpu");
  const ResourceId rc = arch.add_reconfigurable("fpga", 1000, from_us(22.5));
  EXPECT_EQ(arch.resource(p).kind(), ResourceKind::kProcessor);
  EXPECT_STREQ(to_string(arch.resource(rc).kind()), "reconfigurable");
}

TEST(Resource, ReconfigurationTimeIsLinear) {
  Architecture arch{Bus(1'000)};
  const Resource& rc =
      arch.resource(arch.add_reconfigurable("fpga", 2000, from_us(22.5)));
  EXPECT_EQ(rc.reconfiguration_time(0), 0);
  EXPECT_EQ(rc.reconfiguration_time(1000), from_us(22'500.0));
  EXPECT_EQ(rc.reconfiguration_time(995), 995 * from_us(22.5));
#if defined(RDSE_ENABLE_DCHECKS)
  // The negative-CLB precondition is a debug-only hot-path check
  // (RDSE_DCHECK): enforced in Debug and sanitizer builds, compiled out in
  // Release.
  EXPECT_THROW((void)rc.reconfiguration_time(-1), Error);
#endif
}

TEST(Resource, RcRejectsBadGeometry) {
  Architecture arch{Bus(1'000)};
  EXPECT_THROW(arch.add_reconfigurable("x", 0, 10), Error);
  EXPECT_THROW(arch.add_reconfigurable("x", 100, -1), Error);
}

#if defined(RDSE_ENABLE_DCHECKS)
TEST(Resource, KindSpecificReadsCheckTheirKind) {
  // Debug and sanitizer builds reject a read of another kind's field.
  Architecture arch{Bus(1'000)};
  const ResourceId cpu = arch.add_processor("cpu");
  const ResourceId asic = arch.add_asic("asic");
  const ResourceId rc = arch.add_reconfigurable("fpga", 100, from_us(10));
  EXPECT_THROW((void)arch.resource(cpu).n_clbs(), Error);
  EXPECT_THROW((void)arch.resource(cpu).reconfiguration_time(10), Error);
  EXPECT_THROW((void)arch.resource(asic).tr_per_clb(), Error);
  EXPECT_THROW((void)arch.resource(asic).execution_time(10), Error);
  EXPECT_THROW((void)arch.resource(rc).speed_factor(), Error);
}
#endif

TEST(Architecture, FactoryLayout) {
  const Architecture arch =
      make_cpu_fpga_architecture(2000, from_us(22.5), 50'000'000);
  EXPECT_EQ(arch.resource_count(), 2u);
  EXPECT_EQ(arch.processor_ids(), (std::vector<ResourceId>{0}));
  EXPECT_EQ(arch.reconfigurable_ids(), (std::vector<ResourceId>{1}));
  EXPECT_EQ(arch.reconfigurable(1).n_clbs(), 2000);
  EXPECT_EQ(arch.bus().bytes_per_second(), 50'000'000);
}

TEST(Architecture, AddRemoveKeepsIdsStable) {
  Architecture arch{Bus(1'000)};
  const ResourceId cpu = arch.add_processor("cpu0");
  const ResourceId fpga = arch.add_reconfigurable("fpga0", 100, 10);
  const ResourceId asic = arch.add_asic("asic0");
  EXPECT_EQ(arch.slot_count(), 3u);
  arch.remove(fpga);
  EXPECT_FALSE(arch.alive(fpga));
  EXPECT_TRUE(arch.alive(cpu));
  EXPECT_TRUE(arch.alive(asic));
  EXPECT_EQ(arch.resource_count(), 2u);
  EXPECT_EQ(arch.live_ids(), (std::vector<ResourceId>{cpu, asic}));
  // Slot ids never shift.
  EXPECT_EQ(arch.resource(asic).name(), "asic0");
  EXPECT_THROW(arch.remove(fpga), Error);  // double remove
  EXPECT_THROW((void)arch.resource(fpga), Error);
}

TEST(Architecture, WrongKindAccessThrows) {
  Architecture arch{Bus(1'000)};
  const ResourceId cpu = arch.add_processor("cpu0");
  EXPECT_THROW((void)arch.reconfigurable(cpu), Error);
}

TEST(Architecture, DeepCopyIsIndependent) {
  Architecture a{Bus(1'000)};
  a.add_processor("cpu0");
  const ResourceId rc = a.add_reconfigurable("fpga0", 100, 10);
  Architecture b = a;
  // The copy keeps the kind, the name and the CLB count.
  EXPECT_EQ(b.resource(rc).kind(), ResourceKind::kReconfigurable);
  EXPECT_EQ(b.resource(rc).name(), "fpga0");
  EXPECT_EQ(b.reconfigurable(rc).n_clbs(), 100);
  b.remove(rc);
  EXPECT_TRUE(a.alive(rc));
  EXPECT_FALSE(b.alive(rc));
  EXPECT_EQ(a.reconfigurable(rc).n_clbs(), 100);
}

TEST(Architecture, TotalPriceSumsLiveOnly) {
  Architecture arch{Bus(1'000)};
  arch.add_processor("cpu0", 100.0);
  const ResourceId asic = arch.add_asic("asic0", 400.0);
  EXPECT_DOUBLE_EQ(arch.total_price(), 500.0);
  arch.remove(asic);
  EXPECT_DOUBLE_EQ(arch.total_price(), 100.0);
}

TEST(Architecture, RcPriceScalesWithArea) {
  Architecture arch{Bus(1'000)};
  const ResourceId small = arch.add_reconfigurable("s", 100, 10);
  const ResourceId big = arch.add_reconfigurable("b", 10'000, 10);
  EXPECT_LT(arch.resource(small).price(), arch.resource(big).price());
}

}  // namespace
}  // namespace rdse
