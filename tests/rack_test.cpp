#include <gtest/gtest.h>

#include "server/combinations.h"
#include "server/rack.h"

namespace greenhetero {
namespace {

Rack comb1_rack(Workload w = Workload::kSpecJbb) {
  return Rack{default_runtime_rack(), w};
}

TEST(Rack, Construction) {
  const Rack rack = comb1_rack();
  EXPECT_EQ(rack.group_count(), 2u);
  EXPECT_EQ(rack.total_servers(), 10);
  EXPECT_EQ(rack.group(0).model, ServerModel::kXeonE5_2620);
  EXPECT_EQ(rack.group(1).model, ServerModel::kCoreI5_4460);
  EXPECT_THROW((void)rack.group(2), RackError);
}

TEST(Rack, RejectsBadShapes) {
  EXPECT_THROW(Rack({}, Workload::kSpecJbb), RackError);
  EXPECT_THROW(Rack({{ServerModel::kXeonE5_2620, 0}}, Workload::kSpecJbb),
               RackError);
  EXPECT_THROW(Rack({{ServerModel::kXeonE5_2620, 1},
                     {ServerModel::kXeonE5_2650, 1},
                     {ServerModel::kXeonE5_2603, 1},
                     {ServerModel::kCoreI5_4460, 1}},
                    Workload::kSpecJbb),
               RackError);
}

TEST(Rack, RejectsNonRunnableWorkload) {
  // Web-search cannot run on the GPU node.
  EXPECT_THROW(Rack({{ServerModel::kTitanXp, 2}}, Workload::kWebSearch),
               RackError);
}

TEST(Rack, DemandAggregation) {
  const Rack rack = comb1_rack();
  const Watts peak = rack.peak_demand();
  const Watts idle = rack.idle_demand();
  EXPECT_GT(peak.value(), idle.value());
  // 5 servers of each of the two curves.
  const double expected_peak = 5.0 * rack.group_curve(0).peak_power().value() +
                               5.0 * rack.group_curve(1).peak_power().value();
  EXPECT_NEAR(peak.value(), expected_peak, 1e-9);
}

TEST(Rack, UniformAllocationSplitsWithinGroup) {
  Rack rack = comb1_rack();
  // Give group 1 (i5) exactly 5x its curve peak: all five run full speed.
  const Watts i5_peak = rack.group_curve(1).peak_power();
  const std::vector<Watts> alloc = {Watts{0.0}, i5_peak * 5.0};
  rack.enforce_allocation(alloc);
  EXPECT_DOUBLE_EQ(rack.group_draw(0).value(), 0.0);
  EXPECT_NEAR(rack.group_draw(1).value(), i5_peak.value() * 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(rack.group_representative(0).throughput(), 0.0);
  EXPECT_GT(rack.group_representative(1).throughput(), 0.0);
  EXPECT_NEAR(rack.total_throughput(),
              5.0 * rack.group_representative(1).throughput(), 1e-9);
}

TEST(Rack, AllocationSizeChecked) {
  Rack rack = comb1_rack();
  const std::vector<Watts> wrong = {Watts{100.0}};
  EXPECT_THROW(rack.enforce_allocation(wrong), RackError);
}

TEST(Rack, StarvedGroupSleeps) {
  Rack rack = comb1_rack();
  // 350 W over 5 Xeons = 70 W/server, below the E5-2620 SPECjbb floor
  // (88 W idle x 0.9 interactive idle factor = 79.2 W).
  const std::vector<Watts> alloc = {Watts{350.0}, Watts{0.0}};
  rack.enforce_allocation(alloc);
  EXPECT_DOUBLE_EQ(rack.group_draw(0).value(), 0.0);
}

TEST(Rack, FullSpeedAndTotals) {
  Rack rack = comb1_rack();
  rack.run_full_speed();
  EXPECT_NEAR(rack.total_draw().value(), rack.peak_demand().value(), 1e-9);
  EXPECT_GT(rack.total_throughput(), 0.0);
  rack.accumulate(Minutes{60.0});
  EXPECT_NEAR(rack.total_work(), rack.total_throughput(), 1e-9);
  rack.power_off();
  EXPECT_DOUBLE_EQ(rack.total_draw().value(), 0.0);
}

TEST(Rack, SetWorkloadRebuildsCurves) {
  Rack rack = comb1_rack(Workload::kSpecJbb);
  const double jbb_peak = rack.group_curve(0).peak_throughput();
  rack.set_workload(Workload::kStreamcluster);
  EXPECT_EQ(rack.workload(), Workload::kStreamcluster);
  EXPECT_NE(rack.group_curve(0).peak_throughput(), jbb_peak);
  // Servers restart asleep.
  EXPECT_DOUBLE_EQ(rack.total_draw().value(), 0.0);
}

TEST(Rack, GroupRepresentativeIsFirstMember) {
  Rack rack = comb1_rack();
  rack.run_full_speed();
  EXPECT_DOUBLE_EQ(rack.group_representative(1).draw().value(),
                   rack.group_curve(1).peak_power().value());
}

TEST(Combinations, TableFourContents) {
  const auto combos = table4_combinations();
  ASSERT_EQ(combos.size(), 6u);
  EXPECT_EQ(combos[0].name, "Comb1");
  EXPECT_EQ(combos[0].groups.size(), 2u);
  EXPECT_EQ(combos[4].groups.size(), 3u);  // Comb5: three types
  EXPECT_EQ(combos[5].workloads.size(), 4u);  // Comb6: Rodinia set
  EXPECT_EQ(combos[5].groups[1].model, ServerModel::kTitanXp);
  for (const auto& c : combos) {
    for (const auto& g : c.groups) EXPECT_EQ(g.count, 5);
  }
}

TEST(Combinations, LookupByName) {
  EXPECT_EQ(combination_by_name("Comb3").groups[0].model,
            ServerModel::kXeonE5_2650);
  EXPECT_THROW((void)combination_by_name("Comb9"), std::invalid_argument);
}

TEST(Combinations, AllBuildableRacks) {
  for (const auto& c : table4_combinations()) {
    for (Workload w : c.workloads) {
      const Rack rack{c.groups, w};
      EXPECT_GT(rack.peak_demand().value(), 0.0);
    }
  }
}

}  // namespace
}  // namespace greenhetero
