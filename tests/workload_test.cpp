#include <gtest/gtest.h>

#include "workload/catalog.h"
#include "workload/workload_spec.h"

namespace greenhetero {
namespace {

TEST(WorkloadSpec, TableOneContents) {
  EXPECT_EQ(all_workload_specs().size(), 16u);
  const WorkloadSpec& jbb = workload_spec(Workload::kSpecJbb);
  EXPECT_EQ(jbb.suite, Suite::kSpec);
  EXPECT_EQ(jbb.workload_class, WorkloadClass::kInteractive);
  EXPECT_FALSE(jbb.gpu_capable);
  const WorkloadSpec& srad = workload_spec(Workload::kSradV1);
  EXPECT_EQ(srad.suite, Suite::kRodinia);
  EXPECT_TRUE(srad.gpu_capable);
}

TEST(WorkloadSpec, ParsecCountIsEight) {
  int parsec = 0;
  for (const auto& spec : all_workload_specs()) {
    if (spec.suite == Suite::kParsec) ++parsec;
  }
  EXPECT_EQ(parsec, 8);
}

TEST(WorkloadSpec, LookupByName) {
  EXPECT_EQ(workload_by_name("Canneal"), Workload::kCanneal);
  EXPECT_THROW((void)workload_by_name("Doom"), std::invalid_argument);
}

TEST(WorkloadSpec, FigureSets) {
  EXPECT_EQ(figure9_workloads().size(), 12u);
}

TEST(WorkloadSpec, SuiteNames) {
  EXPECT_EQ(to_string(Suite::kParsec), "PARSEC");
  EXPECT_EQ(to_string(Suite::kRodinia), "Rodinia");
}

TEST(Catalog, CpuCapabilityOrdering) {
  const WorkloadCatalog& cat = default_catalog();
  // The dual-socket 12-core Xeon leads; the 4-core E5-2603 trails.
  const double e2620 = cat.cpu_capability(ServerModel::kXeonE5_2620);
  const double e2603 = cat.cpu_capability(ServerModel::kXeonE5_2603);
  const double i7 = cat.cpu_capability(ServerModel::kCoreI7_8700K);
  EXPECT_GT(e2620, cat.cpu_capability(ServerModel::kXeonE5_2650));
  EXPECT_GT(i7, cat.cpu_capability(ServerModel::kCoreI5_4460));
  EXPECT_LT(e2603, 10.0);
  EXPECT_THROW((void)cat.cpu_capability(ServerModel::kTitanXp),
               std::invalid_argument);
}

TEST(Catalog, Runnability) {
  const WorkloadCatalog& cat = default_catalog();
  EXPECT_TRUE(cat.runnable(ServerModel::kXeonE5_2620, Workload::kSpecJbb));
  EXPECT_TRUE(cat.runnable(ServerModel::kTitanXp, Workload::kSradV1));
  EXPECT_FALSE(cat.runnable(ServerModel::kTitanXp, Workload::kMemcached));
  EXPECT_THROW(
      (void)cat.curve_params(ServerModel::kTitanXp, Workload::kMemcached),
      std::invalid_argument);
}

TEST(Catalog, CurveParamsWithinMachineEnvelope) {
  const WorkloadCatalog& cat = default_catalog();
  for (const auto& server : all_server_specs()) {
    for (const auto& wl : all_workload_specs()) {
      if (!cat.runnable(server.model, wl.id)) continue;
      const PerfCurveParams p = cat.curve_params(server.model, wl.id);
      EXPECT_GT(p.peak_throughput, 0.0) << wl.name;
      EXPECT_LE(p.idle_power.value(), server.idle_power.value() + 1e-9);
      EXPECT_LE(p.peak_power.value(), server.peak_power.value() + 1e-9);
      EXPECT_GT(p.peak_power.value(), p.idle_power.value());
    }
  }
}

TEST(Catalog, InteractiveTolerateLowPowerStates) {
  const WorkloadCatalog& cat = default_catalog();
  const ServerSpec& xeon = server_spec(ServerModel::kXeonE5_2620);
  const PerfCurveParams web =
      cat.curve_params(xeon.model, Workload::kWebSearch);
  const PerfCurveParams batch =
      cat.curve_params(xeon.model, Workload::kStreamcluster);
  EXPECT_LT(web.idle_power.value(), xeon.idle_power.value());
  EXPECT_NEAR(batch.idle_power.value(), xeon.idle_power.value(), 1e-9);
}

TEST(Catalog, StreamclusterFavoursXeons) {
  const WorkloadCatalog& cat = default_catalog();
  const double xeon_eff =
      cat.curve(ServerModel::kXeonE5_2620, Workload::kStreamcluster)
          .peak_efficiency();
  const double i5_eff =
      cat.curve(ServerModel::kCoreI5_4460, Workload::kStreamcluster)
          .peak_efficiency();
  EXPECT_GT(xeon_eff, i5_eff);
}

TEST(Catalog, CannealCrippledOnDesktops) {
  const WorkloadCatalog& cat = default_catalog();
  const PerfCurveParams i5 =
      cat.curve_params(ServerModel::kCoreI5_4460, Workload::kCanneal);
  const ServerSpec& spec = server_spec(ServerModel::kCoreI5_4460);
  // The usable power range collapses: i5 canneal peak well below spec peak.
  EXPECT_LT(i5.peak_power.value(),
            spec.idle_power.value() +
                0.5 * (spec.peak_power - spec.idle_power).value());
}

TEST(Catalog, GpuDominatesSradButNotCfd) {
  const WorkloadCatalog& cat = default_catalog();
  const double gpu_srad =
      cat.curve(ServerModel::kTitanXp, Workload::kSradV1).peak_throughput();
  const double cpu_srad =
      cat.curve(ServerModel::kXeonE5_2620, Workload::kSradV1)
          .peak_throughput();
  EXPECT_GT(gpu_srad, 5.0 * cpu_srad);

  const double gpu_cfd =
      cat.curve(ServerModel::kTitanXp, Workload::kCfd).peak_throughput();
  const double cpu_cfd =
      cat.curve(ServerModel::kXeonE5_2620, Workload::kCfd).peak_throughput();
  EXPECT_LT(gpu_cfd, 2.0 * cpu_cfd);
}

}  // namespace
}  // namespace greenhetero
