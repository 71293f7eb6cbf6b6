#include "workload/workload_spec.h"

#include <array>
#include <string>

namespace greenhetero {

namespace {

constexpr std::array<WorkloadSpec, kWorkloadCount> kSpecs = {{
    {Workload::kSpecJbb, "SPECjbb", Suite::kSpec, WorkloadClass::kInteractive,
     "jops (99%-ile 500ms constrained)", false},
    {Workload::kWebSearch, "Web-search", Suite::kCloudsuite,
     WorkloadClass::kInteractive, "ops (90%-ile 500ms constrained)", false},
    {Workload::kMemcached, "Memcached", Suite::kCloudsuite,
     WorkloadClass::kInteractive, "rps (95%-ile 10ms constrained)", false},
    {Workload::kStreamcluster, "Streamcluster", Suite::kParsec,
     WorkloadClass::kBatch, "ips", false},
    {Workload::kFreqmine, "Freqmine", Suite::kParsec, WorkloadClass::kBatch,
     "ips", false},
    {Workload::kBlackscholes, "Blackscholes", Suite::kParsec,
     WorkloadClass::kBatch, "ips", false},
    {Workload::kBodytrack, "Bodytrack", Suite::kParsec, WorkloadClass::kBatch,
     "ips", false},
    {Workload::kSwaptions, "Swaptions", Suite::kParsec, WorkloadClass::kBatch,
     "ips", false},
    {Workload::kVips, "Vips", Suite::kParsec, WorkloadClass::kBatch, "ips",
     false},
    {Workload::kX264, "X264", Suite::kParsec, WorkloadClass::kBatch, "ips",
     false},
    {Workload::kCanneal, "Canneal", Suite::kParsec, WorkloadClass::kBatch,
     "ips", false},
    {Workload::kMcf, "Mcf", Suite::kSpecCpu, WorkloadClass::kHpc, "ips",
     false},
    {Workload::kSradV1, "Srad_v1", Suite::kRodinia, WorkloadClass::kHpc,
     "ips", true},
    {Workload::kParticlefilter, "Particlefilter", Suite::kRodinia,
     WorkloadClass::kHpc, "ips", true},
    {Workload::kCfd, "Cfd", Suite::kRodinia, WorkloadClass::kHpc, "ips",
     true},
    {Workload::kRodiniaStreamcluster, "Streamcluster(Rodinia)",
     Suite::kRodinia, WorkloadClass::kHpc, "ips", true},
}};

constexpr std::array<Workload, 12> kFigure9 = {
    Workload::kSpecJbb,      Workload::kWebSearch,    Workload::kMemcached,
    Workload::kStreamcluster, Workload::kFreqmine,    Workload::kBlackscholes,
    Workload::kBodytrack,    Workload::kSwaptions,    Workload::kVips,
    Workload::kX264,         Workload::kCanneal,      Workload::kMcf,
};

}  // namespace

const WorkloadSpec& workload_spec(Workload w) {
  for (const auto& spec : kSpecs) {
    if (spec.id == w) return spec;
  }
  throw std::invalid_argument("unknown workload");
}

std::span<const WorkloadSpec> all_workload_specs() { return kSpecs; }

Workload workload_by_name(std::string_view name) {
  for (const auto& spec : kSpecs) {
    if (spec.name == name) return spec.id;
  }
  throw std::invalid_argument("unknown workload name: " + std::string(name));
}

std::string_view to_string(Suite suite) {
  switch (suite) {
    case Suite::kSpec:
      return "SPEC";
    case Suite::kCloudsuite:
      return "Cloudsuite";
    case Suite::kParsec:
      return "PARSEC";
    case Suite::kSpecCpu:
      return "SPECCPU";
    case Suite::kRodinia:
      return "Rodinia";
  }
  return "?";
}

std::span<const Workload> figure9_workloads() { return kFigure9; }

}  // namespace greenhetero
