// Workload descriptions (Table I of the paper).
//
// Sixteen datacenter workloads across five suites: interactive cloud
// services (SPECjbb, CloudSuite Web-search and Memcached), eight PARSEC
// batch workloads, one SPEC CPU workload (Mcf) and four Rodinia kernels that
// can run on either CPUs or the GPU node.
#pragma once

#include <span>
#include <stdexcept>
#include <string_view>

namespace greenhetero {

enum class Workload {
  kSpecJbb,
  kWebSearch,
  kMemcached,
  kStreamcluster,
  kFreqmine,
  kBlackscholes,
  kBodytrack,
  kSwaptions,
  kVips,
  kX264,
  kCanneal,
  kMcf,
  kSradV1,
  kParticlefilter,
  kCfd,
  kRodiniaStreamcluster,
};

inline constexpr int kWorkloadCount = 16;

enum class Suite { kSpec, kCloudsuite, kParsec, kSpecCpu, kRodinia };

/// Broad behavioural class; drives which power-performance traits apply.
enum class WorkloadClass {
  kInteractive,  ///< latency-constrained services; tolerate low-power states
  kBatch,        ///< throughput batch jobs; need the machine fully awake
  kHpc,          ///< compute-heavy kernels; near-linear power scaling
};

struct WorkloadSpec {
  Workload id;
  std::string_view name;
  Suite suite;
  WorkloadClass workload_class;
  std::string_view metric;  ///< the paper's performance metric for the suite
  bool gpu_capable;         ///< can execute on the Titan Xp node
};

[[nodiscard]] const WorkloadSpec& workload_spec(Workload w);
[[nodiscard]] std::span<const WorkloadSpec> all_workload_specs();
[[nodiscard]] Workload workload_by_name(std::string_view name);
[[nodiscard]] std::string_view to_string(Suite suite);

/// The 12 CPU workloads of the Figure 9 / Figure 10 evaluation
/// (3 interactive + 8 PARSEC + Mcf).
[[nodiscard]] std::span<const Workload> figure9_workloads();

}  // namespace greenhetero
