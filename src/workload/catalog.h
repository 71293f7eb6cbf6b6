// Performance-power calibration catalog.
//
// The paper measures real workloads on real servers; we replace that with a
// calibrated analytic model (see DESIGN.md "Substitutions").  For every
// (server model, workload) pair the catalog yields the ground-truth
// PerfCurveParams the simulator runs on:
//
//   peak throughput = unit_scale * capability(server) * affinity(workload, arch)
//   operating range = [spec.idle * idle_factor,  idle + dynamic * intensity]
//
// The traits are hand-calibrated so the paper's qualitative results hold:
// interactive services tolerate low-power states (high floor, idle_factor<1)
// and show small allocation gains; memory-bound batch jobs favour the Xeons;
// desktop parts shine on compute-bound kernels; the GPU dominates Srad_v1
// but ties the CPUs on Cfd.
#pragma once

#include "server/perf_curve.h"
#include "server/server_spec.h"
#include "workload/workload_spec.h"

namespace greenhetero {

/// Per-workload behavioural traits (one row of the calibration table).
struct WorkloadTraits {
  double gamma = 0.8;          ///< concavity of throughput vs power
  double floor_fraction = 0.3; ///< relative throughput at the lowest state
  double intensity = 1.0;      ///< fraction of machine dynamic range used
  double idle_factor = 1.0;    ///< min-operate power = spec idle * this
  double xeon_affinity = 1.0;  ///< Sandy-Bridge Xeon capability multiplier
  double i5_affinity = 1.0;    ///< Haswell desktop multiplier
  double i7_affinity = 1.0;    ///< Coffee-Lake desktop multiplier
  double desktop_intensity_scale = 1.0;  ///< extra intensity scale on i5/i7
  double gpu_capability = 0.0; ///< absolute capability on the Titan Xp; 0 = n/a
  double gpu_gamma = 0.85;
  double gpu_floor = 0.25;
  double gpu_intensity = 1.0;
  double unit_scale = 1.0;     ///< to the suite's metric units
};

class WorkloadCatalog {
 public:
  /// The default calibration used by all benches and examples.
  WorkloadCatalog();

  /// Per-core-GHz-weighted compute capability of a CPU model (arbitrary
  /// units).  GPU capability is workload-specific and lives in the traits.
  [[nodiscard]] double cpu_capability(ServerModel model) const;

  [[nodiscard]] const WorkloadTraits& traits(Workload w) const;

  /// Can this workload execute on this server at all?
  [[nodiscard]] bool runnable(ServerModel model, Workload w) const;

  /// Ground-truth curve parameters; throws std::invalid_argument when the
  /// pair is not runnable (e.g. Web-search on the GPU node).
  [[nodiscard]] PerfCurveParams curve_params(ServerModel model,
                                             Workload w) const;
  [[nodiscard]] PerfCurve curve(ServerModel model, Workload w) const;

 private:
  WorkloadTraits traits_[kWorkloadCount];
};

/// Shared immutable default catalog.
[[nodiscard]] const WorkloadCatalog& default_catalog();

}  // namespace greenhetero
