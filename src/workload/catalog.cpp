#include "workload/catalog.h"

#include <stdexcept>
#include <string>

namespace greenhetero {

namespace {

/// Microarchitectural IPC weights relative to Sandy Bridge Xeon cores.
double ipc_factor(ServerModel model) {
  switch (model) {
    case ServerModel::kXeonE5_2620:
    case ServerModel::kXeonE5_2650:
      return 1.0;
    case ServerModel::kXeonE5_2603:
      return 0.95;  // same generation, no hyper-threading, low bins
    case ServerModel::kCoreI5_4460:
      return 1.15;  // Haswell
    case ServerModel::kCoreI7_8700K:
      return 1.35;  // Coffee Lake
    case ServerModel::kTitanXp:
      return 0.0;  // capability is workload-specific (traits.gpu_capability)
  }
  throw std::invalid_argument("unknown server model");
}

std::size_t index_of(Workload w) { return static_cast<std::size_t>(w); }

}  // namespace

WorkloadCatalog::WorkloadCatalog() {
  // Calibration table.  Column meanings are documented on WorkloadTraits;
  // the shapes these values are tuned to reproduce are listed in DESIGN.md
  // section 5 ("Headline expectations").
  auto set = [this](Workload w, WorkloadTraits t) { traits_[index_of(w)] = t; };

  // --- Interactive services: tolerate low-power states (idle_factor < 1),
  // high throughput floors, so power allocation moves them the least.
  set(Workload::kSpecJbb,
      {.gamma = 0.75, .floor_fraction = 0.35, .intensity = 1.0,
       .idle_factor = 0.90, .xeon_affinity = 1.0, .i5_affinity = 1.10,
       .i7_affinity = 1.30, .unit_scale = 600.0});
  set(Workload::kWebSearch,
      {.gamma = 0.60, .floor_fraction = 0.55, .intensity = 0.85,
       .idle_factor = 0.70, .xeon_affinity = 1.0, .i5_affinity = 1.05,
       .i7_affinity = 1.20, .unit_scale = 80.0});
  set(Workload::kMemcached,
      {.gamma = 0.40, .floor_fraction = 0.85, .intensity = 0.55,
       .idle_factor = 0.65, .xeon_affinity = 0.60, .i5_affinity = 1.0,
       .i7_affinity = 1.10, .unit_scale = 5000.0});

  // --- PARSEC batch: need the machine fully awake (idle_factor = 1), so a
  // uniform split starves high-idle Xeons; affinities encode memory-
  // bandwidth (Xeon-favouring) vs compute (desktop-favouring) character.
  set(Workload::kStreamcluster,
      {.gamma = 0.55, .floor_fraction = 0.30, .intensity = 0.95,
       .idle_factor = 1.0, .xeon_affinity = 1.15, .i5_affinity = 0.95,
       .i7_affinity = 1.00, .unit_scale = 40.0});
  set(Workload::kFreqmine,
      {.gamma = 0.80, .floor_fraction = 0.35, .intensity = 1.0,
       .idle_factor = 1.0, .xeon_affinity = 1.0, .i5_affinity = 0.95,
       .i7_affinity = 1.25, .unit_scale = 45.0});
  set(Workload::kBlackscholes,
      {.gamma = 0.95, .floor_fraction = 0.30, .intensity = 0.90,
       .idle_factor = 1.0, .xeon_affinity = 1.0, .i5_affinity = 1.15,
       .i7_affinity = 1.40, .unit_scale = 50.0});
  set(Workload::kBodytrack,
      {.gamma = 0.85, .floor_fraction = 0.32, .intensity = 0.95,
       .idle_factor = 1.0, .xeon_affinity = 1.0, .i5_affinity = 1.10,
       .i7_affinity = 1.30, .unit_scale = 42.0});
  set(Workload::kSwaptions,
      {.gamma = 0.95, .floor_fraction = 0.28, .intensity = 0.92,
       .idle_factor = 1.0, .xeon_affinity = 1.0, .i5_affinity = 1.20,
       .i7_affinity = 1.45, .unit_scale = 55.0});
  set(Workload::kVips,
      {.gamma = 0.80, .floor_fraction = 0.33, .intensity = 0.97,
       .idle_factor = 1.0, .xeon_affinity = 1.05, .i5_affinity = 1.0,
       .i7_affinity = 1.25, .unit_scale = 47.0});
  set(Workload::kX264,
      {.gamma = 0.85, .floor_fraction = 0.30, .intensity = 1.0,
       .idle_factor = 1.0, .xeon_affinity = 0.95, .i5_affinity = 1.20,
       .i7_affinity = 1.45, .unit_scale = 52.0});
  // Canneal's working set thrashes the desktop parts: they can only convert
  // a sliver of their power range into progress, so uniform allocation
  // wastes heavily — the paper's best EPU improvement (2.7x).
  set(Workload::kCanneal,
      {.gamma = 0.50, .floor_fraction = 0.35, .intensity = 0.90,
       .idle_factor = 1.0, .xeon_affinity = 0.65, .i5_affinity = 0.75,
       .i7_affinity = 0.80, .desktop_intensity_scale = 0.05,
       .unit_scale = 38.0});

  // --- SPEC CPU: Mcf is memory-latency bound; the Xeons' cache helps.
  // Mcf stalls on memory latency: the cores idle along, so it tolerates low
  // frequency states (idle_factor < 1) and scales weakly with power.
  set(Workload::kMcf,
      {.gamma = 0.60, .floor_fraction = 0.40, .intensity = 0.90,
       .idle_factor = 0.78, .xeon_affinity = 1.00, .i5_affinity = 0.90,
       .i7_affinity = 1.0, .unit_scale = 30.0});

  // --- Rodinia kernels (Comb6 = E5-2620 + Titan Xp).  gpu_capability is in
  // the same units as cpu_capability (E5-2620 = 24): Srad_v1 is massively
  // parallel (GPU ~10x one Xeon), Particlefilter ~5x, Rodinia Streamcluster
  // ~3x, Cfd roughly ties a Xeon (per Fig. 14 discussion).
  set(Workload::kSradV1,
      {.gamma = 0.90, .floor_fraction = 0.30, .intensity = 1.0,
       .idle_factor = 1.0, .xeon_affinity = 1.0, .i5_affinity = 0.90,
       .i7_affinity = 1.10, .gpu_capability = 420.0, .gpu_gamma = 0.90,
       .gpu_floor = 0.20, .gpu_intensity = 1.0, .unit_scale = 35.0});
  set(Workload::kParticlefilter,
      {.gamma = 0.85, .floor_fraction = 0.30, .intensity = 0.95,
       .idle_factor = 1.0, .xeon_affinity = 1.0, .i5_affinity = 0.90,
       .i7_affinity = 1.10, .gpu_capability = 150.0, .gpu_gamma = 0.88,
       .gpu_floor = 0.22, .gpu_intensity = 0.95, .unit_scale = 30.0});
  set(Workload::kCfd,
      {.gamma = 0.80, .floor_fraction = 0.35, .intensity = 1.0,
       .idle_factor = 1.0, .xeon_affinity = 1.0, .i5_affinity = 0.90,
       .i7_affinity = 1.10, .gpu_capability = 27.0, .gpu_gamma = 0.80,
       .gpu_floor = 0.30, .gpu_intensity = 0.80, .unit_scale = 33.0});
  set(Workload::kRodiniaStreamcluster,
      {.gamma = 0.60, .floor_fraction = 0.30, .intensity = 0.95,
       .idle_factor = 1.0, .xeon_affinity = 1.30, .i5_affinity = 0.60,
       .i7_affinity = 0.80, .gpu_capability = 70.0, .gpu_gamma = 0.75,
       .gpu_floor = 0.25, .gpu_intensity = 0.90, .unit_scale = 38.0});
}

double WorkloadCatalog::cpu_capability(ServerModel model) const {
  const ServerSpec& spec = server_spec(model);
  if (spec.is_gpu) {
    throw std::invalid_argument("cpu_capability: not a CPU model");
  }
  return static_cast<double>(spec.cores) * spec.frequency_ghz *
         ipc_factor(model);
}

const WorkloadTraits& WorkloadCatalog::traits(Workload w) const {
  return traits_[index_of(w)];
}

bool WorkloadCatalog::runnable(ServerModel model, Workload w) const {
  const ServerSpec& spec = server_spec(model);
  if (!spec.is_gpu) return true;
  return workload_spec(w).gpu_capable && traits(w).gpu_capability > 0.0;
}

PerfCurveParams WorkloadCatalog::curve_params(ServerModel model,
                                              Workload w) const {
  if (!runnable(model, w)) {
    throw std::invalid_argument(
        std::string("workload '") + std::string(workload_spec(w).name) +
        "' cannot run on " + std::string(server_spec(model).name));
  }
  const ServerSpec& spec = server_spec(model);
  const WorkloadTraits& t = traits(w);

  PerfCurveParams params;
  if (spec.is_gpu) {
    params.idle_power = spec.idle_power;
    params.peak_power =
        spec.idle_power + spec.dynamic_range() * t.gpu_intensity;
    params.peak_throughput = t.unit_scale * t.gpu_capability;
    params.floor_fraction = t.gpu_floor;
    params.gamma = t.gpu_gamma;
    return params;
  }

  double affinity = 1.0;
  double intensity = t.intensity;
  switch (model) {
    case ServerModel::kXeonE5_2620:
    case ServerModel::kXeonE5_2650:
    case ServerModel::kXeonE5_2603:
      affinity = t.xeon_affinity;
      break;
    case ServerModel::kCoreI5_4460:
      affinity = t.i5_affinity;
      intensity *= t.desktop_intensity_scale;
      break;
    case ServerModel::kCoreI7_8700K:
      affinity = t.i7_affinity;
      intensity *= t.desktop_intensity_scale;
      break;
    case ServerModel::kTitanXp:
      break;  // handled above
  }
  params.idle_power = spec.idle_power * t.idle_factor;
  params.peak_power = params.idle_power +
                      (spec.peak_power - params.idle_power) * intensity;
  params.peak_throughput = t.unit_scale * cpu_capability(model) * affinity;
  params.floor_fraction = t.floor_fraction;
  params.gamma = t.gamma;
  return params;
}

PerfCurve WorkloadCatalog::curve(ServerModel model, Workload w) const {
  return PerfCurve{curve_params(model, w)};
}

const WorkloadCatalog& default_catalog() {
  static const WorkloadCatalog catalog;
  return catalog;
}

}  // namespace greenhetero
