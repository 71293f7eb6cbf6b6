// Workload placement: composing job-to-machine mapping (the Whare-Map idea
// the paper cites) with GreenHetero's power allocation.  Two workloads, two
// server groups, one scarce budget — the optimizer decides who runs where
// *and* who gets which watts.
#include <cstdio>
#include <string>

#include "core/enforcer.h"
#include "core/placement.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"

int main() {
  using namespace greenhetero;

  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  const std::vector<Workload> jobs = {Workload::kStreamcluster,
                                      Workload::kSwaptions};
  const Watts budget{900.0};

  // Train the database for every candidate pairing (one training run per
  // (server type, workload) pair — here done through a pretraining helper
  // rack per workload).
  PerfPowerDatabase db;
  for (Workload w : jobs) {
    Rack trainer{default_runtime_rack(), w};
    SimConfig cfg;
    cfg.controller.seed = 8;
    RackSimulator sim{std::move(trainer),
                      make_fixed_budget_plant(budget, Minutes{100.0}),
                      std::move(cfg)};
    sim.pretrain();
    for (const ProfileKey& key : sim.controller().database().keys()) {
      const ProfileRecord& rec = sim.controller().database().record(key);
      std::vector<ServerSample> samples;
      for (std::size_t i = 0; i < rec.powers.size(); ++i) {
        samples.push_back({Watts{rec.powers[i]}, rec.perfs[i]});
      }
      db.add_training_samples(key, samples);
    }
  }

  const PlacementResult best = optimize_placement(rack, jobs, db, budget);
  std::printf("budget %.0f W; candidate jobs: %s + %s\n\n", budget.value(),
              std::string(workload_spec(jobs[0]).name).c_str(),
              std::string(workload_spec(jobs[1]).name).c_str());
  for (std::size_t g = 0; g < best.assignment.size(); ++g) {
    std::printf("  group %zu (%s) runs %-16s PAR %5.1f%%\n", g,
                std::string(server_spec(rack.group(g).model).name).c_str(),
                std::string(workload_spec(best.assignment[g]).name).c_str(),
                best.allocation.ratios[g] * 100.0);
  }
  std::printf("\npredicted rack performance: %.0f\n", best.predicted_perf);

  // Apply the assignment and show the DVFS state each group lands on.
  for (std::size_t g = 0; g < best.assignment.size(); ++g) {
    rack.set_group_workload(g, best.assignment[g]);
  }
  (void)Enforcer::apply_allocation(rack, best.allocation, budget);
  std::printf("\nenforced states:\n");
  for (std::size_t g = 0; g < rack.group_count(); ++g) {
    const ServerSim& server = rack.group_representative(g);
    std::printf("  %dx %s -> state %d (%.1f W each)\n", rack.group(g).count,
                std::string(server_spec(rack.group(g).model).name).c_str(),
                server.state(), server.draw().value());
  }
  return 0;
}
