// A rack of heterogeneous servers running one workload.
//
// Racks group identical servers: the paper's allocator hands each server
// *type* a power-allocation ratio, and servers of the same type always share
// their group's power evenly (Section IV-B.3).  The rack is the unit the
// GreenHetero controller manages — in the paper's evaluation each
// configuration contributes 5 servers.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "server/server_sim.h"
#include "server/server_spec.h"
#include "workload/catalog.h"
#include "workload/workload_spec.h"

namespace greenhetero {

struct ServerGroup {
  ServerModel model;
  int count = 5;
};

class RackError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Rack {
 public:
  /// Build a rack from up to 3 server groups (the paper's per-PDU limit),
  /// all running `workload`.  Throws RackError for empty/oversized racks or
  /// workloads not runnable on a member (e.g. Web-search on the GPU node).
  Rack(std::vector<ServerGroup> groups, Workload workload,
       const WorkloadCatalog& catalog = default_catalog());

  /// Colocation form: each group runs its own workload (e.g. the Xeons host
  /// a batch job while the desktops serve an interactive one).  The
  /// controller's database keys are per (server config, workload), so the
  /// whole pipeline — training runs, fits, solver — works unchanged; only
  /// the summed "rack throughput" mixes metrics and should be read per
  /// group.  `workloads.size()` must equal `groups.size()`.
  Rack(std::vector<ServerGroup> groups, std::vector<Workload> workloads,
       const WorkloadCatalog& catalog = default_catalog());

  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] const ServerGroup& group(std::size_t i) const;
  [[nodiscard]] int total_servers() const;
  /// The first group's workload (rack-wide workload in the paper's setup).
  [[nodiscard]] Workload workload() const { return workloads_.front(); }
  [[nodiscard]] Workload group_workload(std::size_t i) const;
  /// True when every group runs the same workload (the paper's setup).
  [[nodiscard]] bool uniform_workload() const;
  [[nodiscard]] const WorkloadCatalog& catalog() const { return *catalog_; }

  /// Switch every server to a new workload (rebuilds ground truth; servers
  /// restart asleep until the next enforcement).
  void set_workload(Workload workload);
  /// Switch one group's workload.
  void set_group_workload(std::size_t i, Workload workload);

  /// Ground truth visible to tests/oracles (the controller itself only sees
  /// monitor samples): per-group single-server curve.
  [[nodiscard]] const PerfCurve& group_curve(std::size_t i) const;

  /// Aggregate full-tilt demand of the whole rack.
  [[nodiscard]] Watts peak_demand() const { return peak_demand_; }
  /// Aggregate minimum-operate demand (every server at its lowest state).
  [[nodiscard]] Watts idle_demand() const { return idle_demand_; }

  /// Enforce a per-group total power budget (group i receives
  /// group_power[i], split evenly across its servers).  Size must equal
  /// group_count().
  void enforce_allocation(std::span<const Watts> group_power);

  /// Subset-activation enforcement: group i's power is split across its
  /// first active[i] servers, and the remaining members sleep.  active[i]
  /// must lie in [0, count].
  void enforce_allocation_subset(std::span<const Watts> group_power,
                                 std::span<const int> active);

  /// Mutable access to one group's first server (all members are identical
  /// and enforced together; the RAPL-mode simulator drives the group's
  /// state through its representative).
  [[nodiscard]] ServerSim& mutable_group_representative(std::size_t i);
  /// Force every server of group i into `state`.
  void set_group_state(std::size_t i, int state);

  /// Training-run behaviour: all servers at full speed.
  void run_full_speed();
  void power_off();

  /// Fault injection: crash (`online == false`) or recover every server of
  /// group i.  Recovered servers stay asleep until the next enforcement.
  void set_group_online(std::size_t i, bool online);
  [[nodiscard]] bool group_online(std::size_t i) const;
  /// Fault injection: latch group i's DVFS actuation at `state` (nullopt
  /// clears the fault).
  void set_group_stuck_state(std::size_t i, std::optional<int> state);
  /// Fault injection: shift group i's enforced budgets by `offset` watts
  /// per server.
  void set_group_actuation_offset(std::size_t i, Watts offset);

  [[nodiscard]] Watts total_draw() const;
  [[nodiscard]] double total_throughput() const;
  [[nodiscard]] Watts group_draw(std::size_t i) const;
  /// One representative server of group i (all members are identical).
  [[nodiscard]] const ServerSim& group_representative(std::size_t i) const;

  /// Integrate the current operating point over `dt` on every server.
  void accumulate(Minutes dt);
  [[nodiscard]] double total_work() const;

  /// Checkpoint per-group workloads plus every server's operating state.
  /// Loading re-derives curves/ladders from the restored workloads (a
  /// workload-schedule switch may have moved a group off its configured
  /// workload) and then overwrites the server state the rebuild reset.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  [[nodiscard]] std::span<ServerSim> group_servers(std::size_t i);
  [[nodiscard]] std::span<const ServerSim> group_servers(std::size_t i) const;
  /// Re-sum peak_demand_ and idle_demand_ over the groups' curves (run
  /// whenever a group's workload moves).
  void refresh_demand();

  std::vector<ServerGroup> groups_;
  std::vector<Workload> workloads_;  ///< one per group
  const WorkloadCatalog* catalog_;
  std::vector<ServerSim> servers_;       // grouped contiguously
  std::vector<std::size_t> group_offsets_;
  Watts peak_demand_{0.0};
  Watts idle_demand_{0.0};
};

}  // namespace greenhetero
