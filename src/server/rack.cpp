#include "server/rack.h"

#include "checkpoint/serializer.h"

namespace greenhetero {

Rack::Rack(std::vector<ServerGroup> groups, Workload workload,
           const WorkloadCatalog& catalog)
    : Rack(std::vector<ServerGroup>(groups),
           std::vector<Workload>(groups.size(), workload), catalog) {}

Rack::Rack(std::vector<ServerGroup> groups, std::vector<Workload> workloads,
           const WorkloadCatalog& catalog)
    : groups_(std::move(groups)),
      workloads_(std::move(workloads)),
      catalog_(&catalog) {
  if (groups_.empty() || groups_.size() > 3) {
    throw RackError("rack: need 1..3 server groups (paper's per-PDU limit)");
  }
  if (workloads_.size() != groups_.size()) {
    throw RackError("rack: need one workload per group");
  }
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].count <= 0) {
      throw RackError("rack: group count must be positive");
    }
    if (!catalog_->runnable(groups_[i].model, workloads_[i])) {
      throw RackError("rack: workload not runnable on a group member");
    }
  }
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    group_offsets_.push_back(servers_.size());
    const ServerSpec& spec = server_spec(groups_[i].model);
    const PerfCurve curve = catalog_->curve(groups_[i].model, workloads_[i]);
    for (int s = 0; s < groups_[i].count; ++s) {
      servers_.emplace_back(spec, curve);
    }
  }
  group_offsets_.push_back(servers_.size());
  refresh_demand();
}

const ServerGroup& Rack::group(std::size_t i) const {
  if (i >= groups_.size()) {
    throw RackError("rack: group index out of range");
  }
  return groups_[i];
}

int Rack::total_servers() const {
  int total = 0;
  for (const auto& g : groups_) total += g.count;
  return total;
}

Workload Rack::group_workload(std::size_t i) const {
  if (i >= workloads_.size()) {
    throw RackError("rack: group index out of range");
  }
  return workloads_[i];
}

bool Rack::uniform_workload() const {
  for (Workload w : workloads_) {
    if (w != workloads_.front()) return false;
  }
  return true;
}

void Rack::set_workload(Workload workload) {
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    set_group_workload(i, workload);
  }
}

void Rack::set_group_workload(std::size_t i, Workload workload) {
  if (i >= groups_.size()) {
    throw RackError("rack: group index out of range");
  }
  if (!catalog_->runnable(groups_[i].model, workload)) {
    throw RackError("rack: workload not runnable on a group member");
  }
  workloads_[i] = workload;
  const PerfCurve curve = catalog_->curve(groups_[i].model, workload);
  for (ServerSim& server : group_servers(i)) {
    server.set_curve(curve);
  }
  refresh_demand();
}

const PerfCurve& Rack::group_curve(std::size_t i) const {
  return group_representative(i).curve();
}

void Rack::refresh_demand() {
  peak_demand_ = Watts{0.0};
  idle_demand_ = Watts{0.0};
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    const double count = static_cast<double>(groups_[i].count);
    peak_demand_ += group_curve(i).peak_power() * count;
    idle_demand_ += group_curve(i).idle_power() * count;
  }
}

void Rack::enforce_allocation(std::span<const Watts> group_power) {
  if (group_power.size() != groups_.size()) {
    throw RackError("rack: allocation size must equal group count");
  }
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    const Watts per_server =
        group_power[i] / static_cast<double>(groups_[i].count);
    for (ServerSim& server : group_servers(i)) {
      server.enforce_budget(per_server);
    }
  }
}

void Rack::enforce_allocation_subset(std::span<const Watts> group_power,
                                     std::span<const int> active) {
  if (group_power.size() != groups_.size() ||
      active.size() != groups_.size()) {
    throw RackError("rack: subset allocation sizes must match group count");
  }
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (active[i] < 0 || active[i] > groups_[i].count) {
      throw RackError("rack: active count out of range");
    }
    const auto servers = group_servers(i);
    if (active[i] == 0) {
      for (ServerSim& server : servers) server.power_off();
      continue;
    }
    const Watts per_server =
        group_power[i] / static_cast<double>(active[i]);
    for (std::size_t s = 0; s < servers.size(); ++s) {
      if (s < static_cast<std::size_t>(active[i])) {
        servers[s].enforce_budget(per_server);
      } else {
        servers[s].power_off();
      }
    }
  }
}

ServerSim& Rack::mutable_group_representative(std::size_t i) {
  return group_servers(i).front();
}

void Rack::set_group_state(std::size_t i, int state) {
  for (ServerSim& server : group_servers(i)) {
    const Watts budget = server.ladder().state_power(state);
    server.enforce_budget(budget + Watts{1e-9});
  }
}

void Rack::set_group_online(std::size_t i, bool online) {
  for (ServerSim& server : group_servers(i)) {
    server.set_online(online);
  }
}

bool Rack::group_online(std::size_t i) const {
  return group_representative(i).online();
}

void Rack::set_group_stuck_state(std::size_t i, std::optional<int> state) {
  for (ServerSim& server : group_servers(i)) {
    server.set_stuck_state(state);
  }
}

void Rack::set_group_actuation_offset(std::size_t i, Watts offset) {
  for (ServerSim& server : group_servers(i)) {
    server.set_actuation_offset(offset);
  }
}

void Rack::run_full_speed() {
  for (ServerSim& server : servers_) server.run_full_speed();
}

void Rack::power_off() {
  for (ServerSim& server : servers_) server.power_off();
}

Watts Rack::total_draw() const {
  Watts total{0.0};
  for (const ServerSim& server : servers_) total += server.draw();
  return total;
}

double Rack::total_throughput() const {
  double total = 0.0;
  for (const ServerSim& server : servers_) total += server.throughput();
  return total;
}

Watts Rack::group_draw(std::size_t i) const {
  Watts total{0.0};
  for (const ServerSim& server : group_servers(i)) total += server.draw();
  return total;
}

const ServerSim& Rack::group_representative(std::size_t i) const {
  return group_servers(i).front();
}

void Rack::accumulate(Minutes dt) {
  for (ServerSim& server : servers_) server.accumulate(dt);
}

double Rack::total_work() const {
  double total = 0.0;
  for (const ServerSim& server : servers_) total += server.work_done();
  return total;
}

std::span<ServerSim> Rack::group_servers(std::size_t i) {
  if (i >= groups_.size()) {
    throw RackError("rack: group index out of range");
  }
  return {servers_.data() + group_offsets_[i],
          group_offsets_[i + 1] - group_offsets_[i]};
}

std::span<const ServerSim> Rack::group_servers(std::size_t i) const {
  if (i >= groups_.size()) {
    throw RackError("rack: group index out of range");
  }
  return {servers_.data() + group_offsets_[i],
          group_offsets_[i + 1] - group_offsets_[i]};
}

template <class Self, class Io>
void Rack::fields(Self& self, Io& io) {
  io.fixed_count(self.groups_.size(), "rack: group count");
  for (std::size_t i = 0; i < self.groups_.size(); ++i) {
    Workload workload = self.workloads_[i];
    io.enum_i64(workload, kWorkloadCount, "rack: workload");
    if constexpr (Io::kLoading) {
      if (workload != self.workloads_[i]) self.set_group_workload(i, workload);
    }
    const auto servers = self.group_servers(i);
    io.fixed_count(servers.size(), "rack: server count");
    for (auto& server : servers) io.object(server);
  }
}

GH_CHECKPOINT_FIELDS(Rack);

}  // namespace greenhetero
