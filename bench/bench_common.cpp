#include "bench_common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <variant>

#include "core/epu.h"
#include "fleet/fleet.h"
#include "power/carbon.h"
#include "server/server_sim.h"
#include "trace/heterogeneity.h"
#include "trace/load_pattern.h"
#include "trace/solar.h"
#include "workload/catalog.h"

namespace greenhetero::bench {

// --- Runners ------------------------------------------------------------------

namespace {

/// Whole days of trace covering the run, plus one: the generators draw day
/// by day, so every trace is a prefix of any longer one.
int trace_days(const Scenario& s) {
  return static_cast<int>(std::ceil(s.hours / 24.0)) + 1;
}

PowerTrace load_trace(const Scenario& s) {
  return generate_load_trace(LoadPatternModel{},
                             Rack{s.groups, s.workload}.peak_demand(),
                             trace_days(s), *s.load_seed);
}

/// The Figure 8/11 day.
Scenario paper_day_scenario(PolicyKind policy, bool low_trace) {
  return {.policy = policy, .seed = 11, .noise = 0.02, .low_trace = low_trace};
}

}  // namespace

RackSimulator make_sim(const Scenario& s) {
  Rack rack{s.groups, s.workload};
  SimConfig cfg;
  cfg.controller.policy = s.policy;
  cfg.controller.seed = s.seed;
  cfg.controller.profiling_noise = s.noise;
  cfg.controller.epoch = Minutes{s.epoch_min};
  cfg.controller.training_duration = Minutes{s.epoch_min * 2.0 / 3.0};
  cfg.controller.training_sample_interval = Minutes{s.epoch_min * 2.0 / 15.0};
  cfg.controller.selector.rationing_horizon = Minutes{s.rationing_min};
  cfg.rapl_enforcement = s.rapl;
  cfg.workload_schedule = s.schedule;
  if (s.fixed_budget_w > 0.0) {
    return RackSimulator{
        std::move(rack),
        make_fixed_budget_plant(Watts{s.fixed_budget_w},
                                Minutes{s.hours * 60.0 + 60.0}),
        std::move(cfg)};
  }
  if (s.load_seed) cfg.demand_trace = load_trace(s);
  const Watts capacity{s.solar_w};
  GridSpec grid;
  grid.budget = Watts{s.grid_w};
  grid.peak_multiplier = s.tou;
  RackPowerPlant plant{
      SolarArray{generate_solar_trace(s.low_trace ? low_solar_model(capacity)
                                                  : high_solar_model(capacity),
                                      trace_days(s), s.solar_seed)},
      Battery{s.battery}, GridSupply{grid}};
  return RackSimulator{std::move(rack), std::move(plant), std::move(cfg)};
}

RunReport run(const Scenario& s) {
  RackSimulator sim = make_sim(s);
  if (s.pretrain) sim.pretrain();
  return sim.run(Minutes{s.hours * 60.0});
}

std::vector<PolicyResult> sweep(Scenario base,
                                const std::vector<double>& budgets_w,
                                const std::vector<PolicyKind>& policies) {
  std::vector<PolicyResult> means;
  for (PolicyKind policy : policies) means.push_back({policy});
  base.hours = 8.0;
  for (double budget : budgets_w) {
    base.fixed_budget_w = budget;
    for (PolicyResult& mean : means) {
      base.policy = mean.policy;
      const RunReport report = run(base);
      mean.throughput += report.mean_throughput();
      mean.epu += report.overall_epu;
    }
  }
  for (PolicyResult& mean : means) {
    mean.throughput /= static_cast<double>(budgets_w.size());
    mean.epu /= static_cast<double>(budgets_w.size());
  }
  return means;
}

std::vector<double> share_budgets(const std::vector<ServerGroup>& groups) {
  int servers = 0;
  for (const ServerGroup& g : groups) servers += g.count;
  std::vector<double> budgets;
  for (double share : {55.0, 65.0, 75.0, 85.0}) {
    budgets.push_back(share * servers);
  }
  return budgets;
}

std::vector<double> scarcity_budgets(const std::vector<ServerGroup>& groups,
                                     Workload workload,
                                     std::vector<double> fractions) {
  const Watts peak = Rack{groups, workload}.peak_demand();
  for (double& f : fractions) f = (peak * f).value();
  return fractions;
}

const RunReport& paper_day(PolicyKind policy, bool low_trace) {
  static std::map<std::pair<PolicyKind, bool>, RunReport> days;
  const auto [it, fresh] = days.try_emplace({policy, low_trace});
  if (fresh) it->second = run(paper_day_scenario(policy, low_trace));
  return it->second;
}

const std::map<Workload, std::vector<PolicyResult>>& workload_study() {
  static const auto kCells = [] {
    std::map<Workload, std::vector<PolicyResult>> cells;
    for (Workload w : figure9_workloads()) {
      cells[w] = sweep(Scenario{.workload = w},
                       share_budgets(default_runtime_rack()));
    }
    return cells;
  }();
  return kCells;
}

// --- Cells --------------------------------------------------------------------

namespace {

/// A number (printed with its column's decimals) or a label.
using Cell = std::variant<double, std::string>;

struct Column {
  std::string name{};
  int decimals = 0;
};

struct Table {
  std::string name{};
  std::vector<Column> columns{};  ///< columns[0] heads the row labels
  std::vector<std::vector<Cell>> rows{};  ///< a label, then one per column
};

std::string fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

/// num / den, or "inf" when the baseline delivered nothing.
Cell ratio(double num, double den) {
  if (den > 0.0) return num / den;
  return std::string("inf");
}

std::string name_of(Workload w) { return std::string(workload_spec(w).name); }

/// The five Table III policies normalised to Uniform, a row per label.
Table policy_table(std::string name, std::string label) {
  return {std::move(name),
          {{std::move(label)}, {"Uniform", 2}, {"Manual", 2}, {"GH-p", 2},
           {"GH-a", 2}, {"GH", 2}}};
}

std::vector<Cell> normalised(std::string label,
                             const std::vector<PolicyResult>& results,
                             double PolicyResult::*field) {
  std::vector<Cell> row{std::move(label)};
  for (const PolicyResult& r : results) {
    row.push_back(ratio(r.*field, results.front().*field));
  }
  return row;
}

/// Appends a "mean" row: each numeric column's mean over the rows.
void add_mean_row(Table& t) {
  std::vector<Cell> mean{"mean"};
  for (std::size_t c = 1; c < t.columns.size(); ++c) {
    double sum = 0.0;
    for (const auto& row : t.rows) sum += std::get<double>(row[c]);
    mean.emplace_back(std::in_place_type<double>,
                      sum / static_cast<double>(t.rows.size()));
  }
  t.rows.push_back(mean);
}

/// Mean throughput of `first` and `second` over `seeds` consecutive seeds
/// from base.seed (each a sweep over `budgets`), and second / first.
std::vector<Cell> versus(std::string label, Scenario base,
                         const std::vector<double>& budgets, PolicyKind first,
                         PolicyKind second, int seeds = 1) {
  double a = 0.0;
  double b = 0.0;
  for (int i = 0; i < seeds; ++i, ++base.seed) {
    const auto r = sweep(base, budgets, {first, second});
    a += r[0].throughput;
    b += r[1].throughput;
  }
  return {std::move(label), a / seeds, b / seeds, ratio(b, a)};
}

// --- The matrix ---------------------------------------------------------------

std::vector<Table> fig1() {
  Table dcs{"datacenters", {{"DC"}, {"configs"}}};
  for (const auto& dc : google_datacenter_heterogeneity()) {
    dcs.rows.push_back({std::string(dc.name), double(dc.config_count)});
  }
  Table hist{"histogram", {{"configs"}, {"datacenters"}}};
  const std::vector<int> counts = heterogeneity_histogram();
  for (std::size_t c = 2; c < counts.size(); ++c) {
    hist.rows.push_back({std::to_string(c), double(counts[c])});
  }
  Table sampler{"sampler", {{"seed"}}, {{"7"}}};
  for (std::uint64_t i = 0; i < 20; ++i) {
    sampler.columns.push_back({"dc" + std::to_string(i)});
    sampler.rows[0].push_back(double(sample_config_count(7, i)));
  }
  return {dcs, hist,
          {"summary", {{"survey"}, {"<=3 configs(%)"}},
           {{"Google", 100.0 * fraction_with_at_most(3)}}},
          sampler};
}

std::vector<Table> fig3() {
  // The case study's two measured servers: A is a throttled dual Xeon
  // E5-2620 (81 W max), B a Core i5 box (147 W max) whose gamma > 1 models
  // the latency-SLA cliff of SPECjbb's jops metric.
  const PerfCurve a{PerfCurveParams{.idle_power = Watts{45.0},
                                    .peak_power = Watts{81.0},
                                    .peak_throughput = 5200.0,
                                    .floor_fraction = 0.35,
                                    .gamma = 0.75}};
  const PerfCurve b{PerfCurveParams{.idle_power = Watts{40.0},
                                    .peak_power = Watts{147.0},
                                    .peak_throughput = 13000.0,
                                    .floor_fraction = 0.05,
                                    .gamma = 1.30}};
  const Watts budget{220.0};
  const auto useful = [](const PerfCurve& c, Watts share) {
    return share >= c.idle_power() ? min(share, c.peak_power()) : Watts{0.0};
  };
  // PAR is the share of the budget given to Server B.
  const auto perf_epu = [&](int par) {
    const Watts ua = useful(a, budget - budget * (par / 100.0));
    const Watts ub = useful(b, budget * (par / 100.0));
    return std::pair{a.throughput_at(ua) + b.throughput_at(ub),
                     EpuMeter::instantaneous(budget, ua + ub)};
  };
  Table t{"par", {{"PAR(%)"}, {"EPU(%)"}, {"perf/uniform", 2}}};
  for (int par = 0; par <= 100; par += 5) {
    const auto [perf, epu] = perf_epu(par);
    t.rows.push_back({std::to_string(par), epu * 100.0,
                      perf / perf_epu(50).first});
  }
  return {t};
}

std::vector<Table> fig6() {
  const RunReport& day = paper_day(PolicyKind::kGreenHetero);
  const PowerTrace demand =
      load_trace(paper_day_scenario(PolicyKind::kGreenHetero, false));
  Table t{"hourly",
          {{"hour"}, {"solar(W)"}, {"demand(W)"}, {"soc(%)"}, {"case"},
           {"budget(W)"}}};
  for (std::size_t e = 0; e < day.epochs.size(); e += 4) {
    const EpochRecord& r = day.epochs[e];
    t.rows.push_back({fixed(r.start.value() / 60.0, 1),
                      r.actual_renewable.value(), demand.at(r.start).value(),
                      r.battery_soc * 100.0, to_string(r.source_case),
                      r.budget.value()});
  }
  return {t,
          {"battery",
           {{"run"}, {"cycles", 2}, {"grid(Wh)"}, {"grid cost($)", 2}},
           {{"GreenHetero", day.battery_cycles, day.grid_energy.value(),
             day.grid_cost}}}};
}

std::vector<Table> runtime_day(bool low) {
  const RunReport& gh = paper_day(PolicyKind::kGreenHetero, low);
  const RunReport& uni = paper_day(PolicyKind::kUniform, low);
  Table t{"hourly",
          {{"hour"}, {"solar(W)"}, {"case"}, {"GH jops"}, {"Uni jops"},
           {"PAR(%)"}, {"soc(%)"}, {"dischg(W)"}, {"charge(W)"},
           {"grid(W)"}}};
  double gain = 0.0;
  int insufficient = 0;
  for (std::size_t e = 0; e < gh.epochs.size(); ++e) {
    const EpochRecord& g = gh.epochs[e];
    const EpochRecord& u = uni.epochs[e];
    if (e % 4 == 0) {
      t.rows.push_back(
          {fixed(g.start.value() / 60.0, 1), g.actual_renewable.value(),
           to_string(g.source_case), g.throughput, u.throughput,
           (g.ratios.empty() ? 0.0 : g.ratios[0]) * 100.0,
           g.battery_soc * 100.0, g.battery_discharge.value(),
           g.battery_charge.value(), g.grid_power.value()});
    }
    if (g.training || u.training || u.throughput <= 0.0 ||
        g.source_case == PowerCase::kRenewableSufficient) {
      continue;
    }
    gain += g.throughput / u.throughput;
    ++insufficient;
  }
  const auto in = [&](PowerCase c) { return double(gh.epochs_in_case(c)); };
  return {t,
          {"summary",
           {{"policy"}, {"gain(x)", 2}, {"PAR(%)"}, {"A"}, {"B"}, {"C"},
            {"grid"}, {"cycles", 2}, {"grid(Wh)"}, {"EPU", 2},
            {"Uni EPU", 2}},
           {{"GreenHetero", insufficient ? gain / insufficient : 0.0,
             gh.mean_ratio(0) * 100.0, in(PowerCase::kRenewableSufficient),
             in(PowerCase::kJointSupply), in(PowerCase::kBatteryOnly),
             in(PowerCase::kGridFallback), gh.battery_cycles,
             gh.grid_energy.value(), gh.overall_epu, uni.overall_epu}}}};
}

std::vector<Table> fig8() { return runtime_day(false); }
std::vector<Table> fig11() { return runtime_day(true); }

std::vector<Table> fig9() {
  Table workloads{"table1", {{"workload"}, {"suite"}, {"metric"}}};
  for (const WorkloadSpec& spec : all_workload_specs()) {
    workloads.rows.push_back({std::string(spec.name),
                              std::string(to_string(spec.suite)),
                              std::string(spec.metric)});
  }
  Table perf = policy_table("fig9", "workload");
  for (Workload w : figure9_workloads()) {
    perf.rows.push_back(normalised(name_of(w), workload_study().at(w),
                                   &PolicyResult::throughput));
  }
  add_mean_row(perf);
  return {workloads,
          {"table3",
           {{"policy"}, {"description"}},
           {{"Uniform", "equal power per server (baseline)"},
            {"Manual", "best 10%-granular static split"},
            {"GreenHetero-p", "greedy by database energy efficiency"},
            {"GreenHetero-a", "solver, database never updated"},
            {"GreenHetero", "solver + online database updates"}}},
          perf};
}

std::vector<Table> fig10() {
  Table epu = policy_table("fig10", "workload");
  epu.columns.push_back({"Uniform EPU", 2});
  for (Workload w : figure9_workloads()) {
    const std::vector<PolicyResult>& r = workload_study().at(w);
    epu.rows.push_back(normalised(name_of(w), r, &PolicyResult::epu));
    epu.rows.back().push_back(r.front().epu);
  }
  add_mean_row(epu);
  return {epu};
}

std::vector<Table> fig12() {
  Table t{"budgets",
          {{"budget(W)"}, {"Uniform"}, {"GH"}, {"gain(x)", 2},
           {"demand charge($)", 2}}};
  for (double budget : {400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0}) {
    t.rows.push_back(versus(fixed(budget, 0), Scenario{}, {budget},
                            PolicyKind::kUniform, PolicyKind::kGreenHetero));
    t.rows.back().push_back(budget * GridSpec{}.demand_charge);
  }
  return {t};
}

std::vector<Table> fig13() {
  Table combs{"table4", {{"combination"}, {"servers"}}};
  Table perf = policy_table("fig13", "combination");
  for (const ServerCombination& comb : table4_combinations()) {
    std::string servers;
    for (const ServerGroup& g : comb.groups) {
      servers += (servers.empty() ? "" : ", ") + std::to_string(g.count) +
                 "x " + std::string(server_spec(g.model).name);
    }
    combs.rows.push_back({std::string(comb.name), servers});
    if (comb.name == "Comb6") continue;  // the GPU combination: Figure 14
    perf.rows.push_back(normalised(
        std::string(comb.name),
        sweep(Scenario{.groups = comb.groups}, share_budgets(comb.groups)),
        &PolicyResult::throughput));
  }
  return {combs, perf};
}

std::vector<Table> fig14() {
  const ServerCombination& comb6 = combination_by_name("Comb6");
  Table perf = policy_table("fig14", "workload");
  for (Workload w : comb6.workloads) {
    perf.rows.push_back(normalised(
        name_of(w),
        sweep(Scenario{.groups = comb6.groups, .workload = w},
              scarcity_budgets(comb6.groups, w)),
        &PolicyResult::throughput));
  }
  add_mean_row(perf);
  return {perf};
}

std::vector<Table> table2() {
  Table specs{"servers",
              {{"server"}, {"freq(GHz)", 3}, {"sockets"}, {"cores"},
               {"peak(W)"}, {"idle(W)"}, {"DVFS"}}};
  Table points{"specjbb",
               {{"server"}, {"min state(W)", 1}, {"max state(W)", 1},
                {"peak throughput"}, {"perf/W @peak", 1}}};
  const WorkloadCatalog& catalog = default_catalog();
  for (const ServerSpec& spec : all_server_specs()) {
    const std::string name(spec.name);
    specs.rows.push_back({name, spec.frequency_ghz, double(spec.sockets),
                          double(spec.cores), spec.peak_power.value(),
                          spec.idle_power.value(), double(spec.dvfs_states)});
    if (!catalog.runnable(spec.model, Workload::kSpecJbb)) {
      points.rows.push_back({name, "n/a", "n/a", "n/a", "n/a"});
      continue;
    }
    ServerSim server{spec, catalog.curve(spec.model, Workload::kSpecJbb)};
    server.enforce_budget(server.curve().idle_power());
    const double min_state = server.draw().value();
    server.run_full_speed();
    points.rows.push_back({name, min_state, server.draw().value(),
                           server.throughput(),
                           server.curve().peak_efficiency()});
  }
  return {specs, points};
}

std::vector<Table> ablation_db_update() {
  Table t{"noise",
          {{"noise(%)"}, {"GH-a (jops)"}, {"GH (jops)"}, {"GH / GH-a", 3}}};
  for (double noise : {0.0, 0.02, 0.05, 0.08, 0.12}) {
    t.rows.push_back(versus(fixed(noise * 100.0, 0),
                            Scenario{.seed = 1000, .noise = noise},
                            share_budgets(default_runtime_rack()),
                            PolicyKind::kGreenHeteroA,
                            PolicyKind::kGreenHetero, 5));
  }
  return {t};
}

std::vector<Table> ablation_epoch_length() {
  Table t{"epochs",
          {{"epoch(min)"}, {"mean jops"}, {"EPU", 2}, {"grid(Wh)"},
           {"batt cycles", 2}}};
  for (double epoch : {5.0, 15.0, 30.0, 60.0}) {
    const RunReport r =
        run(Scenario{.seed = 21, .noise = 0.02, .epoch_min = epoch});
    t.rows.push_back({fixed(epoch, 0), r.mean_throughput(), r.overall_epu,
                      r.grid_energy.value(), r.battery_cycles});
  }
  return {t};
}

std::vector<Table> ablation_noise() {
  Table t{"noise",
          {{"noise(%)"}, {"Uniform"}, {"GreenHetero"}, {"gain(x)", 2}}};
  for (double noise : {0.0, 0.01, 0.03, 0.06, 0.10, 0.15}) {
    t.rows.push_back(versus(
        fixed(noise * 100.0, 0), Scenario{.seed = 2000, .noise = noise},
        scarcity_budgets(default_runtime_rack(), Workload::kSpecJbb, {0.55}),
        PolicyKind::kUniform, PolicyKind::kGreenHetero, 5));
  }
  return {t};
}

std::vector<Table> ablation_fleet() {
  // Three racks whose solar arrays spread from (1-a) to (1+a) x 1.8 kW
  // share a 2.4 kW utility feed, split statically or by demand.
  const auto fleet_work = [](double asymmetry, GridShareMode mode) {
    std::vector<RackSimulator> racks;
    for (int i = 0; i < 3; ++i) {
      const auto seed = static_cast<std::uint64_t>(30 + i);
      racks.push_back(make_sim(
          Scenario{.seed = seed,
                   .solar_w = 1800.0 * (1.0 + asymmetry * (i - 1.0)),
                   .solar_seed = seed,
                   .load_seed = std::nullopt}));
    }
    FleetConfig cfg;
    cfg.total_grid_budget = Watts{2400.0};
    cfg.mode = mode;
    cfg.threads = 1;
    Fleet fleet{std::move(racks), cfg};
    fleet.pretrain();
    return fleet.run(Minutes{24.0 * 60.0}).total_work;
  };
  Table t{"asymmetry",
          {{"asymmetry(%)"}, {"static work"}, {"proportional"}, {"gain(x)", 2}}};
  for (double asymmetry : {0.0, 0.3, 0.6, 0.9}) {
    const double statically = fleet_work(asymmetry, GridShareMode::kStatic);
    const double proportional =
        fleet_work(asymmetry, GridShareMode::kDemandProportional);
    t.rows.push_back({fixed(asymmetry * 100.0, 0), statically, proportional,
                      ratio(proportional, statically)});
  }
  return {t};
}

std::vector<Table> ablation_battery() {
  Table t{"packs",
          {{"pack"}, {"work"}, {"grid(kWh)", 1}, {"cycles/wk", 2},
           {"life(years)", 1}}};
  const auto add = [&](std::string pack, const BatterySpec& battery) {
    const RunReport r =
        run(Scenario{.hours = 7.0 * 24.0, .seed = 13, .battery = battery});
    t.rows.push_back({std::move(pack), r.total_work,
                      r.grid_energy.value() / 1000.0, r.battery_cycles,
                      battery.rated_cycles / r.battery_cycles / 52.0});
  };
  for (double dod : {0.2, 0.4, 0.6, 0.8}) {
    BatterySpec lead = lead_acid_spec(WattHours{12000.0});
    lead.depth_of_discharge = dod;
    // Deeper lead-acid cycling costs cycle life (rough square-law rule).
    lead.rated_cycles = static_cast<int>(1300.0 * (0.4 / dod) * (0.4 / dod));
    add("lead-acid 12kWh " + fixed(dod * 100.0, 0) + "% DoD", lead);
  }
  add("li-ion 12kWh 80% DoD", li_ion_spec(WattHours{12000.0}));
  return {t};
}

std::vector<Table> ablation_churn() {
  constexpr Workload kRotation[] = {
      Workload::kSpecJbb,   Workload::kStreamcluster, Workload::kVips,
      Workload::kBodytrack, Workload::kFreqmine,      Workload::kX264};
  const Scenario base{.hours = 12.0, .seed = 23, .pretrain = false,
                      .fixed_budget_w = 800.0};
  // The normalisers: each workload's steady-state throughput at 800 W.
  std::map<Workload, double> steady;
  for (Workload w : kRotation) {
    Scenario s = base;
    s.workload = w;
    s.hours = 4.0;
    s.pretrain = true;
    steady[w] = run(s).mean_throughput();
  }
  // Every epoch is normalised by its workload's steady state and a
  // training epoch serves nothing, so 100% means churn cost nothing.
  const auto churn = [&](double period, bool always_new) {
    const auto pick = [&](int i) {
      return kRotation[(always_new ? i : i % 3) % 6];
    };
    Scenario s = base;
    s.workload = pick(0);
    for (int i = 1; i * period < s.hours * 60.0; ++i) {
      s.schedule.push_back({Minutes{i * period}, pick(i)});
    }
    const RunReport report = run(s);
    double training = 0.0;
    double sum = 0.0;
    for (const EpochRecord& e : report.epochs) {
      const double norm = steady.at(
          pick(static_cast<int>(std::floor(e.start.value() / period))));
      if (e.training) {
        ++training;
      } else if (norm > 0.0) {
        sum += e.throughput / norm;
      }
    }
    return std::vector<Cell>{
        fixed(period, 0) + " min" + (always_new ? ", always new" : ""),
        training, 100.0 * sum / static_cast<double>(report.epochs.size())};
  };
  Table t{"switches",
          {{"switch every"}, {"training epochs"},
           {"relative throughput(%)", 1}}};
  for (double period : {360.0, 180.0, 90.0, 45.0}) {
    t.rows.push_back(churn(period, false));
  }
  t.rows.push_back(churn(90.0, true));
  return {t};
}

std::vector<Table> ablation_rationing() {
  std::vector<Table> tables;
  for (double grid : {400.0, 1000.0}) {
    Table t{"grid " + fixed(grid, 0) + " W",
            {{"horizon(min)"}, {"total work"}, {"grid(kWh)", 1},
             {"grid cost($)", 2}, {"batt cycles", 2}}};
    for (double horizon : {0.0, 240.0, 480.0, 720.0}) {
      const RunReport r =
          run(Scenario{.hours = 72.0, .seed = 19, .rationing_min = horizon,
                       .grid_w = grid, .tou = 3.0});
      t.rows.push_back({fixed(horizon, 0), r.total_work,
                        r.grid_energy.value() / 1000.0, r.grid_cost,
                        r.battery_cycles});
    }
    tables.push_back(t);
  }
  return tables;
}

std::vector<Table> ablation_rapl() {
  Table t{"epochs",
          {{"epoch(min)"}, {"ideal SPC"}, {"RAPL capping"}, {"lag tax(%)", 1}}};
  for (double epoch : {15.0, 30.0, 60.0}) {
    const double ideal =
        run(Scenario{.seed = 29, .epoch_min = epoch}).mean_throughput();
    const double rapl =
        run(Scenario{.seed = 29, .epoch_min = epoch, .rapl = true})
            .mean_throughput();
    t.rows.push_back(
        {fixed(epoch, 0), ideal, rapl, 100.0 * (1.0 - rapl / ideal)});
  }
  return {t};
}

std::vector<Table> ablation_subset() {
  std::vector<Table> tables;
  for (Workload w : {Workload::kSpecJbb, Workload::kStreamcluster}) {
    Table t{name_of(w),
            {{"supply(%)"}, {"GreenHetero"}, {"GreenHetero-s"},
             {"gain(x)", 2}}};
    for (double fraction : {0.15, 0.25, 0.35, 0.50, 0.70}) {
      t.rows.push_back(
          versus(fixed(fraction * 100.0, 0),
                 Scenario{.workload = w, .noise = 0.02},
                 scarcity_budgets(default_runtime_rack(), w, {fraction}),
                 PolicyKind::kGreenHetero, PolicyKind::kGreenHeteroS));
    }
    tables.push_back(t);
  }
  return tables;
}

std::vector<Table> modern_stack() {
  Table t{"stacks",
          {{"stack"}, {"work"}, {"grid(kWh)", 1}, {"grid cost($)", 2},
           {"battery life(y)", 1}, {"CO2(kg)", 1}}};
  for (bool modern : {false, true}) {
    const BatterySpec battery = modern ? li_ion_spec(WattHours{12000.0})
                                       : lead_acid_spec(WattHours{12000.0});
    const RunReport r = run(Scenario{
        .policy = modern ? PolicyKind::kGreenHeteroS : PolicyKind::kGreenHetero,
        .hours = 7.0 * 24.0, .seed = 37,
        .rationing_min = modern ? 6.0 * 60.0 : 0.0, .low_trace = true,
        .battery = battery, .grid_w = 800.0, .tou = 3.0});
    t.rows.push_back({modern ? "modern" : "paper-2021", r.total_work,
                      r.grid_energy.value() / 1000.0, r.grid_cost,
                      battery.rated_cycles / r.battery_cycles / 52.0,
                      carbon_report(r.ledger).total_kg});
  }
  const auto gain = [&](std::size_t col) {
    return std::get<double>(t.rows[1][col]) / std::get<double>(t.rows[0][col]);
  };
  return {t,
          {"delta",
           {{"change"}, {"work(%)", 1}, {"grid cost(%)", 1},
            {"battery life(x)", 1}},
           {{"modern vs paper", 100.0 * (gain(1) - 1.0),
             100.0 * (gain(3) - 1.0), gain(4)}}}};
}

/// One entry of the matrix: its cells, and what the paper reports.
struct FigureSpec {
  std::string_view name;
  std::vector<Table> (*tables)();
  std::string_view title;
  std::string_view paper;
};

constexpr FigureSpec kFigures[] = {
    {"fig1", fig1, "Figure 1: server configurations in ten Google datacenters",
     "~80% of datacenters run 2-3 configurations"},
    {"fig3", fig3, "Figure 3: EPU and perf vs PAR (share to B), 220 W budget",
     "best PAR 65%: EPU ~100% (86% uniform), ~1.5x; EPU ~37% at an extreme"},
    {"fig6", fig6, "Figure 6: power source selection over the Figure 8 day",
     "Case C overnight, B at dawn/dusk, A at midday, grid at the DoD floor"},
    {"fig8", fig8, "Figure 8: 24 h SPECjbb, High solar trace, 1 kW grid",
     "~1.5x over Uniform in insufficient epochs; mean PAR to E5-2620 ~58%"},
    {"fig9", fig9, "Figure 9, Tables I and III: performance, shares 55-85 W",
     "mean ~1.6x; best Streamcluster 2.2x; worst Memcached 1.2x"},
    {"fig10", fig10, "Figure 10: EPU normalised to Uniform, shares 55-85 W",
     "mean ~2.2x; best Canneal 2.7x; worst Web-search 1.1x"},
    {"fig11", fig11, "Figure 11: 24 h SPECjbb, Low solar trace, 1 kW grid",
     "~1.2x over Uniform in insufficient epochs; more battery and grid use"},
    {"fig12", fig12, "Figure 12: SPECjbb vs grid budget, batteries drained",
     "the gain shrinks as the budget grows: under-provision the grid"},
    {"fig13", fig13, "Figure 13, Table IV: SPECjbb per combination",
     "Comb1/Comb3 up to ~1.5x, Comb2/Comb4 ~1.03x, Comb5 ~1.6x"},
    {"fig14", fig14, "Figure 14: Comb6 (Xeon + Titan Xp), 40-70% of demand",
     "mean ~2.5x; Srad_v1 up to 4.6x; Cfd smallest"},
    {"table2", table2, "Table II: servers, and simulated SPECjbb wall watts",
     "peak/idle watts as measured"},
    {"ablation_db_update", ablation_db_update,
     "Ablation: online database updates (SPECjbb, shares 55-85 W, 5 seeds)",
     "Algorithm 1 refits the models online to absorb profiling noise"},
    {"ablation_epoch_length", ablation_epoch_length,
     "Ablation: epoch length (24 h SPECjbb, High trace)", "15-minute epochs"},
    {"ablation_noise", ablation_noise,
     "Ablation: profiling noise (SPECjbb, 55% of demand, 5 seeds)",
     "profiles are measured, so the gain must survive meter noise"},
    {"ablation_fleet", ablation_fleet,
     "Ablation: fleet grid coordination (3 racks, 2.4 kW grid, 24 h)",
     "per-rack control; cross-rack sharing is left open (Section IV-A)"},
    {"ablation_battery", ablation_battery,
     "Ablation: battery provisioning (1 week SPECjbb, High trace)",
     "lead-acid at 40% DoD to spare battery lifetime"},
    {"ablation_churn", ablation_churn,
     "Ablation: workload churn (12 h, 800 W budget)",
     "one training run per unseen (server, workload) pair (Algorithm 1)"},
    {"ablation_rationing", ablation_rationing,
     "Ablation: battery rationing (3 days, High trace, 3x evening tariff)",
     "greedy discharge down to the 40% DoD floor"},
    {"ablation_rapl", ablation_rapl,
     "Ablation: ideal SPC vs RAPL-style capping (24 h, High trace)",
     "each node obeys its power state instantly"},
    {"ablation_subset", ablation_subset,
     "Ablation: subset activation (GreenHetero-s), supply as % of demand",
     "every server of a type gets the same power"},
    {"modern_stack", modern_stack,
     "Capstone: paper vs modern stack (1 week, Low trace, 800 W, 3x tariff)",
     "GreenHetero, greedy discharge, lead-acid at 40% DoD"},
};

/// Shortest round-trip spelling; JSON has no non-finite numbers.
std::string exact(double value) {
  if (!std::isfinite(value)) {
    throw std::domain_error("figure value is not finite");
  }
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof buf, value).ptr};
}

std::string to_json(const FigureSpec& spec, const std::vector<Table>& tables) {
  const auto str = [](std::string& out, std::string_view s) {
    telemetry::append_json_escaped(out, s);
  };
  std::string out = "{\"figure\":";
  str(out, spec.name);
  out += ",\"title\":";
  str(out, spec.title);
  out += ",\"paper\":";
  str(out, spec.paper);
  out += ",\"tables\":[";
  for (const Table& table : tables) {
    out += &table == &tables.front() ? "\n{\"table\":" : ",\n{\"table\":";
    str(out, table.name);
    out += ",\"columns\":[";
    for (const Column& column : table.columns) {
      if (&column != &table.columns.front()) out += ',';
      str(out, column.name);
    }
    out += "],\"rows\":[";
    for (const auto& row : table.rows) {
      out += &row == &table.rows.front() ? "\n[" : ",\n[";
      for (const Cell& cell : row) {
        if (&cell != &row.front()) out += ',';
        if (const double* v = std::get_if<double>(&cell)) {
          out += exact(*v);
        } else {
          str(out, std::get<std::string>(cell));
        }
      }
      out += ']';
    }
    out += "]}";
  }
  return out + "]}\n";
}

std::string to_text(const FigureSpec& spec, const std::vector<Table>& tables) {
  std::string out = "=== " + std::string(spec.title) + " ===\n";
  for (const Table& table : tables) {
    // Format every cell, then pad each column to its widest entry; the
    // label column is left-aligned.
    std::vector<std::vector<std::string>> lines{{}};
    for (const Column& column : table.columns) lines[0].push_back(column.name);
    for (const auto& row : table.rows) {
      lines.emplace_back();
      for (std::size_t c = 0; c < row.size(); ++c) {
        const double* v = std::get_if<double>(&row[c]);
        lines.back().push_back(v ? fixed(*v, table.columns[c].decimals)
                                 : std::get<std::string>(row[c]));
      }
    }
    std::vector<std::size_t> width(table.columns.size(), 0);
    for (const auto& line : lines) {
      for (std::size_t c = 0; c < line.size(); ++c) {
        width[c] = std::max(width[c], line[c].size());
      }
    }
    out += "\n[" + table.name + "]\n";
    for (const auto& line : lines) {
      for (std::size_t c = 0; c < line.size(); ++c) {
        const std::string pad(width[c] - line[c].size(), ' ');
        out += c == 0 ? line[c] + pad : "  " + pad + line[c];
      }
      out += '\n';
    }
  }
  return out + "\npaper: " + std::string(spec.paper) + "\n";
}

}  // namespace

std::vector<std::string_view> figure_names() {
  std::vector<std::string_view> names;
  for (const FigureSpec& spec : kFigures) names.push_back(spec.name);
  return names;
}

Rendered render(std::string_view name) {
  for (const FigureSpec& spec : kFigures) {
    if (spec.name != name) continue;
    const std::vector<Table> tables = spec.tables();
    return {to_json(spec, tables), to_text(spec, tables)};
  }
  throw std::invalid_argument("unknown figure: " + std::string(name));
}

std::string out_dir() {
  const char* dir = std::getenv("GH_BENCH_OUT_DIR");
  return dir != nullptr ? dir : ".";
}

BenchReport::BenchReport(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

void BenchReport::set(const std::string& key, double value) {
  fields_.emplace_back(key, value);
}

std::string BenchReport::path() const {
  return out_dir() + "/BENCH_" + name_ + ".json";
}

void BenchReport::write() const {
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  std::string json = "{\"bench\":";
  telemetry::append_json_escaped(json, name_);
  for (const auto& [key, value] : fields_) {
    json += ',';
    telemetry::append_json_escaped(json, key);
    json += ':';
    telemetry::append_number(json, value);
  }
  json += ",\"wall_seconds\":";
  json += telemetry::format_number(wall);
  json += "}\n";

  const std::string out_path = path();
  std::ofstream out(out_path);
  if (!out) {
    throw std::runtime_error("bench: cannot open report file: " + out_path);
  }
  out << json;
  std::printf("bench report written to %s\n", out_path.c_str());
}

}  // namespace greenhetero::bench
