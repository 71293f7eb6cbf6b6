#include "sim/run_report.h"

namespace greenhetero {

double RunReport::mean_throughput() const {
  double sum = 0.0;
  int count = 0;
  for (const auto& e : epochs) {
    if (e.training) continue;
    sum += e.throughput;
    ++count;
  }
  return count > 0 ? sum / count : 0.0;
}

double RunReport::mean_ratio(std::size_t g) const {
  double sum = 0.0;
  int count = 0;
  for (const auto& e : epochs) {
    if (e.training || g >= e.ratios.size()) continue;
    if (e.budget.value() <= 0.0) continue;
    sum += e.ratios[g];
    ++count;
  }
  return count > 0 ? sum / count : 0.0;
}

int RunReport::epochs_in_case(PowerCase c) const {
  int count = 0;
  for (const auto& e : epochs) {
    if (!e.training && e.source_case == c) ++count;
  }
  return count;
}

CsvTable RunReport::to_csv() const {
  CsvTable table({"minute", "training", "case", "pred_renewable_w",
                  "renewable_w", "budget_w", "par0", "par1", "par2",
                  "throughput", "epu", "battery_soc", "battery_discharge_w",
                  "battery_charge_w", "grid_w", "shortfall_w"});
  for (const auto& e : epochs) {
    auto ratio_at = [&e](std::size_t i) {
      return i < e.ratios.size() ? e.ratios[i] : 0.0;
    };
    table.add_numeric_row({e.start.value(),
                           e.training ? 1.0 : 0.0,
                           static_cast<double>(e.source_case),
                           e.predicted_renewable.value(),
                           e.actual_renewable.value(),
                           e.budget.value(),
                           ratio_at(0),
                           ratio_at(1),
                           ratio_at(2),
                           e.throughput,
                           e.epu,
                           e.battery_soc,
                           e.battery_discharge.value(),
                           e.battery_charge.value(),
                           e.grid_power.value(),
                           e.shortfall.value()});
  }
  return table;
}

}  // namespace greenhetero
