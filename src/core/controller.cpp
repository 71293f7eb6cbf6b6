#include "core/controller.h"

#include <algorithm>

#include "checkpoint/serializer.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace greenhetero {

GreenHeteroController::GreenHeteroController(ControllerConfig config)
    : config_(config),
      policy_(make_policy(config.policy)),
      db_(),
      monitor_(config.profiling_noise, Rng(config.seed).fork(0xA11CE)),
      selector_(config.selector),
      supply_predictor_(make_predictor(config.predictor, season_period())),
      demand_predictor_(make_predictor(config.predictor, season_period())),
      health_(config.health) {
  if (config_.epoch.value() <= 0.0) {
    throw std::invalid_argument("controller: epoch must be positive");
  }
  if (config_.training_duration.value() > config_.epoch.value()) {
    throw std::invalid_argument(
        "controller: training run must fit within one epoch");
  }
  if (config_.training_sample_interval.value() <= 0.0) {
    throw std::invalid_argument(
        "controller: training sample interval must be positive");
  }
  monitor_.set_dropout_rate(config_.monitor_dropout);
}

bool GreenHeteroController::needs_training(const Rack& rack) const {
  if (!policy_->needs_database()) return false;
  for (std::size_t i = 0; i < rack.group_count(); ++i) {
    if (!db_.contains({rack.group(i).model, rack.group_workload(i)})) {
      return true;
    }
  }
  return false;
}

EpochPlan GreenHeteroController::plan_epoch(const Rack& rack,
                                            const RackPowerPlant& plant,
                                            Minutes now, Watts demand_hint) {
  GH_SPAN("plan");
  EpochPlan plan;
  if (needs_training(rack)) {
    // Algorithm 1 lines 3-5: unseen pair -> training run under ample power.
    plan.training_run = true;
    plan.source.source_case = PowerCase::kGridFallback;  // grid stands by
    plan.source.server_budget = rack.peak_demand();
    GH_INFO << "epoch @" << now.value() << "min: training run for workload '"
            << workload_spec(rack.workload()).name << "'";
    telemetry::emit("controller_plan",
                    {{"training", true},
                     {"workload", workload_spec(rack.workload()).name},
                     {"budget_w", plan.source.server_budget.value()}});
    return plan;
  }

  {
    GH_SPAN("predict");
    plan.predicted_renewable =
        supply_predictor_->ready()
            ? Watts{std::max(0.0, supply_predictor_->predict())}
            : plant.renewable_available(now);
    plan.predicted_demand =
        demand_predictor_->ready()
            ? Watts{std::max(0.0, demand_predictor_->predict())}
            : demand_hint;
  }
  // Never plan beyond what the servers can use.
  plan.predicted_demand = min(plan.predicted_demand, rack.peak_demand());

  {
    GH_SPAN("select_source");
    plan.source = selector_.decide(plan.predicted_renewable,
                                   plan.predicted_demand, plant, config_.epoch);
  }
  last_solver_failed_ = false;
  if (plan.source.server_budget.value() > 1e-6) {
    if (health_.safe_mode()) {
      // Safe mode: feedback is implausible, so the solver's inputs cannot
      // be trusted — hold the last-known-good split instead of chasing
      // poisoned fits.
      plan.allocation = safe_allocation(rack);
      plan.safe_mode = true;
      if (telemetry::Telemetry* t = telemetry::current()) {
        t->metrics().counter("gh_safe_mode_epochs_total").increment();
      }
    } else {
      GH_SPAN("solve");
      try {
        plan.allocation =
            policy_->allocate(rack, db_, plan.source.server_budget);
      } catch (const SolverError& e) {
        last_solver_failed_ = true;
        plan.allocation = safe_allocation(rack);
        plan.safe_mode = true;
        GH_WARN << "solver failed (" << e.what()
                << "); using safe allocation";
        if (telemetry::Telemetry* t = telemetry::current()) {
          t->metrics().counter("gh_solver_failures_total").increment();
        }
      } catch (const DatabaseError& e) {
        last_solver_failed_ = true;
        plan.allocation = safe_allocation(rack);
        plan.safe_mode = true;
        GH_WARN << "database lookup failed (" << e.what()
                << "); using safe allocation";
        if (telemetry::Telemetry* t = telemetry::current()) {
          t->metrics().counter("gh_solver_failures_total").increment();
        }
      }
    }
  }
  last_budget_ = plan.source.server_budget;
  last_allocation_ = plan.allocation;
  // The prediction layer owns the forecast, so it posts the plan the loss
  // ledger judges prediction error against: the renewable forecast and the
  // green share of the server budget (budget minus planned grid supply).
  if (telemetry::LossLedger* ledger = telemetry::loss_ledger()) {
    ledger->set_plan(
        plan.predicted_renewable.value(),
        std::max(0.0,
                 (plan.source.server_budget - plan.source.from_grid).value()));
  }
  GH_DEBUG << "epoch @" << now.value() << "min: case "
           << to_string(plan.source.source_case) << ", budget "
           << plan.source.server_budget.value() << "W";
  telemetry::emit("controller_plan",
                  {{"training", false},
                   {"case", to_string(plan.source.source_case)},
                   {"predicted_renewable_w", plan.predicted_renewable.value()},
                   {"predicted_demand_w", plan.predicted_demand.value()},
                   {"budget_w", plan.source.server_budget.value()},
                   {"ratios", plan.allocation.ratios}});
  return plan;
}

std::vector<double> GreenHeteroController::training_sweep() const {
  const int n = training_sample_count();
  std::vector<double> fractions;
  fractions.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // The training run executes under the ondemand governor with ample
    // power (Fig. 7), so the frequency wanders across the *upper* part of
    // the range — a loaded machine rarely visits the lowest states.  The
    // initial fit therefore extrapolates below ~40% of the range, and the
    // runtime feedback of Algorithm 1 is what teaches the lower region
    // (each enforcement quantises onto a real ladder state at or below the
    // allocation, so the database's observed range ratchets downward as
    // scarce epochs occur).
    fractions.push_back(kTrainingSweepFloor +
                        (1.0 - kTrainingSweepFloor) * static_cast<double>(i) /
                            static_cast<double>(n - 1));
  }
  return fractions;
}

int GreenHeteroController::training_sample_count() const {
  return std::max(3, static_cast<int>(config_.training_duration.value() /
                                      config_.training_sample_interval.value()));
}

void GreenHeteroController::record_training(
    ProfileKey key, std::span<const ServerSample> samples) {
  db_.add_training_samples(key, samples);
}

void GreenHeteroController::finish_epoch(const Rack& rack,
                                         const EpochFeedback& feedback) {
  GH_SPAN("feedback");
  supply_history_.push_back(feedback.observed_renewable.value());
  demand_history_.push_back(feedback.observed_demand.value());
  // Holt-Winters needs more than one full season replayed to be ready, so
  // its window is stretched to two days.
  auto window = static_cast<std::size_t>(config_.holt_training_window);
  if (config_.predictor == PredictorKind::kHoltWinters) {
    window = std::max(window, static_cast<std::size_t>(2 * season_period()));
  }
  if (supply_history_.size() > window) {
    supply_history_.erase(supply_history_.begin());
    demand_history_.erase(demand_history_.begin());
  }
  supply_predictor_->observe(feedback.observed_renewable.value());
  demand_predictor_->observe(feedback.observed_demand.value());
  ++epochs_seen_;
  maybe_retrain_holt();

  // Plausibility checks run against the plan this feedback answers.  The
  // divergence check is suppressed when the epoch saw real shortfall —
  // mid-epoch degradation legitimately pulls the draw below the plan.
  const bool evaluate = feedback.evaluate_health &&
                        health_.config().enabled &&
                        last_budget_.value() > 1e-6;
  const bool check_divergence =
      evaluate &&
      feedback.shortfall.value() <= 0.02 * last_budget_.value() &&
      last_allocation_.ratios.size() == rack.group_count();

  std::size_t expected_awake = 0;
  std::size_t zero_awake = 0;
  std::size_t divergent = 0;
  const bool quarantined = health_.quarantine();
  int feedback_samples = 0;
  int quarantined_samples = 0;
  if (policy_->updates_database()) {
    GH_SPAN("db_update");
    // Algorithm 1 lines 8-10: fold runtime feedback into the fits.
    for (std::size_t i = 0; i < rack.group_count(); ++i) {
      const ProfileKey key{rack.group(i).model, rack.group_workload(i)};
      // An untrained pair can reach here when a faulty training run left a
      // group unrecorded; feedback without a baseline fit is meaningless.
      if (!db_.contains(key)) continue;
      const ServerSample sample = monitor_.sample_group(rack, i);
      if (check_divergence) {
        // How much power did the plan give each server of this group?
        const double active =
            i < last_allocation_.active_counts.size() &&
                    last_allocation_.active_counts[i] > 0
                ? static_cast<double>(last_allocation_.active_counts[i])
                : static_cast<double>(rack.group(i).count);
        const Watts per_server{last_allocation_.ratios[i] *
                               last_budget_.value() / active};
        // Groups allocated below the idle floor sleep by design — only the
        // ones that should be awake carry a plausibility signal.
        if (per_server.value() >= db_.record(key).min_power.value()) {
          ++expected_awake;
          if (sample.power.value() <= 0.0) {
            ++zero_awake;
            ++divergent;
          } else if (sample.power.value() <
                     health_.config().divergence_ratio * per_server.value()) {
            ++divergent;
          }
        }
      }
      if (sample.power.value() <= 0.0) continue;  // group asleep: no signal
      if (quarantined) {
        // Degraded feedback would poison the fits; hold it back until the
        // state machine recovers.
        ++quarantined_samples;
        continue;
      }
      db_.add_runtime_sample(key, sample);
      ++feedback_samples;
    }
  }

  if (evaluate) {
    HealthSignals signals;
    signals.stale_samples = expected_awake > 0 && zero_awake == expected_awake;
    signals.divergent_samples = divergent > 0 && !signals.stale_samples;
    signals.solver_failed = last_solver_failed_;
    signals.excess_shortfall =
        feedback.shortfall.value() >
        health_.config().shortfall_fraction * last_budget_.value();
    if (!signals.bad() && health_.state() == HealthState::kNormal &&
        !last_allocation_.ratios.empty()) {
      last_good_allocation_ = last_allocation_;
    }
    if (auto transition = health_.observe_epoch(signals)) {
      const bool degrading = transition->to == HealthState::kDegraded ||
                             transition->to == HealthState::kSafe;
      GH_WARN << "health: " << to_string(transition->from) << " -> "
              << to_string(transition->to) << " (" << signals.reason() << ")";
      telemetry::emit(degrading ? "degrade" : "recover",
                      {{"from", to_string(transition->from)},
                       {"to", to_string(transition->to)},
                       {"reason", signals.reason()}});
      if (telemetry::Telemetry* t = telemetry::current()) {
        t->metrics()
            .counter("gh_health_transitions_total", transition->to)
            .increment();
      }
    }
    if (health_.state() != HealthState::kNormal) {
      if (telemetry::Telemetry* t = telemetry::current()) {
        t->metrics()
            .gauge("gh_health_state")
            .set(static_cast<double>(health_.state()));
        if (quarantined_samples > 0) {
          t->metrics()
              .counter("gh_db_quarantined_total")
              .increment(quarantined_samples);
        }
      }
    }
  }

  telemetry::emit("feedback",
                  {{"observed_renewable_w", feedback.observed_renewable.value()},
                   {"observed_demand_w", feedback.observed_demand.value()},
                   {"db_samples", feedback_samples}});
}

void GreenHeteroController::finish_epoch(const Rack& rack,
                                         Watts observed_renewable,
                                         Watts observed_demand) {
  EpochFeedback feedback;
  feedback.observed_renewable = observed_renewable;
  feedback.observed_demand = observed_demand;
  finish_epoch(rack, feedback);
}

Allocation GreenHeteroController::safe_allocation(const Rack& rack) const {
  if (last_good_allocation_.ratios.size() == rack.group_count()) {
    return last_good_allocation_;
  }
  // No known-good plan yet: fall back to a Uniform split by server count.
  Allocation alloc;
  const auto total = static_cast<double>(rack.total_servers());
  alloc.ratios.reserve(rack.group_count());
  for (std::size_t i = 0; i < rack.group_count(); ++i) {
    alloc.ratios.push_back(static_cast<double>(rack.group(i).count) / total);
  }
  return alloc;
}

int GreenHeteroController::season_period() const {
  return std::max(2, static_cast<int>(std::lround(24.0 * 60.0 /
                                                  config_.epoch.value())));
}

void GreenHeteroController::maybe_retrain_holt() {
  // Only the Holt variants have trainable smoothing parameters (Eq. 5).
  if (config_.predictor != PredictorKind::kHolt &&
      config_.predictor != PredictorKind::kHoltWinters) {
    return;
  }
  if (supply_history_.size() < 3) return;
  const bool due = epochs_seen_ % std::max(1, config_.holt_retrain_every) == 0;
  const bool first = epochs_seen_ == 3;
  if (!due && !first) return;
  GH_SPAN("holt_retrain");
  if (telemetry::Telemetry* t = telemetry::current()) {
    t->metrics().counter("gh_predictor_retrains_total").increment();
  }
  const HoltParams supply_params = train_holt(supply_history_);
  const HoltParams demand_params = train_holt(demand_history_);
  // Re-seed predictors with the trained parameters and replay the window so
  // their internal state is consistent with the new smoothing.
  supply_predictor_ =
      make_predictor(config_.predictor, season_period(), supply_params);
  for (double v : supply_history_) supply_predictor_->observe(v);
  demand_predictor_ =
      make_predictor(config_.predictor, season_period(), demand_params);
  for (double v : demand_history_) demand_predictor_->observe(v);
  GH_DEBUG << "predictor retrained: supply(a=" << supply_params.alpha
           << ",b=" << supply_params.beta << ")";
}

namespace {

void save_allocation(checkpoint::Writer& w, const Allocation& a) {
  checkpoint::save(w, a.ratios);
  w.f64(a.predicted_perf);
  checkpoint::save(w, a.active_counts);
}

void load_allocation(checkpoint::Reader& r, Allocation& a) {
  checkpoint::load(r, a.ratios);
  a.predicted_perf = r.f64();
  checkpoint::load(r, a.active_counts);
}

}  // namespace

void GreenHeteroController::save_state(checkpoint::Writer& w) const {
  db_.save_state(w);
  monitor_.save_state(w);
  save_predictor(w, *supply_predictor_);
  save_predictor(w, *demand_predictor_);
  checkpoint::save(w, supply_history_);
  checkpoint::save(w, demand_history_);
  w.i64(epochs_seen_);
  health_.save_state(w);
  w.f64(last_budget_.value());
  save_allocation(w, last_allocation_);
  w.boolean(last_solver_failed_);
  save_allocation(w, last_good_allocation_);
}

void GreenHeteroController::load_state(checkpoint::Reader& r) {
  db_.load_state(r);
  monitor_.load_state(r);
  supply_predictor_ = load_predictor(r);
  demand_predictor_ = load_predictor(r);
  checkpoint::load(r, supply_history_);
  checkpoint::load(r, demand_history_);
  epochs_seen_ = static_cast<int>(r.i64());
  health_.load_state(r);
  last_budget_ = Watts{r.f64()};
  load_allocation(r, last_allocation_);
  last_solver_failed_ = r.boolean();
  load_allocation(r, last_good_allocation_);
}

}  // namespace greenhetero
