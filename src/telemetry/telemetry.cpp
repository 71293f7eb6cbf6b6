#include "telemetry/telemetry.h"

namespace greenhetero::telemetry {

namespace {
thread_local Telemetry* g_current = nullptr;
}  // namespace

Telemetry::Telemetry(TelemetryConfig config)
    : config_(config),
      trace_(config.trace_capacity),
      spans_(config.span_capacity),
      rollup_(config.rollup_window_min),
      flightrec_(config.flightrec_capacity, config.flightrec_dir),
      profiler_(config.profile) {}

BuildInfo build_info() {
  BuildInfo info;
#if GH_TELEMETRY_ENABLED
  info.probes_enabled = true;
#else
  info.probes_enabled = false;
#endif
  info.trace_schema_version = kTraceSchemaVersion;
  info.builtin_metric_count = builtin_metrics().size();
  return info;
}

std::string build_info_json() {
  const BuildInfo info = build_info();
  std::string out = "{\"probes_enabled\":";
  out += info.probes_enabled ? "true" : "false";
  out += ",\"trace_schema_version\":";
  out += std::to_string(info.trace_schema_version);
  out += ",\"builtin_metric_count\":";
  out += std::to_string(info.builtin_metric_count);
  out += '}';
  return out;
}

void Telemetry::emit(std::string phase, TraceFields fields) {
  if (!traced_) return;
  TraceEvent event;
  event.sim_minutes = now_.value();
  event.rack_id = config_.rack_id;
  event.phase = std::move(phase);
  event.fields = std::move(fields);
  flightrec_.record(event);  // no-op unless a dump directory is configured
  trace_.push(std::move(event));
}

void Telemetry::save_state(checkpoint::Writer& w) const {
  telemetry::save_state(w, metrics_.snapshot());
  trace_.save_state(w);
  loss_.save_state(w);
  rollup_.save_state(w);
  flightrec_.save_state(w);
  w.f64(now_.value());
}

void Telemetry::load_state(checkpoint::Reader& r) {
  MetricsSnapshot snapshot;
  telemetry::load_state(r, snapshot);
  metrics_.restore(snapshot);
  trace_.load_state(r);
  loss_.load_state(r);
  rollup_.load_state(r);
  flightrec_.load_state(r);
  now_ = Minutes{r.f64()};
}

Telemetry* current() { return g_current; }

LossLedger* loss_ledger() {
  Telemetry* t = g_current;
  return t != nullptr && t->config().loss_ledger ? &t->loss() : nullptr;
}

Telemetry* tracer() {
  Telemetry* t = g_current;
  return t != nullptr && t->traced() ? t : nullptr;
}

TelemetryScope::TelemetryScope(Telemetry* telemetry) : previous_(g_current) {
  g_current = telemetry;
}

TelemetryScope::~TelemetryScope() { g_current = previous_; }

}  // namespace greenhetero::telemetry
