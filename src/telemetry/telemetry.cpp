#include "telemetry/telemetry.h"

#include "checkpoint/serializer.h"

namespace greenhetero::telemetry {

namespace {
thread_local Telemetry* g_current = nullptr;
}  // namespace

Telemetry::Telemetry(TelemetryConfig config)
    : config_(config),
      trace_(config.trace_capacity),
      rollup_(config.rollup_window_min),
      flightrec_(config.flightrec_capacity, config.flightrec_dir),
      profiler_(config.profile) {
#if GH_TELEMETRY_ENABLED
  // No tag nests inside itself, so one frame per tag is the deepest stack:
  // the run itself never grows it.
  open_spans_.reserve(catalog::kSpanTags.size());
#endif
}

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

void Telemetry::emit(std::string_view phase,
                     std::span<const TraceField> fields) {
  if (!traced_) return;
  trace_.push(now_.value(), config_.rack_id, phase, fields);
  // No-op unless a dump directory is configured.
  flightrec_.record(trace_.lines(), trace_.lines().lines().back());
}

template <class Self, class Io>
void Telemetry::fields(Self& self, Io& io) {
  if constexpr (Io::kLoading) {
    MetricsSnapshot metrics;
    io.object(metrics);
    self.metrics_.restore(metrics);
  } else {
    self.metrics_.save(io);
  }
  io.object(self.trace_);
  io.object(self.loss_);
  io.object(self.rollup_);
  io.object(self.flightrec_);
  io.f64(self.now_);
}

GH_CHECKPOINT_FIELDS(Telemetry);

Telemetry* current() { return g_current; }

LossLedger* loss_ledger() {
  Telemetry* t = g_current;
  return t != nullptr && t->config().loss_ledger ? &t->loss() : nullptr;
}

Telemetry* tracer() {
  Telemetry* t = g_current;
  return t != nullptr && t->traced() ? t : nullptr;
}

Telemetry* timer() {
  Telemetry* t = g_current;
  return t != nullptr && t->timed() ? t : nullptr;
}

TelemetryScope::TelemetryScope(Telemetry* telemetry) : previous_(g_current) {
  g_current = telemetry;
}

TelemetryScope::~TelemetryScope() { g_current = previous_; }

}  // namespace greenhetero::telemetry
