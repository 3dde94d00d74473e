#include "common/telemetry.h"

#include <cstdint>
#include <string>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace dtucker {

void AddTelemetryFlags(FlagParser* flags) {
  flags->AddString("trace-out", "",
                   "Write a Chrome-trace (Perfetto) JSON of the run here; "
                   "also enables span recording. Multi-thread solves get "
                   "one lane per solver thread");
  flags->AddString("metrics-out", "",
                   "Write a JSON snapshot of counters/gauges/histograms/"
                   "phase timings here at exit, totalled over every thread "
                   "of the process");
}

void InitTelemetryFromFlags(const FlagParser& flags) {
  if (!flags.GetString("trace-out").empty()) {
    SetTraceEnabled(true);
  }
}

Status FlushTelemetryFromFlags(const FlagParser& flags) {
  const std::string trace_path = flags.GetString("trace-out");
  const std::string metrics_path = flags.GetString("metrics-out");
  if (!trace_path.empty()) {
    SetTraceEnabled(false);
    DT_RETURN_NOT_OK(WriteChromeTrace(trace_path));
    const std::uint64_t dropped = TraceDroppedEventCount();
    if (dropped > 0) {
      DT_LOG(WARNING) << "trace ring buffers wrapped; " << dropped
                      << " oldest events were dropped";
    }
  }
  if (!metrics_path.empty()) {
    DT_RETURN_NOT_OK(MetricsRegistry::Global().WriteJson(metrics_path));
  }
  return Status::OK();
}

}  // namespace dtucker
