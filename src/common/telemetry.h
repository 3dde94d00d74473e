// Shared --trace-out / --metrics-out plumbing for drivers.
//
// Every binary that wants telemetry output calls AddTelemetryFlags() when
// declaring its flags, InitTelemetryFromFlags() after parsing (this turns
// the tracer on iff --trace-out is set, before any work runs), and
// FlushTelemetryFromFlags() once the workload is done and worker threads
// are quiescent (writes the Chrome-trace JSON and/or the metrics snapshot).
//
// Multi-thread runs need nothing extra: the trace export gives each
// tagged solver thread its own lane, and the metrics registry is
// process-wide, so the one flush writes complete documents at every
// thread count. A driver
// may name its run in the trace with SetTraceRunId (common/trace.h,
// included here for that purpose).
#ifndef DTUCKER_COMMON_TELEMETRY_H_
#define DTUCKER_COMMON_TELEMETRY_H_

#include "common/flags.h"
#include "common/status.h"
#include "common/trace.h"

namespace dtucker {

// Declares --trace-out and --metrics-out (both default "" = disabled).
void AddTelemetryFlags(FlagParser* flags);

// Enables span recording when --trace-out was given. Call before the
// workload so the trace epoch and buffers are ready.
void InitTelemetryFromFlags(const FlagParser& flags);

// Writes the requested output files (no-op for flags left empty). Call
// after the workload, with no spans in flight.
Status FlushTelemetryFromFlags(const FlagParser& flags);

}  // namespace dtucker

#endif  // DTUCKER_COMMON_TELEMETRY_H_
