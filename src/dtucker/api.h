// Umbrella header: the supported public API surface of the D-Tucker
// library.
//
// Applications (and everything under examples/) should include only this
// header for solver functionality. Everything it pulls in is the stable
// boundary:
//
//   - dtucker/engine.h           Engine facade (solver selection, run
//                                control, telemetry) — the recommended
//                                entry point.
//   - dtucker/dtucker.h          Direct D-Tucker entry points + options.
//   - dtucker/online_dtucker.h   D-TuckerO streaming updates.
//   - dtucker/out_of_core.h      File-streaming approximation and solve.
//   - dtucker/slice_approximation.h  The compressed slice form.
//   - serve/server.h             Multi-tenant DecompositionServer (job
//                                scheduler, model cache, factor-space
//                                query API) and, via it, the job queue and
//                                LRU model cache.
//   - baselines/registry.h       Method enum + uniform runner.
//   - tucker/*                   Decomposition type, baselines, rank
//                                estimation, reconstruction, rounding.
//   - common/run_context.h       Cancellation/deadline/fault injection.
//   - common/status.h            Status / Result<T> error model.
//
// Headers NOT reachable from here (linalg kernels, tensor internals,
// internal_dtucker workspaces, thread pool, ...) are implementation
// detail: they may change or disappear between releases without notice.
// The examples/ build enforces this boundary with a configure-time check
// (see examples/CMakeLists.txt).
//
// Data/tooling headers (data/*.h for IO, generators, CLI flag parsing,
// table printing, telemetry sinks) are a separate, also-supported surface
// for programs that need to move tensors in and out of files.
#ifndef DTUCKER_DTUCKER_API_H_
#define DTUCKER_DTUCKER_API_H_

#include "baselines/registry.h"
#include "common/run_context.h"
#include "common/status.h"
#include "dtucker/dtucker.h"
#include "dtucker/engine.h"
#include "dtucker/online_dtucker.h"
#include "dtucker/out_of_core.h"
#include "dtucker/slice_approximation.h"
#include "serve/server.h"
#include "tucker/hosvd.h"
#include "tucker/rank_estimation.h"
#include "tucker/reconstruct.h"
#include "tucker/rounding.h"
#include "tucker/tucker.h"
#include "tucker/tucker_als.h"

#endif  // DTUCKER_DTUCKER_API_H_
