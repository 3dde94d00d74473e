#include "baselines/registry.h"

#include "baselines/mach.h"
#include "baselines/rtd.h"
#include "baselines/tucker_ts.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "dtucker/dtucker.h"
#include "tucker/hosvd.h"
#include "tucker/tucker_als.h"

namespace dtucker {

const std::vector<TuckerMethod>& AllTuckerMethods() {
  static const std::vector<TuckerMethod>* const kAll =
      new std::vector<TuckerMethod>{
          TuckerMethod::kDTucker, TuckerMethod::kTuckerAls,
          TuckerMethod::kHosvd,   TuckerMethod::kStHosvd,
          TuckerMethod::kMach,    TuckerMethod::kRtd,
          TuckerMethod::kTuckerTs, TuckerMethod::kTuckerTtmts};
  return *kAll;
}

const char* TuckerMethodName(TuckerMethod method) {
  switch (method) {
    case TuckerMethod::kDTucker:
      return "D-Tucker";
    case TuckerMethod::kTuckerAls:
      return "Tucker-ALS";
    case TuckerMethod::kHosvd:
      return "HOSVD";
    case TuckerMethod::kStHosvd:
      return "ST-HOSVD";
    case TuckerMethod::kMach:
      return "MACH";
    case TuckerMethod::kRtd:
      return "RTD";
    case TuckerMethod::kTuckerTs:
      return "Tucker-ts";
    case TuckerMethod::kTuckerTtmts:
      return "Tucker-ttmts";
  }
  return "?";
}

Result<TuckerMethod> ParseTuckerMethod(const std::string& name) {
  for (TuckerMethod m : AllTuckerMethods()) {
    if (name == TuckerMethodName(m)) return m;
  }
  return Status::InvalidArgument("unknown Tucker method '" + name + "'");
}

Status MethodOptions::Validate(const std::vector<Index>& shape) const {
  DT_RETURN_NOT_OK(ValidateRanks(shape, tucker.ranks));
  if (tucker.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be non-negative");
  }
  if (tucker.tolerance < 0) {
    return Status::InvalidArgument("tolerance must be non-negative");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be non-negative");
  }
  if (oversampling < 0) {
    return Status::InvalidArgument("oversampling must be non-negative");
  }
  if (power_iterations < 0) {
    return Status::InvalidArgument("power_iterations must be non-negative");
  }
  if (mach_sample_rate <= 0.0 || mach_sample_rate > 1.0) {
    return Status::InvalidArgument("mach_sample_rate must be in (0, 1]");
  }
  if (sketch_factor <= 0.0) {
    return Status::InvalidArgument("sketch_factor must be positive");
  }
  return Status::OK();
}

Result<MethodRun> RunTuckerMethod(TuckerMethod method, const Tensor& x,
                                  const MethodOptions& options,
                                  bool measure_error) {
  DT_RETURN_NOT_OK(options.Validate(x.shape()));
  MethodRun run;
  Timer total;
  DT_TRACE_SPAN("method.run");
  switch (method) {
    case TuckerMethod::kDTucker: {
      DTuckerOptions opt;
      opt.tucker = options.tucker;
      opt.oversampling = options.oversampling;
      opt.power_iterations = options.power_iterations;
      opt.num_threads = options.num_threads;
      opt.sweep_callback = options.sweep_callback;
      DT_ASSIGN_OR_RETURN(run.decomposition, DTucker(x, opt, &run.stats));
      run.stored_bytes = run.stats.working_bytes;  // Slice factors.
      break;
    }
    case TuckerMethod::kTuckerAls: {
      TuckerAlsOptions opt;
      static_cast<TuckerOptions&>(opt) = options.tucker;
      DT_ASSIGN_OR_RETURN(run.decomposition, TuckerAls(x, opt, &run.stats));
      run.stored_bytes = x.ByteSize();  // Needs the raw tensor every sweep.
      break;
    }
    case TuckerMethod::kHosvd: {
      Timer t;
      DT_ASSIGN_OR_RETURN(
          run.decomposition,
          Hosvd(x, options.tucker.ranks, options.tucker.run_context));
      run.stats.iterate_seconds = t.Seconds();
      run.stats.iterations = 1;
      run.stored_bytes = x.ByteSize();
      break;
    }
    case TuckerMethod::kStHosvd: {
      Timer t;
      DT_ASSIGN_OR_RETURN(
          run.decomposition,
          StHosvd(x, options.tucker.ranks, options.tucker.run_context));
      run.stats.iterate_seconds = t.Seconds();
      run.stats.iterations = 1;
      run.stored_bytes = x.ByteSize();
      break;
    }
    case TuckerMethod::kMach: {
      MachOptions opt;
      static_cast<TuckerOptions&>(opt) = options.tucker;
      opt.sample_rate = options.mach_sample_rate;
      DT_ASSIGN_OR_RETURN(run.decomposition, Mach(x, opt, &run.stats));
      run.stored_bytes = run.stats.working_bytes;  // COO sample.
      break;
    }
    case TuckerMethod::kRtd: {
      RtdOptions opt;
      static_cast<TuckerOptions&>(opt) = options.tucker;
      opt.oversampling = options.oversampling;
      opt.power_iterations = options.power_iterations;
      DT_ASSIGN_OR_RETURN(run.decomposition, Rtd(x, opt, &run.stats));
      run.stored_bytes = x.ByteSize();
      break;
    }
    case TuckerMethod::kTuckerTs: {
      TuckerTsOptions opt;
      static_cast<TuckerOptions&>(opt) = options.tucker;
      opt.sketch_factor = options.sketch_factor;
      DT_ASSIGN_OR_RETURN(run.decomposition, TuckerTs(x, opt, &run.stats));
      run.stored_bytes = run.stats.working_bytes;  // Sketches.
      break;
    }
    case TuckerMethod::kTuckerTtmts: {
      TuckerTsOptions opt;
      static_cast<TuckerOptions&>(opt) = options.tucker;
      opt.sketch_factor = options.sketch_factor;
      DT_ASSIGN_OR_RETURN(run.decomposition, TuckerTtmts(x, opt, &run.stats));
      run.stored_bytes = run.stats.working_bytes;
      break;
    }
  }
  // Every method reports its end-to-end wall time through the same global
  // channel the D-Tucker phases use, so one metrics snapshot compares them.
  GlobalPhaseTimer().Add(std::string("method.") + TuckerMethodName(method),
                         total.Seconds());
  RecordSweepMetrics(run.stats);
  if (measure_error) {
    run.relative_error = run.decomposition.RelativeErrorAgainst(x);
  }
  return run;
}

}  // namespace dtucker
