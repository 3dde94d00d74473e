// D-TuckerO: online/streaming extension of D-Tucker.
//
// When new data arrives along the last (temporal) mode, only the new
// frontal slices are compressed with randomized SVD; previously compressed
// slices are reused. The factors are then refit on the whole compressed
// form — initialization plus a small number of HOOI sweeps, through the
// same core as DTuckerFromApproximation. The expensive part of D-Tucker —
// the O(I1*I2*L*Js) approximation pass — is thus paid only for the new
// slices, which is the paper family's streaming story (experiment E9).
#ifndef DTUCKER_DTUCKER_ONLINE_DTUCKER_H_
#define DTUCKER_DTUCKER_ONLINE_DTUCKER_H_

#include "common/status.h"
#include "dtucker/dtucker.h"

namespace dtucker {

struct OnlineDTuckerOptions {
  // The underlying solver's knobs (composition, like DTuckerOptions itself:
  // shared surface as a named field, online-only knobs alongside it).
  // Execution control lives at dtucker.tucker.run_context; an interruption
  // during a refit leaves the ingested state consistent and returns
  // kCancelled/kDeadlineExceeded from Initialize/Append.
  DTuckerOptions dtucker;
  // HOOI sweeps run after each Append (a few suffice).
  int refit_sweeps = 3;

  Status Validate(const std::vector<Index>& shape) const;
};

class OnlineDTucker {
 public:
  explicit OnlineDTucker(OnlineDTuckerOptions options);

  // Not copyable (holds large state); movable.
  OnlineDTucker(const OnlineDTucker&) = delete;
  OnlineDTucker& operator=(const OnlineDTucker&) = delete;
  OnlineDTucker(OnlineDTucker&&) = default;
  OnlineDTucker& operator=(OnlineDTucker&&) = default;

  // Ingests the first chunk (order >= 3). Runs a full D-Tucker fit.
  Status Initialize(const Tensor& x);

  // Appends a chunk whose shape matches the current tensor in every mode
  // except the last; compresses only the new slices and refits.
  Status Append(const Tensor& chunk);

  bool initialized() const { return initialized_; }

  // Current decomposition of everything ingested so far.
  const TuckerDecomposition& decomposition() const { return dec_; }

  // The accumulated compressed representation.
  const SliceApproximation& approximation() const { return approx_; }

  // Shape of the full ingested tensor.
  const std::vector<Index>& shape() const { return approx_.shape; }

  // Timing of the most recent Initialize/Append call.
  const TuckerStats& last_stats() const { return last_stats_; }

 private:
  // DTuckerFromApproximation on approx_ with exactly `sweeps` sweeps.
  // Returns kOk, or the interruption code when the refit was cut short
  // (dec_ then holds the last completed state).
  StatusCode Refit(int sweeps);

  OnlineDTuckerOptions options_;
  SliceApproximation approx_;
  TuckerDecomposition dec_;
  TuckerStats last_stats_;
  bool initialized_ = false;
};

}  // namespace dtucker

#endif  // DTUCKER_DTUCKER_ONLINE_DTUCKER_H_
