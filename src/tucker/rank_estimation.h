// Automatic Tucker rank selection from mode-wise energy spectra.
//
// For each mode, the eigenvalues of the Gram matrix of the mode-n
// unfolding are the squared mode-n singular values; the smallest J_n whose
// leading eigenvalues retain `energy_threshold` of the total is the
// suggested rank (the standard HOSVD truncation criterion). Useful when a
// caller knows the accuracy they want but not the ranks.
#ifndef DTUCKER_TUCKER_RANK_ESTIMATION_H_
#define DTUCKER_TUCKER_RANK_ESTIMATION_H_

#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace dtucker {

struct RankSuggestion {
  std::vector<Index> ranks;  // One per mode.
  // spectra[n] holds the mode-n squared singular values, descending.
  std::vector<std::vector<double>> spectra;
  // Fraction of total energy retained at the suggested ranks (per mode).
  std::vector<double> retained_energy;
};

// energy_threshold in (0, 1]; e.g. 0.95 keeps 95% of each mode's energy.
// max_rank caps every suggestion (0 = uncapped).
Result<RankSuggestion> SuggestRanks(const Tensor& x, double energy_threshold,
                                    Index max_rank = 0);

// The rule above for one mode: sets out->ranks, spectra and
// retained_energy at `mode` (already sized) from that mode's squared
// singular values, descending. SuggestRanksFromApproximation shares it.
void PickRankFromSpectrum(std::vector<double> spectrum,
                          double energy_threshold, Index max_rank, Index mode,
                          RankSuggestion* out);

}  // namespace dtucker

#endif  // DTUCKER_TUCKER_RANK_ESTIMATION_H_
