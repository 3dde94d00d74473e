#include "tucker/rank_estimation.h"

#include <algorithm>
#include <utility>

#include "linalg/eigen_sym.h"
#include "tensor/tensor_ops.h"

namespace dtucker {

void PickRankFromSpectrum(std::vector<double> spectrum,
                          double energy_threshold, Index max_rank, Index mode,
                          RankSuggestion* out) {
  double total = 0.0;
  for (double v : spectrum) total += std::max(v, 0.0);
  Index rank = 1;
  double cum = 0.0;
  for (std::size_t i = 0; i < spectrum.size(); ++i) {
    cum += std::max(spectrum[i], 0.0);
    rank = static_cast<Index>(i + 1);
    if (total <= 0.0 || cum >= energy_threshold * total) break;
  }
  if (max_rank > 0) rank = std::min(rank, max_rank);

  // Retained energy at the final (possibly capped) rank.
  double kept = 0.0;
  for (Index i = 0; i < rank; ++i) {
    kept += std::max(spectrum[static_cast<std::size_t>(i)], 0.0);
  }
  const std::size_t m = static_cast<std::size_t>(mode);
  out->ranks[m] = rank;
  out->spectra[m] = std::move(spectrum);
  out->retained_energy[m] = total > 0.0 ? kept / total : 1.0;
}

Result<RankSuggestion> SuggestRanks(const Tensor& x, double energy_threshold,
                                    Index max_rank) {
  if (energy_threshold <= 0.0 || energy_threshold > 1.0) {
    return Status::InvalidArgument("energy_threshold must be in (0, 1]");
  }
  if (x.order() < 1 || x.size() == 0) {
    return Status::InvalidArgument("empty tensor");
  }

  RankSuggestion out;
  out.ranks.resize(static_cast<std::size_t>(x.order()));
  out.spectra.resize(static_cast<std::size_t>(x.order()));
  out.retained_energy.resize(static_cast<std::size_t>(x.order()));
  for (Index n = 0; n < x.order(); ++n) {
    // Full spectrum needed.
    PickRankFromSpectrum(EigenSymFast(ModeGram(x, n)).values, energy_threshold,
                         max_rank, n, &out);
  }
  return out;
}

}  // namespace dtucker
