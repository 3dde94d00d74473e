#include "tensor/tensor_utils.h"

#include <cmath>

#include "linalg/blas.h"

namespace dtucker {

bool ContainsNonFinite(const Tensor& x) {
  const double* d = x.data();
  for (Index i = 0; i < x.size(); ++i) {
    if (!std::isfinite(d[i])) return true;
  }
  return false;
}

Status ValidateFinite(const Tensor& x) {
  if (ContainsNonFinite(x)) {
    return Status::InvalidArgument("tensor contains NaN or Inf entries");
  }
  return Status::OK();
}

double MaxAbs(const Tensor& x) { return MaxAbs(x.data(), x.size()); }

}  // namespace dtucker
