// Tensor input validation: finiteness checks and the largest entry.
#ifndef DTUCKER_TENSOR_TENSOR_UTILS_H_
#define DTUCKER_TENSOR_TENSOR_UTILS_H_

#include "common/status.h"
#include "tensor/tensor.h"

namespace dtucker {

// True if any entry is NaN or infinite.
bool ContainsNonFinite(const Tensor& x);

// InvalidArgument when the tensor has NaN/Inf entries; used by solvers
// when TuckerOptions::validate_input is set.
Status ValidateFinite(const Tensor& x);

// Largest absolute entry.
double MaxAbs(const Tensor& x);

}  // namespace dtucker

#endif  // DTUCKER_TENSOR_TENSOR_UTILS_H_
