#include "tensor/tensor_utils.h"

#include <cmath>
#include <cstring>

#include "linalg/blas.h"

namespace dtucker {

Result<Tensor> SubTensor(const Tensor& x, Index mode, Index start,
                         Index len) {
  if (mode < 0 || mode >= x.order()) {
    return Status::InvalidArgument("mode out of range");
  }
  if (start < 0 || len < 0 || start + len > x.dim(mode)) {
    return Status::OutOfRange("sub-tensor range out of bounds");
  }
  std::vector<Index> new_shape = x.shape();
  new_shape[static_cast<std::size_t>(mode)] = len;
  Tensor out(new_shape);

  // Treat the tensor as (front, dim, back): copy `len` contiguous
  // front-sized panels from each back-slab.
  Index front = 1;
  for (Index k = 0; k < mode; ++k) front *= x.dim(k);
  Index back = 1;
  for (Index k = mode + 1; k < x.order(); ++k) back *= x.dim(k);
  const std::size_t src_slab = static_cast<std::size_t>(front * x.dim(mode));
  const std::size_t dst_slab = static_cast<std::size_t>(front * len);
  const std::size_t copy_bytes = dst_slab * sizeof(double);
  for (Index b = 0; b < back; ++b) {
    std::memcpy(out.data() + static_cast<std::size_t>(b) * dst_slab,
                x.data() + static_cast<std::size_t>(b) * src_slab +
                    static_cast<std::size_t>(start * front),
                copy_bytes);
  }
  return out;
}

Result<Tensor> Concatenate(const Tensor& a, const Tensor& b, Index mode) {
  if (a.order() != b.order()) {
    return Status::InvalidArgument("order mismatch in Concatenate");
  }
  if (mode < 0 || mode >= a.order()) {
    return Status::InvalidArgument("mode out of range");
  }
  for (Index k = 0; k < a.order(); ++k) {
    if (k != mode && a.dim(k) != b.dim(k)) {
      return Status::InvalidArgument(
          "shapes must agree on all modes but the concatenation mode");
    }
  }
  std::vector<Index> new_shape = a.shape();
  new_shape[static_cast<std::size_t>(mode)] = a.dim(mode) + b.dim(mode);
  Tensor out(new_shape);

  Index front = 1;
  for (Index k = 0; k < mode; ++k) front *= a.dim(k);
  Index back = 1;
  for (Index k = mode + 1; k < a.order(); ++k) back *= a.dim(k);
  const std::size_t a_slab = static_cast<std::size_t>(front * a.dim(mode));
  const std::size_t b_slab = static_cast<std::size_t>(front * b.dim(mode));
  const std::size_t out_slab = a_slab + b_slab;
  for (Index s = 0; s < back; ++s) {
    std::memcpy(out.data() + static_cast<std::size_t>(s) * out_slab,
                a.data() + static_cast<std::size_t>(s) * a_slab,
                a_slab * sizeof(double));
    std::memcpy(out.data() + static_cast<std::size_t>(s) * out_slab + a_slab,
                b.data() + static_cast<std::size_t>(s) * b_slab,
                b_slab * sizeof(double));
  }
  return out;
}

Result<Tensor> HadamardProduct(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    return Status::InvalidArgument("shape mismatch in HadamardProduct");
  }
  Tensor out = a;
  double* od = out.data();
  const double* bd = b.data();
  for (Index i = 0; i < out.size(); ++i) od[i] *= bd[i];
  return out;
}

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
