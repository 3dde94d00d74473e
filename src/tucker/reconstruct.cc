#include "tucker/reconstruct.h"

#include <string>
#include <utility>

#include "linalg/blas.h"
#include "tensor/tensor_ops.h"

namespace dtucker {

namespace {

// Runs the ascending mode-product chain of TuckerDecomposition::
// Reconstruct() with factor n restricted to row rows[n] (>= 0), or kept
// whole (rows[n] == -1). Restriction only drops output elements of each
// mode product; the per-element contraction order is untouched, so every
// surviving element is bitwise identical to the full reconstruction's.
// The products are tiny (one factor row each for an element), so they
// record no span of their own; the query's span covers them.
Tensor ReconstructRestricted(const TuckerDecomposition& dec,
                             const std::vector<Index>& rows) {
  Tensor out = dec.core;
  Tensor next;
  for (Index n = 0; n < dec.order(); ++n) {
    const Matrix& f = dec.factors[static_cast<std::size_t>(n)];
    const Index r = rows[static_cast<std::size_t>(n)];
    ModeProductIntoUntraced(out, r >= 0 ? f.Row(r) : f, n, Trans::kNo,
                            &next);
    std::swap(out, next);
  }
  return out;
}

Status ValidateElementIndex(const TuckerDecomposition& dec,
                            const std::vector<Index>& idx) {
  const Index order = dec.order();
  if (static_cast<Index>(idx.size()) != order) {
    return Status::InvalidArgument("index order mismatch");
  }
  for (Index n = 0; n < order; ++n) {
    const Matrix& f = dec.factors[static_cast<std::size_t>(n)];
    if (idx[static_cast<std::size_t>(n)] < 0 ||
        idx[static_cast<std::size_t>(n)] >= f.rows()) {
      return Status::OutOfRange("index out of range at mode " +
                                std::to_string(n));
    }
  }
  return Status::OK();
}

}  // namespace

Result<double> ReconstructElement(const TuckerDecomposition& dec,
                                  const std::vector<Index>& idx) {
  DT_RETURN_NOT_OK(ValidateElementIndex(dec, idx));
  return ReconstructRestricted(dec, idx).data()[0];
}

Result<std::vector<double>> ReconstructElements(
    const TuckerDecomposition& dec,
    const std::vector<std::vector<Index>>& indices) {
  std::vector<double> values;
  values.reserve(indices.size());
  for (const std::vector<Index>& idx : indices) {
    DT_RETURN_NOT_OK(ValidateElementIndex(dec, idx));
    values.push_back(ReconstructRestricted(dec, idx).data()[0]);
  }
  return values;
}

Result<std::vector<double>> ReconstructFiber(
    const TuckerDecomposition& dec, Index mode,
    const std::vector<Index>& anchor) {
  const Index order = dec.order();
  if (mode < 0 || mode >= order) {
    return Status::InvalidArgument("fiber mode out of range");
  }
  if (static_cast<Index>(anchor.size()) != order) {
    return Status::InvalidArgument("anchor order mismatch");
  }
  std::vector<Index> rows = anchor;
  rows[static_cast<std::size_t>(mode)] = -1;  // Queried mode stays whole.
  for (Index n = 0; n < order; ++n) {
    if (n == mode) continue;
    const Matrix& f = dec.factors[static_cast<std::size_t>(n)];
    if (rows[static_cast<std::size_t>(n)] < 0 ||
        rows[static_cast<std::size_t>(n)] >= f.rows()) {
      return Status::OutOfRange("anchor out of range at mode " +
                                std::to_string(n));
    }
  }
  const Tensor fiber = ReconstructRestricted(dec, rows);
  // Every dim but `mode` is 1, so the flat buffer is the fiber itself.
  return std::vector<double>(fiber.data(), fiber.data() + fiber.size());
}

Result<Matrix> ReconstructFrontalSlice(const TuckerDecomposition& dec,
                                       Index l) {
  const Index order = dec.order();
  if (order < 3) {
    return Status::InvalidArgument("frontal slices need order >= 3");
  }
  Index num_slices = 1;
  for (Index n = 2; n < order; ++n) {
    num_slices *= dec.factors[static_cast<std::size_t>(n)].rows();
  }
  if (l < 0 || l >= num_slices) {
    return Status::OutOfRange("slice index out of range");
  }
  // Decompose l mode-3-fastest (matching Tensor::FrontalSlice) into one
  // selected row per trailing mode; the two leading modes stay whole.
  std::vector<Index> rows(static_cast<std::size_t>(order), -1);
  Index rem = l;
  for (Index n = 2; n < order; ++n) {
    const Matrix& f = dec.factors[static_cast<std::size_t>(n)];
    rows[static_cast<std::size_t>(n)] = rem % f.rows();
    rem /= f.rows();
  }
  const Tensor slice = ReconstructRestricted(dec, rows);
  return slice.Reshaped({slice.dim(0), slice.dim(1)}).FrontalSlice(0);
}

Result<Tensor> ReconstructLastModeRange(const TuckerDecomposition& dec,
                                        Index start, Index len) {
  const Index order = dec.order();
  if (order < 2) {
    return Status::InvalidArgument("need order >= 2");
  }
  const Matrix& last = dec.factors[static_cast<std::size_t>(order - 1)];
  if (start < 0 || len < 0 || start + len > last.rows()) {
    return Status::OutOfRange("last-mode range out of bounds");
  }
  TuckerDecomposition restricted;
  restricted.core = dec.core;
  restricted.factors = dec.factors;
  restricted.factors[static_cast<std::size_t>(order - 1)] =
      last.Block(start, 0, len, last.cols());
  return restricted.Reconstruct();
}

}  // namespace dtucker
