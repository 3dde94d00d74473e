#include "dtucker/out_of_core.h"

#include <algorithm>

#include "data/tensor_file.h"

namespace dtucker {

Result<std::vector<SliceSvd>> ApproximateSliceRangeFromFile(
    const std::string& path, Index first, Index count,
    const SliceApproximationOptions& options) {
  DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
  if (reader.order() < 3) {
    return Status::InvalidArgument(
        "out-of-core approximation requires an order >= 3 tensor");
  }
  const Index min_dim = std::min(reader.dim(0), reader.dim(1));
  if (options.slice_rank <= 0 || options.slice_rank > min_dim) {
    return Status::InvalidArgument("slice_rank must be in [1, min(I1, I2)]");
  }
  if (first < 0 || count < 0 || first + count > reader.NumFrontalSlices()) {
    return Status::OutOfRange("slice range outside the tensor file");
  }
  std::vector<SliceSvd> out(static_cast<std::size_t>(count));
  // A retrying read, so a transient storage fault does not kill a
  // multi-hour streaming pass.
  DT_RETURN_NOT_OK(internal_dtucker::CompressSliceRange(
      [&reader, &options](Index l, double* buffer, const double** slice) {
        *slice = buffer;
        return reader.ReadFrontalSlicesWithRetry(l, 1, buffer,
                                                 options.run_context);
      },
      reader.dim(0), reader.dim(1), first, count, options, out.data()));
  return out;
}

}  // namespace dtucker
