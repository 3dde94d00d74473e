// Out-of-core D-Tucker: compress tensors larger than RAM.
//
// The approximation phase only ever needs one frontal slice at a time, so
// a DTNSR001 file can be compressed while holding O(I1 * I2) doubles plus
// the (small) growing slice factors — the strongest form of the paper's
// memory-efficiency claim. The resulting SliceApproximation is identical
// (bit-for-bit, same seeds) to what the in-memory path produces, and the
// query phase proceeds as usual.
#ifndef DTUCKER_DTUCKER_OUT_OF_CORE_H_
#define DTUCKER_DTUCKER_OUT_OF_CORE_H_

#include <string>

#include "common/status.h"
#include "dtucker/dtucker.h"
#include "dtucker/slice_approximation.h"

namespace dtucker {

// Streams the tensor in `path` (DTNSR001, order >= 3) slice by slice and
// compresses it, one slice range per thread (options.num_threads). Peak
// resident tensor data: one slice per thread.
Result<SliceApproximation> ApproximateSlicesFromFile(
    const std::string& path, const SliceApproximationOptions& options);

// Compresses only frontal slices [first, first + count) of the file — the
// out-of-core counterpart of ApproximateSliceRange, and the building block
// of the sharded solver (dtucker/sharded_dtucker.h): a rank streams and
// compresses exactly its shard, so no process ever touches tensor data it
// does not own. Seeds follow the same global per-slice schedule, so the
// concatenation of every shard's output is bit-identical to a whole-file
// (or in-memory) pass. count == 0 is legal (degenerate shard) and returns
// an empty vector after validating the header.
Result<std::vector<SliceSvd>> ApproximateSliceRangeFromFile(
    const std::string& path, Index first, Index count,
    const SliceApproximationOptions& options);

// Full out-of-core D-Tucker: options.num_threads in-process ranks each
// stream-compress their own slice range, then run the initialization and
// iteration phases on it (ShardedDTuckerFromFile). The raw tensor never
// resides in memory.
Result<TuckerDecomposition> DTuckerFromFile(const std::string& path,
                                            const DTuckerOptions& options,
                                            TuckerStats* stats = nullptr);

}  // namespace dtucker

#endif  // DTUCKER_DTUCKER_OUT_OF_CORE_H_
