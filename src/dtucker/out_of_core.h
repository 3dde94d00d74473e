// Out-of-core D-Tucker: compress tensors larger than RAM.
//
// The approximation phase only ever needs one frontal slice at a time, so
// a DTNSR001 file can be compressed while holding O(I1 * I2) doubles plus
// the (small) growing slice factors — the strongest form of the paper's
// memory-efficiency claim. The compressed slices are identical
// (bit-for-bit, same seeds) to what the in-memory path produces, and the
// query phase proceeds as usual.
#ifndef DTUCKER_DTUCKER_OUT_OF_CORE_H_
#define DTUCKER_DTUCKER_OUT_OF_CORE_H_

#include <string>

#include "common/status.h"
#include "dtucker/dtucker.h"
#include "dtucker/slice_approximation.h"

namespace dtucker {

// Streams frontal slices [first, first + count) of the file (DTNSR001,
// order >= 3) one at a time and compresses them — the out-of-core
// counterpart of ApproximateSliceRange, through the same per-slice
// compressor (seed schedule, rescale, adaptive truncation), so the result
// is bit-identical to the in-memory path's. DTuckerFromFile calls it once
// per chunk of the slice grid, each call with a reader of its own. Peak
// resident tensor data: one slice per call. count == 0 is legal and
// returns an empty vector after validating the header.
Result<std::vector<SliceSvd>> ApproximateSliceRangeFromFile(
    const std::string& path, Index first, Index count,
    const SliceApproximationOptions& options);

// Full out-of-core D-Tucker: min(num_threads, C) threads stream-compress
// the file one chunk of slices at a time (dtucker.h), then the
// initialization and iteration phases run on the compressed slices. The
// raw tensor never resides in memory.
Result<TuckerDecomposition> DTuckerFromFile(const std::string& path,
                                            const DTuckerOptions& options,
                                            TuckerStats* stats = nullptr);

}  // namespace dtucker

#endif  // DTUCKER_DTUCKER_OUT_OF_CORE_H_
