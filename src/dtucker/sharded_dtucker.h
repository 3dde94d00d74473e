// The D-Tucker core: the slice dimension split across ranks.
//
// Every D-Tucker entry point runs here, on one of two layers:
//
//   DTucker, DTuckerFromFile, DTuckerFromApproximation (dtucker.h,
//     out_of_core.h) — one launcher runs R = RanksForThreads(num_threads,
//     L) rank threads of this process over an InProcessGroup.
//   ShardedDTuckerRank* (below) — the per-rank body that each of those
//     threads runs: one call per rank on that rank's communicator. Tests
//     drive it directly to run rank counts and slice splits of their own.
//
// D-Tucker's three phases decompose naturally over the L frontal slices:
//
//   Approximation   — embarrassingly parallel; rank r compresses only its
//                     owned slice range (streaming just that shard when the
//                     tensor lives in a file), so no rank ever touches
//                     tensor data it does not own.
//   Initialization  — A1 and A2 come from a randomized range finder over
//                     the stacked slice factors, whose n x s sketch
//                     products sum per-slice contributions through the
//                     canonical chunk tree. The small projected tensor Z is
//                     assembled by a pure-concatenation all-gather of
//                     per-shard slabs.
//   Iteration       — the mode-1/2 carrier contractions reduce per-chunk
//                     GEMM partials through the same tree. Then Z is
//                     gathered again, and every rank computes the trailing
//                     factors (LeadingModeVectorsViaGram, which picks the
//                     Gram side from the shape) and the core from it,
//                     replicated, with no further communication.
//
// Determinism: every floating-point sum over slices follows the canonical
// chunk grid of comm/sharding.h — fixed chunks, serial accumulation within
// a chunk, one pairwise tree over the chunk partials whichever rank
// computed them (ChunkTreeAllReduce). Everything else is concatenation,
// exact max, or replicated deterministic compute on identical inputs, so
// plain calls, Engine, every thread count and every rank count in [1, L]
// give one bitwise result.
//
// Execution control: each rank polls its own RunContext
// (options.tucker.run_context) locally, but never aborts a collective
// mid-flight. Instead the ranks agree on interruption at fixed sweep and
// mode boundaries by max-reducing their local status codes, so a cancel or
// deadline on any one rank stops every rank at the same boundary with the
// same rolled-back state — all ranks return the last completed sweep.
//
// Threading: in-process ranks share the process-wide BLAS pool; while R > 1
// ranks run, each holds a PoolPartitionLease, so the R ranks split the pool
// instead of oversubscribing it.
#ifndef DTUCKER_DTUCKER_SHARDED_DTUCKER_H_
#define DTUCKER_DTUCKER_SHARDED_DTUCKER_H_

#include <string>

#include "comm/communicator.h"
#include "comm/sharding.h"
#include "common/status.h"
#include "dtucker/dtucker.h"

namespace dtucker {

// Per-rank entry points: one call per rank, `comm` fixes the rank/group
// (one communicator of an InProcessGroup, each on its own thread). Every
// rank must call with identical `options` and tensor/path/approximation;
// each returns the full (identical) decomposition. The caller owns the
// BLAS-pool split between the rank threads.
Result<TuckerDecomposition> ShardedDTuckerRank(const Tensor& x,
                                               const DTuckerOptions& options,
                                               Communicator* comm,
                                               TuckerStats* stats = nullptr);

Result<TuckerDecomposition> ShardedDTuckerRankFromFile(
    const std::string& path, const DTuckerOptions& options, Communicator* comm,
    TuckerStats* stats = nullptr);

// Reads only this rank's slice range of the full approximation `approx`.
Result<TuckerDecomposition> ShardedDTuckerRankFromApproximation(
    const SliceApproximation& approx, const DTuckerOptions& options,
    Communicator* comm, TuckerStats* stats = nullptr);

}  // namespace dtucker

#endif  // DTUCKER_DTUCKER_SHARDED_DTUCKER_H_
